/**
 * @file
 * CART-style least-squares regression tree: the weak learner inside
 * gradient boosting. Exact split search over every feature value is
 * affordable at MCT's sample counts (tens to hundreds of samples).
 */

#ifndef MCT_ML_REGRESSION_TREE_HH
#define MCT_ML_REGRESSION_TREE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/linalg.hh"

namespace mct::ml
{

/** Tree hyperparameters. */
struct TreeParams
{
    unsigned maxDepth = 3;
    unsigned minSamplesLeaf = 2;
};

/**
 * Binary regression tree with axis-aligned splits.
 */
class RegressionTree
{
  public:
    /**
     * The buffers one fit's split searches and partitions reuse. A
     * caller fitting many trees (a boosting run) passes the same one
     * to each fit, so no tree keeps them.
     */
    struct Scratch
    {
        /** One row's value of the feature being sorted, and the row. */
        struct Key
        {
            double value;
            std::size_t row;
        };

        /**
         * The rows to fit on, in the order the root's first sort
         * starts from; fit reorders them as it partitions.
         */
        std::vector<std::size_t> rows;
        std::vector<std::size_t> right;
        std::vector<Key> keys;
    };

    explicit RegressionTree(const TreeParams &params = {}) : p(params) {}

    /** Fit on the subset of rows given by @p idx (all rows if empty). */
    void fit(const Matrix &x, const Vector &y,
             const std::vector<std::size_t> &idx = {});

    /** Fit on the rows listed in @p s.rows, reusing @p s's buffers. */
    void fit(const Matrix &x, const Vector &y, Scratch &s);

    double predict(const Vector &x) const { return predictRow(x.data()); }

    /**
     * predict for a row read in place (one value per feature). Every
     * walk takes the tree's full height in steps, a leaf stepping to
     * itself, so the row's values choose loads but never branches.
     */
    double
    predictRow(const double *row) const
    {
        if (nodes.empty())
            predictBeforeFit();
        const Node *n = nodes.data();
        std::size_t cur = 0;
        for (unsigned d = 0; d < height; ++d)
            cur = n[cur].child[!(row[n[cur].feature] <= n[cur].threshold)];
        return n[cur].value;
    }

    Vector predictAll(const Matrix &x) const;

    /** Number of nodes (diagnostics). */
    std::size_t nodeCount() const { return nodes.size(); }

    /**
     * Per-feature squared-error reduction accumulated over every
     * split of the last fit (length: feature count). The classic
     * split-gain importance; all zeros for a stump.
     */
    const Vector &splitGains() const { return gains; }

  private:
    /** Rows with x[feature] <= threshold go to child[0], the rest
     *  (NaN included) to child[1]; a leaf's children are itself. */
    struct Node
    {
        double threshold = 0.0;
        double value = 0.0;
        std::uint32_t feature = 0;
        std::uint32_t child[2] = {0, 0};
    };

    TreeParams p;
    std::vector<Node> nodes;
    /** Depth of the deepest leaf. */
    unsigned height = 0;
    Vector gains;

    [[noreturn]] static void predictBeforeFit();

    /** Grow the subtree over s.rows[lo, hi); returns its root. */
    std::uint32_t build(const Matrix &x, const Vector &y, Scratch &s,
                        std::size_t lo, std::size_t hi, unsigned depth);
};

} // namespace mct::ml

#endif // MCT_ML_REGRESSION_TREE_HH
