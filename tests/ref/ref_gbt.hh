/**
 * @file
 * A frozen copy of the regression tree and the gradient-boosted
 * ensemble as they stood before fit and prediction were made
 * allocation-free: every prediction copies its row into a Vector,
 * values and staged spreads take two separate passes, and the split
 * search sorts an index array compared through the matrix. Test-only.
 * The lockstep differential test drives it beside the production
 * models and requires every prediction, spread and importance to agree
 * bit for bit.
 *
 * Only the namespace differs from that version; the tree and boosting
 * parameters and the matrix types are the production ones. Do not
 * optimize this file: its value is that it stays the plain version.
 */

#ifndef MCT_TESTS_REF_REF_GBT_HH
#define MCT_TESTS_REF_REF_GBT_HH

#include <cstddef>
#include <vector>

#include "ml/gradient_boosting.hh"
#include "ml/linalg.hh"
#include "ml/regression_tree.hh"

namespace mct::ref
{

using ml::BoostParams;
using ml::Matrix;
using ml::TreeParams;
using ml::Vector;

/**
 * Binary regression tree with axis-aligned splits.
 */
class RegressionTree
{
  public:
    explicit RegressionTree(const TreeParams &params = {}) : p(params) {}

    /** Fit on the subset of rows given by @p idx (all rows if empty). */
    void fit(const Matrix &x, const Vector &y,
             const std::vector<std::size_t> &idx = {});

    double predict(const Vector &x) const;
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
    struct Node
    {
        bool leaf = true;
        double value = 0.0;
        std::size_t feature = 0;
        double threshold = 0.0;
        int left = -1;
        int right = -1;
    };

    TreeParams p;
    std::vector<Node> nodes;
    Vector gains;

    int build(const Matrix &x, const Vector &y,
              std::vector<std::size_t> &idx, unsigned depth);
};

/**
 * Gradient-boosted regression-tree ensemble.
 */
class GradientBoosting
{
  public:
    explicit GradientBoosting(const BoostParams &params = {})
        : p(params)
    {}

    void fit(const Matrix &x, const Vector &y);

    double predict(const Vector &x) const;
    Vector predictAll(const Matrix &x) const;

    /** Trees actually grown. */
    std::size_t size() const { return trees.size(); }

    /**
     * Split-gain feature importances: per-feature squared-error
     * reduction summed over every split of every stage, normalized to
     * sum to 1 (all zeros when no stage ever split).
     */
    Vector featureImportance() const;

    /**
     * Staged-estimate uncertainty for one sample: the standard
     * deviation of the staged predictions F_m(x) over the final
     * quarter of the boosting stages.
     */
    double stagedSpread(const Vector &x) const;

    /** stagedSpread for every row of @p x. */
    Vector stagedSpreadAll(const Matrix &x) const;

  private:
    BoostParams p;
    double base = 0.0;
    std::vector<RegressionTree> trees;
};

} // namespace mct::ref

#endif // MCT_TESTS_REF_REF_GBT_HH
