/**
 * @file
 * Stochastic gradient boosting of regression trees (Friedman 2002;
 * paper Section 4.3). With least-squares loss each stage fits a small
 * tree to the current residuals and is added with shrinkage.
 *
 * The outputs are pinned bit for bit (predictions, spreads and
 * importances reach MCT's decision and its provenance records), and
 * std::sort's order among tied values is part of them. Each split
 * search sorts a node's rows by one feature at a time, and its
 * prefix sums add the residuals in that sorted order, so the order of
 * rows with equal feature values fixes the last bits of every gain
 * and, among near-equal gains, which split wins. Ties are the rule
 * here: on/off flags, four thresholds, seven latencies and two quota
 * columns that are constant in the learning space. std::sort is not
 * stable, so its tie order follows from its input order, which is
 * the previous feature's sorted order (the node's own row order for
 * the first feature), and a child's rows keep their parent's order.
 * A stable sort, a presorted or counting sort, or children handed
 * their rows in sorted order would each change the outputs;
 * tests/test_gbt_lockstep.cc holds them to a frozen copy.
 */

#ifndef MCT_ML_GRADIENT_BOOSTING_HH
#define MCT_ML_GRADIENT_BOOSTING_HH

#include <cstdint>
#include <vector>

#include "ml/linalg.hh"
#include "ml/regression_tree.hh"

namespace mct::ml
{

/** Boosting hyperparameters. */
struct BoostParams
{
    unsigned nTrees = 120;
    double shrinkage = 0.1;
    double subsample = 0.8;
    TreeParams tree{3, 2};
    std::uint64_t seed = 7;
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

    /**
     * Every row's prediction and its staged-estimate uncertainty,
     * from one walk of the stages per row. The spread is the standard
     * deviation of the staged predictions F_m(x) over the final
     * quarter of the boosting stages (at least two; 0 with fewer than
     * two stages). A converged ensemble barely moves late in the
     * sequence, so a large spread flags a sample whose prediction is
     * still churning — a cheap, deterministic confidence proxy.
     */
    struct Staged
    {
        Vector values;
        Vector spread;
    };
    Staged predictStaged(const Matrix &x) const;

    /** predictStaged's values alone. */
    Vector predictAll(const Matrix &x) const;
    double predict(const Vector &x) const;

    /** Trees actually grown. */
    std::size_t size() const { return trees.size(); }

    /**
     * Split-gain feature importances: per-feature squared-error
     * reduction summed over every split of every stage, normalized to
     * sum to 1 (all zeros when no stage ever split).
     */
    Vector featureImportance() const;

  private:
    BoostParams p;
    double base = 0.0;
    std::vector<RegressionTree> trees;

    /** One row's prediction; its spread goes to @p spread. */
    double stage(const double *row, double &spread) const;
};

} // namespace mct::ml

#endif // MCT_ML_GRADIENT_BOOSTING_HH
