#include "ml/gradient_boosting.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"
#include "common/rng.hh"

namespace mct::ml
{

void
GradientBoosting::fit(const Matrix &x, const Vector &y)
{
    const std::size_t n = x.rows();
    if (n == 0 || y.size() != n)
        mct_fatal("GradientBoosting::fit: bad shapes");
    trees.clear();
    trees.reserve(p.nTrees);

    base = 0.0;
    for (double v : y)
        base += v;
    base /= static_cast<double>(n);

    Vector residual(n);
    Vector current(n, base);
    Rng rng(p.seed);

    const std::size_t sampleN = std::max<std::size_t>(
        2, static_cast<std::size_t>(p.subsample *
                                    static_cast<double>(n)));
    std::vector<std::size_t> pool(n);
    std::iota(pool.begin(), pool.end(), 0);
    RegressionTree::Scratch scratch;

    for (unsigned m = 0; m < p.nTrees; ++m) {
        for (std::size_t i = 0; i < n; ++i)
            residual[i] = y[i] - current[i];

        // Stochastic subsample (Friedman 2002) decorrelates stages.
        if (sampleN < n) {
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t j =
                    i + static_cast<std::size_t>(rng.below(n - i));
                std::swap(pool[i], pool[j]);
            }
            scratch.rows.assign(pool.begin(),
                                pool.begin() + static_cast<long>(sampleN));
        } else {
            scratch.rows.resize(n);
            std::iota(scratch.rows.begin(), scratch.rows.end(), 0);
        }

        RegressionTree &tree = trees.emplace_back(p.tree);
        tree.fit(x, residual, scratch);

        for (std::size_t i = 0; i < n; ++i)
            current[i] += p.shrinkage * tree.predictRow(x.row(i));
    }
}

double
GradientBoosting::stage(const double *row, double &spread) const
{
    // The spread covers the last quarter of the stages, at least two;
    // fewer than two stages have none.
    const std::size_t m = trees.size();
    const bool spreads = m >= 2;
    const std::size_t tail = std::max<std::size_t>(2, m / 4);
    const std::size_t first = spreads ? m - tail : m;
    double acc = base;
    for (std::size_t i = 0; i < first; ++i)
        acc += p.shrinkage * trees[i].predictRow(row);
    double sum = 0.0, sumSq = 0.0;
    for (std::size_t i = first; i < m; ++i) {
        acc += p.shrinkage * trees[i].predictRow(row);
        sum += acc;
        sumSq += acc * acc;
    }
    spread = 0.0;
    if (spreads) {
        const auto n = static_cast<double>(tail);
        const double var = sumSq / n - (sum / n) * (sum / n);
        if (var > 0.0)
            spread = std::sqrt(var);
    }
    return acc;
}

GradientBoosting::Staged
GradientBoosting::predictStaged(const Matrix &x) const
{
    Staged out{Vector(x.rows()), Vector(x.rows())};
    for (std::size_t r = 0; r < x.rows(); ++r)
        out.values[r] = stage(x.row(r), out.spread[r]);
    return out;
}

Vector
GradientBoosting::predictAll(const Matrix &x) const
{
    return predictStaged(x).values;
}

double
GradientBoosting::predict(const Vector &x) const
{
    double spread = 0.0;
    return stage(x.data(), spread);
}

Vector
GradientBoosting::featureImportance() const
{
    if (trees.empty())
        return {};
    Vector imp(trees.front().splitGains().size(), 0.0);
    for (const auto &tree : trees) {
        const Vector &g = tree.splitGains();
        for (std::size_t f = 0; f < imp.size() && f < g.size(); ++f)
            imp[f] += g[f];
    }
    double sum = 0.0;
    for (double v : imp)
        sum += v;
    if (sum > 0.0)
        for (double &v : imp)
            v /= sum;
    return imp;
}

} // namespace mct::ml
