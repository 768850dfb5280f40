#include "ref_gbt.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.hh"
#include "common/rng.hh"

namespace mct::ref
{

void
RegressionTree::fit(const Matrix &x, const Vector &y,
                    const std::vector<std::size_t> &idxIn)
{
    if (x.rows() == 0 || x.rows() != y.size())
        mct_fatal("RegressionTree::fit: bad shapes");
    nodes.clear();
    gains.assign(x.cols(), 0.0);
    std::vector<std::size_t> idx = idxIn;
    if (idx.empty()) {
        idx.resize(x.rows());
        std::iota(idx.begin(), idx.end(), 0);
    }
    build(x, y, idx, 0);
}

int
RegressionTree::build(const Matrix &x, const Vector &y,
                      std::vector<std::size_t> &idx, unsigned depth)
{
    const int self = static_cast<int>(nodes.size());
    nodes.push_back(Node{});

    double mean = 0.0;
    for (auto i : idx)
        mean += y[i];
    mean /= static_cast<double>(idx.size());
    nodes[self].value = mean;

    if (depth >= p.maxDepth || idx.size() < 2 * p.minSamplesLeaf)
        return self;

    // Exact best split: minimize total squared error, evaluated via
    // prefix sums over each feature's sorted order.
    double bestGain = 1e-12;
    std::size_t bestFeat = 0;
    double bestThresh = 0.0;

    double total = 0.0, totalSq = 0.0;
    for (auto i : idx) {
        total += y[i];
        totalSq += y[i] * y[i];
    }
    const double sseParent =
        totalSq - total * total / static_cast<double>(idx.size());

    std::vector<std::size_t> order(idx);
    for (std::size_t f = 0; f < x.cols(); ++f) {
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return x(a, f) < x(b, f);
                  });
        double leftSum = 0.0, leftSq = 0.0;
        for (std::size_t k = 0; k + 1 < order.size(); ++k) {
            const double yi = y[order[k]];
            leftSum += yi;
            leftSq += yi * yi;
            const std::size_t nl = k + 1;
            const std::size_t nr = order.size() - nl;
            if (nl < p.minSamplesLeaf || nr < p.minSamplesLeaf)
                continue;
            const double xa = x(order[k], f);
            const double xb = x(order[k + 1], f);
            if (xb <= xa)
                continue; // no separating threshold here
            const double rightSum = total - leftSum;
            const double rightSq = totalSq - leftSq;
            const double sse =
                (leftSq - leftSum * leftSum / static_cast<double>(nl)) +
                (rightSq -
                 rightSum * rightSum / static_cast<double>(nr));
            const double gain = sseParent - sse;
            if (gain > bestGain) {
                bestGain = gain;
                bestFeat = f;
                bestThresh = 0.5 * (xa + xb);
            }
        }
    }

    if (bestGain <= 1e-12)
        return self;

    std::vector<std::size_t> leftIdx, rightIdx;
    for (auto i : idx) {
        if (x(i, bestFeat) <= bestThresh)
            leftIdx.push_back(i);
        else
            rightIdx.push_back(i);
    }
    if (leftIdx.empty() || rightIdx.empty())
        return self;

    nodes[self].leaf = false;
    nodes[self].feature = bestFeat;
    nodes[self].threshold = bestThresh;
    gains[bestFeat] += bestGain;
    const int l = build(x, y, leftIdx, depth + 1);
    const int r = build(x, y, rightIdx, depth + 1);
    nodes[self].left = l;
    nodes[self].right = r;
    return self;
}

double
RegressionTree::predict(const Vector &x) const
{
    if (nodes.empty())
        mct_fatal("RegressionTree::predict before fit");
    int cur = 0;
    while (!nodes[cur].leaf) {
        cur = x[nodes[cur].feature] <= nodes[cur].threshold
                  ? nodes[cur].left
                  : nodes[cur].right;
    }
    return nodes[cur].value;
}

Vector
RegressionTree::predictAll(const Matrix &x) const
{
    Vector out(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        Vector row(x.cols());
        for (std::size_t c = 0; c < x.cols(); ++c)
            row[c] = x(r, c);
        out[r] = predict(row);
    }
    return out;
}

void
GradientBoosting::fit(const Matrix &x, const Vector &y)
{
    const std::size_t n = x.rows();
    if (n == 0 || y.size() != n)
        mct_fatal("GradientBoosting::fit: bad shapes");
    trees.clear();

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

    for (unsigned m = 0; m < p.nTrees; ++m) {
        for (std::size_t i = 0; i < n; ++i)
            residual[i] = y[i] - current[i];

        // Stochastic subsample (Friedman 2002) decorrelates stages.
        std::vector<std::size_t> idx;
        if (sampleN < n) {
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t j =
                    i + static_cast<std::size_t>(rng.below(n - i));
                std::swap(pool[i], pool[j]);
            }
            idx.assign(pool.begin(),
                       pool.begin() + static_cast<long>(sampleN));
        }

        RegressionTree tree(p.tree);
        tree.fit(x, residual, idx);

        for (std::size_t i = 0; i < n; ++i) {
            Vector row(x.cols());
            for (std::size_t c = 0; c < x.cols(); ++c)
                row[c] = x(i, c);
            current[i] += p.shrinkage * tree.predict(row);
        }
        trees.push_back(std::move(tree));
    }
}

double
GradientBoosting::predict(const Vector &x) const
{
    double acc = base;
    for (const auto &tree : trees)
        acc += p.shrinkage * tree.predict(x);
    return acc;
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

double
GradientBoosting::stagedSpread(const Vector &x) const
{
    if (trees.empty())
        return 0.0;
    const std::size_t m = trees.size();
    const std::size_t tail = std::max<std::size_t>(2, m / 4);
    const std::size_t first = m - tail;
    double acc = base;
    double sum = 0.0, sumSq = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        acc += p.shrinkage * trees[i].predict(x);
        if (i >= first) {
            sum += acc;
            sumSq += acc * acc;
        }
    }
    const auto n = static_cast<double>(tail);
    const double var = sumSq / n - (sum / n) * (sum / n);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

Vector
GradientBoosting::stagedSpreadAll(const Matrix &x) const
{
    Vector out(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        Vector row(x.cols());
        for (std::size_t c = 0; c < x.cols(); ++c)
            row[c] = x(r, c);
        out[r] = stagedSpread(row);
    }
    return out;
}

Vector
GradientBoosting::predictAll(const Matrix &x) const
{
    Vector out(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        Vector row(x.cols());
        for (std::size_t c = 0; c < x.cols(); ++c)
            row[c] = x(r, c);
        out[r] = predict(row);
    }
    return out;
}

} // namespace mct::ref
