#include "ml/regression_tree.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace mct::ml
{

void
RegressionTree::fit(const Matrix &x, const Vector &y,
                    const std::vector<std::size_t> &idx)
{
    Scratch s;
    s.rows = idx;
    if (s.rows.empty()) {
        s.rows.resize(x.rows());
        std::iota(s.rows.begin(), s.rows.end(), 0);
    }
    fit(x, y, s);
}

void
RegressionTree::fit(const Matrix &x, const Vector &y, Scratch &s)
{
    if (x.rows() == 0 || x.rows() != y.size())
        mct_fatal("RegressionTree::fit: bad shapes");
    nodes.clear();
    height = 0;
    gains.assign(x.cols(), 0.0);
    s.right.resize(s.rows.size());
    s.keys.resize(s.rows.size());
    build(x, y, s, 0, s.rows.size(), 0);
}

std::uint32_t
RegressionTree::build(const Matrix &x, const Vector &y, Scratch &s,
                      std::size_t lo, std::size_t hi, unsigned depth)
{
    const auto self = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back(Node{});
    nodes[self].child[0] = nodes[self].child[1] = self;
    height = std::max(height, depth);
    std::size_t *const idx = s.rows.data() + lo;
    const std::size_t count = hi - lo;

    double mean = 0.0;
    for (std::size_t k = 0; k < count; ++k)
        mean += y[idx[k]];
    mean /= static_cast<double>(count);
    nodes[self].value = mean;

    if (depth >= p.maxDepth || count < 2 * p.minSamplesLeaf)
        return self;

    // Exact best split: minimize total squared error, evaluated via
    // prefix sums over each feature's sorted order.
    double bestGain = 1e-12;
    std::size_t bestFeat = 0;
    double bestThresh = 0.0;

    double total = 0.0, totalSq = 0.0;
    for (std::size_t k = 0; k < count; ++k) {
        const double yi = y[idx[k]];
        total += yi;
        totalSq += yi * yi;
    }
    const double sseParent =
        totalSq - total * total / static_cast<double>(count);

    // Each feature's sort starts from the order the previous one left
    // (the first from the node's own), as gradient_boosting.hh says.
    Scratch::Key *const keys = s.keys.data();
    for (std::size_t k = 0; k < count; ++k)
        keys[k].row = idx[k];
    for (std::size_t f = 0; f < x.cols(); ++f) {
        for (std::size_t k = 0; k < count; ++k)
            keys[k].value = x(keys[k].row, f);
        std::sort(keys, keys + count,
                  [](const Scratch::Key &a, const Scratch::Key &b) {
                      return a.value < b.value;
                  });
        double leftSum = 0.0, leftSq = 0.0;
        for (std::size_t k = 0; k + 1 < count; ++k) {
            const double yi = y[keys[k].row];
            leftSum += yi;
            leftSq += yi * yi;
            const std::size_t nl = k + 1;
            const std::size_t nr = count - nl;
            if (nl < p.minSamplesLeaf || nr < p.minSamplesLeaf)
                continue;
            const double xa = keys[k].value;
            const double xb = keys[k + 1].value;
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

    // Stable partition in place: each child keeps its rows in this
    // node's order, which is where its first sort starts.
    std::size_t nl = 0, nr = 0;
    for (std::size_t k = 0; k < count; ++k) {
        const std::size_t i = idx[k];
        if (x(i, bestFeat) <= bestThresh)
            idx[nl++] = i;
        else
            s.right[nr++] = i;
    }
    if (nl == 0 || nr == 0)
        return self;
    std::copy(s.right.begin(), s.right.begin() + static_cast<long>(nr),
              idx + nl);

    nodes[self].feature = static_cast<std::uint32_t>(bestFeat);
    nodes[self].threshold = bestThresh;
    gains[bestFeat] += bestGain;
    const std::uint32_t l = build(x, y, s, lo, lo + nl, depth + 1);
    const std::uint32_t r = build(x, y, s, lo + nl, hi, depth + 1);
    nodes[self].child[0] = l;
    nodes[self].child[1] = r;
    return self;
}

void
RegressionTree::predictBeforeFit()
{
    mct_fatal("RegressionTree::predict before fit");
}

Vector
RegressionTree::predictAll(const Matrix &x) const
{
    Vector out(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r)
        out[r] = predictRow(x.row(r));
    return out;
}

} // namespace mct::ml
