/**
 * @file
 * Lockstep differential test of the gradient-boosted ensemble and its
 * regression trees. The production models and the frozen plain copies
 * in tests/ref are fitted on the same data, and every prediction,
 * staged spread and split-gain importance must hold the same bits
 * (memcmp, so NaNs and signed zeros count). The fits cover sample
 * counts on both sides of std::sort's 16-element insertion-sort
 * cutoff, discrete inputs drawn from the configuration space (with
 * its constant quota columns), continuous inputs, constant and NaN
 * targets, and every tree shape and subsample rate MCT could use;
 * MCT's own path, predictAllConfigsDetailed, is held to a reference
 * rebuilt from the frozen copy.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "mct/config.hh"
#include "mct/config_space.hh"
#include "mct/predictors.hh"
#include "mct/samplers.hh"
#include "ml/gradient_boosting.hh"
#include "ml/regression_tree.hh"
#include "ref/ref_gbt.hh"

namespace mct
{
namespace
{

using ml::Matrix;
using ml::Vector;

/** Empty when @p got and @p want hold the same bits, else the first
 *  difference. */
std::string
bitDiff(const Vector &got, const Vector &want)
{
    std::ostringstream os;
    if (got.size() != want.size()) {
        os << "size: production " << got.size() << ", reference "
           << want.size();
        return os.str();
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
            os << "index " << i << ": production " << std::hexfloat
               << got[i] << ", reference " << want[i];
            return os.str();
        }
    }
    return {};
}

using Staged = ml::GradientBoosting::Staged;

/** The reference's two passes, as one production pass returns them. */
Staged
referencePass(const ref::GradientBoosting &model, const Matrix &x)
{
    return {model.predictAll(x), model.stagedSpreadAll(x)};
}

enum class Inputs
{
    Discrete,   ///< rows of the learning space's design matrix
    Continuous, ///< uniform features, smooth target
    ConstantY,  ///< discrete rows, one target value
    NanY,       ///< discrete rows, one NaN target
};

const char *
inputsName(Inputs k)
{
    switch (k) {
      case Inputs::Discrete:
        return "discrete";
      case Inputs::Continuous:
        return "continuous";
      case Inputs::ConstantY:
        return "constant y";
      case Inputs::NanY:
        return "NaN in y";
    }
    return "?";
}

/** n training rows of kind @p k and their targets. */
void
makeData(Inputs k, std::size_t n, Rng &rng, const Matrix &space,
         Matrix &x, Vector &y)
{
    x = Matrix(n, configDims);
    y.assign(n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
        if (k == Inputs::Continuous) {
            for (std::size_t c = 0; c < configDims; ++c)
                x(r, c) = rng.uniform(-1.0, 1.0);
            y[r] = std::sin(3.0 * x(r, 0)) + x(r, 1) * x(r, 2) +
                   0.05 * rng.uniform(-1.0, 1.0);
            continue;
        }
        // Drawn with replacement: repeated rows tie on every feature.
        const std::size_t s = rng.below(space.rows());
        for (std::size_t c = 0; c < configDims; ++c)
            x(r, c) = space(s, c);
        // Quantized, so targets tie too.
        y[r] = std::round(8.0 * (2.0 - 0.3 * x(r, 6) - 0.1 * x(r, 7) +
                                 0.2 * x(r, 0) + 0.05 * x(r, 3) +
                                 0.1 * rng.uniform())) /
               8.0;
    }
    if (k == Inputs::ConstantY)
        y.assign(n, 2.5);
    if (k == Inputs::NanY)
        y[rng.below(n)] = std::numeric_limits<double>::quiet_NaN();
}

TEST(GbtLockstep, EnsembleMatchesReference)
{
    const Matrix learning = encodeSpace(enumerateNoQuotaSpace());
    const Matrix probe = encodeSpace(enumerateSpace());
    const std::size_t ns[] = {1, 2, 3, 5, 16, 17, 33, 61, 77, 120, 200};
    const Inputs kinds[] = {Inputs::Discrete, Inputs::Continuous,
                            Inputs::ConstantY, Inputs::NanY};
    const unsigned nTrees[] = {0, 1, 2, 3, 120};
    const double subsamples[] = {0.5, 0.8, 1.0};

    Rng rng(2024);
    std::size_t cases = 0, split = 0;
    for (std::size_t n : ns) {
        for (Inputs kind : kinds) {
            for (unsigned t : nTrees) {
                // Every (depth, minSamplesLeaf, subsample) triple comes
                // round three times over the 220 cases.
                const std::size_t c = cases++;
                ml::BoostParams bp;
                bp.nTrees = t;
                bp.tree.maxDepth = static_cast<unsigned>(c % 6);
                bp.tree.minSamplesLeaf =
                    1 + static_cast<unsigned>((c / 6) % 4);
                bp.subsample = subsamples[(c / 24) % 3];
                bp.seed = rng.next();

                Matrix x;
                Vector y;
                makeData(kind, n, rng, learning, x, y);

                std::ostringstream where;
                where << "n " << n << ", " << inputsName(kind)
                      << ", nTrees " << t << ", subsample "
                      << bp.subsample << ", depth " << bp.tree.maxDepth
                      << ", minSamplesLeaf " << bp.tree.minSamplesLeaf;
                SCOPED_TRACE(where.str());

                ml::GradientBoosting prod(bp);
                ref::GradientBoosting want(bp);
                prod.fit(x, y);
                want.fit(x, y);
                ASSERT_EQ(prod.size(), want.size());

                const Vector imp = prod.featureImportance();
                std::string d = bitDiff(imp, want.featureImportance());
                ASSERT_TRUE(d.empty()) << "featureImportance: " << d;
                for (double v : imp)
                    split += v > 0.0;

                const Matrix *rowSets[] = {&x, &probe};
                for (const Matrix *m : rowSets) {
                    const char *rows = m == &x ? "training" : "probe";
                    const Staged got = prod.predictStaged(*m);
                    const Staged ref = referencePass(want, *m);
                    d = bitDiff(got.values, ref.values);
                    ASSERT_TRUE(d.empty())
                        << rows << " predictions: " << d;
                    d = bitDiff(got.spread, ref.spread);
                    ASSERT_TRUE(d.empty()) << rows << " spreads: " << d;
                }
                const Vector row(x.row(0), x.row(0) + x.cols());
                d = bitDiff({prod.predict(row)}, {want.predict(row)});
                ASSERT_TRUE(d.empty()) << "predict(row 0): " << d;
            }
        }
    }
    EXPECT_EQ(cases, 220u);
    // The fits must actually split, or the sort order is never read.
    EXPECT_GT(split, 100u);
}

TEST(GbtLockstep, TreeOnRowSubsetsMatchesReference)
{
    const Matrix learning = encodeSpace(enumerateNoQuotaSpace());
    const Matrix probe = encodeSpace(enumerateSpace());
    Rng rng(77);
    for (std::size_t n : {1, 2, 5, 16, 17, 40, 77, 200}) {
        for (unsigned depth = 0; depth <= 5; ++depth) {
            const ml::TreeParams tp{depth,
                                    1 + static_cast<unsigned>(n % 4)};
            Matrix x;
            Vector y;
            makeData(n % 2 ? Inputs::Discrete : Inputs::Continuous, n,
                     rng, learning, x, y);
            // A shuffled subset, as a boosting stage hands over.
            std::vector<std::size_t> idx;
            for (std::size_t i = 0; i < n; ++i)
                if (rng.below(4) != 0)
                    idx.push_back(i);
            for (std::size_t i = idx.size(); i > 1; --i)
                std::swap(idx[i - 1], idx[rng.below(i)]);

            std::ostringstream where;
            where << "n " << n << ", depth " << depth << ", "
                  << idx.size() << " rows";
            SCOPED_TRACE(where.str());

            ml::RegressionTree prod(tp);
            ref::RegressionTree want(tp);
            prod.fit(x, y, idx);
            want.fit(x, y, idx);
            ASSERT_EQ(prod.nodeCount(), want.nodeCount());
            std::string d = bitDiff(prod.splitGains(), want.splitGains());
            ASSERT_TRUE(d.empty()) << "splitGains: " << d;
            d = bitDiff(prod.predictAll(probe), want.predictAll(probe));
            ASSERT_TRUE(d.empty()) << "probe predictions: " << d;
        }
    }
}

/** A synthetic objective over the configuration vector: one of three
 *  shapes, with seeded noise. */
double
objective(int which, const Vector &v, Rng &rng)
{
    const double noise = 0.02 * rng.uniform(-1.0, 1.0);
    switch (which) {
      case 0: // IPC-like: slower writes cost, bank awareness helps
        return 1.2 - 0.08 * v[6] - 0.04 * v[7] + 0.05 * v[0] -
               0.01 * v[1] + 0.03 * v[8] + noise;
      case 1: // lifetime-like: grows steeply with write latency
        return std::exp(0.6 * v[7] + 0.3 * v[6]) * (1.0 + noise) +
               0.5 * v[2];
      default: // energy-like: interactions between the mechanisms
        return 3.0 + 0.2 * v[6] * v[8] - 0.1 * v[2] * v[3] / 32.0 +
               0.15 * v[7] * v[9] + noise;
    }
}

TEST(GbtLockstep, PredictAllConfigsDetailedMatchesReference)
{
    const std::vector<MellowConfig> space = enumerateNoQuotaSpace();
    const Matrix xAll = encodeSpace(space);
    for (std::uint64_t seed : {1, 2, 3}) {
        for (int which = 0; which < 3; ++which) {
            TrainData data;
            data.space = &space;
            data.sampleIdx =
                indicesInSpace(space, featureBasedSamples(seed));
            Rng noise(seed * 10 + static_cast<std::uint64_t>(which));
            for (std::size_t i : data.sampleIdx)
                data.sampleY.push_back(
                    objective(which, configToVector(space[i]), noise));
            SCOPED_TRACE("seed " + std::to_string(seed) +
                         ", objective " + std::to_string(which));

            const Prediction got = predictAllConfigsDetailed(
                PredictorKind::GradientBoosting, data);

            Matrix xs(data.sampleIdx.size(), xAll.cols());
            for (std::size_t r = 0; r < data.sampleIdx.size(); ++r)
                for (std::size_t c = 0; c < xAll.cols(); ++c)
                    xs(r, c) = xAll(data.sampleIdx[r], c);
            ref::GradientBoosting want;
            want.fit(xs, data.sampleY);
            Vector attribution = want.featureImportance();
            if (attribution.size() < configDims)
                attribution.resize(configDims, 0.0);

            EXPECT_EQ(got.model, "gradient boosting");
            std::string d = bitDiff(got.values, want.predictAll(xAll));
            ASSERT_TRUE(d.empty()) << "values: " << d;
            d = bitDiff(got.uncertainty, want.stagedSpreadAll(xAll));
            ASSERT_TRUE(d.empty()) << "uncertainty: " << d;
            d = bitDiff(got.attribution, attribution);
            ASSERT_TRUE(d.empty()) << "attribution: " << d;
        }
    }
}

} // namespace
} // namespace mct
