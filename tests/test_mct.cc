/**
 * @file
 * Unit and property tests for the MCT framework: the Eq. 1 vector
 * encoding, the configuration-space enumeration and its constraints,
 * feature compression, the 77-sample feature-based sampler, the
 * phase detector, the optimizer, and the predictor interface.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "mct/config.hh"
#include "mct/config_space.hh"
#include "mct/feature_compressor.hh"
#include "mct/feature_selection.hh"
#include "mct/optimizer.hh"
#include "mct/phase_detector.hh"
#include "mct/predictors.hh"
#include "mct/samplers.hh"
#include "ml/metrics.hh"
#include "sim/sweep_cache.hh"

namespace mct
{
namespace
{

TEST(ConfigVector, TenDimensions)
{
    EXPECT_EQ(configDims, 10u);
    EXPECT_EQ(configDimNames().size(), 10u);
    EXPECT_EQ(configToVector(defaultConfig()).size(), 10u);
}

TEST(ConfigVector, PaperExampleEncoding)
{
    // Paper Section 4.1.1: [1,1,1,32,0,0,1.5,3.0,0,1] is bank-aware
    // threshold 1, eager threshold 32, fast 1.5x / slow 3.0x, write
    // cancellation on slow writes only.
    MellowConfig cfg;
    cfg.bankAware = true;
    cfg.bankAwareThreshold = 1;
    cfg.eagerWritebacks = true;
    cfg.eagerThreshold = 32;
    cfg.fastLatency = 1.5;
    cfg.slowLatency = 3.0;
    cfg.slowCancellation = true;
    const ml::Vector v = configToVector(cfg);
    const ml::Vector expect = {1, 1, 1, 32, 0, 0, 1.5, 3.0, 0, 1};
    ASSERT_EQ(v.size(), expect.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_DOUBLE_EQ(v[i], expect[i]) << "dim " << i;
}

TEST(ConfigVector, TableRowShapes)
{
    EXPECT_EQ(configTableHeader().size(), 10u);
    EXPECT_EQ(configTableRow(defaultConfig()).size(), 10u);
    EXPECT_EQ(configTableRow(defaultConfig())[1], "N/A");
}

class SpaceRoundTrip : public ::testing::TestWithParam<std::size_t>
{
  protected:
    static const std::vector<MellowConfig> &
    space()
    {
        static const auto s = enumerateSpace();
        return s;
    }
};

TEST_P(SpaceRoundTrip, VectorEncodingRoundTrips)
{
    const MellowConfig &cfg = space()[GetParam() % space().size()];
    ASSERT_TRUE(cfg.valid());
    const MellowConfig back = configFromVector(configToVector(cfg));
    EXPECT_EQ(configKey(back), configKey(cfg));
}

INSTANTIATE_TEST_SUITE_P(SampledConfigs, SpaceRoundTrip,
                         ::testing::Range<std::size_t>(0, 3052, 97));

TEST(ConfigSpace, MagnitudeMatchesPaper)
{
    // Paper: 3,164 configurations; the unpublished discretization
    // means we match the magnitude, not the exact count.
    const auto space = enumerateSpace();
    EXPECT_EQ(space.size(), 3052u);
    EXPECT_NEAR(static_cast<double>(space.size()), 3164.0, 320.0);
    EXPECT_EQ(enumerateNoQuotaSpace().size(), 1526u);
}

TEST(ConfigSpace, AllConfigurationsValidAndUnique)
{
    const auto space = enumerateSpace();
    std::set<std::string> keys;
    for (const auto &cfg : space) {
        EXPECT_TRUE(cfg.valid());
        keys.insert(configKey(cfg));
    }
    EXPECT_EQ(keys.size(), space.size());
}

TEST(ConfigSpace, ConstraintsHold)
{
    for (const auto &cfg : enumerateSpace()) {
        if (cfg.usesSlowWrites()) {
            EXPECT_GT(cfg.slowLatency, cfg.fastLatency);
        }
        if (cfg.fastCancellation && cfg.usesSlowWrites()) {
            EXPECT_TRUE(cfg.slowCancellation);
        }
    }
}

TEST(ConfigSpace, ContainsPaperReferenceConfigs)
{
    const auto space = enumerateSpace();
    auto contains = [&](const MellowConfig &c) {
        const std::string key = configKey(c);
        for (const auto &s : space)
            if (configKey(s) == key)
                return true;
        return false;
    };
    EXPECT_TRUE(contains(defaultConfig()));
    EXPECT_TRUE(contains(staticBaselineConfig()));
}

TEST(ConfigSpace, NoQuotaSubspaceHasNoQuota)
{
    for (const auto &cfg : enumerateNoQuotaSpace())
        EXPECT_FALSE(cfg.wearQuota);
}

TEST(Compressor, FiveFeatures)
{
    EXPECT_EQ(compressedDims, 5u);
    EXPECT_EQ(compressedFeatureNames().size(), 5u);
    EXPECT_EQ(primaryFeatureIndices(),
              (std::vector<std::size_t>{2, 3, 4}));
}

TEST(Compressor, MergesUsageAndAggressiveness)
{
    MellowConfig cfg;
    cfg.bankAware = true;
    cfg.bankAwareThreshold = 3;
    cfg.eagerWritebacks = true;
    cfg.eagerThreshold = 16;
    cfg.fastLatency = 1.5;
    cfg.slowLatency = 2.5;
    cfg.slowCancellation = true;
    const ml::Vector v = compressConfig(cfg);
    EXPECT_DOUBLE_EQ(v[0], 3.0); // bank level
    EXPECT_DOUBLE_EQ(v[1], 3.0); // eager level: 16 -> 3
    EXPECT_DOUBLE_EQ(v[2], 1.5);
    EXPECT_DOUBLE_EQ(v[3], 2.5);
    EXPECT_DOUBLE_EQ(v[4], 1.0); // slow-only cancellation
}

TEST(Compressor, OffTechniquesAreZero)
{
    const ml::Vector v = compressConfig(defaultConfig());
    EXPECT_DOUBLE_EQ(v[0], 0.0);
    EXPECT_DOUBLE_EQ(v[1], 0.0);
    EXPECT_DOUBLE_EQ(v[3], 0.0);
    EXPECT_DOUBLE_EQ(v[4], 0.0);
}

TEST(Compressor, EagerLevelsDistinct)
{
    std::set<double> levels;
    for (int thr : {4, 8, 16, 32}) {
        MellowConfig cfg;
        cfg.eagerWritebacks = true;
        cfg.eagerThreshold = thr;
        cfg.slowLatency = 2.0;
        levels.insert(compressConfig(cfg)[1]);
    }
    EXPECT_EQ(levels.size(), 4u);
    // And all distinct from "off" (level 0).
    EXPECT_EQ(levels.count(0.0), 0u);
}

TEST(Sampler, SeventySevenFeatureBasedSamples)
{
    const auto samples = featureBasedSamples(42);
    EXPECT_EQ(samples.size(), 77u); // paper Section 4.4
    std::set<std::string> keys;
    for (const auto &s : samples) {
        EXPECT_TRUE(s.valid());
        EXPECT_FALSE(s.wearQuota); // excluded from learning
        keys.insert(configKey(s));
    }
    EXPECT_EQ(keys.size(), 77u); // no duplicates
}

TEST(Sampler, SamplesGridThePrimaryFeatures)
{
    const auto samples = featureBasedSamples(1);
    std::set<std::pair<double, double>> latPairs;
    for (const auto &s : samples)
        latPairs.insert({s.fastLatency,
                         s.usesSlowWrites() ? s.slowLatency : 0.0});
    // 21 slow pairs + 7 fast-only = 28 distinct latency points.
    EXPECT_EQ(latPairs.size(), 28u);
}

TEST(Sampler, SamplesLieInsideLearningSpace)
{
    const auto space = enumerateNoQuotaSpace();
    const auto samples = featureBasedSamples(7);
    const auto idx = indicesInSpace(space, samples);
    ASSERT_EQ(idx.size(), samples.size());
    for (std::size_t k = 0; k < idx.size(); ++k)
        EXPECT_EQ(configKey(space[idx[k]]), configKey(samples[k]));
}

TEST(Sampler, IndicesInSpaceMatchALinearScan)
{
    const auto space = enumerateNoQuotaSpace();
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto samples = featureBasedSamples(seed);
        const auto idx = indicesInSpace(space, samples);
        ASSERT_EQ(idx.size(), samples.size());
        for (std::size_t k = 0; k < samples.size(); ++k) {
            std::size_t linear = 0;
            while (configKey(space[linear]) != configKey(samples[k]))
                ++linear;
            EXPECT_EQ(idx[k], linear)
                << "seed " << seed << ", sample " << k;
        }
    }
    // A key listed twice maps to its first index.
    std::vector<MellowConfig> repeated = {space[4], space[9], space[4]};
    EXPECT_EQ(indicesInSpace(repeated, {space[4], space[9]}),
              (std::vector<std::size_t>{0, 1}));
}

TEST(Sampler, RandomSamplesUniqueAndInSpace)
{
    const auto space = enumerateNoQuotaSpace();
    const auto rs = randomSamples(space, 77, 9);
    EXPECT_EQ(rs.size(), 77u);
    std::set<std::string> keys;
    for (const auto &s : rs)
        keys.insert(configKey(s));
    EXPECT_EQ(keys.size(), 77u);
}

TEST(Sampler, DifferentSeedsDifferentSecondaryKnobs)
{
    const auto a = featureBasedSamples(1);
    const auto b = featureBasedSamples(2);
    int differing = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        differing += configKey(a[i]) != configKey(b[i]);
    EXPECT_GT(differing, 10);
}

TEST(PhaseDetector, QuietStreamNoPhases)
{
    PhaseDetector det;
    Rng rng(3);
    for (int i = 0; i < 500; ++i)
        EXPECT_FALSE(det.push(100.0 + rng.gaussian()));
    EXPECT_EQ(det.phasesDetected(), 0u);
}

TEST(PhaseDetector, DetectsDramaticShift)
{
    PhaseDetector det;
    Rng rng(5);
    for (int i = 0; i < 100; ++i)
        det.push(100.0 + rng.gaussian());
    bool detected = false;
    for (int i = 0; i < 30 && !detected; ++i)
        detected = det.push(500.0 + rng.gaussian());
    EXPECT_TRUE(detected);
    EXPECT_EQ(det.phasesDetected(), 1u);
}

TEST(PhaseDetector, ToleratesBurstyNoise)
{
    // Alternating bursts within the recent window should not trip the
    // detector: the windowed means stay comparable.
    PhaseDetectorParams pp;
    PhaseDetector det(pp);
    Rng rng(7);
    std::uint64_t phases = 0;
    for (int i = 0; i < 400; ++i) {
        const double v = (i % 2 == 0) ? 150.0 : 50.0;
        det.push(v + rng.gaussian());
    }
    phases = det.phasesDetected();
    EXPECT_EQ(phases, 0u);
}

TEST(PhaseDetector, HistoryRestartsAfterDetection)
{
    PhaseDetector det;
    Rng rng(9);
    for (int i = 0; i < 100; ++i)
        det.push(100.0 + rng.gaussian());
    for (int i = 0; i < 40; ++i)
        det.push(1000.0 + rng.gaussian());
    ASSERT_GE(det.phasesDetected(), 1u);
    EXPECT_LT(det.windowsInPhase(), 50u);
    // The new level is now normal: no further detections.
    const auto before = det.phasesDetected();
    for (int i = 0; i < 200; ++i)
        det.push(1000.0 + rng.gaussian());
    EXPECT_EQ(det.phasesDetected(), before);
}

TEST(PhaseDetector, ScoreThresholdRespected)
{
    PhaseDetectorParams loose;
    loose.scoreThreshold = 1e9;
    PhaseDetector det(loose);
    Rng rng(11);
    for (int i = 0; i < 100; ++i)
        det.push(10.0 + rng.gaussian());
    for (int i = 0; i < 100; ++i)
        det.push(1000.0 + rng.gaussian());
    EXPECT_EQ(det.phasesDetected(), 0u);
}

Metrics
mk(double ipc, double life, double energy)
{
    return Metrics{ipc, life, energy};
}

TEST(Optimizer, PaperObjectiveSelection)
{
    // Config 1 is fastest but short-lived; config 2 is feasible and
    // fast; config 3 is feasible, within 95% of P*, and cheapest.
    const std::vector<Metrics> pred = {
        mk(1.0, 4.0, 5.0),
        mk(0.8, 9.0, 6.0),
        mk(0.77, 10.0, 4.0),
    };
    const int best = chooseOptimal(pred, LifetimeObjective{8.0, 0.95});
    EXPECT_EQ(best, 2);
}

TEST(Optimizer, IpcFractionGuardsEnergyChoice)
{
    // The cheap config is below 95% of P*: must not be chosen.
    const std::vector<Metrics> pred = {
        mk(0.8, 9.0, 6.0),
        mk(0.7, 10.0, 1.0),
    };
    EXPECT_EQ(chooseOptimal(pred, LifetimeObjective{8.0, 0.95}), 0);
}

TEST(Optimizer, InfeasibleReturnsMinusOne)
{
    const std::vector<Metrics> pred = {mk(1.0, 2.0, 1.0),
                                       mk(0.9, 7.9, 1.0)};
    EXPECT_EQ(chooseOptimal(pred, LifetimeObjective{8.0, 0.95}), -1);
    EXPECT_EQ(chooseMostDurable(pred), 1);
}

TEST(Optimizer, SafetyMarginRaisesTheFloor)
{
    const std::vector<Metrics> pred = {
        mk(1.0, 8.5, 3.0),  // feasible at 8y, not at 8y * 1.15
        mk(0.8, 10.0, 3.5), // feasible under both
    };
    EXPECT_EQ(chooseOptimal(pred, LifetimeObjective{8.0, 0.95, 1.0}),
              0);
    EXPECT_EQ(chooseOptimal(pred, LifetimeObjective{8.0, 0.95, 1.15}),
              1);
}

TEST(Optimizer, LifetimeTargetShiftsChoice)
{
    const std::vector<Metrics> pred = {
        mk(1.0, 4.5, 3.0),
        mk(0.8, 6.5, 3.5),
        mk(0.6, 10.5, 4.0),
    };
    EXPECT_EQ(chooseOptimal(pred, LifetimeObjective{4.0, 0.95}), 0);
    EXPECT_EQ(chooseOptimal(pred, LifetimeObjective{6.0, 0.95}), 1);
    EXPECT_EQ(chooseOptimal(pred, LifetimeObjective{10.0, 0.95}), 2);
}

TEST(Optimizer, PerfTargetMinimizesEnergy)
{
    const std::vector<Metrics> pred = {
        mk(1.0, 5.0, 9.0),
        mk(0.9, 5.0, 4.0),
        mk(0.5, 5.0, 1.0),
    };
    EXPECT_EQ(chooseForPerfTarget(pred, PerfTargetObjective{0.85}), 1);
    // Infeasible target: fall back to max IPC.
    EXPECT_EQ(chooseForPerfTarget(pred, PerfTargetObjective{2.0}), 0);
}

TEST(Optimizer, EnergyCapMaximizesPerf)
{
    const std::vector<Metrics> pred = {
        mk(1.0, 5.0, 9.0),
        mk(0.9, 5.0, 4.0),
        mk(0.8, 5.0, 3.0),
    };
    EXPECT_EQ(chooseForEnergyCap(pred, EnergyCapObjective{5.0, 0.0}),
              1);
    EXPECT_EQ(chooseForEnergyCap(pred, EnergyCapObjective{1.0, 0.0}),
              -1);
}

TEST(Predictors, AllKindsHaveNames)
{
    EXPECT_EQ(allPredictorKinds().size(), 7u); // Table 7 rows
    for (auto kind : allPredictorKinds())
        EXPECT_FALSE(toString(kind).empty());
}

TEST(Predictors, OfflineNeedsLibrary)
{
    EXPECT_TRUE(needsOfflineData(PredictorKind::Offline));
    EXPECT_TRUE(needsOfflineData(PredictorKind::HierBayes));
    EXPECT_FALSE(needsOfflineData(PredictorKind::GradientBoosting));
    EXPECT_FALSE(needsOfflineData(PredictorKind::QuadraticLasso));
}

class PredictorExactness : public ::testing::TestWithParam<PredictorKind>
{
};

TEST_P(PredictorExactness, LearnsLinearFunctionOfConfigVector)
{
    // Synthetic target: a noiseless linear function of the Eq. 1
    // vector. Every online model must achieve high accuracy on the
    // unsampled configurations.
    const auto space = enumerateNoQuotaSpace();
    const ml::Matrix xAll = encodeSpace(space);
    ml::Vector truth(space.size());
    for (std::size_t i = 0; i < space.size(); ++i) {
        truth[i] = 2.0 - 0.3 * xAll(i, 6) - 0.15 * xAll(i, 7) +
                   0.1 * xAll(i, 9);
    }
    TrainData data;
    data.space = &space;
    const auto samples = featureBasedSamples(3);
    data.sampleIdx = indicesInSpace(space, samples);
    data.sampleY.resize(data.sampleIdx.size());
    for (std::size_t k = 0; k < data.sampleIdx.size(); ++k)
        data.sampleY[k] = truth[data.sampleIdx[k]];

    const ml::Vector pred = predictAllConfigs(GetParam(), data);
    EXPECT_GT(ml::coefficientOfDetermination(pred, truth), 0.85);
}

INSTANTIATE_TEST_SUITE_P(
    OnlineModels, PredictorExactness,
    ::testing::Values(PredictorKind::Linear, PredictorKind::LinearLasso,
                      PredictorKind::Quadratic,
                      PredictorKind::QuadraticLasso,
                      PredictorKind::GradientBoosting));

TEST(Predictors, HierBayesUsesLibraryStructure)
{
    const auto space = enumerateNoQuotaSpace();
    const ml::Matrix xAll = encodeSpace(space);
    // Library apps: scalings of one latency-driven profile.
    std::vector<ml::Vector> rows;
    for (int a = 1; a <= 6; ++a) {
        ml::Vector row(space.size());
        for (std::size_t i = 0; i < space.size(); ++i)
            row[i] = a * (3.0 - 0.4 * xAll(i, 6));
        rows.push_back(row);
    }
    const ml::Matrix lib = ml::Matrix::fromRows(rows);

    ml::Vector truth(space.size());
    for (std::size_t i = 0; i < space.size(); ++i)
        truth[i] = 2.5 * (3.0 - 0.4 * xAll(i, 6));

    TrainData data;
    data.space = &space;
    data.library = &lib;
    const auto samples = featureBasedSamples(5);
    data.sampleIdx = indicesInSpace(space, samples);
    data.sampleY.resize(data.sampleIdx.size());
    for (std::size_t k = 0; k < data.sampleIdx.size(); ++k)
        data.sampleY[k] = truth[data.sampleIdx[k]];
    const ml::Vector pred =
        predictAllConfigs(PredictorKind::HierBayes, data);
    EXPECT_GT(ml::coefficientOfDetermination(pred, truth), 0.9);
}

TEST(FeatureSelection, FindsPlantedPrimaryFeatures)
{
    // Synthetic objectives driven only by the primary features.
    const auto space = enumerateNoQuotaSpace();
    std::vector<Metrics> measured(space.size());
    for (std::size_t i = 0; i < space.size(); ++i) {
        const ml::Vector v = compressConfig(space[i]);
        measured[i].ipc = 3.0 - 0.5 * v[2] - 0.2 * v[3] + 0.1 * v[4];
        measured[i].lifetimeYears = 1.0 + v[2] + 0.5 * v[3] - 0.3 * v[4];
        measured[i].energyJ = 2.0 + 0.3 * v[2];
    }
    const FeatureSelectionResult res = selectFeatures(space, measured);
    ASSERT_EQ(res.coefficients.size(), 3u);
    // Exactly the primary features must survive.
    EXPECT_EQ(res.primary, primaryFeatureIndices());
}

TEST(FeatureSelection, TopQuadraticFeaturesNamed)
{
    const auto space = enumerateNoQuotaSpace();
    const ml::Matrix xAll = encodeSpace(space);
    ml::Vector y(space.size());
    for (std::size_t i = 0; i < space.size(); ++i)
        y[i] = -1.0 * xAll(i, 6) + 0.5 * xAll(i, 6) * xAll(i, 6);
    const auto ranked = topQuadraticFeatures(space, y, 3);
    ASSERT_GE(ranked.size(), 1u);
    // fast_latency terms must dominate.
    EXPECT_NE(ranked[0].name.find("fast_latency"), std::string::npos);
}

} // namespace
} // namespace mct
