/**
 * @file
 * Fault-injection harness and graceful-degradation tests: the fault
 * plan grammar, the injector's deterministic hooks, per-fault-class
 * survival scenarios for the MCT runtime (quarantine, prediction
 * sanity bounds, escalation ladder, emergency wear clamp), corrupt
 * sweep-cache recovery, and seeded chaos property tests over every
 * built-in plan.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/csv.hh"
#include "common/fault_plan.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "mct/controller.hh"
#include "sim/fault_injector.hh"
#include "sim/sweep_cache.hh"

namespace mct
{
namespace
{

/** Scaled-down runtime parameters so fault scenarios stay quick. */
MctParams
fastParams()
{
    MctParams p;
    p.sampling.unitInsts = 2000;
    p.sampling.settleInsts = 1000;
    p.sampling.rounds = 2;
    p.healthCheckPeriod = 300 * 1000;
    return p;
}

/** Parse a plan the test requires to be valid. */
FaultPlan
mustParse(const std::string &text)
{
    const FaultPlanParse r = parseFaultPlan(text);
    EXPECT_TRUE(r.ok) << text << ": " << r.error;
    return r.plan;
}

/** Run in small chunks so the injector sees window transitions. */
void
runChunked(System &sys, InstCount insts)
{
    while (insts > 0) {
        const InstCount step = std::min<InstCount>(insts, 50 * 1000);
        sys.run(step);
        insts -= step;
    }
}

bool
finiteMetrics(const Metrics &m)
{
    return std::isfinite(m.ipc) && std::isfinite(m.lifetimeYears) &&
           std::isfinite(m.energyJ);
}

TEST(FaultPlan, ParsesEveryBuiltinName)
{
    for (const std::string &name : builtinFaultPlanNames()) {
        const FaultPlanParse r = parseFaultPlan(name);
        EXPECT_TRUE(r.ok) << name << ": " << r.error;
        EXPECT_FALSE(r.plan.empty()) << name;
        EXPECT_FALSE(builtinFaultPlanText(name).empty());
    }
    EXPECT_TRUE(builtinFaultPlanText("no-such-plan").empty());
}

TEST(FaultPlan, ParsesGrammarWithSuffixes)
{
    const FaultPlan plan =
        mustParse("latency_drift@500k+1m:mag=3;"
                  "bank_degrade@2g:mag=4,bank=2;"
                  "counter_corrupt:prob=0.25");
    ASSERT_EQ(plan.specs.size(), 3u);
    EXPECT_EQ(plan.specs[0].kind, FaultKind::LatencyDrift);
    EXPECT_EQ(plan.specs[0].startInst, 500000u);
    EXPECT_EQ(plan.specs[0].durationInsts, 1000000u);
    EXPECT_DOUBLE_EQ(plan.specs[0].magnitude, 3.0);
    EXPECT_EQ(plan.specs[1].startInst, 2000000000u);
    EXPECT_EQ(plan.specs[1].durationInsts, 0u); // forever
    EXPECT_EQ(plan.specs[1].bank, 2);
    EXPECT_EQ(plan.specs[2].startInst, 0u);
    EXPECT_DOUBLE_EQ(plan.specs[2].prob, 0.25);
    EXPECT_TRUE(plan.has(FaultKind::BankDegrade));
    EXPECT_FALSE(plan.has(FaultKind::WearClockSkew));
}

TEST(FaultPlan, RejectsMalformedSpecsWithTypedErrors)
{
    const char *bad[] = {
        "bogus_kind",                      // unknown kind
        "latency_drift@xyz",               // bad start
        "latency_drift@1k+zz",             // bad duration
        "latency_drift:mag=nope",          // bad value
        "latency_drift:mag=-2",            // magnitude must be > 0
        "counter_corrupt:prob=1.5",        // probability out of range
        "bank_degrade:bank=1.5",           // bank must be an integer
        "latency_drift:wat=1",             // unknown key
        "",                                // empty plan
    };
    for (const char *text : bad) {
        const FaultPlanParse r = parseFaultPlan(text);
        EXPECT_FALSE(r.ok) << "accepted: " << text;
        EXPECT_FALSE(r.error.empty()) << text;
    }
}

TEST(FaultPlan, SummaryRoundTrips)
{
    for (const std::string &name : builtinFaultPlanNames()) {
        const FaultPlan plan = mustParse(name);
        const FaultPlan again = mustParse(plan.summary());
        ASSERT_EQ(again.specs.size(), plan.specs.size()) << name;
        for (std::size_t i = 0; i < plan.specs.size(); ++i) {
            EXPECT_EQ(again.specs[i].kind, plan.specs[i].kind);
            EXPECT_EQ(again.specs[i].startInst,
                      plan.specs[i].startInst);
            EXPECT_EQ(again.specs[i].durationInsts,
                      plan.specs[i].durationInsts);
            EXPECT_DOUBLE_EQ(again.specs[i].prob, plan.specs[i].prob);
            EXPECT_DOUBLE_EQ(again.specs[i].magnitude,
                             plan.specs[i].magnitude);
            EXPECT_EQ(again.specs[i].bank, plan.specs[i].bank);
        }
    }
}

TEST(FaultPlan, ActiveWindows)
{
    FaultSpec s;
    s.startInst = 100;
    s.durationInsts = 50;
    EXPECT_FALSE(s.activeAt(99));
    EXPECT_TRUE(s.activeAt(100));
    EXPECT_TRUE(s.activeAt(149));
    EXPECT_FALSE(s.activeAt(150));
    s.durationInsts = 0; // forever
    EXPECT_TRUE(s.activeAt(100));
    EXPECT_TRUE(s.activeAt(1u << 30));
}

TEST(Json, NonFiniteNumbersBecomeNull)
{
    resetJsonNonfiniteCount();
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(jsonNumber(-std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(jsonNonfiniteCount(), 3u);
    EXPECT_EQ(jsonNumber(1.5), "1.5"); // finite values don't count
    EXPECT_EQ(jsonNonfiniteCount(), 3u);
    resetJsonNonfiniteCount();
    EXPECT_EQ(jsonNonfiniteCount(), 0u);
}

TEST(Csv, TryDoubleAcceptsNumbersRejectsGarbage)
{
    double v = 0.0;
    EXPECT_TRUE(CsvFile::tryDouble("1.25", v));
    EXPECT_DOUBLE_EQ(v, 1.25);
    EXPECT_TRUE(CsvFile::tryDouble("-3e2", v));
    EXPECT_DOUBLE_EQ(v, -300.0);
    EXPECT_TRUE(CsvFile::tryDouble("7 ", v)); // trailing blanks ok
    EXPECT_FALSE(CsvFile::tryDouble("", v));
    EXPECT_FALSE(CsvFile::tryDouble("abc", v));
    EXPECT_FALSE(CsvFile::tryDouble("1.5x", v));
    EXPECT_FALSE(CsvFile::tryDouble("###", v));
}

TEST(SweepCacheFaults, CorruptRowsAreSkippedAndRecomputed)
{
    const std::string path = "test_faults_cache.csv";
    EvalParams ep;
    const std::string fp = SweepCache::fingerprint(ep);
    {
        std::ofstream os(path);
        os << fp << ",lbm,k1,0.5,2.0,1.0\n";       // good
        os << fp << ",lbm,k2,abc,2.0,1.0\n";       // non-numeric
        os << fp << ",lbm,k3,inf,2.0,1.0\n";       // non-finite
        os << fp << ",lbm,k4,0.4\n";               // wrong arity
        os << fp << ",lbm,k5,0.6,nan,1.0\n";       // NaN lifetime
    }
    SweepCache cache(ep, path);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.recoveredLoads(), 4u);
    std::remove(path.c_str());
}

TEST(SweepCacheFaults, InjectorCorruptionSurvivesReload)
{
    const std::string path = "test_faults_cache2.csv";
    const std::string fp = SweepCache::fingerprint(EvalParams{});
    {
        std::ofstream os(path);
        for (int i = 0; i < 40; ++i) {
            os << fp << ",lbm,cfg" << i << "," << 0.1 * i << ",2.0,1.0\n";
        }
    }
    FaultInjector inj(mustParse("sweep_corrupt"), 5);
    ASSERT_TRUE(inj.wantsSweepCorruption());
    ASSERT_TRUE(inj.corruptCsvFile(path));
    EXPECT_EQ(inj.injected(FaultKind::SweepCacheCorrupt), 1u);

    EvalParams ep;
    SweepCache cache(ep, path); // must load without aborting
    EXPECT_GE(cache.recoveredLoads(), 1u);
    EXPECT_LT(cache.size(), 40u);
    std::remove(path.c_str());

    // A missing file is left alone.
    EXPECT_FALSE(inj.corruptCsvFile("no_such_file_at_all.csv"));
}

TEST(FaultInjector, StochasticHooksAreDeterministic)
{
    const FaultPlan plan =
        mustParse("counter_corrupt:prob=1;predictor_garbage:prob=1");
    FaultInjector a(plan, 42), b(plan, 42);
    Metrics ma, mb;
    ma.ipc = mb.ipc = 1.0;
    ma.lifetimeYears = mb.lifetimeYears = 2.0;
    ma.energyJ = mb.energyJ = 3.0;
    EXPECT_TRUE(a.corruptMetrics(ma));
    EXPECT_TRUE(b.corruptMetrics(mb));
    // Same seed, same draw: bit-identical corruption (NaN included).
    EXPECT_TRUE(
        (ma.ipc == mb.ipc) ||
        (std::isnan(ma.ipc) && std::isnan(mb.ipc)));
    EXPECT_TRUE((ma.lifetimeYears == mb.lifetimeYears) ||
                (std::isnan(ma.lifetimeYears) &&
                 std::isnan(mb.lifetimeYears)));

    std::vector<double> pa(16, 1.0), pb(16, 1.0);
    EXPECT_EQ(a.corruptPredictions(pa), 16u);
    EXPECT_EQ(b.corruptPredictions(pb), 16u);
    for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_TRUE((pa[i] == pb[i]) ||
                    (std::isnan(pa[i]) && std::isnan(pb[i])));
    }
    EXPECT_GT(a.injectedTotal(), 0u);
}

TEST(FaultInjector, HooksRespectTheArmedWindow)
{
    const FaultPlan plan =
        mustParse("counter_corrupt@1000+500:prob=1");
    FaultInjector inj(plan, 1);
    InstCount clock = 0;
    inj.setClock(&clock);
    Metrics m;
    m.ipc = 1.0;
    EXPECT_FALSE(inj.corruptMetrics(m)); // before the window
    clock = 1200;
    EXPECT_TRUE(inj.corruptMetrics(m)); // inside
    clock = 1500;
    Metrics m2;
    m2.ipc = 1.0;
    EXPECT_FALSE(inj.corruptMetrics(m2)); // after
    EXPECT_DOUBLE_EQ(m2.ipc, 1.0);
}

TEST(FaultSystem, LatencyDriftLowersIpc)
{
    SystemParams sp;
    System clean("lbm", sp, staticBaselineConfig());
    runChunked(clean, 300 * 1000);
    const SysSnapshot c0 = clean.snapshot();
    runChunked(clean, 500 * 1000);
    const Metrics cm = clean.metricsSince(c0);

    System faulty("lbm", sp, staticBaselineConfig());
    FaultInjector inj(mustParse("latency_drift:mag=3"), 1);
    faulty.attachFaultInjector(&inj);
    runChunked(faulty, 300 * 1000);
    const SysSnapshot f0 = faulty.snapshot();
    runChunked(faulty, 500 * 1000);
    const Metrics fm = faulty.metricsSince(f0);

    EXPECT_EQ(inj.injected(FaultKind::LatencyDrift), 1u);
    EXPECT_LT(fm.ipc, cm.ipc);
    // fault.* stats are registered on attach.
    EXPECT_GE(faulty.statRegistry().value("fault.injected.total"), 1.0);
    EXPECT_GE(faulty.statRegistry().value("fault.active"), 1.0);
}

TEST(FaultSystem, BankDegradeSkewsTargetedBankWear)
{
    SystemParams sp;
    System faulty("stream", sp, staticBaselineConfig());
    FaultInjector inj(mustParse("bank_degrade:mag=4,bank=0"), 1);
    faulty.attachFaultInjector(&inj);
    runChunked(faulty, 800 * 1000);
    const NvmDevice &dev = faulty.device();
    ASSERT_GE(dev.numBanks(), 2u);
    double others = 0.0;
    for (unsigned b = 1; b < dev.numBanks(); ++b)
        others = std::max(others, dev.bank(b).wear);
    // The degraded bank accrues disproportionate wear.
    EXPECT_GT(dev.bank(0).wear, 1.5 * others);
}

TEST(FaultRuntime, SurvivesCounterCorruption)
{
    SystemParams sp;
    System sys("lbm", sp, staticBaselineConfig());
    FaultInjector inj(mustParse("counter_corrupt:prob=0.3,mag=1e6"), 3);
    sys.attachFaultInjector(&inj);
    sys.run(200 * 1000);
    MctParams mp = fastParams();
    MctController ctl(sys, mp);
    const SysSnapshot s0 = sys.snapshot();
    ctl.runFor(1600 * 1000);
    EXPECT_GE(ctl.decisions().size(), 1u);
    // Corrupt windows were quarantined or the baseline was repaired,
    // never fed into the fit.
    EXPECT_GT(ctl.quarantinedSamples() + ctl.baselineRepairs(), 0u);
    EXPECT_TRUE(finiteMetrics(sys.metricsSince(s0)));
    EXPECT_TRUE(finiteMetrics(ctl.baselineMetrics()));
    EXPECT_GT(inj.injected(FaultKind::CounterCorrupt), 0u);
}

TEST(FaultRuntime, PredictorGarbageFallsBackThenRecovers)
{
    // Garbage predictions for the first 2M instructions, clean after:
    // the runtime must reject the poisoned rounds, run the baseline
    // through a cooldown, and return to an optimizer-chosen
    // configuration once the fault clears.
    SystemParams sp;
    System sys("lbm", sp, staticBaselineConfig());
    FaultInjector inj(
        mustParse("predictor_garbage@0+2m:prob=1,mag=1e5"), 3);
    sys.attachFaultInjector(&inj);
    sys.run(200 * 1000);
    MctParams mp = fastParams();
    mp.objective.minLifetimeYears = 0.5; // feasible in scaled windows
    mp.recovery.maxSampleRetries = 0;
    mp.recovery.cooldownInsts = 100 * 1000;
    MctController ctl(sys, mp);
    const SysSnapshot s0 = sys.snapshot();
    ctl.runFor(6 * 1000 * 1000);
    ASSERT_GE(ctl.decisions().size(), 2u);
    // While poisoned: the round is rejected and the baseline holds.
    EXPECT_GT(ctl.rejectedPredictions(), 0u);
    EXPECT_FALSE(ctl.decisions().front().feasible);
    EXPECT_EQ(ctl.decisions().front().config, mp.baseline);
    EXPECT_GE(ctl.reengagements(), 1u);
    // After the window closes: a real choice again.
    EXPECT_TRUE(ctl.decisions().back().feasible);
    EXPECT_TRUE(finiteMetrics(sys.metricsSince(s0)));
}

TEST(FaultRuntime, EscalationLadderFallsBackToBaseline)
{
    // Satellite: stub predictor makes the fastest-wearing
    // configuration look fabulous; under a strict lifetime floor its
    // fixup quota throttles it hard on a write-heavy workload, so
    // measured health checks climb the ladder
    // (strike -> resample -> fallback + cooldown).
    SystemParams sp;
    System sys("stream", sp, staticBaselineConfig());
    sys.run(200 * 1000);
    MctParams mp = fastParams();
    mp.objective.minLifetimeYears = 10.0; // strict: fixup quota bites
    mp.healthCheckPeriod = 100 * 1000;
    mp.recovery.cooldownInsts = 50 * 1000 * 1000; // park after falling
    // Find the fastest-wearing bare configuration: minimum write
    // latencies, no wear-saving techniques.
    const auto space = enumerateNoQuotaSpace(mp.spaceOpts);
    std::size_t worst = space.size();
    double bestLat = 1e9;
    for (std::size_t i = 0; i < space.size(); ++i) {
        const MellowConfig &c = space[i];
        if (c.bankAware || c.eagerWritebacks)
            continue;
        const double lat = c.fastLatency + c.slowLatency;
        if (lat < bestLat) {
            bestLat = lat;
            worst = i;
        }
    }
    ASSERT_LT(worst, space.size());
    const std::size_t spaceSize = space.size();
    mp.predictOverride = [worst, spaceSize](const TrainData &,
                                            const char *objective) {
        ml::Vector v(spaceSize, 1.0);
        if (std::string(objective) == "ipc")
            v[worst] = 3.0; // irresistible, and wrong
        if (std::string(objective) == "lifetime")
            v[worst] = 50.0; // stays feasible across resamples
        return v;
    };
    MctController ctl(sys, mp);
    for (int i = 0; i < 60 && ctl.fallbacks() == 0; ++i)
        ctl.runFor(200 * 1000);
    ASSERT_GE(ctl.fallbacks(), 1u);
    // The ladder was climbed: records at levels 1, 2, and the
    // fell-back record at 3.
    unsigned maxLadder = 0;
    bool sawFellBack = false;
    for (const HealthRecord &h : ctl.healthHistory()) {
        maxLadder = std::max(maxLadder, h.ladder);
        sawFellBack = sawFellBack || h.fellBack;
    }
    EXPECT_TRUE(sawFellBack);
    EXPECT_GE(maxLadder, 3u);
    // Fallback restored the baseline and benched the optimizer.
    EXPECT_EQ(ctl.currentConfig(), mp.baseline);
    EXPECT_TRUE(ctl.inCooldown());
    EXPECT_EQ(ctl.ladderLevel(), 0u);
}

TEST(FaultRuntime, EmergencyClampEngagesAndHoldsSafestConfig)
{
    // With an absurd margin the wear projection always "violates" the
    // floor: the clamp must engage right after the first decision and
    // pin the safest configuration.
    SystemParams sp;
    System sys("stream", sp, staticBaselineConfig());
    sys.run(200 * 1000);
    MctParams mp = fastParams();
    mp.recovery.emergencyMargin = 1e9;
    mp.recovery.emergencyRelease = 2e9; // never released
    mp.recovery.emergencyWindowInsts = 60 * 1000;
    MctController ctl(sys, mp);
    ctl.runFor(2 * 1000 * 1000);
    EXPECT_GE(ctl.emergencyClamps(), 1u);
    EXPECT_TRUE(ctl.emergencyEngaged());
    EXPECT_EQ(ctl.currentConfig(), ctl.safestConfig());
    EXPECT_TRUE(ctl.currentConfig().wearQuota);
}

TEST(FaultRuntime, EmergencyClampReleasesAndReengages)
{
    // Engage instantly, release instantly: the controller must cycle
    // clamp -> release -> fresh sampling without wedging.
    SystemParams sp;
    System sys("stream", sp, staticBaselineConfig());
    sys.run(200 * 1000);
    MctParams mp = fastParams();
    mp.recovery.emergencyMargin = 1e9;
    mp.recovery.emergencyRelease = 1e-9;
    mp.recovery.emergencyWindowInsts = 60 * 1000;
    MctController ctl(sys, mp);
    ctl.runFor(3 * 1000 * 1000);
    EXPECT_GE(ctl.emergencyClamps(), 1u);
    EXPECT_GE(ctl.reengagements(), 1u);
    EXPECT_GE(ctl.decisions().size(), 1u);
}

TEST(FaultChaos, EveryBuiltinPlanSurvives)
{
    for (const std::string &name : builtinFaultPlanNames()) {
        SCOPED_TRACE(name);
        SystemParams sp;
        System sys("lbm", sp, staticBaselineConfig());
        FaultInjector inj(mustParse(name), 7);
        sys.attachFaultInjector(&inj);
        sys.run(200 * 1000);
        MctParams mp = fastParams();
        MctController ctl(sys, mp);
        const SysSnapshot s0 = sys.snapshot();
        ctl.runFor(2 * 1000 * 1000);
        const Metrics m = sys.metricsSince(s0);
        // The run completes with sane objectives and the lifetime
        // mechanism (wear quota) engaged, whatever the plan did.
        EXPECT_TRUE(finiteMetrics(m));
        EXPECT_GT(m.ipc, 0.0);
        EXPECT_TRUE(ctl.currentConfig().wearQuota);
        EXPECT_TRUE(ctl.currentConfig().valid());
        EXPECT_TRUE(finiteMetrics(ctl.baselineMetrics()));
    }
}

TEST(FaultChaos, RandomizedPlansSurvive)
{
    // Seeded random plans: a reproducible storm of window and
    // stochastic faults. The runtime must always complete with finite
    // objectives.
    for (std::uint64_t seed : {11u, 23u}) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        FaultPlan plan;
        const std::size_t nSpecs = 4 + rng.below(3);
        for (std::size_t i = 0; i < nSpecs; ++i) {
            FaultSpec s;
            s.kind = static_cast<FaultKind>(rng.below(numFaultKinds));
            s.startInst = rng.below(1200 * 1000);
            s.durationInsts = rng.below(2) ? rng.below(900 * 1000) : 0;
            s.prob = rng.uniform(0.05, 1.0);
            s.magnitude = rng.uniform(1.5, 60.0);
            s.bank = rng.below(2) ? -1
                                  : static_cast<int>(rng.below(4));
            plan.specs.push_back(s);
        }
        // The summary of any generated plan must round-trip.
        const FaultPlanParse again = parseFaultPlan(plan.summary());
        ASSERT_TRUE(again.ok) << plan.summary() << ": " << again.error;
        ASSERT_EQ(again.plan.specs.size(), plan.specs.size());

        SystemParams sp;
        System sys("milc", sp, staticBaselineConfig());
        FaultInjector inj(plan, seed);
        sys.attachFaultInjector(&inj);
        sys.run(150 * 1000);
        MctParams mp = fastParams();
        MctController ctl(sys, mp);
        const SysSnapshot s0 = sys.snapshot();
        ctl.runFor(2 * 1000 * 1000);
        const Metrics m = sys.metricsSince(s0);
        EXPECT_TRUE(finiteMetrics(m));
        EXPECT_GT(m.ipc, 0.0);
        EXPECT_TRUE(ctl.currentConfig().valid());
        EXPECT_TRUE(ctl.currentConfig().wearQuota);
    }
}

} // namespace
} // namespace mct
