/**
 * @file
 * Tests for the system layer: window metrics, configuration
 * switching, the evaluator, the sweep cache, the energy model, and
 * the multi-core system.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include <sstream>
#include <utility>
#include <vector>

#include "common/instrument.hh"
#include "sim/multicore.hh"
#include "sim/sweep_cache.hh"
#include "workloads/mixes.hh"

namespace mct
{
namespace
{

TEST(EnergyModel, ComponentsAddUp)
{
    EnergyParams ep;
    EnergyModel em(ep);
    // 1 ms, 1M instructions, 1000 reads, 100 fast-write units.
    const double e = em.energyJ(tickMs, 1000000, 1000, 100.0, 1);
    const double expect = 1e-3 * (ep.coreStaticW + ep.memStaticW) +
                          1e6 * ep.corePerInstJ + 1000 * ep.readJ +
                          100.0 * ep.writeBaseJ;
    EXPECT_NEAR(e, expect, expect * 1e-12);
}

TEST(EnergyModel, MoreCoresMoreStatic)
{
    EnergyModel em{EnergyParams{}};
    EXPECT_GT(em.energyJ(tickSec, 0, 0, 0.0, 4),
              em.energyJ(tickSec, 0, 0, 0.0, 1));
}

TEST(System, MetricsWindowBasics)
{
    SystemParams sp;
    System sys("stream", sp, defaultConfig());
    sys.run(100000);
    const SysSnapshot s0 = sys.snapshot();
    sys.run(200000);
    const Metrics m = sys.metricsSince(s0);
    EXPECT_GT(m.ipc, 0.0);
    EXPECT_LE(m.ipc, 8.0);
    EXPECT_GT(m.energyJ, 0.0);
    EXPECT_GT(m.lifetimeYears, 0.0);
    EXPECT_LE(m.lifetimeYears, sp.nvm.maxLifetimeYears);
}

TEST(System, EnergyMetricIsIntensive)
{
    // Energy per million instructions should not scale with window
    // length (within noise).
    SystemParams sp;
    System sys("bwaves", sp, defaultConfig());
    sys.run(200000);
    const SysSnapshot s0 = sys.snapshot();
    sys.run(300000);
    const SysSnapshot s1 = sys.snapshot();
    sys.run(600000);
    const Metrics shortW = sys.metricsBetween(s0, s1);
    const Metrics longW = sys.metricsSince(s1);
    EXPECT_NEAR(shortW.energyJ / longW.energyJ, 1.0, 0.25);
}

TEST(System, ConfigSwitchIsLive)
{
    SystemParams sp;
    System sys("lbm", sp, defaultConfig());
    sys.run(400000);
    EXPECT_EQ(sys.config(), defaultConfig());
    sys.setConfig(staticBaselineConfig());
    EXPECT_EQ(sys.config(), staticBaselineConfig());
    sys.run(400000);
    EXPECT_GT(sys.controller().stats().slowWrites +
                  sys.controller().stats().eagerWrites,
              0u);
}

TEST(System, DeterministicForSeed)
{
    SystemParams sp;
    sp.seed = 77;
    System a("milc", sp, defaultConfig());
    System b("milc", sp, defaultConfig());
    a.run(150000);
    b.run(150000);
    EXPECT_EQ(a.now(), b.now());
    EXPECT_DOUBLE_EQ(a.device().totalWear(), b.device().totalWear());
}

TEST(Evaluator, SlowestWritesExtendLifetime)
{
    EvalParams ep;
    ep.warmupInsts = 300000;
    ep.measureInsts = 800000;
    MellowConfig fast; // 1.0x
    MellowConfig slow;
    slow.fastLatency = 4.0;
    const Metrics mf = evaluateConfig("stream", fast, ep);
    const Metrics ms = evaluateConfig("stream", slow, ep);
    EXPECT_GT(ms.lifetimeYears, 3.0 * mf.lifetimeYears);
    EXPECT_LT(ms.ipc, mf.ipc);
}

TEST(Evaluator, WearQuotaEnforcesFloorOnWriteHeavyApp)
{
    EvalParams ep;
    ep.warmupInsts = 300000;
    ep.measureInsts = 900000;
    MellowConfig cfg; // fast writes: stream fails 8 years by far
    const Metrics noQuota = evaluateConfig("stream", cfg, ep);
    ASSERT_LT(noQuota.lifetimeYears, 8.0);
    cfg.wearQuota = true;
    cfg.wearQuotaTarget = 8.0;
    const Metrics quota = evaluateConfig("stream", cfg, ep);
    // Quota converges to the budget rate from above; within a short
    // window the initial unrestricted slice still dilutes it.
    EXPECT_GT(quota.lifetimeYears, 0.5 * 8.0);
    EXPECT_GT(quota.lifetimeYears, 2.0 * noQuota.lifetimeYears);
}

TEST(Evaluator, CancellationCostsLifetime)
{
    EvalParams ep;
    ep.warmupInsts = 100000;
    ep.measureInsts = 400000;
    MellowConfig noCancel;
    noCancel.bankAware = true;
    noCancel.bankAwareThreshold = 4;
    noCancel.fastLatency = 1.0;
    noCancel.slowLatency = 4.0;
    MellowConfig cancel = noCancel;
    cancel.slowCancellation = true;
    const Metrics a = evaluateConfig("milc", noCancel, ep);
    const Metrics b = evaluateConfig("milc", cancel, ep);
    // Cancellation wastes wear => lower lifetime; buys read latency.
    EXPECT_LT(b.lifetimeYears, a.lifetimeYears);
}

TEST(SweepCache, ConfigKeyDistinguishesConfigs)
{
    EXPECT_NE(configKey(defaultConfig()),
              configKey(staticBaselineConfig()));
    MellowConfig a = staticBaselineConfig();
    MellowConfig b = a;
    b.slowLatency = 3.5;
    EXPECT_NE(configKey(a), configKey(b));
    b = a;
    b.wearQuotaTarget = 4.0;
    EXPECT_NE(configKey(a), configKey(b));
    EXPECT_EQ(configKey(a), configKey(staticBaselineConfig()));
}

TEST(SweepCache, MemoizesEvaluations)
{
    EvalParams ep;
    ep.warmupInsts = 50000;
    ep.measureInsts = 100000;
    SweepCache cache(ep, "");
    const Metrics a = cache.get("zeusmp", defaultConfig());
    EXPECT_EQ(cache.misses(), 1u);
    const Metrics b = cache.get("zeusmp", defaultConfig());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

TEST(SweepCache, PersistsAndReloads)
{
    const std::string path = "/tmp/mct_test_sweep.csv";
    std::remove(path.c_str());
    EvalParams ep;
    ep.warmupInsts = 50000;
    ep.measureInsts = 100000;
    Metrics first;
    {
        SweepCache cache(ep, path);
        first = cache.get("zeusmp", defaultConfig());
        cache.save();
    }
    SweepCache reloaded(ep, path);
    EXPECT_EQ(reloaded.size(), 1u);
    const Metrics again = reloaded.get("zeusmp", defaultConfig());
    EXPECT_EQ(reloaded.misses(), 0u);
    EXPECT_DOUBLE_EQ(again.ipc, first.ipc);
    std::remove(path.c_str());
}

TEST(SweepCache, RowsOfOtherEvalParamsAreNotServed)
{
    const std::string path = "/tmp/mct_test_sweep_params.csv";
    std::remove(path.c_str());
    EvalParams a;
    a.warmupInsts = 20000;
    a.measureInsts = 40000;
    EvalParams b = a;
    b.measureInsts = 60000;
    ASSERT_NE(SweepCache::fingerprint(a), SweepCache::fingerprint(b));
    Metrics fromA, fromB;
    {
        SweepCache cache(a, path);
        fromA = cache.get("zeusmp", defaultConfig());
    } // saved on destruction
    {
        SweepCache cache(b, path);
        EXPECT_EQ(cache.size(), 0u); // a's row is not b's
        fromB = cache.get("zeusmp", defaultConfig());
        EXPECT_EQ(cache.misses(), 1u);
    }
    // Each save kept the other's row; each side is served its own.
    const std::vector<std::pair<EvalParams, Metrics>> sides = {
        {a, fromA}, {b, fromB}};
    for (const auto &[ep, want] : sides) {
        SweepCache cache(ep, path);
        EXPECT_EQ(cache.size(), 1u);
        EXPECT_EQ(cache.get("zeusmp", defaultConfig()).ipc, want.ipc);
        EXPECT_EQ(cache.misses(), 0u);
    }
    // A well-formed row of the old format names no parameters: it is
    // dropped, and counted apart from corrupt rows.
    {
        std::ofstream os(path, std::ios::app);
        os << "zeusmp,k9,0.5,2.0,1.0\n";
    }
    SweepCache cache(a, path);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.unkeyedLoads(), 1u);
    EXPECT_EQ(cache.recoveredLoads(), 0u);
    std::remove(path.c_str());
}

TEST(MultiCore, RunsAllCores)
{
    MultiCoreParams mp;
    MultiCoreSystem sys(mixByName("mix3").apps, mp,
                        staticBaselineConfig());
    const MultiSnapshot s0 = sys.snapshot();
    sys.run(60000);
    const MultiSnapshot s1 = sys.snapshot();
    const MultiMetrics m = sys.metricsBetween(s0, s1);
    ASSERT_EQ(m.coreIpc.size(), 4u);
    for (double ipc : m.coreIpc) {
        EXPECT_GT(ipc, 0.0);
        EXPECT_LE(ipc, 8.0);
    }
    EXPECT_GT(m.geomeanIpc, 0.0);
    EXPECT_GT(m.energyJ, 0.0);
}

TEST(MultiCore, SharedMemorySeesAllCores)
{
    MultiCoreParams mp;
    MultiCoreSystem sys(mixByName("mix1").apps, mp, defaultConfig());
    sys.run(60000);
    // All four memory-intensive programs produced traffic.
    EXPECT_GT(sys.controller().stats().readsCompleted, 1000u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_GT(sys.core(i).stats().memReads, 0u);
}

TEST(MultiCore, EightGigThirtyTwoBanks)
{
    MultiCoreParams mp;
    EXPECT_EQ(mp.base.nvm.capacityBytes, 8ULL << 30);
    EXPECT_EQ(mp.base.nvm.numBanks, 32u);
    EXPECT_EQ(mp.base.caches.l3.sizeBytes, 8u * 1024 * 1024);
    EXPECT_EQ(mp.nCores, 4u);
}

TEST(MultiCore, CoreClocksStayClose)
{
    MultiCoreParams mp;
    MultiCoreSystem sys(mixByName("mix6").apps, mp,
                        staticBaselineConfig());
    sys.run(50000);
    // Oldest-first scheduling keeps skew within a few quanta of the
    // slowest core's progress.
    Tick lo = ~Tick{0}, hi = 0;
    for (unsigned i = 0; i < 4; ++i) {
        lo = std::min(lo, sys.core(i).now());
        hi = std::max(hi, sys.core(i).now());
    }
    EXPECT_LT(static_cast<double>(hi - lo),
              0.6 * static_cast<double>(hi));
}

/** Calibration contract per application (DESIGN.md: default fails
 *  the 8-year floor on the memory-bound apps, zeusmp passes). */
class AppCalibration
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AppCalibration, DefaultConfigCharacter)
{
    const std::string app = GetParam();
    EvalParams ep;
    ep.warmupInsts = 300000;
    ep.measureInsts = 700000;
    const Metrics m = evaluateConfig(app, defaultConfig(), ep);
    EXPECT_GT(m.ipc, 0.005);
    EXPECT_LT(m.ipc, 2.5);
    EXPECT_GT(m.energyJ, 0.0);
    if (app == "zeusmp") {
        // The one application whose default config meets the floor.
        EXPECT_GT(m.lifetimeYears, 8.0);
    } else {
        EXPECT_LT(m.lifetimeYears, 8.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppCalibration,
    ::testing::Values("lbm", "leslie3d", "zeusmp", "GemsFDTD", "milc",
                      "bwaves", "libquantum", "ocean", "gups",
                      "stream"));

TEST(StatsText, PrintsEverySimStatOfARun)
{
    SystemParams sp;
    System sys("milc", sp, staticBaselineConfig());
    sys.run(300000);
    std::ostringstream os;
    writeStatsText(os, sys.statRegistry());
    const std::string out = os.str();
    // One row per Sim-scope path: core + caches + ctrl + banks.
    const auto rows =
        static_cast<std::size_t>(std::count(out.begin(), out.end(), '\n'));
    EXPECT_EQ(rows, sys.statRegistry().snapshot().size());
    EXPECT_GT(rows, 40u);
    EXPECT_NE(out.find("cpu.core0.ipc"), std::string::npos);
    EXPECT_NE(out.find("memctrl.writes_completed"),
              std::string::npos);
    EXPECT_NE(out.find("nvm.bank00.wear"), std::string::npos);
    EXPECT_NE(out.find("sim.objective.lifetime_years"),
              std::string::npos);
    EXPECT_NE(out.find("  # fast-write-equivalent line writes, all banks"),
              std::string::npos);
}

TEST(SystemStats, BankCountersSumToControllerTotals)
{
    SystemParams sp;
    System sys("bwaves", sp, defaultConfig());
    sys.run(400000);
    std::uint64_t reads = 0, writes = 0;
    for (unsigned b = 0; b < sys.device().numBanks(); ++b) {
        reads += sys.device().bank(b).reads;
        writes += sys.device().bank(b).writes;
    }
    EXPECT_EQ(reads, sys.controller().stats().readsCompleted);
    EXPECT_EQ(writes, sys.controller().stats().writesCompleted);
}

} // namespace
} // namespace mct
