/**
 * @file
 * Tests for the unified instrumentation layer: StatRegistry snapshots
 * and deltas, LogHistogram bucketing, the EventTrace ring buffer and
 * its JSONL / Chrome serializations, System and MctController
 * integration, the HostProfiler, and StatsReport::print alignment.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "common/alerts.hh"
#include "common/instrument.hh"
#include "common/serialize.hh"
#include "mct/controller.hh"
#include "sim/stats_report.hh"
#include "sim/system.hh"

namespace mct
{
namespace
{

// --------------------------------------------------------------------
// LogHistogram
// --------------------------------------------------------------------

TEST(LogHistogram, BucketBoundaries)
{
    LogHistogram h;
    h.record(0.0);   // bucket 0
    h.record(0.5);   // bucket 0
    h.record(1.0);   // bucket 1: [1, 2)
    h.record(1.99);  // bucket 1
    h.record(2.0);   // bucket 2: [2, 4)
    h.record(1024);  // bucket 11: [1024, 2048)
    h.record(-3.0);  // negatives clamp into bucket 0

    EXPECT_EQ(h.buckets()[0], 3u);
    EXPECT_EQ(h.buckets()[1], 2u);
    EXPECT_EQ(h.buckets()[2], 1u);
    EXPECT_EQ(h.buckets()[11], 1u);
    EXPECT_EQ(h.count(), 7u);
    // The negative observation contributes 0 to the sum.
    EXPECT_DOUBLE_EQ(h.sum(), 0.0 + 0.5 + 1.0 + 1.99 + 2.0 + 1024.0);

    EXPECT_DOUBLE_EQ(LogHistogram::bucketLow(0), 0.0);
    EXPECT_DOUBLE_EQ(LogHistogram::bucketLow(1), 1.0);
    EXPECT_DOUBLE_EQ(LogHistogram::bucketLow(11), 1024.0);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LogHistogram, PercentileInterpolatesWithinBuckets)
{
    // Four observations, all in bucket 1 ([1, 2)): the rank is
    // placed uniformly within the bucket's bounds.
    LogHistogram h;
    for (int i = 0; i < 4; ++i)
        h.record(1.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.25), 1.25);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 1.5);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 2.0);

    // Two buckets: two obs in bucket 0 ([0, 1)), two in bucket 2
    // ([2, 4)). p=0.25 lands mid-bucket-0, p=0.75 mid-bucket-2.
    LogHistogram g;
    g.record(0.5);
    g.record(0.5);
    g.record(2.0);
    g.record(3.0);
    EXPECT_DOUBLE_EQ(g.percentile(0.25), 0.5);
    EXPECT_DOUBLE_EQ(g.percentile(0.75), 3.0);
    EXPECT_DOUBLE_EQ(g.percentile(1.0), 4.0);

    // Monotone in p, and empty histograms read 0.
    EXPECT_LE(g.percentile(0.1), g.percentile(0.9));
    EXPECT_DOUBLE_EQ(LogHistogram{}.percentile(0.99), 0.0);
}

// --------------------------------------------------------------------
// StatRegistry
// --------------------------------------------------------------------

TEST(StatRegistry, RegistrationAndQuery)
{
    StatRegistry reg;
    std::uint64_t hits = 0;
    reg.addCounter("cache.hits", [&] { return hits; }, "cache hits");
    reg.addGauge("cache.rate", [&] { return hits * 0.5; });
    std::uint64_t &cell = reg.addCounterCell("cpu.retired");
    LogHistogram &hist = reg.addHistogram("mem.latency");

    EXPECT_EQ(reg.size(), 4u);
    EXPECT_TRUE(reg.has("cache.hits"));
    EXPECT_FALSE(reg.has("cache.misses"));
    EXPECT_EQ(reg.description("cache.hits"), "cache hits");
    EXPECT_EQ(reg.description("cache.rate"), "");

    hits = 10;
    cell = 7;
    hist.record(4.0);
    hist.record(8.0);
    EXPECT_DOUBLE_EQ(reg.value("cache.hits"), 10.0);
    EXPECT_DOUBLE_EQ(reg.value("cache.rate"), 5.0);
    EXPECT_DOUBLE_EQ(reg.value("cpu.retired"), 7.0);
    EXPECT_DOUBLE_EQ(reg.value("mem.latency"), 12.0); // the sum
    EXPECT_DOUBLE_EQ(reg.value("no.such.stat"), 0.0);
}

TEST(StatRegistryDeathTest, ReRegisteringPanics)
{
    // Replacing an entry would leave a cell owner's reference dangling,
    // so a second registration of any kind is a named panic.
    StatRegistry reg;
    reg.addCounter("x", [] { return std::uint64_t(1); });
    reg.addCounterCell("y");
    EXPECT_DEATH(reg.addCounter("x", [] { return std::uint64_t(2); }),
                 "stat 'x' is already registered");
    EXPECT_DEATH(reg.addHistogram("y"), "stat 'y' is already registered");
}

TEST(StatRegistry, SnapshotAndDelta)
{
    StatRegistry reg;
    std::uint64_t ctr = 100;
    double level = 1.0;
    reg.addCounter("c", [&] { return ctr; });
    reg.addGauge("g", [&] { return level; });
    LogHistogram &h = reg.addHistogram("h");
    h.record(3.0);

    const StatSnapshot s0 = reg.snapshot();
    ctr = 150;
    level = 9.0;
    h.record(5.0);
    const StatSnapshot s1 = reg.snapshot();

    const StatSnapshot d = StatRegistry::delta(s0, s1);
    ASSERT_EQ(d.size(), 3u);
    // Counters and histograms subtract; gauges keep the newer value.
    EXPECT_DOUBLE_EQ(d.at("c").num, 50.0);
    EXPECT_DOUBLE_EQ(d.at("g").num, 9.0);
    EXPECT_DOUBLE_EQ(d.at("h").num, 5.0);
    EXPECT_EQ(d.at("h").count, 1u);
    // Only the second observation's bucket remains. 5.0 lands in
    // bucket 3 ([4, 8)); 3.0's bucket 2 subtracts away.
    ASSERT_EQ(d.at("h").buckets.size(), 4u);
    EXPECT_EQ(d.at("h").buckets[2], 0u);
    EXPECT_EQ(d.at("h").buckets[3], 1u);
}

TEST(StatRegistry, SnapshotJsonIsSortedAndParseable)
{
    StatRegistry reg;
    reg.addCounter("b.two", [] { return std::uint64_t(2); });
    reg.addCounter("a.one", [] { return std::uint64_t(1); });
    std::ostringstream os;
    writeSnapshotJson(os, reg.snapshot());
    EXPECT_EQ(os.str(), "{\"a.one\":1,\"b.two\":2}");
}

// --------------------------------------------------------------------
// EventTrace
// --------------------------------------------------------------------

TEST(EventTrace, DisabledRecordIsNoOp)
{
    EventTrace t;
    EXPECT_FALSE(t.enabled());
    t.record(TraceEventType::PhaseChange, 1.0);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.recorded(), 0u);
}

TEST(EventTrace, RingWraparound)
{
    EventTrace t;
    t.enable(4);
    for (int i = 0; i < 10; ++i)
        t.record(TraceEventType::ConfigApplied,
                 static_cast<double>(i));

    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.recorded(), 10u);
    EXPECT_EQ(t.dropped(), 6u);

    // Only the newest four events survive, oldest first.
    const auto evs = t.items();
    ASSERT_EQ(evs.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(evs[i].args[0], static_cast<double>(6 + i));

    const auto counts = t.countsByType();
    EXPECT_EQ(counts[static_cast<std::size_t>(
                  TraceEventType::ConfigApplied)],
              4u);

    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.capacity(), 4u); // capacity survives clear()
}

TEST(EventTrace, InstructionClock)
{
    EventTrace t;
    t.enable(8);
    InstCount now = 0;
    t.setClock(&now);
    t.record(TraceEventType::PhaseChange);
    now = 12345;
    t.record(TraceEventType::PhaseChange);
    const auto evs = t.items();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].inst, 0u);
    EXPECT_EQ(evs[1].inst, 12345u);
}

TEST(EventTrace, JsonlGolden)
{
    EventTrace t;
    t.enable(8);
    InstCount now = 500;
    t.setClock(&now);
    t.record(TraceEventType::QuotaThrottle, 1.0, 3.0, 0.25);
    now = 900;
    t.record(TraceEventType::HealthCheckPass, 0.5, 0.4, 0.0);

    std::ostringstream os;
    t.writeJsonl(os);
    EXPECT_EQ(os.str(),
              "{\"ev\":\"quota_throttle\",\"inst\":500,"
              "\"restricted\":1,\"restricted_slices\":3,"
              "\"budget_rate\":0.25}\n"
              "{\"ev\":\"health_check_pass\",\"inst\":900,"
              "\"chosen_ipc\":0.5,\"baseline_ipc\":0.4,"
              "\"bad_checks\":0}\n");
}

TEST(EventTrace, ChromeTraceGolden)
{
    EventTrace t;
    t.enable(8);
    InstCount now = 100;
    t.setClock(&now);
    t.record(TraceEventType::SamplingRoundStart, 1.0, 77.0, 1000.0);
    now = 300;
    t.record(TraceEventType::SamplingRoundEnd, 1.0, 200.0, 0.5);

    std::ostringstream os;
    t.writeChromeTrace(os);
    EXPECT_EQ(
        os.str(),
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
        "{\"name\":\"sampling_round\",\"ph\":\"B\",\"ts\":100,"
        "\"pid\":0,\"tid\":0,\"args\":{\"round\":1,\"samples\":77,"
        "\"unit_insts\":1000}},"
        "{\"name\":\"sampling_round\",\"ph\":\"E\",\"ts\":300,"
        "\"pid\":0,\"tid\":0,\"args\":{\"round\":1,"
        "\"insts_used\":200,\"baseline_ipc\":0.5}}]}\n");
}

TEST(EventTrace, EveryTypeHasNameAndArgNames)
{
    for (std::size_t i = 0; i < numTraceEventTypes; ++i) {
        const auto type = static_cast<TraceEventType>(i);
        EXPECT_STRNE(toString(type), "unknown");
        for (const char *arg : traceArgNames(type))
            EXPECT_STRNE(arg, "");
    }
}

// --------------------------------------------------------------------
// System integration
// --------------------------------------------------------------------

TEST(SystemStats, ComponentsRegisterUnderDottedPaths)
{
    SystemParams sp;
    System sys("lbm", sp, staticBaselineConfig());
    const StatRegistry &reg = sys.statRegistry();

    for (const char *path :
         {"cpu.core0.instructions", "cpu.core0.ipc",
          "cache.l1d.accesses", "cache.l2.hits", "cache.llc.hit_rate",
          "memctrl.reads_completed", "memctrl.quota.enabled",
          "nvm.total_wear", "nvm.bank00.writes", "sim.instructions",
          "sim.objective.ipc", "sim.objective.lifetime_years"}) {
        EXPECT_TRUE(reg.has(path)) << path;
    }
}

TEST(SystemStats, CountersGrowWithExecution)
{
    SystemParams sp;
    System sys("lbm", sp, staticBaselineConfig());
    const StatSnapshot s0 = sys.statRegistry().snapshot();
    sys.run(400 * 1000);
    const StatSnapshot s1 = sys.statRegistry().snapshot();

    const StatSnapshot d = StatRegistry::delta(s0, s1);
    EXPECT_DOUBLE_EQ(d.at("cpu.core0.instructions").num,
                     400 * 1000.0);
    EXPECT_GT(d.at("cache.l1d.accesses").num, 0.0);
    EXPECT_GT(d.at("memctrl.reads_completed").num, 0.0);
    EXPECT_GT(d.at("nvm.total_wear").num, 0.0);
}

TEST(SystemStats, TraceRecordsConfigAndDrainEvents)
{
    SystemParams sp;
    System sys("lbm", sp, staticBaselineConfig());
    sys.eventTrace().enable(1024);
    MellowConfig cfg = staticBaselineConfig();
    cfg.slowLatency = 3.0;
    sys.setConfig(cfg);
    sys.run(50 * 1000);

    const auto counts = sys.eventTrace().countsByType();
    EXPECT_GE(counts[static_cast<std::size_t>(
                  TraceEventType::ConfigApplied)],
              1u);
    // Timestamps are instruction counts: monotone and bounded by the
    // retired-instruction clock.
    for (const TraceEvent &e : sys.eventTrace().items())
        EXPECT_LE(e.inst, sys.retired());
}

TEST(SystemStats, TraceDeterministicAcrossRuns)
{
    auto run = [] {
        SystemParams sp;
        System sys("milc", sp, staticBaselineConfig());
        sys.eventTrace().enable(4096);
        sys.run(100 * 1000);
        std::ostringstream os;
        sys.eventTrace().writeJsonl(os);
        return os.str();
    };
    EXPECT_EQ(run(), run());
}

// --------------------------------------------------------------------
// SpanTrace
// --------------------------------------------------------------------

TEST(SpanTrace, SamplingGridUsesLowSequenceBits)
{
    SpanTrace t;
    EXPECT_FALSE(t.sampled(0)); // disabled: nothing samples
    t.enable(64, 1024);
    EXPECT_TRUE(t.sampled(0));
    EXPECT_TRUE(t.sampled(64));
    EXPECT_FALSE(t.sampled(65));
    // The core id in the top byte does not shift the grid.
    const std::uint64_t core1 = 1ULL << 56;
    EXPECT_TRUE(t.sampled(core1 | 128));
    EXPECT_FALSE(t.sampled(core1 | 129));
}

TEST(SpanTrace, DeterministicAcrossRuns)
{
    auto run = [] {
        SystemParams sp;
        System sys("lbm", sp, staticBaselineConfig());
        sys.enableSpans(32, 4096);
        sys.run(100 * 1000);
        std::ostringstream os;
        sys.spanTrace().writeJsonl(os);
        return os.str();
    };
    const std::string a = run();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, run());
}

TEST(SpanTrace, RingCapTruncationIsAccounted)
{
    SystemParams sp;
    System sys("lbm", sp, staticBaselineConfig());
    sys.enableSpans(8, 16); // dense sampling, tiny ring: must wrap
    sys.run(200 * 1000);

    const SpanTrace &t = sys.spanTrace();
    ASSERT_GT(t.recorded(), 16u);
    EXPECT_EQ(t.size(), 16u);
    EXPECT_EQ(t.dropped(), t.recorded() - t.size());

    // The JSONL output holds exactly the surviving spans, and the
    // sim.spans.* gauges mirror the trace's own accounting.
    std::ostringstream os;
    t.writeJsonl(os);
    std::size_t lines = 0;
    for (char c : os.str())
        lines += c == '\n';
    EXPECT_EQ(lines, t.size());
    const StatSnapshot s = sys.statRegistry().snapshot();
    EXPECT_DOUBLE_EQ(s.at("sim.spans.recorded").num,
                     static_cast<double>(t.recorded()));
    EXPECT_DOUBLE_EQ(s.at("sim.spans.dropped").num,
                     static_cast<double>(t.dropped()));
}

TEST(SpanTrace, FeedsLatencyHistogramsAndPercentiles)
{
    SystemParams sp;
    System sys("lbm", sp, staticBaselineConfig());
    sys.enableSpans(16, 8192);
    sys.run(200 * 1000);

    const StatSnapshot s = sys.statRegistry().snapshot();
    const StatValue &mshr = s.at("lat.mshr.ns");
    ASSERT_EQ(mshr.kind, StatKind::Histogram);
    ASSERT_GT(mshr.count, 0u);

    // Percentile gauges are positive, ordered, and bounded by the
    // histogram's top occupied bucket.
    const double p50 = s.at("lat.mshr.p50_ns").num;
    const double p90 = s.at("lat.mshr.p90_ns").num;
    const double p99 = s.at("lat.mshr.p99_ns").num;
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    ASSERT_FALSE(mshr.buckets.empty());
    EXPECT_LE(p99, LogHistogram::bucketLow(mshr.buckets.size()));
}

TEST(MctStats, ControllerRegistersAndTraces)
{
    SystemParams sp;
    System sys("lbm", sp, staticBaselineConfig());
    sys.eventTrace().enable(64 * 1024);
    sys.run(100 * 1000);

    MctParams mp;
    MctController ctl(sys, mp);
    const StatRegistry &reg = sys.statRegistry();
    for (const char *path :
         {"mct.decisions", "mct.resamplings", "mct.health_checks",
          "mct.fallbacks", "mct.baseline.ipc",
          "mct.current.is_baseline", "mct.sampling.period_insts"}) {
        EXPECT_TRUE(reg.has(path)) << path;
    }

    ctl.runFor(1500 * 1000);
    EXPECT_DOUBLE_EQ(reg.value("mct.decisions"),
                     static_cast<double>(ctl.decisions().size()));
    EXPECT_GE(reg.value("mct.decisions"), 1.0);
    EXPECT_GT(reg.value("mct.sampling.insts"), 0.0);

    const auto counts = sys.eventTrace().countsByType();
    const auto n = [&](TraceEventType t) {
        return counts[static_cast<std::size_t>(t)];
    };
    EXPECT_GE(n(TraceEventType::SamplingRoundStart), 1u);
    EXPECT_GE(n(TraceEventType::SamplingRoundEnd), 1u);
    EXPECT_GE(n(TraceEventType::PredictionMade), 1u);
    EXPECT_GE(n(TraceEventType::ConfigApplied), 1u);
}

// --------------------------------------------------------------------
// ProvenanceRecord / ProvenanceTrace
// --------------------------------------------------------------------

// A deterministic, fully-populated record for serialization tests.
ProvenanceRecord
sampleProvenanceRecord()
{
    ProvenanceRecord rec;
    rec.seq = 4;
    rec.phase = 1;
    rec.inst = 1000;
    rec.model = "gbt";
    rec.configKey = "cfgA";
    rec.chosen = 7;
    rec.sampledConfigs = 77;
    rec.minLifetimeYears = 8;
    rec.ipcFraction = 0.95;
    rec.safetyMargin = 1.25;
    rec.objectives[0].predicted = 0.5;
    rec.objectives[0].uncertainty = 0.125;
    rec.objectives[1].predicted = 8;
    rec.objectives[2].predicted = 0.25;
    ProvenanceCandidate c;
    c.config = 3;
    c.ipc = 0.375;
    c.lifetimeYears = 16;
    c.energyJ = 0.5;
    c.feasible = true;
    rec.runnerUps.push_back(c);
    rec.bestSampledIpc = 0.75;
    return rec;
}

TEST(Provenance, CloseAttachesRealizedValuesAndRegret)
{
    ProvenanceRecord rec = sampleProvenanceRecord();
    EXPECT_EQ(closeProvenanceRecord(rec, 0.25, 4.0, 0.5, 2000), 0u);

    EXPECT_TRUE(rec.closed);
    EXPECT_EQ(rec.closeInst, InstCount(2000));
    EXPECT_TRUE(rec.objectives[0].errorValid);
    EXPECT_DOUBLE_EQ(rec.objectives[0].relError, 1.0); // |0.5-0.25|/0.25
    EXPECT_DOUBLE_EQ(rec.objectives[1].relError, 1.0); // |8-4|/4
    EXPECT_DOUBLE_EQ(rec.objectives[2].relError, 0.5); // |0.25-0.5|/0.5
    EXPECT_DOUBLE_EQ(rec.regret, 0.5); // bestSampledIpc 0.75 - 0.25
}

TEST(Provenance, ZeroOrNonfiniteRealizedValueInvalidatesError)
{
    ProvenanceRecord rec = sampleProvenanceRecord();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(closeProvenanceRecord(rec, 0.0, 4.0, nan, 2000), 2u);

    EXPECT_TRUE(rec.closed);
    EXPECT_FALSE(rec.objectives[0].errorValid); // realized ~ 0
    EXPECT_DOUBLE_EQ(rec.objectives[0].relError, 0.0);
    EXPECT_TRUE(rec.objectives[1].errorValid);
    EXPECT_DOUBLE_EQ(rec.objectives[1].relError, 1.0);
    EXPECT_FALSE(rec.objectives[2].errorValid); // realized non-finite
    EXPECT_DOUBLE_EQ(rec.objectives[2].relError, 0.0);
}

TEST(Provenance, JsonlGolden)
{
    ProvenanceRecord rec = sampleProvenanceRecord();
    closeProvenanceRecord(rec, 0.25, 4.0, 0.5, 2000);
    rec.cumRegret = 0.5;
    rec.attribution[0] = {0.75, 0.25};

    ProvenanceTrace t;
    t.enable(4);
    t.record(rec);

    std::ostringstream os;
    t.writeJsonl(os);
    EXPECT_EQ(
        os.str(),
        "{\"seq\":4,\"phase\":1,\"inst\":1000,\"close_inst\":2000,"
        "\"model\":\"gbt\",\"config\":\"cfgA\",\"chosen\":7,"
        "\"fallback\":false,\"sampled\":77,"
        "\"constraints\":{\"min_lifetime_years\":8,"
        "\"ipc_fraction\":0.95,\"safety_margin\":1.25},"
        "\"objectives\":{"
        "\"ipc\":{\"pred\":0.5,\"sigma\":0.125,\"real\":0.25,"
        "\"err\":1,\"err_valid\":true},"
        "\"lifetime\":{\"pred\":8,\"sigma\":0,\"real\":4,"
        "\"err\":1,\"err_valid\":true},"
        "\"energy\":{\"pred\":0.25,\"sigma\":0,\"real\":0.5,"
        "\"err\":0.5,\"err_valid\":true}},"
        "\"runner_ups\":[{\"config\":3,\"ipc\":0.375,"
        "\"lifetime_years\":16,\"energy_j\":0.5,\"feasible\":true}],"
        "\"best_sampled_ipc\":0.75,\"regret\":0.5,\"cum_regret\":0.5,"
        "\"attribution\":{\"ipc\":[0.75,0.25]},"
        "\"closed\":true}\n");
}

TEST(Provenance, ChromeTraceGolden)
{
    ProvenanceRecord rec = sampleProvenanceRecord();
    closeProvenanceRecord(rec, 0.25, 4.0, 0.5, 2000);

    ProvenanceTrace t;
    t.enable(4);
    t.record(rec);

    std::ostringstream os;
    t.writeChromeTrace(os);
    EXPECT_EQ(
        os.str(),
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,"
        "\"args\":{\"name\":\"provenance\"}},"
        "{\"name\":\"cfgA\",\"ph\":\"X\",\"ts\":1000,\"dur\":1000,"
        "\"pid\":2,\"tid\":1,"
        "\"args\":{\"seq\":4,\"model\":\"gbt\",\"pred_ipc\":0.5,"
        "\"real_ipc\":0.25,\"regret\":0.5}}]}\n");
}

TEST(Provenance, RingWraparoundIsAccounted)
{
    ProvenanceTrace t;
    t.enable(2);
    for (std::uint64_t i = 0; i < 3; ++i) {
        ProvenanceRecord rec = sampleProvenanceRecord();
        rec.seq = i;
        t.record(rec);
    }
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.recorded(), 3u);
    EXPECT_EQ(t.dropped(), 1u);
    const auto held = t.items();
    ASSERT_EQ(held.size(), 2u);
    EXPECT_EQ(held[0].seq, 1u); // oldest first; seq 0 overwritten
    EXPECT_EQ(held[1].seq, 2u);
}

// --------------------------------------------------------------------
// Controller audit lifecycle
// --------------------------------------------------------------------

TEST(MctAudit, TruncatedDecisionWindowCountsDropped)
{
    SystemParams sp;
    System sys("lbm", sp, staticBaselineConfig());
    sys.run(100 * 1000);

    MctParams mp;
    MctController ctl(sys, mp);
    const StatRegistry &reg = sys.statRegistry();
    // Advance in slices small enough to stop right after the first
    // decision, before any window can realize its objectives.
    while (reg.value("mct.audit.decisions") < 1.0 &&
           sys.retired() < 20 * 1000 * 1000)
        ctl.runFor(10 * 1000);
    ASSERT_GE(reg.value("mct.audit.decisions"), 1.0);
    ASSERT_DOUBLE_EQ(reg.value("mct.audit.closed"), 0.0);
    EXPECT_DOUBLE_EQ(reg.value("mct.audit.dropped"), 0.0);

    ctl.finalizeAudit();
    EXPECT_DOUBLE_EQ(reg.value("mct.audit.dropped"), 1.0);
    ctl.finalizeAudit(); // idempotent: nothing left to drop
    EXPECT_DOUBLE_EQ(reg.value("mct.audit.dropped"), 1.0);
}

TEST(MctAudit, ProvenanceIsByteIdenticalAcrossRuns)
{
    const auto runOnce = [] {
        SystemParams sp;
        System sys("lbm", sp, staticBaselineConfig());
        sys.provenanceTrace().enable(64);
        sys.run(100 * 1000);
        MctParams mp;
        MctController ctl(sys, mp);
        ctl.runFor(3 * 1000 * 1000);
        ctl.finalizeAudit();
        std::ostringstream os;
        sys.provenanceTrace().writeJsonl(os);
        return os.str();
    };
    const std::string first = runOnce();
    const std::string second = runOnce();
    ASSERT_FALSE(first.empty()); // at least one closed record
    EXPECT_EQ(first, second);
}

// --------------------------------------------------------------------
// HostProfiler
// --------------------------------------------------------------------

/** Scripted clock: tests set wall/cpu/status directly between calls,
 *  so host-metric arithmetic is checked deterministically. */
class FakeHostClock : public HostClock
{
  public:
    std::uint64_t wall = 0; ///< returned by wallNs()
    std::uint64_t cpu = 0;  ///< returned by cpuNs()
    std::string status;     ///< returned by procStatus()

    std::uint64_t wallNs() const override { return wall; }
    std::uint64_t cpuNs() const override { return cpu; }
    std::string procStatus() const override { return status; }
};

TEST(HostProfiler, DisabledAndNullScopesAreSafe)
{
    { HostProfiler::Scope scope(nullptr, "anything"); }

    HostProfiler p; // never enabled
    { HostProfiler::Scope scope(&p, "anything"); }
    p.begin("x"); // disabled: no-op, not a panic
    p.end("x");
    p.addInstructions(1000);
    EXPECT_TRUE(p.stages().empty());
    EXPECT_DOUBLE_EQ(p.mips(), 0.0);
    EXPECT_DOUBLE_EQ(p.elapsedWallSeconds(), 0.0);
}

TEST(HostProfiler, MipsFromScriptedClock)
{
    FakeHostClock clk;
    HostProfiler p;
    p.enable(&clk);

    p.addInstructions(3'000'000);
    p.addInstructions(1'000'000);
    clk.wall = 2'000'000'000; // 2 wall seconds since enable
    clk.cpu = 1'500'000'000;  // 1.5 CPU seconds
    EXPECT_EQ(p.instructions(), 4'000'000u);
    EXPECT_DOUBLE_EQ(p.elapsedWallSeconds(), 2.0);
    EXPECT_DOUBLE_EQ(p.elapsedCpuSeconds(), 1.5);
    EXPECT_DOUBLE_EQ(p.mips(), 2.0); // 4M insts / 2 s
}

TEST(HostProfiler, StageWallAndCpuAccumulateFromScriptedClock)
{
    FakeHostClock clk;
    HostProfiler p;
    p.enable(&clk);

    clk.wall = 1'000'000'000;
    clk.cpu = 100'000'000;
    p.begin("fit");
    clk.wall = 3'000'000'000; // +2.0 s wall
    clk.cpu = 600'000'000;    // +0.5 s cpu
    p.end("fit");
    {
        HostProfiler::Scope scope(&p, "optimize");
        clk.wall += 500'000'000; // +0.5 s wall
        clk.cpu += 250'000'000;  // +0.25 s cpu
    }
    p.begin("fit"); // second call, no time passes
    p.end("fit");

    const auto stages = p.stages();
    ASSERT_EQ(stages.size(), 2u);
    EXPECT_EQ(stages[0].name, "fit"); // first-use order
    EXPECT_EQ(stages[0].calls, 2u);
    EXPECT_EQ(stages[1].name, "optimize");
    EXPECT_DOUBLE_EQ(p.wallSeconds("fit"), 2.0);
    EXPECT_DOUBLE_EQ(p.cpuSeconds("fit"), 0.5);
    EXPECT_DOUBLE_EQ(p.wallSeconds("optimize"), 0.5);
    EXPECT_DOUBLE_EQ(p.cpuSeconds("optimize"), 0.25);
    EXPECT_DOUBLE_EQ(p.wallSeconds("absent"), 0.0);
}

TEST(HostProfiler, CpuTimeIsMonotonicOnTheRealClock)
{
    HostProfiler p;
    p.enable(); // real host clock
    const double cpu0 = p.elapsedCpuSeconds();
    // Burn a little CPU so the second reading has something to see.
    volatile double sink = 0.0;
    for (int i = 0; i < 200000; ++i)
        sink = sink + static_cast<double>(i) * 1e-9;
    (void)sink;
    const double cpu1 = p.elapsedCpuSeconds();
    EXPECT_GE(cpu0, 0.0);
    EXPECT_GE(cpu1, cpu0);
    EXPECT_GE(p.elapsedWallSeconds(), 0.0);
}

TEST(HostProfiler, ParseHostStatusReadsProcSnapshot)
{
    // Trimmed /proc/self/status fixture: unrelated keys interleaved,
    // tab-indented values, kB units.
    const HostMemory m = parseHostStatus("Name:\tmct_sim\n"
                                         "Umask:\t0022\n"
                                         "VmPeak:\t  501232 kB\n"
                                         "VmHWM:\t   98304 kB\n"
                                         "VmRSS:\t   65536 kB\n"
                                         "VmData:\t  131072 kB\n"
                                         "Threads:\t1\n");
    EXPECT_TRUE(m.valid);
    EXPECT_DOUBLE_EQ(m.rssKb, 65536.0);
    EXPECT_DOUBLE_EQ(m.hwmKb, 98304.0);
    EXPECT_DOUBLE_EQ(m.heapKb, 131072.0);

    EXPECT_FALSE(parseHostStatus("").valid);
    EXPECT_FALSE(parseHostStatus("Name:\tx\nThreads:\t4\n").valid);
}

TEST(HostProfiler, RssHighWaterSurvivesShrinkingResidentSet)
{
    FakeHostClock clk;
    clk.status = "VmRSS:\t  2048 kB\nVmHWM:\t  2048 kB\n";
    HostProfiler p;
    p.enable(&clk); // enable() takes the first memory sample
    EXPECT_DOUBLE_EQ(p.rssHighWaterKb(), 2048.0);

    clk.status = "VmRSS:\t   512 kB\nVmHWM:\t  2048 kB\n";
    p.sampleMemory();
    EXPECT_DOUBLE_EQ(p.memory().rssKb, 512.0);
    EXPECT_DOUBLE_EQ(p.rssHighWaterKb(), 2048.0); // high-water kept
}

TEST(HostProfiler, HostStatsStayOutOfSimSnapshots)
{
    FakeHostClock clk;
    HostProfiler p;
    p.enable(&clk);
    p.addInstructions(1'000'000);
    clk.wall = 1'000'000'000;

    StatRegistry reg;
    double ipc = 1.25;
    reg.addGauge("cpu.ipc", [&ipc] { return ipc; });
    p.registerStats(reg);
    EXPECT_TRUE(reg.isHost("sim.mips"));
    EXPECT_FALSE(reg.isHost("cpu.ipc"));

    const StatSnapshot sim = reg.snapshot(); // default: Sim scope
    EXPECT_EQ(sim.count("cpu.ipc"), 1u);
    EXPECT_EQ(sim.count("sim.mips"), 0u);
    EXPECT_EQ(sim.count("sim.host.wall_seconds"), 0u);

    const StatSnapshot host = reg.snapshot(StatScope::Host);
    EXPECT_EQ(host.count("cpu.ipc"), 0u);
    ASSERT_EQ(host.count("sim.mips"), 1u);
    EXPECT_DOUBLE_EQ(host.at("sim.mips").num, 1.0);

    const StatSnapshot all = reg.snapshot(StatScope::All);
    EXPECT_EQ(all.count("cpu.ipc"), 1u);
    EXPECT_EQ(all.count("sim.mips"), 1u);
}

TEST(HostProfiler, PeriodicSamplesAndTimelineCap)
{
    FakeHostClock clk;
    clk.status = "VmRSS:\t  100 kB\n";
    HostProfiler p;
    p.enable(&clk, 2); // only two timeline slices kept

    for (int i = 0; i < 3; ++i) {
        HostProfiler::Scope scope(&p, "step");
        clk.wall += 1'000'000;
    }
    EXPECT_EQ(p.timelineDropped(), 1u);

    p.addInstructions(500'000);
    clk.wall = 1'000'000'000;
    p.samplePeriodic(500'000);
    ASSERT_EQ(p.periodic().size(), 1u);
    EXPECT_EQ(p.periodic()[0].inst, 500'000u);
    EXPECT_DOUBLE_EQ(p.periodic()[0].mips, 0.5);
    EXPECT_DOUBLE_EQ(p.periodic()[0].rssKb, 100.0);
}

TEST(HostProfiler, WriteJsonEmitsHostSchemaAndStages)
{
    FakeHostClock clk;
    clk.status = "VmRSS:\t  300 kB\nVmHWM:\t  400 kB\n";
    HostProfiler p;
    p.enable(&clk);
    clk.wall = 1'000'000'000;
    clk.cpu = 500'000'000;
    p.begin("step");
    clk.wall += 1'000'000'000;
    p.end("step");
    p.addInstructions(2'000'000);

    std::ostringstream os;
    p.writeJson(os, "eval", "stream", "cfg0");
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"schema\":\"mct-host-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"sim.mips\":"), std::string::npos);
    EXPECT_NE(doc.find("\"sim.host.rss_hwm_kb\":"), std::string::npos);
    EXPECT_NE(doc.find("\"stages\":["), std::string::npos);
    EXPECT_NE(doc.find("\"name\":\"step\""), std::string::npos);
    EXPECT_EQ(doc,
              "{\"schema\":\"mct-host-v1\",\"mode\":\"eval\","
              "\"app\":\"stream\",\"config\":\"cfg0\","
              "\"final\":{\"sim.mips\":1,\"sim.host.wall_seconds\":2,"
              "\"sim.host.cpu_seconds\":0.5,"
              "\"sim.host.cpu_util\":0.25,\"sim.host.rss_kb\":300,"
              "\"sim.host.rss_hwm_kb\":400,\"sim.host.heap_kb\":0,"
              "\"sim.host.instructions\":2000000,"
              "\"sim.host.timeline_dropped\":0},\"periodic\":[],"
              "\"stages\":[{\"name\":\"step\",\"seconds\":1,"
              "\"cpu_seconds\":0,\"calls\":1}]}\n");

    std::ostringstream trace;
    p.writeChromeTrace(trace);
    EXPECT_NE(trace.str().find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(trace.str().find("\"mct_sim host\""), std::string::npos);
    EXPECT_EQ(trace.str(),
              "{\"displayTimeUnit\":\"ms\","
              "\"traceEvents\":[{\"name\":\"process_name\","
              "\"ph\":\"M\",\"pid\":3,"
              "\"args\":{\"name\":\"mct_sim host\"}},"
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,"
              "\"tid\":1,\"args\":{\"name\":\"host\"}},"
              "{\"name\":\"step\",\"ph\":\"X\",\"ts\":1000000,"
              "\"dur\":1000000,\"pid\":3,\"tid\":1,"
              "\"args\":{\"cpu_us\":0}}]}\n");
}

// --------------------------------------------------------------------
// MetricTimeline
// --------------------------------------------------------------------

StatSnapshot
timelineWindow(double a, double b)
{
    StatSnapshot s;
    StatValue v;
    v.kind = StatKind::Gauge;
    v.num = a;
    s["sim.objective.ipc"] = v;
    v.num = b;
    s["sim.objective.lifetime_years"] = v;
    v.num = 999.0;
    s["memctrl.reads_completed"] = v; // outside the sim.* glob
    return s;
}

TEST(MetricTimeline, BindsLazilyToGlobsFromFirstWindow)
{
    MetricTimeline tl;
    tl.enable({"sim.*"}, 4);
    EXPECT_TRUE(tl.enabled());
    EXPECT_FALSE(tl.bound());
    EXPECT_TRUE(tl.metrics().empty());

    tl.observe(1000, timelineWindow(1.0, 2.0));
    EXPECT_TRUE(tl.bound());
    const std::vector<std::string> want = {"sim.objective.ipc",
                                           "sim.objective"
                                           ".lifetime_years"};
    EXPECT_EQ(tl.metrics(), want); // sorted, glob-filtered
    EXPECT_EQ(tl.size(), 1u);
}

TEST(MetricTimeline, RingWrapsWithDroppedAccounting)
{
    MetricTimeline tl;
    tl.enable({"sim.objective.ipc"}, 3);
    for (int i = 1; i <= 5; ++i)
        tl.observe(static_cast<InstCount>(i * 1000),
                   timelineWindow(static_cast<double>(i), 0.0));

    EXPECT_EQ(tl.size(), 3u);
    EXPECT_EQ(tl.recorded(), 5u);
    EXPECT_EQ(tl.dropped(), 2u);
    // The survivors are the newest three windows, oldest first.
    std::vector<InstCount> insts;
    std::vector<double> series;
    for (const TimelineWindow &w : tl.items()) {
        insts.push_back(w.inst);
        series.push_back(w.vals.at(0));
    }
    const std::vector<InstCount> wantInsts = {3000, 4000, 5000};
    EXPECT_EQ(insts, wantInsts);
    const std::vector<double> wantSeries = {3.0, 4.0, 5.0};
    EXPECT_EQ(series, wantSeries);
}

TEST(MetricTimeline, RollupsCoverDroppedWindows)
{
    MetricTimeline tl;
    tl.enable({"sim.objective.ipc"}, 2);
    // 10 wraps out of the ring, but min/max/ewma saw it.
    for (const double v : {10.0, 2.0, 4.0})
        tl.observe(1, timelineWindow(v, 0.0));

    const MetricTimeline::Rollup &r = tl.rollup(0);
    EXPECT_DOUBLE_EQ(r.min, 2.0);
    EXPECT_DOUBLE_EQ(r.max, 10.0);
    // EWMA seeds at 10, then 0.25-blends: 8.0, then 7.0.
    EXPECT_DOUBLE_EQ(r.ewma, 7.0);
}

TEST(MetricTimeline, WriteJsonIsByteIdenticalAcrossRuns)
{
    const auto run = [] {
        MetricTimeline tl;
        tl.enable({"sim.*"}, 4);
        for (int i = 1; i <= 6; ++i)
            tl.observe(static_cast<InstCount>(i * 1000),
                       timelineWindow(1.0 + i, 2.0 * i));
        std::ostringstream os;
        tl.writeJson(os, "eval", "lbm", "cfg",
                     {{"alert.count.critical", 0.0}});
        return os.str();
    };
    const std::string doc = run();
    EXPECT_EQ(doc, run());
    EXPECT_EQ(doc,
              "{\"schema\":\"mct-timeline-v1\",\"mode\":\"eval\","
              "\"app\":\"lbm\",\"config\":\"cfg\",\"capacity\":4,"
              "\"metrics\":[\"sim.objective.ipc\","
              "\"sim.objective.lifetime_years\"],\"inst\":[3000,4000,"
              "5000,6000],\"series\":{\"sim.objective.ipc\":[4,5,6,"
              "7],\"sim.objective.lifetime_years\":[6,8,10,12]},"
              "\"final\":{\"alert.count.critical\":0,"
              "\"sim.timeline.dropped\":2,\"sim.timeline.metrics\":2,"
              "\"sim.timeline.recorded\":6,"
              "\"sim.timeline.windows\":4,"
              "\"timeline.sim.objective.ipc.ewma\":4.7119140625,"
              "\"timeline.sim.objective.ipc.max\":7,"
              "\"timeline.sim.objective.ipc.min\":2,"
              "\"timeline.sim.objective.lifetime_years.ewma\":7.423828125,"
              "\"timeline.sim.objective.lifetime_years.max\":12,"
              "\"timeline.sim.objective.lifetime_years.min\":2}}\n");
    EXPECT_NE(doc.find("\"schema\":\"mct-timeline-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"sim.timeline.dropped\":2"),
              std::string::npos);
    EXPECT_NE(doc.find("\"sim.timeline.recorded\":6"),
              std::string::npos);
    EXPECT_NE(doc.find("timeline.sim.objective.ipc.max"),
              std::string::npos);
    EXPECT_NE(doc.find("\"alert.count.critical\":0"),
              std::string::npos);
}

TEST(MetricTimeline, CheckpointRoundTripReproducesDocument)
{
    MetricTimeline a;
    a.enable({"sim.*"}, 3);
    for (int i = 1; i <= 5; ++i)
        a.observe(static_cast<InstCount>(i * 1000),
                  timelineWindow(static_cast<double>(i), 1.0));
    Serializer s;
    a.io(s);

    MetricTimeline b;
    b.enable({"sim.*"}, 3);
    Deserializer d(s.data());
    b.io(d);
    ASSERT_TRUE(d.atEnd());

    a.observe(6000, timelineWindow(6.0, 1.0));
    b.observe(6000, timelineWindow(6.0, 1.0));
    std::ostringstream ja, jb;
    a.writeJson(ja, "eval", "lbm", "cfg", {});
    b.writeJson(jb, "eval", "lbm", "cfg", {});
    EXPECT_EQ(ja.str(), jb.str());
}

TEST(MetricTimeline, TimelineAndAlertStatsAreHostScoped)
{
    SystemParams sp;
    System sys("lbm", sp, staticBaselineConfig());
    sys.enableTimeline({"sim.*"}, 8);
    AlertRule r;
    r.name = "smoke";
    r.glob = "sim.instructions";
    r.cond = AlertCondition::Above;
    r.threshold = 0.0;
    sys.enableAlerts({r});

    const StatRegistry &reg = sys.statRegistry();
    for (const char *path :
         {"sim.timeline.windows", "sim.timeline.recorded",
          "sim.timeline.dropped", "sim.timeline.metrics",
          "alert.raised", "alert.cleared", "alert.active",
          "alert.rules", "alert.count.critical"}) {
        ASSERT_TRUE(reg.has(path)) << path;
        EXPECT_TRUE(reg.isHost(path)) << path;
    }
    // The byte-identity contract: arming never perturbs Sim
    // snapshots, which is what observe() windows are built from.
    const StatSnapshot sim = sys.statRegistry().snapshot();
    EXPECT_EQ(sim.count("sim.timeline.windows"), 0u);
    EXPECT_EQ(sim.count("alert.raised"), 0u);
    const StatSnapshot all =
        sys.statRegistry().snapshot(StatScope::All);
    EXPECT_EQ(all.count("sim.timeline.windows"), 1u);
    EXPECT_EQ(all.count("alert.raised"), 1u);
}

// --------------------------------------------------------------------
// StatsReport::print alignment
// --------------------------------------------------------------------

TEST(StatsReport, PrintAlignsColumns)
{
    StatsReport r;
    r.add("cpu.ipc", 1.5);
    r.add("memctrl.reads", std::uint64_t(42), "completed");
    r.add("x", std::uint64_t(123456));
    ASSERT_EQ(r.size(), 3u);

    std::ostringstream os;
    r.print(os);
    // Paths left-justify to the longest path plus two; values
    // right-justify to the widest value; annotations follow "  # ".
    EXPECT_EQ(os.str(), "cpu.ipc           1.5\n"
                        "memctrl.reads      42  # completed\n"
                        "x              123456\n");
}

} // namespace
} // namespace mct
