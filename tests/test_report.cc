/**
 * @file
 * Tests for the mct_report library: the JSON reader, the stats /
 * span / profile loaders, the thresholds grammar, percentile
 * reconstruction from serialized buckets, and the diff gates.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/instrument.hh"
#include "common/manifest.hh"
#include "report.hh"

namespace mct::report
{
namespace
{

/** Write @p text to a unique temp file; removed on destruction. */
class TempFile
{
  public:
    explicit TempFile(const std::string &text)
    {
        // ctest runs each test in its own process, in parallel, so the
        // counter alone would collide across tests; the test's name
        // keeps the paths apart.
        static int seq = 0;
        const auto *test =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path_ = std::string(::testing::TempDir()) + "mct_report_" +
                test->test_suite_name() + "." + test->name() + "_" +
                std::to_string(++seq) + ".json";
        std::ofstream os(path_, std::ios::binary);
        os << text;
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// --------------------------------------------------------------------
// JSON reader
// --------------------------------------------------------------------

TEST(Json, ParsesScalarsContainersAndEscapes)
{
    const JsonParse p = parseJson(
        "{\"a\": 1.5, \"b\": [true, null, -2e3], "
        "\"s\": \"x\\n\\u0041\", \"o\": {\"k\": \"v\"}}");
    ASSERT_TRUE(p.ok) << p.error;
    const JsonValue &v = p.value;
    EXPECT_DOUBLE_EQ(v.num("a", 0.0), 1.5);
    const JsonValue *b = v.find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(b->arr.size(), 3u);
    EXPECT_EQ(b->arr[0].kind, JsonValue::Kind::Bool);
    EXPECT_TRUE(b->arr[0].boolean);
    EXPECT_EQ(b->arr[1].kind, JsonValue::Kind::Null);
    EXPECT_DOUBLE_EQ(b->arr[2].number, -2000.0);
    EXPECT_EQ(v.find("s")->str, "x\nA");
    EXPECT_EQ(v.find("o")->text("k", ""), "v");
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_DOUBLE_EQ(v.num("missing", 7.0), 7.0);
}

TEST(Json, RejectsMalformedInputWithOffset)
{
    for (const char *bad :
         {"{", "[1,]", "{\"a\":}", "tru", "\"unterminated",
          "{\"a\":1} trailing", ""}) {
        const JsonParse p = parseJson(bad);
        EXPECT_FALSE(p.ok) << bad;
        EXPECT_NE(p.error.find("offset"), std::string::npos) << bad;
    }
}

// --------------------------------------------------------------------
// RunHistogram percentiles (mirrors LogHistogram::percentile)
// --------------------------------------------------------------------

TEST(RunHistogram, PercentileInterpolatesSerializedBuckets)
{
    // Four observations in bucket [1, 2).
    RunHistogram h;
    h.count = 4;
    h.buckets = {{1.0, 4}};
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 1.5);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 2.0);

    // Bucket 0 spans [0, 1); higher buckets double their low edge.
    RunHistogram g;
    g.count = 4;
    g.buckets = {{0.0, 2}, {2.0, 2}};
    EXPECT_DOUBLE_EQ(g.percentile(0.25), 0.5);
    EXPECT_DOUBLE_EQ(g.percentile(0.75), 3.0);

    EXPECT_DOUBLE_EQ(RunHistogram{}.percentile(0.9), 0.0);
}

// --------------------------------------------------------------------
// Loaders
// --------------------------------------------------------------------

const char *statsDoc(const char *ipc, const char *latency)
{
    static std::string doc;
    doc = std::string("{\"schema\":\"mct-stats-v1\",\"mode\":\"eval\","
                      "\"app\":\"lbm\",\"config\":\"static\","
                      "\"final\":{\"sim.objective.ipc\":") +
          ipc + ",\"memctrl.avg_read_latency_ns\":" + latency +
          ",\"lat.mshr.ns\":{\"count\":4,\"sum\":6.0,"
          "\"buckets\":[[1.0,4]]}},"
          "\"periodic\":[{\"inst\":500,\"delta\":"
          "{\"sim.instructions\":500}}],"
          "\"events\":{\"span_complete\":3},"
          "\"events_recorded\":3,\"events_dropped\":0}";
    return doc.c_str();
}

TEST(Loaders, SnapshotsSplitScalarsAndHistograms)
{
    const TempFile f(statsDoc("0.5", "200.0"));
    RunData run;
    std::string err;
    ASSERT_TRUE(loadSnapshots(f.path(), run, err)) << err;
    EXPECT_EQ(run.app, "lbm");
    EXPECT_EQ(run.mode, "eval");
    EXPECT_DOUBLE_EQ(run.finalScalars.at("sim.objective.ipc"), 0.5);
    ASSERT_EQ(run.finalHists.count("lat.mshr.ns"), 1u);
    EXPECT_EQ(run.finalHists.at("lat.mshr.ns").count, 4u);
    ASSERT_EQ(run.windows.size(), 1u);
    EXPECT_EQ(run.windows[0].inst, 500u);
    EXPECT_DOUBLE_EQ(run.eventCounts.at("span_complete"), 3.0);
}

TEST(Loaders, SnapshotsRejectWrongSchema)
{
    const TempFile f("{\"schema\":\"other-v9\",\"final\":{}}");
    RunData run;
    std::string err;
    EXPECT_FALSE(loadSnapshots(f.path(), run, err));
    EXPECT_NE(err.find("schema"), std::string::npos);
}

TEST(Loaders, SpansConvertPicosecondsToNanoseconds)
{
    const TempFile f(
        "{\"id\":64,\"addr\":4096,\"write\":0,\"hit_level\":0,"
        "\"inst\":100,\"begin_ps\":1000,\"end_ps\":209000,"
        "\"stages\":{\"l1\":[1000,2000],\"bank\":[2000,109000]}}\n");
    SpanSet set;
    std::string err;
    ASSERT_TRUE(loadSpans(f.path(), set, err)) << err;
    ASSERT_EQ(set.spans.size(), 1u);
    const SpanRow &s = set.spans[0];
    EXPECT_EQ(s.id, 64u);
    EXPECT_DOUBLE_EQ(s.totalNs, 208.0);
    EXPECT_DOUBLE_EQ(s.stageNs.at("l1"), 1.0);
    EXPECT_DOUBLE_EQ(s.stageNs.at("bank"), 107.0);
}

// --------------------------------------------------------------------
// Host-telemetry documents (mct-host-v1)
// --------------------------------------------------------------------

const char *hostDoc(const char *mips, const char *stepSeconds)
{
    static std::string doc;
    doc = std::string("{\"schema\":\"mct-host-v1\",\"mode\":\"eval\","
                      "\"app\":\"lbm\",\"config\":\"static\","
                      "\"final\":{\"sim.mips\":") +
          mips +
          ",\"sim.host.wall_seconds\":2.0,"
          "\"sim.host.rss_hwm_kb\":4096},"
          "\"periodic\":[{\"inst\":500,\"delta\":"
          "{\"sim.mips\":1.0}}],"
          "\"stages\":[{\"name\":\"replay\",\"seconds\":0.5,"
          "\"cpu_seconds\":0.4,\"calls\":1},"
          "{\"name\":\"step\",\"seconds\":" +
          stepSeconds + ",\"cpu_seconds\":1.0,\"calls\":20}]}";
    return doc.c_str();
}

TEST(HostDoc, LoadsAsBothSnapshotsAndProfile)
{
    const TempFile f(hostDoc("17.5", "1.5"));

    RunData run;
    std::string err;
    ASSERT_TRUE(loadSnapshots(f.path(), run, err)) << err;
    EXPECT_EQ(run.mode, "eval");
    EXPECT_DOUBLE_EQ(run.finalScalars.at("sim.mips"), 17.5);
    EXPECT_DOUBLE_EQ(run.finalScalars.at("sim.host.rss_hwm_kb"),
                     4096.0);
    ASSERT_EQ(run.windows.size(), 1u);

    Profile prof;
    ASSERT_TRUE(loadProfile(f.path(), prof, err)) << err;
    ASSERT_EQ(prof.stages.size(), 2u);
    EXPECT_EQ(prof.stages[1].name, "step");
    EXPECT_DOUBLE_EQ(prof.stages[1].seconds, 1.5);
    EXPECT_DOUBLE_EQ(prof.stages[1].cpuSeconds, 1.0);
    EXPECT_EQ(prof.stages[1].calls, 20u);
}

TEST(HostDoc, SimMipsGateTripsOnlyOnCatastrophicSlowdown)
{
    Thresholds th;
    std::string err;
    ASSERT_TRUE(parseThresholds("metric sim.mips\n"
                                "  direction higher\n"
                                "  rel 0.85\n",
                                th, err))
        << err;

    const TempFile base(hostDoc("10.0", "1.0"));
    RunData b;
    ASSERT_TRUE(loadSnapshots(base.path(), b, err)) << err;

    // Half the baseline rate: noisy, but within the generous slack.
    const TempFile slow(hostDoc("5.0", "2.0"));
    RunData s;
    ASSERT_TRUE(loadSnapshots(slow.path(), s, err)) << err;
    EXPECT_EQ(diffRuns(b, s, th).regressions, 0u);

    // Below 15% of baseline: the accidental-O(n^2) case.
    const TempFile dead(hostDoc("1.0", "10.0"));
    RunData d;
    ASSERT_TRUE(loadSnapshots(dead.path(), d, err)) << err;
    const DiffReport rep = diffRuns(b, d, th);
    EXPECT_EQ(rep.regressions, 1u);
    ASSERT_EQ(rep.checks.size(), 1u);
    EXPECT_EQ(rep.checks[0].metric, "sim.mips");
}

// --------------------------------------------------------------------
// Run manifests (mct-manifest-v1) + fleet rollup (mct-fleet-v1)
// --------------------------------------------------------------------

std::string
baseName(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/** Manifest text naming @p artifacts (kind, on-disk path) with real
 *  checksums, written next to the artifacts so relative paths hold. */
std::string
manifestText(
    const std::string &runId, const std::string &app, int seed,
    const std::vector<std::pair<std::string, std::string>> &artifacts)
{
    std::ostringstream os;
    os << "{\"schema\":\"mct-manifest-v1\",\"run_id\":\"" << runId
       << "\",\"mode\":\"eval\",\"app\":\"" << app
       << "\",\"config\":\"\",\"seed\":" << seed
       << ",\"fault_plan\":\"\",\"fingerprint\":\"fp-" << runId
       << "\",\"artifacts\":[";
    for (std::size_t i = 0; i < artifacts.size(); ++i) {
        std::uint64_t sum = 0, bytes = 0;
        EXPECT_TRUE(checksumFile(artifacts[i].second, sum, bytes));
        os << (i ? "," : "") << "{\"kind\":\"" << artifacts[i].first
           << "\",\"schema\":\"mct-stats-v1\",\"path\":\""
           << baseName(artifacts[i].second) << "\",\"bytes\":" << bytes
           << ",\"fnv1a\":\"" << checksumHex(sum) << "\"}";
    }
    os << "]}";
    return os.str();
}

/** A tiny mct-stats-v1 document with a counter, a gauge, and one
 *  histogram, plus the kinds map the aggregator recovers kinds from. */
std::string
fleetStatsDoc(const char *work, const char *ipc, const char *buckets)
{
    return std::string("{\"schema\":\"mct-stats-v1\",\"mode\":\"eval\","
                       "\"app\":\"lbm\",\"config\":\"\",\"final\":{"
                       "\"work.done\":") +
           work + ",\"sim.objective.ipc\":" + ipc +
           ",\"lat.q.ns\":{\"count\":3,\"sum\":19.0,\"buckets\":[" +
           buckets +
           "]}},\"kinds\":{\"work.done\":\"counter\","
           "\"sim.objective.ipc\":\"gauge\"}}";
}

TEST(Manifest, LoadsAndVerifiesRoundTrip)
{
    const TempFile stats(fleetStatsDoc("10", "1.0", "[1.0,3]"));
    const TempFile mf(
        manifestText("r1", "lbm", 1, {{"stats", stats.path()}}));

    ManifestData m;
    std::string err;
    ASSERT_TRUE(loadManifest(mf.path(), m, err)) << err;
    EXPECT_EQ(m.runId, "r1");
    EXPECT_EQ(m.mode, "eval");
    EXPECT_EQ(m.app, "lbm");
    EXPECT_EQ(m.seed, 1u);
    ASSERT_EQ(m.artifacts.size(), 1u);
    ASSERT_NE(m.artifact("stats"), nullptr);
    EXPECT_EQ(m.artifact("spans"), nullptr);
    EXPECT_EQ(m.artifactPath(*m.artifact("stats")), stats.path());
    EXPECT_TRUE(verifyManifest(m, err)) << err;

    std::string key;
    ASSERT_TRUE(m.groupKey("app", key));
    EXPECT_EQ(key, "lbm");
    ASSERT_TRUE(m.groupKey("seed", key));
    EXPECT_EQ(key, "1");
    EXPECT_FALSE(m.groupKey("nonsense", key));
}

TEST(Manifest, RejectsWrongSchema)
{
    const TempFile mf("{\"schema\":\"mct-stats-v1\",\"artifacts\":[]}");
    ManifestData m;
    std::string err;
    EXPECT_FALSE(loadManifest(mf.path(), m, err));
    EXPECT_NE(err.find("schema"), std::string::npos);
}

TEST(Manifest, TamperedArtifactIsANamedIntegrityError)
{
    const TempFile stats(fleetStatsDoc("10", "1.0", "[1.0,3]"));
    const TempFile mf(
        manifestText("r1", "lbm", 1, {{"stats", stats.path()}}));

    // Flip the artifact under the manifest's feet.
    std::ofstream(stats.path(), std::ios::binary) << "tampered";

    ManifestData m;
    std::string err;
    ASSERT_TRUE(loadManifest(mf.path(), m, err)) << err;
    EXPECT_FALSE(verifyManifest(m, err));
    EXPECT_EQ(err.rfind("integrity error:", 0), 0u) << err;

    // ... which aggregate surfaces verbatim (and --no-verify skips).
    FleetReport fleet;
    EXPECT_FALSE(
        aggregateManifests({mf.path()}, AggregateOptions{}, fleet, err));
    EXPECT_EQ(err.rfind("integrity error:", 0), 0u) << err;
    AggregateOptions loose;
    loose.verify = false;
    EXPECT_FALSE(
        aggregateManifests({mf.path()}, loose, fleet, err));
    EXPECT_EQ(err.find("integrity error:"), std::string::npos) << err;
}

TEST(Fleet, AggregatesMergesAndStaysPermutationIdentical)
{
    // run1 hist: 1@[0,1), 1@[2,4), 1@[8,16); run2: 2@[2,4), 1@[16,32).
    const TempFile s1(
        fleetStatsDoc("10", "1.0", "[0.0,1],[2.0,1],[8.0,1]"));
    const TempFile s2(fleetStatsDoc("32", "2.0", "[2.0,2],[16.0,1]"));
    const TempFile m1(
        manifestText("r1", "lbm", 1, {{"stats", s1.path()}}));
    const TempFile m2(
        manifestText("r2", "lbm", 2, {{"stats", s2.path()}}));

    FleetReport fleet;
    std::string err;
    ASSERT_TRUE(aggregateManifests({m1.path(), m2.path()},
                                   AggregateOptions{}, fleet, err))
        << err;
    EXPECT_EQ(fleet.runs, 2u);
    EXPECT_DOUBLE_EQ(fleet.all.merged.at("work.done").num, 42.0);
    EXPECT_DOUBLE_EQ(fleet.all.merged.at("sim.objective.ipc").num,
                     1.5);
    const StatValue &h = fleet.all.merged.at("lat.q.ns");
    EXPECT_EQ(h.count, 6u);
    // Dense log2 buckets: [0,1)=1, [2,4)=3, [8,16)=1, [16,32)=1.
    const std::vector<std::uint64_t> want{1, 0, 3, 0, 1, 1};
    EXPECT_EQ(h.buckets, want);

    std::ostringstream fwd;
    writeFleetDoc(fwd, fleet);
    FleetReport rev;
    ASSERT_TRUE(aggregateManifests({m2.path(), m1.path()},
                                   AggregateOptions{}, rev, err))
        << err;
    std::ostringstream bwd;
    writeFleetDoc(bwd, rev);
    EXPECT_EQ(fwd.str(), bwd.str());

    // The fleet document gates like any stats document: it loads
    // through the standard reader with kinds intact.
    const TempFile doc(fwd.str());
    RunData run;
    ASSERT_TRUE(loadSnapshots(doc.path(), run, err)) << err;
    EXPECT_DOUBLE_EQ(run.finalScalars.at("sim.objective.ipc"), 1.5);
    EXPECT_DOUBLE_EQ(run.finalScalars.at("sim.fleet.runs"), 2.0);
    EXPECT_DOUBLE_EQ(run.finalScalars.at("fleet.sim.objective.ipc.max"),
                     2.0);
    EXPECT_EQ(run.kinds.at("work.done"), "counter");
}

TEST(Fleet, SingleRunAggregateIsIdentity)
{
    const TempFile s1(
        fleetStatsDoc("10", "1.0", "[0.0,1],[2.0,1],[8.0,1]"));
    const TempFile m1(
        manifestText("r1", "lbm", 1, {{"stats", s1.path()}}));

    FleetReport fleet;
    std::string err;
    ASSERT_TRUE(aggregateManifests({m1.path()}, AggregateOptions{},
                                   fleet, err))
        << err;
    EXPECT_EQ(fleet.runs, 1u);
    EXPECT_DOUBLE_EQ(fleet.all.merged.at("work.done").num, 10.0);
    EXPECT_DOUBLE_EQ(fleet.all.merged.at("sim.objective.ipc").num,
                     1.0);
    EXPECT_EQ(fleet.all.merged.at("lat.q.ns").count, 3u);
    EXPECT_DOUBLE_EQ(
        fleet.all.gauges.at("sim.objective.ipc").stddev, 0.0);
    EXPECT_EQ(fleet.outliers, 0u);
}

TEST(Fleet, GroupsBySeedAndFlagsDispersionOutliers)
{
    const TempFile s1(fleetStatsDoc("1", "1.0", "[1.0,1]"));
    const TempFile s2(fleetStatsDoc("1", "1.0", "[1.0,1]"));
    const TempFile s3(fleetStatsDoc("1", "10.0", "[1.0,1]"));
    const TempFile m1(
        manifestText("r1", "lbm", 1, {{"stats", s1.path()}}));
    const TempFile m2(
        manifestText("r2", "lbm", 2, {{"stats", s2.path()}}));
    const TempFile m3(
        manifestText("r3", "lbm", 3, {{"stats", s3.path()}}));

    AggregateOptions opt;
    opt.outlierK = 1.0;
    FleetReport fleet;
    std::string err;
    ASSERT_TRUE(aggregateManifests(
        {m1.path(), m2.path(), m3.path()}, opt, fleet, err))
        << err;
    // Ungrouped: one "all" bucket; 1.0/1.0/10.0 puts only the 10.0
    // run past 1 stddev from the mean.
    ASSERT_EQ(fleet.groups.size(), 1u);
    EXPECT_EQ(fleet.groups[0].key, "all");
    EXPECT_EQ(fleet.outliers, 1u);
    bool flagged = false;
    for (const FleetOutlier &o : fleet.groups[0].outliers)
        if (o.metric == "sim.objective.ipc" && o.runId == "r3")
            flagged = true;
    EXPECT_TRUE(flagged);

    opt.groupBy = "seed";
    ASSERT_TRUE(aggregateManifests(
        {m1.path(), m2.path(), m3.path()}, opt, fleet, err))
        << err;
    ASSERT_EQ(fleet.groups.size(), 3u);
    EXPECT_EQ(fleet.groups[0].key, "1");
    EXPECT_EQ(fleet.groups[0].runIds,
              (std::vector<std::string>{"r1"}));
    // Single-run groups cannot disperse.
    EXPECT_EQ(fleet.outliers, 0u);
}

// --------------------------------------------------------------------
// Thresholds grammar
// --------------------------------------------------------------------

TEST(Thresholds, ParsesBlocksAndDefaults)
{
    Thresholds th;
    std::string err;
    ASSERT_TRUE(parseThresholds("# gate\n"
                                "metric sim.objective.ipc\n"
                                "  direction higher\n"
                                "  rel 0.10\n"
                                "metric cache.*.hit_rate\n"
                                "  direction higher\n"
                                "  abs 0.005\n",
                                th, err))
        << err;
    ASSERT_EQ(th.rules.size(), 2u);
    EXPECT_TRUE(th.rules[0].higherIsBetter);
    EXPECT_DOUBLE_EQ(th.rules[0].rel, 0.10);
    EXPECT_DOUBLE_EQ(th.rules[1].abs, 0.005);

    // The built-in defaults must themselves parse.
    Thresholds dflt;
    EXPECT_TRUE(parseThresholds(defaultThresholdsText(), dflt, err))
        << err;
    EXPECT_FALSE(dflt.rules.empty());
}

TEST(Thresholds, ErrorsCarryLineNumbers)
{
    Thresholds th;
    std::string err;
    // Key outside a metric block.
    EXPECT_FALSE(parseThresholds("direction higher\n", th, err));
    EXPECT_NE(err.find("line 1"), std::string::npos);
    // Missing required direction.
    EXPECT_FALSE(parseThresholds("metric a.b\n  rel 0.1\n", th, err));
    // Unknown key and bad number.
    EXPECT_FALSE(parseThresholds(
        "metric a\n  direction higher\n  frobnicate 3\n", th, err));
    EXPECT_FALSE(parseThresholds(
        "metric a\n  direction higher\n  rel quick\n", th, err));
    EXPECT_FALSE(parseThresholds(
        "metric a\n  direction sideways\n", th, err));
}

TEST(Thresholds, GlobMatchesSubstringsNotDots)
{
    EXPECT_TRUE(statGlobMatch("cache.*.hit_rate",
                              "cache.l1d.hit_rate"));
    EXPECT_TRUE(statGlobMatch("sim.objective.ipc",
                              "sim.objective.ipc"));
    EXPECT_FALSE(statGlobMatch("sim.objective.ipc",
                               "sim.objective.ipcX"));
    EXPECT_TRUE(statGlobMatch("lat.*", "lat.mshr.p99_ns"));
    EXPECT_FALSE(statGlobMatch("lat.*", "latency"));
}

// --------------------------------------------------------------------
// Diff gates
// --------------------------------------------------------------------

Thresholds ipcAndLatencyGates()
{
    Thresholds th;
    std::string err;
    EXPECT_TRUE(parseThresholds("metric sim.objective.ipc\n"
                                "  direction higher\n"
                                "  rel 0.05\n"
                                "metric memctrl.avg_read_latency_ns\n"
                                "  direction lower\n"
                                "  rel 0.10\n",
                                th, err))
        << err;
    return th;
}

TEST(Diff, CleanWhenWithinThresholds)
{
    const TempFile base(statsDoc("0.500", "200.0"));
    const TempFile cur(statsDoc("0.495", "210.0")); // -1%, +5%
    RunData b, c;
    std::string err;
    ASSERT_TRUE(loadSnapshots(base.path(), b, err)) << err;
    ASSERT_TRUE(loadSnapshots(cur.path(), c, err)) << err;

    const DiffReport rep = diffRuns(b, c, ipcAndLatencyGates());
    EXPECT_EQ(rep.regressions, 0u);
    ASSERT_EQ(rep.checks.size(), 2u);
    for (const CheckResult &r : rep.checks)
        EXPECT_FALSE(r.regressed) << r.metric;
}

TEST(Diff, FlagsSlipsPastTheGateInEitherDirection)
{
    const TempFile base(statsDoc("0.500", "200.0"));
    const TempFile cur(statsDoc("0.400", "250.0")); // -20%, +25%
    RunData b, c;
    std::string err;
    ASSERT_TRUE(loadSnapshots(base.path(), b, err)) << err;
    ASSERT_TRUE(loadSnapshots(cur.path(), c, err)) << err;

    const DiffReport rep = diffRuns(b, c, ipcAndLatencyGates());
    EXPECT_EQ(rep.regressions, 2u);

    // Improvements never regress, however large.
    const TempFile better(statsDoc("0.900", "100.0"));
    RunData g;
    ASSERT_TRUE(loadSnapshots(better.path(), g, err)) << err;
    EXPECT_EQ(diffRuns(b, g, ipcAndLatencyGates()).regressions, 0u);
}

TEST(Diff, ReportsMetricsMissingFromBase)
{
    const TempFile base(statsDoc("0.5", "200.0"));
    RunData b, c;
    std::string err;
    ASSERT_TRUE(loadSnapshots(base.path(), b, err)) << err;
    c = b;
    c.finalScalars["memctrl.avg_write_latency_ns"] = 1.0;

    Thresholds th;
    ASSERT_TRUE(parseThresholds(
        "metric memctrl.avg_*\n  direction lower\n", th, err))
        << err;
    const DiffReport rep = diffRuns(b, c, th);
    ASSERT_EQ(rep.missingInBase.size(), 1u);
    EXPECT_EQ(rep.missingInBase[0], "memctrl.avg_write_latency_ns");
    EXPECT_EQ(rep.regressions, 0u);
}

TEST(Diff, BenchReportRoundTripsThroughTheJsonReader)
{
    const TempFile base(statsDoc("0.500", "200.0"));
    const TempFile cur(statsDoc("0.400", "250.0"));
    RunData b, c;
    std::string err;
    ASSERT_TRUE(loadSnapshots(base.path(), b, err)) << err;
    ASSERT_TRUE(loadSnapshots(cur.path(), c, err)) << err;
    const DiffReport rep = diffRuns(b, c, ipcAndLatencyGates());

    std::ostringstream os;
    writeBenchReport(os, b, c, rep);
    const JsonParse p = parseJson(os.str());
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(p.value.text("schema", ""), "mct-bench-report-v1");
    EXPECT_DOUBLE_EQ(p.value.num("regressions", -1.0), 2.0);
    const JsonValue *passed = p.value.find("passed");
    ASSERT_NE(passed, nullptr);
    EXPECT_FALSE(passed->boolean);
    ASSERT_NE(p.value.find("checks"), nullptr);
    EXPECT_EQ(p.value.find("checks")->arr.size(), rep.checks.size());
}

} // namespace
} // namespace mct::report
