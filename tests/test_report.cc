/**
 * @file
 * Tests for the mct_report library: the JSON reader, the stats /
 * span / profile / provenance loaders and their hostile-input errors,
 * the thresholds grammar, the diff gates, and the renderers' bytes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/instrument.hh"
#include "common/json.hh"
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
    EXPECT_DOUBLE_EQ(run.final.at("sim.objective.ipc").num, 0.5);
    EXPECT_EQ(run.final.at("sim.objective.ipc").kind, StatKind::Gauge);
    const StatValue &h = run.final.at("lat.mshr.ns");
    EXPECT_EQ(h.kind, StatKind::Histogram);
    EXPECT_EQ(h.count, 4u);
    EXPECT_EQ(h.buckets, (std::vector<std::uint64_t>{0, 4}));
    ASSERT_EQ(run.windows.size(), 1u);
    EXPECT_EQ(run.windows[0].first, 500u);
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

/** Field-by-field equality of two snapshots. */
void
expectSameSnapshot(const StatSnapshot &want, const StatSnapshot &got)
{
    ASSERT_EQ(want.size(), got.size());
    for (auto w = want.begin(), g = got.begin(); w != want.end();
         ++w, ++g) {
        ASSERT_EQ(w->first, g->first);
        EXPECT_EQ(w->second.kind, g->second.kind) << w->first;
        EXPECT_EQ(w->second.num, g->second.num) << w->first;
        EXPECT_EQ(w->second.count, g->second.count) << w->first;
        EXPECT_EQ(w->second.buckets, g->second.buckets) << w->first;
    }
}

TEST(Loaders, StatsDocumentLoadInvertsWriteSnapshot)
{
    StatRegistry reg;
    std::uint64_t &hits = reg.addCounterCell("a.hits");
    reg.addGauge("a.rate", [] { return 0.1 + 0.2; });
    LogHistogram &lat = reg.addHistogram("lat.x.ns");
    reg.addHistogram("lat.empty.ns");
    const StatSnapshot before = reg.snapshot();
    hits = 12345;
    // Bucket 0, the first buckets, a middle one and the top one.
    for (const double v : {0.25, 1.0, 3.0, 3.5, 1e6, 1e19})
        lat.record(v);
    const StatSnapshot snap = reg.snapshot();
    const StatSnapshot delta = StatRegistry::delta(before, snap);

    std::ostringstream doc;
    JsonWriter w(doc);
    w.beginObject();
    w.kv("schema", "mct-stats-v1");
    w.key("final");
    writeSnapshot(w, snap);
    w.key("kinds").beginObject();
    w.kv("a.hits", "counter");
    w.kv("a.rate", "gauge");
    w.endObject();
    w.key("periodic").beginArray().beginObject();
    w.kv("inst", std::uint64_t{500});
    w.key("delta");
    writeSnapshot(w, delta);
    w.endObject().endArray();
    w.endObject();

    const TempFile f(doc.str());
    RunData run;
    std::string err;
    ASSERT_TRUE(loadSnapshots(f.path(), run, err)) << err;
    expectSameSnapshot(snap, run.final);
    ASSERT_EQ(run.windows.size(), 1u);
    EXPECT_EQ(run.windows[0].first, 500u);
    expectSameSnapshot(delta, run.windows[0].second);
}

/** The error loading stats document @p doc; it must name the file. */
std::string
statsLoadError(const std::string &doc)
{
    const TempFile f(doc);
    RunData run;
    std::string err;
    EXPECT_FALSE(loadSnapshots(f.path(), run, err)) << doc;
    EXPECT_NE(err.find(f.path()), std::string::npos) << err;
    return err;
}

TEST(Loaders, HostileHistogramsAreNamedErrors)
{
    const auto doc = [](const std::string &hist) {
        return R"({"schema":"mct-stats-v1","final":{"lat.q.ns":)" + hist +
               "}}";
    };
    const auto has = [](const std::string &err, const char *want) {
        EXPECT_NE(err.find(want), std::string::npos) << err;
    };
    // Bucket lows that no LogHistogram can hold: negative, huge,
    // between powers of two, below 1, and 2^63 (one past the top).
    for (const char *lo : {"-1", "1e300", "3", "0.5",
                           "9223372036854775808"})
        has(statsLoadError(doc(std::string(R"({"count":3,"buckets":[[)") +
                               lo + ",3]]}")),
            "final 'lat.q.ns': bucket low");
    has(statsLoadError(doc(R"({"count":4,"buckets":[[1,3]]})")),
        "final 'lat.q.ns': bucket counts sum to 3, 'count' says 4");
    has(statsLoadError(doc(R"({"count":1.5,"buckets":[[1,1]]})")),
        "final 'lat.q.ns': 'count' must be a whole number");
    has(statsLoadError(doc(R"({"count":3,"buckets":[[1,-3]]})")),
        "final 'lat.q.ns': bucket 1 must be a whole number");
    has(statsLoadError(doc(R"({"count":3,"buckets":[1,3]})")),
        "final 'lat.q.ns': a bucket is not a [low, count] pair");
    has(statsLoadError(doc(R"({"count":0,"buckets":)"
                           R"([[1,18446744073709549568],)"
                           R"([2,18446744073709549568]]})")),
        "final 'lat.q.ns': bucket counts overflow");
    // Periodic windows load through the same reader.
    has(statsLoadError(R"({"schema":"mct-stats-v1","final":{},)"
                       R"("periodic":[{"inst":1,"delta":{"lat.q.ns":)"
                       R"({"count":1,"buckets":[[-2,1]]}}}]})"),
        "periodic[0] 'lat.q.ns': bucket low -2");
}

TEST(Loaders, HostileIntegerFieldsAreNamedErrors)
{
    const auto has = [](const std::string &err, const std::string &want) {
        EXPECT_NE(err.find(want), std::string::npos) << err;
    };
    for (const std::string bad : {"-1", "1.5", "1e30", "\"7\""}) {
        has(statsLoadError(R"({"schema":"mct-stats-v1","final":{},)"
                           R"("periodic":[{"inst":)" +
                           bad + R"(,"delta":{}}]})"),
            "periodic[0]: 'inst' must be a whole number");

        std::string err;
        const TempFile spans("\n{\"id\":" + bad + "}\n");
        SpanSet set;
        EXPECT_FALSE(loadSpans(spans.path(), set, err));
        has(err, spans.path() + ":2: 'id' must be a whole number");

        const TempFile alerts(
            R"({"ev":"alert_raised","window":0})" "\n"
            R"({"ev":"alert_cleared","windows_active":)" + bad + "}\n");
        AlertLog log;
        EXPECT_FALSE(loadAlertLog(alerts.path(), log, err));
        has(err, alerts.path() +
                     ":2: 'windows_active' must be a whole number");

        const TempFile prov("{\"seq\":" + bad + "}\n");
        std::vector<ProvenanceRecord> recs;
        EXPECT_FALSE(loadProvenance(prov.path(), recs, err));
        has(err, prov.path() + ":1: 'seq' must be a whole number");

        const TempFile tl(R"({"schema":"mct-timeline-v1","capacity":)" +
                          bad + R"(,"series":{}})");
        TimelineData data;
        EXPECT_FALSE(loadTimeline(tl.path(), data, err));
        has(err, tl.path() + ": 'capacity' must be a whole number");

        const TempFile host(R"({"stages":[{"name":"a"},{"calls":)" + bad +
                            "}]}");
        std::vector<HostProfiler::Stage> stages;
        EXPECT_FALSE(loadProfile(host.path(), stages, err));
        has(err, host.path() + ": stages[1]: 'calls' must be a whole");
    }
    // The range is the field's own: chosen is a signed 32-bit index.
    std::string err;
    const TempFile prov(R"({"chosen":-1})" "\n"
                        R"({"chosen":3000000000})" "\n");
    std::vector<ProvenanceRecord> recs;
    EXPECT_FALSE(loadProvenance(prov.path(), recs, err));
    has(err, prov.path() + ":2: 'chosen' must be a whole number in "
                           "[-2147483648, 2147483647], got 3e+09");
}

TEST(Loaders, ProvenanceRoundTripsAndNamesUnknownObjectives)
{
    ProvenanceRecord rec;
    rec.seq = 3;
    rec.inst = 1000;
    rec.closeInst = 2000;
    rec.model = "gbt";
    rec.configKey = "cfg";
    rec.chosen = 7;
    rec.sampledConfigs = 12;
    rec.objectives[1].predicted = 9.5;
    rec.objectives[1].errorValid = true;
    rec.runnerUps.push_back({5, 0.5, 8.0, 0.01, true});
    rec.attribution[2] = {0.25, 0.0, 1.0};
    rec.closed = true;
    ProvenanceTrace trace;
    trace.enable(4);
    trace.record(rec);
    std::ostringstream jsonl;
    trace.writeJsonl(jsonl);

    const TempFile f(jsonl.str());
    std::vector<ProvenanceRecord> recs;
    std::string err;
    ASSERT_TRUE(loadProvenance(f.path(), recs, err)) << err;
    ASSERT_EQ(recs.size(), 1u);
    ProvenanceTrace back;
    back.enable(4);
    back.record(recs[0]);
    std::ostringstream again;
    back.writeJsonl(again);
    EXPECT_EQ(again.str(), jsonl.str());

    const TempFile bad(R"({"objectives":{"ipc":{},"latency":{}}})" "\n");
    EXPECT_FALSE(loadProvenance(bad.path(), recs, err));
    EXPECT_NE(err.find(bad.path() + ":1: unknown objective 'latency'"),
              std::string::npos)
        << err;
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
    EXPECT_DOUBLE_EQ(run.final.at("sim.mips").num, 17.5);
    EXPECT_DOUBLE_EQ(run.final.at("sim.host.rss_hwm_kb").num, 4096.0);
    ASSERT_EQ(run.windows.size(), 1u);

    std::vector<HostProfiler::Stage> stages;
    ASSERT_TRUE(loadProfile(f.path(), stages, err)) << err;
    ASSERT_EQ(stages.size(), 2u);
    EXPECT_EQ(stages[1].name, "step");
    EXPECT_DOUBLE_EQ(stages[1].wallSeconds, 1.5);
    EXPECT_DOUBLE_EQ(stages[1].cpuSeconds, 1.0);
    EXPECT_EQ(stages[1].calls, 20u);
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

TEST(Manifest, ArtifactRowsNeedEveryKey)
{
    const auto load = [](const std::string &row, std::string &err) {
        const TempFile mf(R"({"schema":"mct-manifest-v1","run_id":"r",)"
                          R"("artifacts":[{"kind":"spans","path":"a",)"
                          R"("bytes":1,"fnv1a":"0000000000000000"},)" +
                          row + "]}");
        ManifestData m;
        const bool ok = loadManifest(mf.path(), m, err);
        EXPECT_TRUE(ok || err.find(mf.path() + ": artifact 1: ") == 0)
            << err;
        return ok;
    };
    const std::string kind = R"("kind":"stats")";
    const std::string path = R"("path":"run.json")";
    const std::string bytes = R"("bytes":18)";
    const std::string sum = R"("fnv1a":"c080229f9594448d")";
    std::string err;
    EXPECT_TRUE(load("{" + kind + "," + path + "," + bytes + "," + sum + "}",
                     err))
        << err;

    EXPECT_FALSE(load("{" + path + "," + bytes + "," + sum + "}", err));
    EXPECT_NE(err.find("missing 'kind'"), std::string::npos) << err;
    EXPECT_FALSE(load("{" + kind + "," + bytes + "," + sum + "}", err));
    EXPECT_NE(err.find("missing 'path'"), std::string::npos) << err;
    EXPECT_FALSE(load("{" + kind + "," + path + "," + sum + "}", err));
    EXPECT_NE(err.find("missing 'bytes'"), std::string::npos) << err;
    EXPECT_FALSE(load("{" + kind + "," + path + "," + bytes + "}", err));
    EXPECT_NE(err.find("missing 'fnv1a'"), std::string::npos) << err;

    for (const char *bad : {"-1", "1.5", "1e30", "18446744073709551616"}) {
        EXPECT_FALSE(load("{" + kind + "," + path + R"(,"bytes":)" + bad +
                              "," + sum + "}",
                          err))
            << bad;
        EXPECT_NE(err.find("'bytes' must be a whole number in [0, "
                           "18446744073709551615], got "),
                  std::string::npos)
            << err;
    }
    for (const char *bad : {R"("C080229F9594448D")", R"("c080229f")",
                            R"("")", "7"}) {
        EXPECT_FALSE(load("{" + kind + "," + path + "," + bytes +
                              R"(,"fnv1a":)" + bad + "}",
                          err))
            << bad;
        EXPECT_NE(err.find("'fnv1a' must be 16 lowercase hex digits"),
                  std::string::npos)
            << err;
    }
    EXPECT_FALSE(load(R"({"kind":"","path":"x","bytes":1,)" + sum + "}",
                      err));
    EXPECT_NE(err.find("'kind' must be a non-empty string"),
              std::string::npos)
        << err;
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
    EXPECT_DOUBLE_EQ(run.final.at("sim.objective.ipc").num, 1.5);
    EXPECT_DOUBLE_EQ(run.final.at("sim.fleet.runs").num, 2.0);
    EXPECT_DOUBLE_EQ(run.final.at("fleet.sim.objective.ipc.max").num,
                     2.0);
    EXPECT_EQ(run.final.at("work.done").kind, StatKind::Counter);
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
    const TempFile s1(fleetStatsDoc("1", "1.0", "[1.0,3]"));
    const TempFile s2(fleetStatsDoc("1", "1.0", "[1.0,3]"));
    const TempFile s3(fleetStatsDoc("1", "10.0", "[1.0,3]"));
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
    c.final["memctrl.avg_write_latency_ns"].num = 1.0;

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

// --------------------------------------------------------------------
// Renderer bytes: each test loads a hand-built document and compares
// the whole rendering with a recorded literal, so no change to a
// loader or to the types it fills can move a report's bytes unseen.
// --------------------------------------------------------------------

/** @p text with every occurrence of @p path replaced by @p name, so a
 *  rendering compares equal wherever the temp directory is. */
std::string
scrub(std::string text, const std::string &path, const std::string &name)
{
    for (std::size_t at = text.find(path); at != std::string::npos;
         at = text.find(path, at + name.size()))
        text.replace(at, path.size(), name);
    return text;
}

/** The type a loader fills through its second parameter. Deduced, so
 *  these tests compile unchanged against any reader-side record type
 *  and pin the bytes across a change of it. */
template <typename T>
T loadedType(bool (*)(const std::string &, T &, std::string &));

using Provenance = decltype(loadedType(&loadProvenance));
using Stages = decltype(loadedType(&loadProfile));

const char *const renderStatsDoc =
    R"({"schema":"mct-stats-v1","mode":"eval","app":"lbm",)"
    R"("config":"static","final":{"cache.l1d.hit_rate":0.93,)"
    R"("lat.bank.ns":{"count":10,"sum":1234.5,"mean":123.45,)"
    R"("buckets":[[64,3],[128,6],[256,1]]},)"
    R"("lat.empty.ns":{"count":0,"sum":0,"mean":0,"buckets":[]},)"
    R"("lat.mshr.ns":{"count":4,"sum":6.5,"mean":1.625,)"
    R"("buckets":[[0,1],[1,2],[4,1]]},)"
    R"("memctrl.avg_read_latency_ns":212.25,)"
    R"("memctrl.reads_completed":1000,"nonfinite.gauge":null,)"
    R"("sim.objective.ipc":0.61234,)"
    R"("sim.objective.lifetime_years":7.456},)"
    R"("kinds":{"cache.l1d.hit_rate":"gauge",)"
    R"("memctrl.avg_read_latency_ns":"gauge",)"
    R"("memctrl.reads_completed":"counter","nonfinite.gauge":"gauge",)"
    R"("sim.objective.ipc":"gauge",)"
    R"("sim.objective.lifetime_years":"gauge"},)"
    R"("periodic":[{"inst":700000,"delta":)"
    R"({"memctrl.avg_read_latency_ns":210.5,)"
    R"("memctrl.reads_completed":400,"memctrl.writes_completed":120,)"
    R"("sim.instructions":500000}},{"inst":1200000,"delta":)"
    R"({"lat.bank.ns":{"count":2,"sum":300,"mean":150,)"
    R"("buckets":[[128,2]]},"memctrl.avg_read_latency_ns":213,)"
    R"("memctrl.reads_completed":600,"memctrl.writes_completed":180,)"
    R"("sim.instructions":500000}}],)"
    R"("events":{"config_switch":2,"phase_change":5},)"
    R"("events_recorded":7,"events_dropped":1})";

TEST(Render, RunTablesLatencyWindowsAndEvents)
{
    const TempFile f(renderStatsDoc);
    RunData run;
    std::string err;
    ASSERT_TRUE(loadSnapshots(f.path(), run, err)) << err;
    std::ostringstream out;
    renderRun(out, run, 8);
    renderRun(out, run, 1);
    const std::string want =
        "run: RUN\n"
        "mode eval, app lbm, config static\n"
        "\n"
        "objective            value   \n"
        "-----------------------------\n"
        "ipc                  0.6123  \n"
        "lifetime_years       7.46    \n"
        "avg_read_latency_ns  212.2   \n"
        "\n"
        "latency attribution (sampled spans):\n"
        "stage  spans  mean_ns  p50_ns  p90_ns  p99_ns  \n"
        "-----------------------------------------------\n"
        "bank   10     123.5    170.7   256.0   486.4   \n"
        "mshr   4      1.6      1.5     6.4     7.8     \n"
        "\n"
        "windows (2 of 2):\n"
        "inst     d_instructions  d_reads  d_writes  avg_read_lat_ns  \n"
        "-------------------------------------------------------------\n"
        "700000   500000          400      120       210.5            \n"
        "1200000  500000          600      180       213.0            \n"
        "\n"
        "events (7 recorded, 1 dropped):\n"
        "event          count  \n"
        "----------------------\n"
        "config_switch  2      \n"
        "phase_change   5      \n"
        "run: RUN\n"
        "mode eval, app lbm, config static\n"
        "\n"
        "objective            value   \n"
        "-----------------------------\n"
        "ipc                  0.6123  \n"
        "lifetime_years       7.46    \n"
        "avg_read_latency_ns  212.2   \n"
        "\n"
        "latency attribution (sampled spans):\n"
        "stage  spans  mean_ns  p50_ns  p90_ns  p99_ns  \n"
        "-----------------------------------------------\n"
        "bank   10     123.5    170.7   256.0   486.4   \n"
        "mshr   4      1.6      1.5     6.4     7.8     \n"
        "\n"
        "windows (1 of 2):\n"
        "inst     d_instructions  d_reads  d_writes  avg_read_lat_ns  \n"
        "-------------------------------------------------------------\n"
        "1200000  500000          600      180       213.0            \n"
        "\n"
        "events (7 recorded, 1 dropped):\n"
        "event          count  \n"
        "----------------------\n"
        "config_switch  2      \n"
        "phase_change   5      \n";
    EXPECT_EQ(scrub(out.str(), f.path(), "RUN"), want);
}

TEST(Render, DiffTableAndBenchReport)
{
    const TempFile base(
        R"({"schema":"mct-stats-v1","mode":"eval","app":"lbm","config":"a",)"
        R"("final":{"lat.q.ns":{"count":1,"sum":3,"mean":3,"buckets":[[2,1]]},)"
        R"("lat.q.p99_ns":10,"memctrl.avg_read_latency_ns":200,)"
        R"("sim.objective.ipc":0.5}})");
    const TempFile cur(
        R"({"schema":"mct-stats-v1","mode":"eval","app":"lbm","config":"b",)"
        R"("final":{"lat.q.ns":{"count":1,"sum":9,"mean":9,"buckets":[[8,1]]},)"
        R"("lat.q.p99_ns":12,"lat.z":null,)"
        R"("memctrl.avg_read_latency_ns":205,)"
        R"("memctrl.avg_write_latency_ns":300,"sim.objective.ipc":0.4}})");
    Thresholds th;
    std::string err;
    ASSERT_TRUE(parseThresholds("metric sim.objective.ipc\n"
                                "  direction higher\n"
                                "  rel 0.05\n"
                                "metric memctrl.avg_*\n"
                                "  direction lower\n"
                                "  rel 0.10\n"
                                "metric lat.*\n"
                                "  direction lower\n"
                                "  rel 0.0\n",
                                th, err))
        << err;
    RunData b, c;
    ASSERT_TRUE(loadSnapshots(base.path(), b, err)) << err;
    ASSERT_TRUE(loadSnapshots(cur.path(), c, err)) << err;
    const DiffReport rep = diffRuns(b, c, th);
    std::ostringstream out;
    renderDiff(out, b, c, rep);
    writeBenchReport(out, b, c, rep);
    const std::string want =
        "base: BASE (app lbm, config a)\n"
        "new:  NEW (app lbm, config b)\n"
        "\n"
        "metric                       base      new       change   allowed   ve"
        "rdict    \n"
        "----------------------------------------------------------------------"
        "---------\n"
        "lat.q.p99_ns                 10.0000   12.0000   +20.00%  +0.0000   RE"
        "GRESSED  \n"
        "memctrl.avg_read_latency_ns  200.0000  205.0000  +2.50%   +20.0000  ok"
        "         \n"
        "sim.objective.ipc            0.5000    0.4000    -20.00%  -0.0250   RE"
        "GRESSED  \n"
        "note: 'memctrl.avg_write_latency_ns' matched a rule but is missing fro"
        "m the base run\n"
        "\n"
        "3 checks, 2 regressions\n"
        "{\"schema\":\"mct-bench-report-v1\",\"base\":{\"path\":\"BASE\",\"app"
        "\":\"lbm\",\"config\":\"a\"},\"new\":{\"path\":\"NEW\",\"app\":\"lbm\""
        ",\"config\":\"b\"},\"checks\":[{\"metric\":\"lat.q.p99_ns\",\"rule\":"
        "\"lat.*\",\"direction\":\"lower\",\"base\":10,\"new\":12,\"rel_change"
        "\":0.2,\"allowed\":0,\"regressed\":true},{\"metric\":\"memctrl.avg_rea"
        "d_latency_ns\",\"rule\":\"memctrl.avg_*\",\"direction\":\"lower\",\"ba"
        "se\":200,\"new\":205,\"rel_change\":0.025,\"allowed\":20,\"regressed\""
        ":false},{\"metric\":\"sim.objective.ipc\",\"rule\":\"sim.objective.ipc"
        "\",\"direction\":\"higher\",\"base\":0.5,\"new\":0.4,\"rel_change\":-0"
        ".19999999999999996,\"allowed\":0.025,\"regressed\":true}],\"missing_in"
        "_base\":[\"memctrl.avg_write_latency_ns\"],\"regressions\":2,\"passed"
        "\":false}\n";
    EXPECT_EQ(scrub(scrub(out.str(), base.path(), "BASE"), cur.path(),
                    "NEW"), want);
}

const char *const renderProvenance =
    R"({"seq":0,"phase":3,"inst":2200000,"close_inst":3200000,)"
    R"("model":"gbt","config":"f1.0-s3.0-b1-e4","chosen":17,)"
    R"("fallback":false,"sampled":12,"constraints":)"
    R"({"min_lifetime_years":8,"ipc_fraction":0.9,"safety_margin":1.1},)"
    R"("objectives":{"ipc":{"pred":0.61,"sigma":0.02,"real":0.58,)"
    R"("err":0.0517241,"err_valid":true},"lifetime":{"pred":9.5,)"
    R"("sigma":0,"real":9.1,"err":0.043956,"err_valid":true},)"
    R"("energy":{"pred":0.0123,"sigma":0,"real":0,"err":0,)"
    R"("err_valid":false}},"runner_ups":[{"config":5,"ipc":0.6,)"
    R"("lifetime_years":8.2,"energy_j":0.01234,"feasible":true},)"
    R"({"config":40,"ipc":0.7,"lifetime_years":6.5,"energy_j":0.0111,)"
    R"("feasible":false}],"best_sampled_ipc":0.62,"regret":0.04,)"
    R"("cum_regret":0.04,"attribution":{"ipc":[0.5,0,0.25,0.125,0,0,)"
    R"(0.75],"lifetime":[0,0,0,0.1]},"closed":true})"
    "\n\n"
    R"({"seq":1,"phase":4,"inst":5200000,"close_inst":0,"model":"gbt",)"
    R"("config":"static","chosen":-1,"fallback":true,"sampled":0,)"
    R"("constraints":{"min_lifetime_years":8,"ipc_fraction":0.9,)"
    R"("safety_margin":1.1},"objectives":{"ipc":{"pred":0.5,"sigma":0,)"
    R"("real":0,"err":0,"err_valid":false},"lifetime":{"pred":12,)"
    R"("sigma":0.5,"real":0,"err":0,"err_valid":false},"energy":)"
    R"({"pred":0.02,"sigma":0,"real":0,"err":0,"err_valid":false}},)"
    R"("runner_ups":[],"best_sampled_ipc":0,"regret":0,)"
    R"("cum_regret":0.04,"closed":false})"
    "\n";

TEST(Render, ExplainClosedAndOpenDecisions)
{
    const TempFile f(renderProvenance);
    Provenance prov;
    std::string err;
    ASSERT_TRUE(loadProvenance(f.path(), prov, err)) << err;
    std::ostringstream out;
    const std::vector<std::string> names{"fast", "slow", "bank"};
    renderExplain(out, prov, names, 0);
    renderExplain(out, prov, names, 1);
    const std::string want =
        "decisions: 2 (1 closed)\n"
        "\n"
        "decision 0 @ inst 2200000 (phase 3, model gbt)\n"
        "  config f1.0-s3.0-b1-e4 (#17), 12 sampled, constraints: lifetime >= 8"
        ".0y x 1.10, ipc >= 0.90 of best\n"
        "objective  predicted  sigma   realized  err    \n"
        "-----------------------------------------------\n"
        "ipc        0.6100     0.0200  0.5800    5.17%  \n"
        "lifetime   9.5000     0.0000  9.1000    4.40%  \n"
        "energy     0.0123     0.0000  0.0000    -      \n"
        "  regret 0.0400 (cumulative 0.0400) vs best sampled ipc 0.6200\n"
        "  runner-up #5: ipc 0.6000, lifetime 8.20y, energy 0.01234\n"
        "  runner-up #40: ipc 0.7000, lifetime 6.50y, energy 0.01110 (infeasibl"
        "e)\n"
        "  top features (ipc): f6 0.750, fast 0.500, bank 0.250, f3 0.125\n"
        "  top features (lifetime): f3 0.100\n"
        "\n"
        "decision 1 @ inst 5200000 (phase 4, model gbt)\n"
        "  config static (baseline fallback), 0 sampled, constraints: lifetime "
        ">= 8.0y x 1.10, ipc >= 0.90 of best\n"
        "objective  predicted  sigma   realized  err  \n"
        "---------------------------------------------\n"
        "ipc        0.5000     0.0000  -         -    \n"
        "lifetime   12.0000    0.5000  -         -    \n"
        "energy     0.0200     0.0000  -         -    \n"
        "\n"
        "calibration (relative error, closed decisions):\n"
        "objective  closed  valid  mean_err  p50_err  p90_err  \n"
        "------------------------------------------------------\n"
        "ipc        1       1      5.17%     5.17%    5.17%    \n"
        "lifetime   1       1      4.40%     4.40%    4.40%    \n"
        "energy     1       0      0.00%     0.00%    0.00%    \n"
        "decisions: 2 (1 closed)\n"
        "\n"
        "(showing the last 1 of 2 decisions)\n"
        "\n"
        "decision 1 @ inst 5200000 (phase 4, model gbt)\n"
        "  config static (baseline fallback), 0 sampled, constraints: lifetime "
        ">= 8.0y x 1.10, ipc >= 0.90 of best\n"
        "objective  predicted  sigma   realized  err  \n"
        "---------------------------------------------\n"
        "ipc        0.5000     0.0000  -         -    \n"
        "lifetime   12.0000    0.5000  -         -    \n"
        "energy     0.0200     0.0000  -         -    \n"
        "\n"
        "calibration (relative error, closed decisions):\n"
        "objective  closed  valid  mean_err  p50_err  p90_err  \n"
        "------------------------------------------------------\n"
        "ipc        1       1      5.17%     5.17%    5.17%    \n"
        "lifetime   1       1      4.40%     4.40%    4.40%    \n"
        "energy     1       0      0.00%     0.00%    0.00%    \n";
    EXPECT_EQ(out.str(), want);
}

TEST(Render, ExplainEmptyFile)
{
    const TempFile f("");
    Provenance prov;
    std::string err;
    ASSERT_TRUE(loadProvenance(f.path(), prov, err)) << err;
    std::ostringstream out;
    renderExplain(out, prov, {}, 0);
    const std::string want =
        "decisions: 0 (0 closed)\n"
        "\n"
        "calibration (relative error, closed decisions):\n"
        "objective  closed  valid  mean_err  p50_err  p90_err  \n"
        "------------------------------------------------------\n";
    EXPECT_EQ(out.str(), want);
}

TEST(Render, HostSummaryWithAndWithoutCpuSeconds)
{
    const TempFile cpu(hostDoc("17.5", "1.5"));
    const TempFile wall(
        R"({"schema":"mct-host-v1","final":{"sim.mips":3.25,)"
        R"("sim.host.wall_seconds":4.5,"sim.host.instructions":1200000},)"
        R"("stages":[{"name":"replay","seconds":0.75,"calls":1},)"
        R"({"name":"sweep","seconds":3.25,"calls":77},{"seconds":0.5}]})");
    std::ostringstream out;
    for (const TempFile *f : {&cpu, &wall}) {
        RunData host;
        Stages stages;
        std::string err;
        ASSERT_TRUE(loadSnapshots(f->path(), host, err)) << err;
        ASSERT_TRUE(loadProfile(f->path(), stages, err)) << err;
        renderHostSummary(out, host, stages);
    }
    const std::string want =
        "host telemetry: CPU\n"
        "mode eval, app lbm, config static\n"
        "  sim.mips                 17.50\n"
        "  wall seconds             2.000\n"
        "  cpu seconds              0.000 (util 0.00)\n"
        "  rss high-water kB        4096\n"
        "  instructions             0\n"
        "host attribution:\n"
        "stage   seconds  cpu    calls  share  \n"
        "--------------------------------------\n"
        "replay  0.500    0.400  1      25.0%  \n"
        "step    1.500    1.000  20     75.0%  \n"
        "host telemetry: WALL\n"
        "  sim.mips                 3.25\n"
        "  wall seconds             4.500\n"
        "  cpu seconds              0.000 (util 0.00)\n"
        "  rss high-water kB        0\n"
        "  instructions             1200000\n"
        "host attribution:\n"
        "stage   seconds  calls  share  \n"
        "-------------------------------\n"
        "replay  0.750    1      16.7%  \n"
        "sweep   3.250    77     72.2%  \n"
        "?       0.500    0      11.1%  \n";
    EXPECT_EQ(scrub(scrub(out.str(), cpu.path(), "CPU"), wall.path(),
                    "WALL"), want);
}

TEST(Render, TimelineWithAlertMarkers)
{
    const TempFile tl(
        R"({"schema":"mct-timeline-v1","mode":"mct","app":"lbm",)"
        R"("config":"static","capacity":4,"metrics":)"
        R"(["memctrl.avg_read_latency_ns","sim.objective.ipc"],)"
        R"("inst":[200000,400000,600000,800000],"series":)"
        R"({"memctrl.avg_read_latency_ns":[300,480,470,320],)"
        R"("sim.objective.ipc":[0.5,0.5,0.5,0.5]},"final":)"
        R"({"alert.active":0,"alert.cleared":1,"alert.count.critical":1,)"
        R"("alert.count.info":0,"alert.count.warn":1,"alert.raised":2,)"
        R"("alert.rules":2,"sim.timeline.dropped":1,)"
        R"("sim.timeline.metrics":2,"sim.timeline.recorded":5,)"
        R"("sim.timeline.windows":4,)"
        R"("timeline.memctrl.avg_read_latency_ns.ewma":401.5,)"
        R"("timeline.memctrl.avg_read_latency_ns.max":480,)"
        R"("timeline.memctrl.avg_read_latency_ns.min":300,)"
        R"("timeline.sim.objective.ipc.ewma":0.5,)"
        R"("timeline.sim.objective.ipc.max":0.5,)"
        R"("timeline.sim.objective.ipc.min":0.5}})");
    const TempFile al(
        R"({"ev":"alert_raised","window":0,"inst":100000,"rule":"warm",)"
        R"("metric":"sim.objective.ipc","condition":"below",)"
        R"("severity":"warn","value":0.25})"
        "\n"
        R"({"ev":"alert_raised","window":1,"inst":400000,)"
        R"("rule":"read-latency-drift",)"
        R"("metric":"memctrl.avg_read_latency_ns","condition":"above",)"
        R"("severity":"critical","value":480})"
        "\n"
        R"({"ev":"alert_cleared","window":3,"inst":800000,)"
        R"("rule":"read-latency-drift",)"
        R"("metric":"memctrl.avg_read_latency_ns","condition":"above",)"
        R"("severity":"critical","value":320,"windows_active":2})"
        "\n");
    TimelineData data;
    AlertLog alerts;
    std::string err;
    ASSERT_TRUE(loadTimeline(tl.path(), data, err)) << err;
    ASSERT_TRUE(loadAlertLog(al.path(), alerts, err)) << err;
    std::ostringstream out;
    renderTimeline(out, data, alerts, 0);
    renderTimeline(out, data, alerts, 3);
    const std::string want =
        "timeline: TL\n"
        "mode mct, app lbm, config static\n"
        "windows 4 held (recorded 5, dropped 1, capacity 4)\n"
        "\n"
        "metric                       min       max       ewma      series  \n"
        "-------------------------------------------------------------------\n"
        "memctrl.avg_read_latency_ns  300.0000  480.0000  401.5000  _##.    \n"
        "  alerts                                                    ! /    \n"
        "sim.objective.ipc            0.5000    0.5000    0.5000    ____    \n"
        "\n"
        "alerts (3 events):\n"
        "window  inst    event            rule                severity  metric "
        "                      value     \n"
        "----------------------------------------------------------------------"
        "--------------------------------\n"
        "0       100000  raised           warm                warn      sim.obj"
        "ective.ipc            0.2500    \n"
        "1       400000  raised           read-latency-drift  critical  memctrl"
        ".avg_read_latency_ns  480.0000  \n"
        "3       800000  cleared after 2  read-latency-drift  critical  memctrl"
        ".avg_read_latency_ns  320.0000  \n"
        "\n"
        "alert totals: 2 raised (1 critical, 1 warn, 0 info), 1 cleared, 0 stil"
        "l active\n"
        "timeline: TL\n"
        "mode mct, app lbm, config static\n"
        "windows 4 held (recorded 5, dropped 1, capacity 4)\n"
        "\n"
        "metric                       min       max       ewma      series  \n"
        "-------------------------------------------------------------------\n"
        "memctrl.avg_read_latency_ns  300.0000  480.0000  401.5000  ##_     \n"
        "  alerts                                                   ! /     \n"
        "sim.objective.ipc            0.5000    0.5000    0.5000    ___     \n"
        "\n"
        "alerts (3 events):\n"
        "window  inst    event            rule                severity  metric "
        "                      value     \n"
        "----------------------------------------------------------------------"
        "--------------------------------\n"
        "0       100000  raised           warm                warn      sim.obj"
        "ective.ipc            0.2500    \n"
        "1       400000  raised           read-latency-drift  critical  memctrl"
        ".avg_read_latency_ns  480.0000  \n"
        "3       800000  cleared after 2  read-latency-drift  critical  memctrl"
        ".avg_read_latency_ns  320.0000  \n"
        "\n"
        "alert totals: 2 raised (1 critical, 1 warn, 0 info), 1 cleared, 0 stil"
        "l active\n";
    EXPECT_EQ(scrub(out.str(), tl.path(), "TL"), want);
}

TEST(Render, SpansByLevelAndStage)
{
    const TempFile f(
        R"({"id":64,"addr":4096,"write":0,"hit_level":0,"inst":100,)"
        R"("begin_ps":1000,"end_ps":209000,"stages":{"l1":[1000,2000],)"
        R"("bank":[2000,109000]}})"
        "\n"
        R"({"id":128,"addr":8192,"write":1,"hit_level":1,"inst":180,)"
        R"("begin_ps":5000,"end_ps":6500,"stages":{"l1":[5000,6500]}})"
        "\n"
        R"({"id":192,"addr":64,"write":0,"hit_level":3,"inst":260,)"
        R"("begin_ps":7000,"end_ps":47000,"stages":{"l1":[7000,8000],)"
        R"("l2":[8000,12000],"llc":[12000,47000]}})"
        "\n"
        R"({"id":256,"addr":128,"write":0,"hit_level":0,"inst":300,)"
        R"("begin_ps":0,"end_ps":301000,"stages":{"l1":[0,1500],)"
        R"("bank":[1500,300000]}})"
        "\n");
    SpanSet spans;
    std::string err;
    ASSERT_TRUE(loadSpans(f.path(), spans, err)) << err;
    std::ostringstream out;
    renderSpans(out, spans);
    const std::string want =
        "spans: 4\n"
        "hit_level  spans  mean_total_ns  \n"
        "---------------------------------\n"
        "memory     2      254.5          \n"
        "l1         1      1.5            \n"
        "llc        1      40.0           \n"
        "\n"
        "stage  spans  mean_ns  \n"
        "-----------------------\n"
        "bank   2      202.8    \n"
        "l1     4      1.2      \n"
        "l2     1      4.0      \n"
        "llc    1      35.0     \n";
    EXPECT_EQ(out.str(), want);
}

TEST(Render, FleetTableAndDocument)
{
    const TempFile s1(
        fleetStatsDoc("10", "1.0", "[0.0,1],[2.0,1],[8.0,1]"));
    const TempFile s2(fleetStatsDoc("32", "1.25", "[2.0,2],[16.0,1]"));
    const TempFile s3(fleetStatsDoc("7", "9.0", "[1.0,3]"));
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
    ASSERT_TRUE(aggregateManifests({m1.path(), m2.path(), m3.path()},
                                   opt, fleet, err))
        << err;
    std::ostringstream out;
    renderFleet(out, fleet);
    writeFleetDoc(out, fleet);
    const std::string want =
        "fleet rollup: 3 runs, 1 group, outlier k=1\n"
        "\n"
        "group all (3 runs: r1 r2 r3)\n"
        "metric             mean    min     max     stddev  runs  \n"
        "---------------------------------------------------------\n"
        "sim.objective.ipc  3.7500  1.0000  9.0000  4.5484  3     \n"
        "  OUTLIER sim.objective.ipc run r3: 9 vs mean 3.75 (stddev 4.54835)\n"
        "{\"schema\":\"mct-fleet-v1\",\"mode\":\"eval\",\"app\":\"lbm\",\"confi"
        "g\":\"\",\"group_by\":\"\",\"runs\":3,\"final\":{\"fleet.sim.objective"
        ".ipc.count\":3,\"fleet.sim.objective.ipc.max\":9,\"fleet.sim.objective"
        ".ipc.mean\":3.75,\"fleet.sim.objective.ipc.min\":1,\"fleet.sim.objecti"
        "ve.ipc.stddev\":4.548351349665063,\"lat.q.ns\":{\"count\":9,\"sum\":57"
        ",\"mean\":6.333333333333333,\"buckets\":[[0,1],[1,3],[2,3],[8,1],[16,1"
        "]]},\"sim.fleet.groups\":1,\"sim.fleet.outliers\":1,\"sim.fleet.runs\""
        ":3,\"sim.objective.ipc\":3.75,\"work.done\":49},\"kinds\":{\"fleet.sim"
        ".objective.ipc.count\":\"gauge\",\"fleet.sim.objective.ipc.max\":\"gau"
        "ge\",\"fleet.sim.objective.ipc.mean\":\"gauge\",\"fleet.sim.objective."
        "ipc.min\":\"gauge\",\"fleet.sim.objective.ipc.stddev\":\"gauge\",\"sim"
        ".fleet.groups\":\"gauge\",\"sim.fleet.outliers\":\"gauge\",\"sim.fleet"
        ".runs\":\"gauge\",\"sim.objective.ipc\":\"gauge\",\"work.done\":\"coun"
        "ter\"},\"groups\":[{\"key\":\"all\",\"runs\":3,\"run_ids\":[\"r1\",\"r"
        "2\",\"r3\"],\"final\":{\"fleet.sim.objective.ipc.count\":3,\"fleet.sim"
        ".objective.ipc.max\":9,\"fleet.sim.objective.ipc.mean\":3.75,\"fleet.s"
        "im.objective.ipc.min\":1,\"fleet.sim.objective.ipc.stddev\":4.54835134"
        "9665063,\"lat.q.ns\":{\"count\":9,\"sum\":57,\"mean\":6.33333333333333"
        "3,\"buckets\":[[0,1],[1,3],[2,3],[8,1],[16,1]]},\"sim.fleet.groups\":1"
        ",\"sim.fleet.outliers\":1,\"sim.fleet.runs\":3,\"sim.objective.ipc\":3"
        ".75,\"work.done\":49},\"outliers\":[{\"run_id\":\"r3\",\"metric\":\"si"
        "m.objective.ipc\",\"value\":9,\"mean\":3.75,\"stddev\":4.5483513496650"
        "63}]}]}\n";
    EXPECT_EQ(out.str(), want);
}

} // namespace
} // namespace mct::report
