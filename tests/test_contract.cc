/**
 * @file
 * The observability contract, checked against the running program.
 *
 * docs/observability.md publishes three tables between
 * `<!-- mct-lint:<tag>:begin -->` / `:end -->` markers: every stat
 * path with its kind (stat-contract), every trace event name
 * (event-contract) and every key of the run manifest and fleet
 * documents (doc-contract). These tests compare each table, in both
 * directions, with what the program itself reports: the live
 * StatRegistry of a fully armed System, toString(TraceEventType), and
 * the keys writeManifestJson and writeFleetDoc actually emit. A
 * mismatch prints the table rows to add and to drop, ready to paste.
 * `<x>` placeholders in a row match like the '*' of statGlobMatch.
 *
 * The armed System also checks that every stat is finite on a fresh
 * system, after an empty window and after a short run.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/alerts.hh"
#include "common/fault_plan.hh"
#include "common/instrument.hh"
#include "common/manifest.hh"
#include "mct/controller.hh"
#include "report.hh"
#include "sim/checkpoint.hh"
#include "sim/fault_injector.hh"
#include "sim/system.hh"

namespace mct
{
namespace
{

const char *const kDocs = "docs/observability.md";

/** A per-test path under the gtest temp dir (tests run in parallel). */
std::string
tempPath(const std::string &name)
{
    const auto *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return std::string(::testing::TempDir()) + "mct_contract_" +
           test->name() + "_" + name;
}

/** One row of a marker-delimited docs table. */
struct DocRow
{
    std::string line;   ///< the row as written
    std::string glob;   ///< first cell, `<x>` placeholders as '*'
    std::string second; ///< second cell: a stat kind, or a document
};

std::string
trimCell(const std::string &s)
{
    const std::size_t b = s.find_first_not_of(" `");
    const std::size_t e = s.find_last_not_of(" `");
    return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

/** @p cell with each `<x>` placeholder replaced by '*'. */
std::string
placeholdersAsStars(const std::string &cell)
{
    std::string glob;
    bool hole = false;
    for (const char ch : cell) {
        if (ch == '<') {
            hole = true;
        } else if (ch == '>') {
            hole = false;
            glob += '*';
        } else if (!hole) {
            glob += ch;
        }
    }
    return glob;
}

/** The rows of the docs table tagged @p tag. */
std::vector<DocRow>
docTable(const std::string &tag)
{
    std::ifstream is(std::string(MCT_SOURCE_DIR) + "/" + kDocs);
    EXPECT_TRUE(is) << "cannot read " << kDocs;
    std::vector<DocRow> rows;
    bool in = false;
    for (std::string line; std::getline(is, line);) {
        if (line.find("mct-lint:" + tag + ":begin") != std::string::npos)
            in = true;
        else if (line.find("mct-lint:" + tag + ":end") !=
                 std::string::npos)
            in = false;
        else if (in && line.rfind("| `", 0) == 0) {
            std::vector<std::string> cells;
            std::istringstream cs(line.substr(1));
            for (std::string c; std::getline(cs, c, '|');)
                cells.push_back(trimCell(c));
            rows.push_back({line, placeholdersAsStars(cells[0]),
                            cells.size() > 1 ? cells[1] : ""});
        }
    }
    EXPECT_FALSE(rows.empty()) << "no " << tag << " rows in " << kDocs;
    return rows;
}

/** Rows to add and rows to drop, as one failure message. */
std::string
driftReport(const std::string &tag, const std::vector<std::string> &add,
            const std::vector<std::string> &drop)
{
    std::ostringstream os;
    os << tag << " table in " << kDocs << " disagrees with the program.";
    if (!add.empty())
        os << "\nRows to add:";
    for (const std::string &r : add)
        os << "\n" << r;
    if (!drop.empty())
        os << "\nRows to drop:";
    for (const std::string &r : drop)
        os << "\n" << r;
    return os.str();
}

/** A name the program emits, with the second cell its row must carry
 *  and the meaning to print when no row documents it. */
struct LiveEntry
{
    std::string name;
    std::string second;
    std::string meaning;
};

/**
 * Both directions: every live entry must match a row's glob with the
 * same second cell, and every row must match some live entry.
 */
void
expectTableMatches(const std::string &tag, const std::vector<DocRow> &rows,
                   const std::vector<LiveEntry> &live)
{
    std::vector<bool> used(rows.size(), false);
    std::vector<std::string> add, drop;
    for (const LiveEntry &e : live) {
        bool covered = false;
        for (std::size_t i = 0; i < rows.size(); ++i)
            if (rows[i].second == e.second &&
                statGlobMatch(rows[i].glob, e.name))
                used[i] = covered = true;
        if (!covered)
            add.push_back("| `" + e.name + "` | " + e.second + " | " +
                          e.meaning + " |");
    }
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (!used[i])
            drop.push_back(rows[i].line);
    EXPECT_TRUE(add.empty() && drop.empty())
        << driftReport(tag, add, drop);
}

const char *
kindName(StatKind k)
{
    switch (k) {
      case StatKind::Counter:
        return "counter";
      case StatKind::Gauge:
        return "gauge";
      case StatKind::Histogram:
        return "histogram";
    }
    return "?";
}

/**
 * A System with every stat owner attached. The rule: this fixture
 * must reach every registerStats owner in src/ -- today Core, Cache,
 * CacheHierarchy, MemController, WearQuota, NvmDevice, System,
 * FaultInjector, HostProfiler, CheckpointStore, AlertEngine, the
 * timeline and MctController -- or the stat table cannot be checked
 * in both directions. A new owner joins here.
 */
class StatContract : public ::testing::Test
{
  protected:
    StatContract()
        : injector(FaultPlan{}), store(tempPath("ckpt")),
          sys("lbm", SystemParams{}, staticBaselineConfig())
    {
        sys.eventTrace().enable(4096);
        sys.enableSpans(1, 1024);
        sys.provenanceTrace().enable(64);
        sys.enableTimeline({"*"}, 16);
        std::vector<AlertRule> rules;
        std::string err;
        EXPECT_TRUE(loadAlerts(std::string(MCT_SOURCE_DIR) +
                                   "/tools/report/alerts.txt",
                               rules, err))
            << err;
        sys.enableAlerts(std::move(rules));
        // An empty plan registers fault.* without injecting anything
        // that could make the finiteness check depend on luck.
        sys.attachFaultInjector(&injector);
        profiler.enable();
        sys.attachHostProfiler(&profiler);
        store.registerStats(sys.statRegistry());
        ctl = std::make_unique<MctController>(sys, MctParams{});
    }

    /** Paths whose value is NaN or infinite right now. */
    std::vector<std::string>
    nonfinite() const
    {
        std::vector<std::string> bad;
        for (const auto &[path, v] :
             sys.statRegistry().snapshot(StatScope::All))
            if (!std::isfinite(v.num))
                bad.push_back(path);
        return bad;
    }

    FaultInjector injector;
    HostProfiler profiler;
    CheckpointStore store;
    System sys;
    std::unique_ptr<MctController> ctl;
};

TEST_F(StatContract, PathsAndKindsMatchTheDocs)
{
    const StatRegistry &reg = sys.statRegistry();
    std::vector<LiveEntry> live;
    for (const auto &[path, v] : reg.snapshot(StatScope::All)) {
        const std::string desc = reg.description(path);
        live.push_back({path, kindName(v.kind),
                        desc.empty() ? "(undocumented)" : desc});
    }
    expectTableMatches("stat-contract", docTable("stat-contract"), live);
}

TEST_F(StatContract, EveryStatIsFinite)
{
    EXPECT_EQ(nonfinite(), std::vector<std::string>{})
        << "on the fresh system";

    const StatSnapshot s = sys.statRegistry().snapshot();
    sys.observeWindow(sys.retired(), StatRegistry::delta(s, s));
    EXPECT_EQ(nonfinite(), std::vector<std::string>{})
        << "after an empty window";

    sys.run(20000);
    EXPECT_EQ(nonfinite(), std::vector<std::string>{})
        << "after 20k instructions";
}

TEST(EventContract, NamesMatchTheDocs)
{
    std::set<std::string> names, documented;
    for (std::size_t i = 0; i < numTraceEventTypes; ++i)
        names.insert(toString(static_cast<TraceEventType>(i)));
    std::vector<std::string> add, drop;
    for (const DocRow &row : docTable("event-contract")) {
        documented.insert(row.glob);
        if (!names.count(row.glob))
            drop.push_back(row.line);
    }
    for (std::size_t i = 0; i < numTraceEventTypes; ++i) {
        const auto type = static_cast<TraceEventType>(i);
        if (documented.count(toString(type)))
            continue;
        std::string args;
        for (const char *a : traceArgNames(type))
            args += std::string(args.empty() ? "`" : ", `") + a + "`";
        add.push_back("| `" + std::string(toString(type)) +
                      "` | (undocumented) | " + args + " |");
    }
    EXPECT_TRUE(add.empty() && drop.empty())
        << driftReport("event-contract", add, drop);
}

/**
 * Every key path of @p v under @p prefix: an object member adds
 * ".key", an array element adds "[]". The members of "final",
 * "groups[].final" and "kinds" are metric names, so only the fleet's
 * own cells (fleet.*, sim.fleet.*) count as document keys there.
 */
void
walkKeys(const report::JsonValue &v, const std::string &prefix,
         std::set<std::string> &out)
{
    using Kind = report::JsonValue::Kind;
    if (v.kind == Kind::Array)
        for (const report::JsonValue &e : v.arr)
            walkKeys(e, prefix + "[]", out);
    if (v.kind != Kind::Object)
        return;
    for (const auto &[key, member] : v.members) {
        std::string path = prefix;
        if (!path.empty())
            path += '.';
        path += key;
        out.insert(path);
        if (path == "final" || path == "groups[].final" ||
            path == "kinds") {
            for (const auto &[metric, value] : member.members)
                if (metric.rfind("fleet.", 0) == 0 ||
                    metric.rfind("sim.fleet.", 0) == 0)
                    out.insert(metric);
        } else {
            walkKeys(member, path, out);
        }
    }
}

/**
 * The keys of @p json, one document's output, against the doc-contract
 * rows of that @p document ("manifest" or "fleet") and the rows marked
 * "both".
 */
void
expectKeysMatch(const std::string &document, const std::string &json)
{
    const report::JsonParse p = report::parseJson(json);
    ASSERT_TRUE(p.ok) << p.error;
    std::set<std::string> keys;
    walkKeys(p.value, "", keys);
    std::vector<LiveEntry> live;
    live.reserve(keys.size());
    for (const std::string &k : keys)
        live.push_back({k, document, "(undocumented)"});

    std::vector<DocRow> rows;
    for (DocRow row : docTable("doc-contract")) {
        EXPECT_TRUE(row.second == "manifest" || row.second == "fleet" ||
                    row.second == "both")
            << "unknown document in " << row.line;
        if (row.second == "both")
            row.second = document;
        if (row.second == document)
            rows.push_back(std::move(row));
    }
    expectTableMatches("doc-contract", rows, live);
}

/** A file under tempPath(), removed on destruction. */
class TempFile
{
  public:
    TempFile(const std::string &name, const std::string &text)
        : path_(tempPath(name))
    {
        std::ofstream(path_, std::ios::binary) << text;
    }
    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** A minimal mct-stats-v1 document: one counter and one gauge. */
std::string
statsDoc(const std::string &ipc)
{
    return "{\"schema\":\"mct-stats-v1\",\"mode\":\"eval\",\"app\":"
           "\"lbm\",\"config\":\"\",\"final\":{\"work.done\":1,"
           "\"sim.objective.ipc\":" +
           ipc +
           "},\"kinds\":{\"work.done\":\"counter\","
           "\"sim.objective.ipc\":\"gauge\"}}";
}

/** writeManifestJson's bytes for a run whose one artifact is
 *  @p stats. */
std::string
manifestJson(const std::string &id, std::uint64_t seed,
             const TempFile &stats)
{
    RunManifest m;
    m.runId = id;
    m.mode = "eval";
    m.app = "lbm";
    m.seed = seed;
    m.fingerprint = "fp-" + id;
    ManifestArtifact a;
    a.kind = "stats";
    a.schema = "mct-stats-v1";
    a.path = stats.path();
    EXPECT_TRUE(checksumFile(stats.path(), a.checksum, a.bytes));
    m.artifacts.push_back(a);
    std::ostringstream os;
    writeManifestJson(os, m);
    return os.str();
}

TEST(DocContract, ManifestKeysMatchTheDocs)
{
    const TempFile stats("stats.json", statsDoc("1.0"));
    expectKeysMatch("manifest", manifestJson("r1", 1, stats));
}

TEST(DocContract, FleetKeysMatchTheDocs)
{
    // Three runs that disagree on one gauge, so the fleet document
    // carries groups[].outliers[] (outlier k = 1 flags the 10.0 run).
    std::vector<std::unique_ptr<TempFile>> files;
    std::vector<std::string> manifests;
    const char *const ipc[] = {"1.0", "1.0", "10.0"};
    for (int r = 0; r < 3; ++r) {
        const std::string id = "r" + std::to_string(r + 1);
        files.push_back(
            std::make_unique<TempFile>(id + ".stats.json", statsDoc(ipc[r])));
        const std::string manifest = manifestJson(id, r + 1, *files.back());
        files.push_back(
            std::make_unique<TempFile>(id + ".manifest.json", manifest));
        manifests.push_back(files.back()->path());
    }

    report::AggregateOptions opt;
    opt.outlierK = 1.0;
    report::FleetReport fleet;
    std::string err;
    ASSERT_TRUE(report::aggregateManifests(manifests, opt, fleet, err))
        << err;
    ASSERT_EQ(fleet.outliers, 1u);
    std::ostringstream doc;
    report::writeFleetDoc(doc, fleet);
    expectKeysMatch("fleet", doc.str());
}

} // namespace
} // namespace mct
