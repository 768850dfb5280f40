/**
 * @file
 * mct_report: offline analysis of mct_sim telemetry.
 *
 * Loads the machine-readable artifacts the simulator emits — the
 * --stats-json document (mct-stats-v1), span/event JSONL streams, and
 * host-profile documents (mct-host-v1) — and either renders a single
 * run (per-window tables plus a latency-attribution breakdown) or
 * diffs two runs metric-by-metric against declarative relative
 * thresholds (thresholds.txt, same data-not-code style as
 * tools/lint/rules.txt), writing a machine-readable BENCH_report.json
 * and exiting nonzero on regression.
 *
 * Everything here is a small library so tests/test_report.cc can
 * exercise the parsing, threshold grammar, and diff semantics without
 * shelling out.
 */

#ifndef MCT_TOOLS_REPORT_REPORT_HH
#define MCT_TOOLS_REPORT_REPORT_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/instrument.hh"
#include "common/stat_merge.hh"

namespace mct::report
{

// --------------------------------------------------------------------
// Minimal JSON value + parser (the simulator only ever writes; this
// tool is the one place in the repo that needs to read JSON back).
// --------------------------------------------------------------------

struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    /** Object members in document order. */
    std::vector<std::pair<std::string, JsonValue>> members;

    /** Object member lookup; null when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Numeric member with a default. */
    double num(const std::string &key, double dflt) const;

    /** String member with a default. */
    std::string text(const std::string &key,
                     const std::string &dflt) const;
};

struct JsonParse
{
    bool ok = false;
    JsonValue value;
    std::string error; ///< "offset N: what" when !ok
};

/** Parse one JSON document (tolerates trailing whitespace). */
[[nodiscard]] JsonParse parseJson(const std::string &text);

// --------------------------------------------------------------------
// Run data (mct-stats-v1)
// --------------------------------------------------------------------

/** A log2-bucketed histogram as serialized in a stats document. */
struct RunHistogram
{
    std::uint64_t count = 0;
    double sum = 0.0;
    /** (bucketLow, count) pairs, ascending. */
    std::vector<std::pair<double, std::uint64_t>> buckets;

    double mean() const
    {
        return count ? sum / static_cast<double>(count) : 0.0;
    }

    /** Same interpolation semantics as LogHistogram::percentile. */
    double percentile(double p) const;
};

/** One periodic delta window. */
struct RunWindow
{
    std::uint64_t inst = 0;
    std::map<std::string, double> scalars;
};

/** Everything mct_report needs from one --stats-json document. */
struct RunData
{
    std::string path;
    std::string mode;
    std::string app;
    std::string config;
    std::map<std::string, double> finalScalars;
    std::map<std::string, RunHistogram> finalHists;
    /** Scalar kind map ("counter"/"gauge") from the document's
     *  "kinds" object; empty for documents predating it. */
    std::map<std::string, std::string> kinds;
    std::vector<RunWindow> windows;
    std::map<std::string, double> eventCounts;
    double eventsRecorded = 0.0;
    double eventsDropped = 0.0;
};

/**
 * Load a stats document; false + @p err on parse/shape problems.
 * Accepts mct-stats-v1 (deterministic run document), mct-host-v1
 * (the nondeterministic host-telemetry document written by
 * --host-profile-out; same final/periodic shape, host scalars), and
 * mct-timeline-v1 (--timeline-out; its flat "final" object carries
 * the sim.timeline.* / timeline.<metric>.* / alert.* scalars, so
 * alert counts diff-gate like any other metric), and mct-fleet-v1
 * (the `mct_report aggregate` rollup, whose "final" object carries
 * the merged metrics under their original names plus the
 * fleet.<metric>.* dispersion cells, so a fleet document diff-gates
 * like any stats document).
 */
[[nodiscard]] bool loadSnapshots(const std::string &path, RunData &out,
                                 std::string &err);

// --------------------------------------------------------------------
// Run manifests (mct-manifest-v1) + fleet rollup (mct-fleet-v1)
// --------------------------------------------------------------------

/** One artifact row of a loaded run manifest. */
struct ManifestArtifactRow
{
    std::string kind;   ///< stats, host, timeline, spans, ...
    std::string schema; ///< artifact document schema ("" for JSONL)
    std::string path;   ///< as recorded (relative to the manifest)
    std::uint64_t bytes = 0;
    std::string fnv1a; ///< 16-digit hex checksum of the artifact
};

/** One loaded mct-manifest-v1 document. */
struct ManifestData
{
    std::string path; ///< the manifest file itself
    std::string runId;
    std::string mode;
    std::string app;
    std::string config;
    std::uint64_t seed = 0;
    std::string faultPlan;
    std::string fingerprint;
    std::vector<ManifestArtifactRow> artifacts;

    /** @p a's path resolved against this manifest's directory. */
    std::string artifactPath(const ManifestArtifactRow &a) const;

    /** First artifact of @p kind; null when the run produced none. */
    const ManifestArtifactRow *artifact(const std::string &kind) const;

    /** Value of the --group-by field @p field; false on an unknown
     *  field name (app, mode, config, seed, fault_plan, run_id). */
    [[nodiscard]] bool groupKey(const std::string &field,
                                std::string &out) const;
};

/** Load a manifest document; false + @p err on parse/shape issues. */
[[nodiscard]] bool loadManifest(const std::string &path,
                                ManifestData &out, std::string &err);

/**
 * Re-checksum every artifact @p m names. An unreadable artifact or a
 * checksum/size mismatch fails with @p err prefixed
 * "integrity error:" — the named signal CI greps for when it tampers
 * an artifact on purpose.
 */
[[nodiscard]] bool verifyManifest(const ManifestData &m,
                                  std::string &err);

/**
 * Rebuild a typed snapshot from a loaded run document: scalars take
 * their kind from the document's "kinds" object (gauge when absent —
 * correct for host documents, which carry no counters), histograms
 * are re-bucketed into dense LogHistogram form. The result feeds
 * StatMerge, whose merge is order-invariant by construction.
 */
StatSnapshot snapshotFromRun(const RunData &run);

/** One |value - mean| > k*stddev dispersion flag within a group. */
struct FleetOutlier
{
    std::string runId;
    std::string metric;
    double value = 0.0;
    double mean = 0.0;
    double stddev = 0.0;
};

/** One --group-by bucket of the fleet rollup. */
struct FleetGroup
{
    std::string key; ///< group-by field value ("all" when ungrouped)
    std::vector<std::string> runIds; ///< canonical (sorted) order
    StatMerge::Result merged;
    std::vector<FleetOutlier> outliers;
};

/** The whole rollup: per-group merges plus the all-runs merge. */
struct FleetReport
{
    std::string groupBy; ///< "" when ungrouped
    std::string mode;    ///< uniform across runs, else "mixed"
    std::string app;
    std::string config;
    std::size_t runs = 0;
    double outlierK = 3.0;
    StatMerge::Result all;          ///< merged over every run
    std::vector<FleetGroup> groups; ///< sorted by key
    std::size_t outliers = 0;       ///< total across groups
};

struct AggregateOptions
{
    std::string groupBy; ///< "" = single group
    bool withHost = false; ///< also merge each run's host document
    bool verify = true;    ///< re-checksum artifacts before loading
    double outlierK = 3.0;
};

/**
 * Load + verify the manifests at @p paths and merge their stats
 * documents (plus host documents with opt.withHost) into a
 * FleetReport. Deterministic in the order of @p paths: runs are
 * keyed and sorted by (run id, manifest path) before any merge.
 */
[[nodiscard]] bool aggregateManifests(
    const std::vector<std::string> &paths, const AggregateOptions &opt,
    FleetReport &out, std::string &err);

/**
 * Emit @p r as an mct-fleet-v1 document. The top-level "final"
 * object holds the all-runs merge — counters summed, gauges averaged,
 * histograms added bucket-wise, all under their original names — plus
 * the fleet.<metric>.{count,mean,min,max,stddev} dispersion cells and
 * the sim.fleet.{runs,groups,outliers} summary scalars; each entry of
 * "groups" repeats that shape for one group. Byte-identical for any
 * permutation of the aggregated runs.
 */
void writeFleetDoc(std::ostream &os, const FleetReport &r);

/** Human-readable rollup: per group the sim.* gauge dispersion table
 *  and any outlier flags. */
void renderFleet(std::ostream &os, const FleetReport &r);

// --------------------------------------------------------------------
// Timeline (mct-timeline-v1) + alert log (alerts.jsonl)
// --------------------------------------------------------------------

/** One --timeline-out document: per-window series + rollups. */
struct TimelineData
{
    std::string path;
    std::string mode;
    std::string app;
    std::string config;
    std::size_t capacity = 0;
    /** Tracked metric names, in document (sorted) order. */
    std::vector<std::string> metrics;
    /** Instruction count at each held window, oldest first. */
    std::vector<std::uint64_t> insts;
    /** Metric -> per-window delta values (same length as insts). */
    std::map<std::string, std::vector<double>> series;
    /** Flat final scalars: sim.timeline.*, timeline.<metric>.*, and
     *  the alert.* counts when an alert engine was armed. */
    std::map<std::string, double> finalScalars;
};

/** Load a timeline document; false + @p err on parse/shape issues. */
[[nodiscard]] bool loadTimeline(const std::string &path,
                                TimelineData &out, std::string &err);

/** One raise/clear row from an --alerts-out JSONL stream. */
struct AlertRow
{
    bool raised = true; ///< alert_raised (true) or alert_cleared
    std::uint64_t window = 0;
    std::uint64_t inst = 0;
    double value = 0.0;
    std::uint64_t windowsActive = 0; ///< clear rows only
    std::string rule;
    std::string metric;
    std::string condition;
    std::string severity;
};

struct AlertLog
{
    std::vector<AlertRow> rows;
};

/** Load an alert JSONL stream; false + @p err on malformed lines. */
[[nodiscard]] bool loadAlertLog(const std::string &path, AlertLog &out,
                                std::string &err);

/**
 * Fixed-width ASCII sparkline of @p vals (one character per value,
 * 8-level ramp, min..max normalized; empty input renders empty).
 */
std::string sparkline(const std::vector<double> &vals);

/**
 * Render a timeline document: header, one aligned row per tracked
 * metric (min/max/EWMA rollups plus a per-window sparkline), the
 * alert timeline interleaved as marker rows ('!' raise, '/' clear)
 * under the metric they fired on, then the alert event table.
 * @p maxWindows caps the rendered window range (0 = all held).
 */
void renderTimeline(std::ostream &os, const TimelineData &tl,
                    const AlertLog &alerts, std::size_t maxWindows);

// --------------------------------------------------------------------
// Span JSONL
// --------------------------------------------------------------------

/** One request-lifecycle span row from a --spans-out stream. */
struct SpanRow
{
    std::uint64_t id = 0;
    int hitLevel = 0;
    bool isWrite = false;
    std::uint64_t inst = 0;
    double totalNs = 0.0;
    /** Stage name -> duration in ns. */
    std::map<std::string, double> stageNs;
};

struct SpanSet
{
    std::vector<SpanRow> spans;
};

/** Load a span JSONL stream; false + @p err on malformed lines. */
[[nodiscard]] bool loadSpans(const std::string &path, SpanSet &out,
                             std::string &err);

// --------------------------------------------------------------------
// Host stage tables
// --------------------------------------------------------------------

struct ProfileStage
{
    std::string name;
    double seconds = 0.0;    ///< wall seconds
    double cpuSeconds = 0.0; ///< CPU seconds (0 for wall-only dumps)
    std::uint64_t calls = 0;
};

struct Profile
{
    std::vector<ProfileStage> stages;
};

/**
 * Load the stage table ({"stages":[...]}) of an mct-host-v1 document:
 * mct_sim --host-profile-out, or a bench binary's --profile-out /
 * MCT_BENCH_PROFILE dump.
 */
[[nodiscard]] bool loadProfile(const std::string &path, Profile &out,
                               std::string &err);

// --------------------------------------------------------------------
// Decision provenance (--provenance-out JSONL)
// --------------------------------------------------------------------

/** One objective's predicted-vs-realized audit row. */
struct ProvObjective
{
    double pred = 0.0;
    double sigma = 0.0; ///< model-reported 1-sigma (0 when n/a)
    double real = 0.0;
    double err = 0.0; ///< |pred - real| / |real|
    bool errValid = false;
};

/** A rejected runner-up candidate. */
struct ProvCandidate
{
    std::uint64_t config = 0;
    double ipc = 0.0;
    double lifetimeYears = 0.0;
    double energyJ = 0.0;
    bool feasible = false;
};

/** One decision's provenance record (one JSONL line). */
struct ProvRecord
{
    std::uint64_t seq = 0;
    std::uint64_t phase = 0;
    std::uint64_t inst = 0;
    std::uint64_t closeInst = 0;
    std::string model;
    std::string config;
    long long chosen = -1;
    bool fallback = false;
    std::uint64_t sampled = 0;
    double minLifetimeYears = 0.0;
    double ipcFraction = 0.0;
    double safetyMargin = 0.0;
    /** (objective name, audit row) in the emitter's order. */
    std::vector<std::pair<std::string, ProvObjective>> objectives;
    std::vector<ProvCandidate> runnerUps;
    double bestSampledIpc = 0.0;
    double regret = 0.0;
    double cumRegret = 0.0;
    /** objective -> per-feature attribution (absent when the decision
     *  was not an attribution-snapshot decision). */
    std::vector<std::pair<std::string, std::vector<double>>>
        attribution;
    bool closed = false;
};

struct ProvSet
{
    std::vector<ProvRecord> records;
};

/** Load a provenance JSONL stream; false + @p err on bad lines. */
[[nodiscard]] bool loadProvenance(const std::string &path,
                                  ProvSet &out, std::string &err);

// --------------------------------------------------------------------
// Thresholds (declarative regression gates)
// --------------------------------------------------------------------

/** One gate: metrics matching @p metricGlob may move against their
 *  preferred direction by at most rel * |base| + abs. */
struct ThresholdRule
{
    std::string metricGlob;
    bool higherIsBetter = true;
    double rel = 0.05;
    double abs = 0.0;
    int line = 0; ///< for error messages
};

struct Thresholds
{
    std::vector<ThresholdRule> rules;
};

/**
 * Parse the thresholds grammar:
 *
 *   # comment
 *   metric <glob>            # '*' matches any substring
 *     direction higher|lower # which way is better (required)
 *     rel 0.05               # relative slack (fraction of |base|)
 *     abs 0.0                # absolute slack, same unit as metric
 *
 * Unknown keys, a missing direction, or non-numeric slack are errors.
 */
[[nodiscard]] bool parseThresholds(const std::string &text,
                                   Thresholds &out, std::string &err);

/** parseThresholds over a file. */
[[nodiscard]] bool loadThresholds(const std::string &path,
                                  Thresholds &out, std::string &err);

/** Built-in default gates used when no --thresholds file is given. */
const char *defaultThresholdsText();

// --------------------------------------------------------------------
// Diff
// --------------------------------------------------------------------

/** Outcome of gating one metric. */
struct CheckResult
{
    std::string metric;
    std::string glob; ///< the rule that matched
    bool higherIsBetter = true;
    double base = 0.0;
    double cur = 0.0;
    double relChange = 0.0; ///< (cur - base) / |base| (0 when base 0)
    double allowed = 0.0;   ///< rel * |base| + abs
    bool regressed = false;
};

struct DiffReport
{
    std::vector<CheckResult> checks;
    std::size_t regressions = 0;
    /** Metrics a rule matched in the new run but missing from base. */
    std::vector<std::string> missingInBase;
};

/**
 * Gate @p cur against @p base: every final scalar of @p cur that
 * matches a threshold rule is checked (first matching rule wins).
 * Histograms gate through their derived percentile gauges, which are
 * final scalars already.
 */
DiffReport diffRuns(const RunData &base, const RunData &cur,
                    const Thresholds &th);

/** Human-readable diff table (one row per check). */
void renderDiff(std::ostream &os, const RunData &base,
                const RunData &cur, const DiffReport &report);

/** Machine-readable BENCH_report.json (schema mct-bench-report-v1). */
void writeBenchReport(std::ostream &os, const RunData &base,
                      const RunData &cur, const DiffReport &report);

// --------------------------------------------------------------------
// Single-run rendering
// --------------------------------------------------------------------

/** Key objectives, latency attribution, and per-window tables. */
void renderRun(std::ostream &os, const RunData &run,
               std::size_t maxWindows);

/** Span summary (count/mean by hit level and stage). */
void renderSpans(std::ostream &os, const SpanSet &spans);

/**
 * Per-decision audit blocks (predicted vs realized per objective,
 * relative error, regret, runner-ups, top attributed features) plus a
 * calibration summary over all loaded records. @p featureNames label
 * attribution entries (falls back to the index when short/empty);
 * @p maxDecisions caps the per-decision blocks (0 = all).
 */
void renderExplain(std::ostream &os, const ProvSet &prov,
                   const std::vector<std::string> &featureNames,
                   std::size_t maxDecisions);

/** Stage-timing table (adds a cpu column when any stage has one). */
void renderProfile(std::ostream &os, const Profile &profile);

/**
 * Host-telemetry summary for one run: simulator
 * throughput (sim.mips), wall/CPU seconds, memory high-water, then
 * the per-stage host attribution table.
 */
void renderHostSummary(std::ostream &os, const RunData &run,
                       const Profile &profile);

} // namespace mct::report

#endif // MCT_TOOLS_REPORT_REPORT_HH
