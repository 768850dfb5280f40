/**
 * @file
 * mct_report — analyze and regression-gate mct_sim telemetry.
 *
 * Usage:
 *   mct_report show --stats-json FILE [--spans FILE] [--host FILE]
 *                   [--windows N]
 *   mct_report explain [RUN.json] --provenance FILE [--decisions N]
 *   mct_report diff --base FILE --new FILE [--thresholds FILE]
 *                   [--out BENCH_report.json]
 *   mct_report aggregate MANIFEST [MANIFEST ...] [--group-by FIELD]
 *                   [--with-host] [--outlier-k K] [--no-verify]
 *                   [--out FLEET.json]
 *   mct_report timeline --timeline FILE [--alerts FILE]
 *                   [--windows N]
 *
 * `show` renders one run: objectives, the lat.* latency-attribution
 * breakdown with p50/p90/p99, per-window tables, event counts, and
 * optional span summaries. --host renders an mct-host-v1 document
 * (mct_sim --host-profile-out, or a bench binary's --profile-out):
 * sim.mips throughput, wall/CPU seconds, RSS high-water, and the
 * per-stage host attribution table.
 *
 * `explain` renders the decision audit from a --provenance-out JSONL
 * stream: per decision the predicted vs realized objectives with the
 * model's uncertainty and relative error, the constraint set, the
 * rejected runner-ups, the IPC regret against the best sampled
 * configuration, and the top attributed features; then a calibration
 * summary (mean/p50/p90 relative error per objective). An optional
 * stats-json run document adds the run header and its mct.audit.*
 * scalars for cross-checking.
 *
 * `diff` gates a new run against a base run. Every final scalar of the
 * new run matching a threshold rule (built-in defaults, or a
 * thresholds.txt given with --thresholds) is checked; a metric that
 * moves against its preferred direction by more than rel*|base| + abs
 * is a regression. --out writes a machine-readable
 * mct-bench-report-v1 document for CI artifacts.
 *
 * `timeline` renders an mct_sim --timeline-out document: one aligned
 * sparkline row per tracked metric with its min/max/EWMA rollups,
 * the alert timeline interleaved as marker rows ('!' raise, '/'
 * clear) when an --alerts-out JSONL stream is given, then the alert
 * event table and severity totals. A timeline document also loads as
 * a run document, so `diff` can gate alert.count.* scalars.
 *
 * `aggregate` scans run manifests (the mct-manifest-v1 documents
 * mct_sim --manifest-out and the bench harness emit), re-checksums
 * every artifact they name (a mismatch is a named "integrity error:"
 * and exits 3), merges the runs' stats documents — counters summed,
 * gauges averaged with count/mean/min/max/stddev dispersion cells,
 * histograms added bucket-wise so merged percentiles stay exact —
 * and renders the fleet table with per-group outlier flags
 * (|value - mean| > k*stddev, --outlier-k, default 3). --group-by
 * buckets runs by a manifest field (app, mode, config, seed,
 * fault_plan, run_id); --with-host also merges each run's host
 * document so sim.mips gates alongside the sim stats; --out writes
 * the mct-fleet-v1 document, which `diff` gates like any stats
 * document. The output is byte-identical for any ordering of the
 * MANIFEST arguments. Gating host telemetry is the same pair: CI
 * aggregates three runs' manifests --with-host, then diffs the fleet
 * document against a pinned baseline.
 *
 * Numeric flag values must be whole non-negative numbers; anything
 * else is a usage error naming the flag.
 *
 * Exit codes: 0 clean, 1 at least one regression, 2 usage error,
 * 3 unreadable or malformed input (including "integrity error:"
 * checksum failures from `aggregate`). `show` uses 0, 2 and 3.
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/atomic_file.hh"
#include "common/instrument.hh"
#include "mct/config.hh"
#include "report.hh"

namespace
{

using namespace mct::report;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: mct_report show --stats-json FILE [--spans FILE]\n"
        "                       [--host FILE] [--windows N]\n"
        "       mct_report explain [RUN.json] --provenance FILE\n"
        "                       [--decisions N]\n"
        "       mct_report diff --base FILE --new FILE\n"
        "                       [--thresholds FILE] [--out FILE]\n"
        "       mct_report aggregate MANIFEST [MANIFEST ...]\n"
        "                       [--group-by FIELD] [--with-host]\n"
        "                       [--outlier-k K] [--no-verify]\n"
        "                       [--out FLEET.json]\n"
        "       mct_report timeline --timeline FILE [--alerts FILE]\n"
        "                       [--windows N]\n");
    return 2;
}

/** Fetch the value after a flag; false when it is missing. */
bool
flagValue(int argc, char **argv, int &i, std::string &out)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", argv[i]);
        return false;
    }
    out = argv[++i];
    return true;
}

/**
 * Fetch the value after a flag as a whole non-negative number; a
 * sign, trailing junk, overflow or a non-finite value is "bad FLAG
 * 'VALUE'" and false, which callers turn into exit 2.
 */
template <typename T>
bool
numberValue(int argc, char **argv, int &i, T &out)
{
    const char *flag = argv[i];
    std::string v;
    if (!flagValue(argc, argv, i, v))
        return false;
    T n{};
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
    bool ok = ec == std::errc() && end == v.data() + v.size();
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(n) && n >= 0.0;
    if (!ok) {
        std::fprintf(stderr, "bad %s '%s'\n", flag, v.c_str());
        return false;
    }
    out = n;
    return true;
}

int
cmdShow(int argc, char **argv)
{
    std::string statsPath, spansPath, hostPath;
    std::size_t windows = 8;
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--stats-json")) {
            if (!flagValue(argc, argv, i, statsPath))
                return 2;
        } else if (!std::strcmp(argv[i], "--spans")) {
            if (!flagValue(argc, argv, i, spansPath))
                return 2;
        } else if (!std::strcmp(argv[i], "--host")) {
            if (!flagValue(argc, argv, i, hostPath))
                return 2;
        } else if (!std::strcmp(argv[i], "--windows")) {
            if (!numberValue(argc, argv, i, windows))
                return 2;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return usage();
        }
    }
    if (statsPath.empty() && hostPath.empty())
        return usage();

    std::string err;
    if (!statsPath.empty()) {
        RunData run;
        if (!loadSnapshots(statsPath, run, err)) {
            std::fprintf(stderr, "error: %s\n", err.c_str());
            return 3;
        }
        renderRun(std::cout, run, windows);
    }
    if (!spansPath.empty()) {
        SpanSet spans;
        if (!loadSpans(spansPath, spans, err)) {
            std::fprintf(stderr, "error: %s\n", err.c_str());
            return 3;
        }
        std::cout << "\n";
        renderSpans(std::cout, spans);
    }
    if (!hostPath.empty()) {
        RunData host;
        std::vector<mct::HostProfiler::Stage> stages;
        if (!loadSnapshots(hostPath, host, err) ||
            !loadProfile(hostPath, stages, err)) {
            std::fprintf(stderr, "error: %s\n", err.c_str());
            return 3;
        }
        if (!statsPath.empty())
            std::cout << "\n";
        renderHostSummary(std::cout, host, stages);
    }
    return 0;
}

/**
 * aggregate: verify + merge N run manifests into one fleet rollup.
 * Exit 0 on success, 2 on usage errors, 3 on unreadable/malformed
 * input — including the named "integrity error:" when an artifact's
 * bytes do not match its manifest checksum.
 */
int
cmdAggregate(int argc, char **argv)
{
    std::vector<std::string> manifests;
    AggregateOptions opt;
    std::string outPath;
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--group-by")) {
            if (!flagValue(argc, argv, i, opt.groupBy))
                return 2;
        } else if (!std::strcmp(argv[i], "--out")) {
            if (!flagValue(argc, argv, i, outPath))
                return 2;
        } else if (!std::strcmp(argv[i], "--with-host")) {
            opt.withHost = true;
        } else if (!std::strcmp(argv[i], "--no-verify")) {
            opt.verify = false;
        } else if (!std::strcmp(argv[i], "--outlier-k")) {
            if (!numberValue(argc, argv, i, opt.outlierK))
                return 2;
        } else if (argv[i][0] != '-') {
            manifests.push_back(argv[i]);
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return usage();
        }
    }
    if (manifests.empty())
        return usage();
    if (!opt.groupBy.empty()) {
        // Validate the field name up front so a typo is a usage
        // error, not a per-manifest load error.
        ManifestData probe;
        std::string key;
        if (!probe.groupKey(opt.groupBy, key)) {
            std::fprintf(stderr,
                         "unknown --group-by field '%s' (app, mode, "
                         "config, seed, fault_plan, run_id)\n",
                         opt.groupBy.c_str());
            return 2;
        }
    }

    std::string err;
    FleetReport fleet;
    if (!aggregateManifests(manifests, opt, fleet, err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 3;
    }
    renderFleet(std::cout, fleet);
    if (!outPath.empty()) {
        mct::AtomicFile f(outPath);
        writeFleetDoc(f.stream(), fleet);
        if (!f.commit()) {
            std::fprintf(stderr, "error: cannot write '%s'\n",
                         outPath.c_str());
            return 3;
        }
        std::printf("fleet document written to %s\n",
                    outPath.c_str());
    }
    return 0;
}

int
cmdTimeline(int argc, char **argv)
{
    std::string timelinePath, alertsPath;
    std::size_t windows = 0; // all held
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--timeline")) {
            if (!flagValue(argc, argv, i, timelinePath))
                return 2;
        } else if (!std::strcmp(argv[i], "--alerts")) {
            if (!flagValue(argc, argv, i, alertsPath))
                return 2;
        } else if (!std::strcmp(argv[i], "--windows")) {
            if (!numberValue(argc, argv, i, windows))
                return 2;
        } else if (argv[i][0] != '-' && timelinePath.empty()) {
            timelinePath = argv[i]; // positional timeline document
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return usage();
        }
    }
    if (timelinePath.empty())
        return usage();

    std::string err;
    TimelineData tl;
    if (!loadTimeline(timelinePath, tl, err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 3;
    }
    AlertLog alerts;
    if (!alertsPath.empty() &&
        !loadAlertLog(alertsPath, alerts, err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 3;
    }
    renderTimeline(std::cout, tl, alerts, windows);
    return 0;
}

int
cmdExplain(int argc, char **argv)
{
    std::string statsPath, provPath;
    std::size_t decisions = 0; // 0 = all
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--provenance")) {
            if (!flagValue(argc, argv, i, provPath))
                return 2;
        } else if (!std::strcmp(argv[i], "--stats-json")) {
            if (!flagValue(argc, argv, i, statsPath))
                return 2;
        } else if (!std::strcmp(argv[i], "--decisions")) {
            if (!numberValue(argc, argv, i, decisions))
                return 2;
        } else if (argv[i][0] != '-' && statsPath.empty()) {
            statsPath = argv[i]; // positional run document
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return usage();
        }
    }
    if (provPath.empty())
        return usage();

    std::string err;
    if (!statsPath.empty()) {
        RunData run;
        if (!loadSnapshots(statsPath, run, err)) {
            std::fprintf(stderr, "error: %s\n", err.c_str());
            return 3;
        }
        std::cout << "run: " << run.path << "\nmode " << run.mode
                  << ", app " << run.app << ", config " << run.config
                  << "\n";
        bool any = false;
        for (const auto &[name, v] : run.final) {
            if (v.kind == mct::StatKind::Histogram ||
                name.rfind("mct.audit.", 0) != 0)
                continue;
            if (!any)
                std::cout << "audit stats:\n";
            any = true;
            std::printf("  %-32s %g\n", name.c_str(), v.num);
        }
        std::cout << "\n";
    }
    std::vector<mct::ProvenanceRecord> prov;
    if (!loadProvenance(provPath, prov, err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 3;
    }
    renderExplain(std::cout, prov, mct::configDimNames(), decisions);
    return 0;
}

int
cmdDiff(int argc, char **argv)
{
    std::string basePath, newPath, thresholdsPath, outPath;
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--base")) {
            if (!flagValue(argc, argv, i, basePath))
                return 2;
        } else if (!std::strcmp(argv[i], "--new")) {
            if (!flagValue(argc, argv, i, newPath))
                return 2;
        } else if (!std::strcmp(argv[i], "--thresholds")) {
            if (!flagValue(argc, argv, i, thresholdsPath))
                return 2;
        } else if (!std::strcmp(argv[i], "--out")) {
            if (!flagValue(argc, argv, i, outPath))
                return 2;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return usage();
        }
    }
    if (basePath.empty() || newPath.empty())
        return usage();

    std::string err;
    Thresholds th;
    if (thresholdsPath.empty()) {
        if (!parseThresholds(defaultThresholdsText(), th, err)) {
            std::fprintf(stderr, "internal: bad default thresholds: "
                                 "%s\n",
                         err.c_str());
            return 2;
        }
    } else if (!loadThresholds(thresholdsPath, th, err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 3;
    }

    RunData base, cur;
    if (!loadSnapshots(basePath, base, err) ||
        !loadSnapshots(newPath, cur, err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 3;
    }

    const DiffReport rep = diffRuns(base, cur, th);
    renderDiff(std::cout, base, cur, rep);
    if (rep.checks.empty()) {
        std::fprintf(stderr,
                     "error: no metric matched any threshold rule\n");
        return 2;
    }
    if (!outPath.empty()) {
        mct::AtomicFile f(outPath);
        writeBenchReport(f.stream(), base, cur, rep);
        if (!f.commit()) {
            std::fprintf(stderr, "error: cannot write '%s'\n",
                         outPath.c_str());
            return 2;
        }
        std::printf("report written to %s\n", outPath.c_str());
    }
    return rep.regressions ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    if (!std::strcmp(argv[1], "show"))
        return cmdShow(argc, argv);
    if (!std::strcmp(argv[1], "explain"))
        return cmdExplain(argc, argv);
    if (!std::strcmp(argv[1], "diff"))
        return cmdDiff(argc, argv);
    if (!std::strcmp(argv[1], "aggregate"))
        return cmdAggregate(argc, argv);
    if (!std::strcmp(argv[1], "timeline"))
        return cmdTimeline(argc, argv);
    std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
    return usage();
}
