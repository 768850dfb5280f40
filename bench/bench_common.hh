/**
 * @file
 * Shared plumbing for the table/figure regeneration binaries: the
 * standard evaluation parameters (kept identical across benches so
 * the on-disk sweep cache is shared), ideal-policy search, library
 * assembly for the offline models, and a canned MCT runtime run.
 */

#ifndef MCT_BENCH_BENCH_COMMON_HH
#define MCT_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/alerts.hh"
#include "common/atomic_file.hh"
#include "common/instrument.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/manifest.hh"
#include "common/table.hh"
#include "mct/config_space.hh"
#include "mct/controller.hh"
#include "mct/optimizer.hh"
#include "sim/sweep_cache.hh"

namespace mct::bench
{

/**
 * Per-process host profiler shared by the bench binaries (trace
 * replay vs. sweep vs. sampling vs. fit vs. optimize, Fig 9 context),
 * enabled at first use. runMct and bench_table7's MCT runs attach it
 * to the Systems they build, so the controller charges its sampling,
 * fit and optimize stages to it. Its mct-host-v1 document is written
 * at exit when a destination was named, either with the --profile-out
 * harness flag (initHarness) or the MCT_BENCH_PROFILE env var
 * fallback.
 */
inline HostProfiler &profiler();

namespace detail
{

// These singletons are intentionally leaked: the at-exit dump
// handlers read them, and atexit handlers interleave with static
// destructors in reverse registration order, so a destructible
// static registered after a handler would be dead when it runs.

/** At-exit stage-dump destination ("" = no dump armed yet). */
inline std::string &
profileDumpPath()
{
    static std::string &path = *new std::string;
    return path;
}

/** At-exit run-manifest destination ("" = no manifest armed yet). */
inline std::string &
manifestDumpPath()
{
    static std::string &path = *new std::string;
    return path;
}

/** Bench name for the manifest ("?" until BenchSummary::start). */
inline std::string &
manifestBenchName()
{
    static std::string &name = *new std::string("?");
    return name;
}

/**
 * Arm the one at-exit manifest dump (idempotent). Must be armed
 * before the profile/summary dumps are registered: std::atexit runs
 * handlers in reverse registration order, and the manifest has to run
 * last so it can checksum the published artifact bytes.
 */
inline void
armManifestDump()
{
    static bool armed = false;
    if (armed)
        return;
    armed = true;
    std::atexit(+[] {
        const std::string &path = manifestDumpPath();
        if (path.empty())
            return;
        RunManifest m;
        m.mode = "bench";
        m.app = manifestBenchName();
        const char *summary = std::getenv("MCT_BENCH_JSON");
        m.fingerprint = "mct-bench-fp-v1;bench=" + m.app +
                        ";profile=" + profileDumpPath() +
                        ";summary=" + (summary ? summary : "");
        m.runId = manifestRunId(m.fingerprint);
        const auto note = [&](const char *kind, const char *schema,
                              const std::string &artifact) {
            if (artifact.empty())
                return;
            ManifestArtifact a;
            a.kind = kind;
            a.schema = schema;
            if (!checksumFile(artifact, a.checksum, a.bytes))
                return; // dump never happened; keep the manifest honest
            a.path = manifestRelative(path, artifact);
            m.artifacts.push_back(std::move(a));
        };
        note("host", "mct-host-v1", profileDumpPath());
        note("bench_summary", "mct-bench-summary-v1",
             summary ? summary : "");
        AtomicFile f(path);
        writeManifestJson(f.stream(), m);
        if (!f.commit())
            std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    });
}

/** Arm the one at-exit profile dump (idempotent). */
inline void
armProfileDump()
{
    static bool armed = false;
    if (armed)
        return;
    armed = true;
    std::atexit(+[] {
        const std::string &path = profileDumpPath();
        if (path.empty())
            return;
        HostProfiler &p = profiler();
        p.sampleMemory(); // end-of-run RSS / high-water refresh
        std::ofstream os(path);
        if (os)
            p.writeJson(os, "bench", manifestBenchName(), "");
    });
}

} // namespace detail

inline HostProfiler &
profiler()
{
    // Benches that never call initHarness (or are driven by scripts
    // predating the flags) keep the env-var behavior. Manifest before
    // profile: reverse atexit order makes the manifest dump run last.
    static const bool envFallback = [] {
        if (detail::manifestDumpPath().empty())
            if (const char *env = std::getenv("MCT_BENCH_MANIFEST"))
                detail::manifestDumpPath() = env;
        if (!detail::manifestDumpPath().empty())
            detail::armManifestDump();
        if (detail::profileDumpPath().empty())
            if (const char *env = std::getenv("MCT_BENCH_PROFILE"))
                detail::profileDumpPath() = env;
        if (!detail::profileDumpPath().empty())
            detail::armProfileDump();
        return true;
    }();
    (void)envFallback;
    static HostProfiler &p = *[] { // leaked, see detail above
        auto *hp = new HostProfiler;
        hp->enable();
        return hp;
    }();
    return p;
}

/**
 * Parse the shared bench harness command line. The flags are
 *
 *   --profile-out FILE   write the host profiler's mct-host-v1
 *                        document to FILE at exit (mct_report show
 *                        --host)
 *   --manifest-out FILE  write an mct-manifest-v1 run manifest to
 *                        FILE at exit, listing the host/summary
 *                        artifacts with sizes and FNV-1a checksums
 *                        (docs/observability.md; mct_report aggregate)
 *
 * which promote the historical MCT_BENCH_PROFILE / MCT_BENCH_MANIFEST
 * env vars; the env vars remain the fallback when a flag is absent.
 * Unknown flags are fatal (exit 2) so a typo cannot silently run an
 * unprofiled bench.
 */
inline void
initHarness(int argc, char **argv)
{
    std::string path;
    std::string manifest;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--profile-out" && i + 1 < argc) {
            path = argv[++i];
        } else if (arg == "--manifest-out" && i + 1 < argc) {
            manifest = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--profile-out FILE] "
                         "[--manifest-out FILE]\n",
                         argv[0]);
            std::exit(2);
        }
    }
    if (path.empty())
        if (const char *env = std::getenv("MCT_BENCH_PROFILE"))
            path = env;
    if (manifest.empty())
        if (const char *env = std::getenv("MCT_BENCH_MANIFEST"))
            manifest = env;
    if (!manifest.empty()) {
        // Armed first: atexit runs in reverse order, so the manifest
        // dump then runs after the artifacts it checksums are final.
        detail::manifestDumpPath() = manifest;
        detail::armManifestDump();
    }
    if (path.empty())
        return;
    detail::profileDumpPath() = path;
    detail::armProfileDump();
}

/**
 * Machine-readable outcome of a bench binary. Benches record their
 * headline numbers with metric(); when the MCT_BENCH_JSON environment
 * variable names a file, the summary — metrics plus the host profiler's
 * stage timings — is written there as JSON at exit, in the BENCH_*.json
 * shape the CI perf-smoke job archives and mct_report consumes.
 */
class BenchSummary
{
  public:
    static BenchSummary &
    instance()
    {
        static BenchSummary s;
        return s;
    }

    /** Name the bench (once, near banner()). Arms the at-exit dump. */
    void
    start(const std::string &benchName)
    {
        name = benchName;
        detail::manifestBenchName() = benchName;
        static const bool armed = [] {
            if (!std::getenv("MCT_BENCH_JSON"))
                return false;
            std::atexit(+[] {
                const char *path = std::getenv("MCT_BENCH_JSON");
                if (!path)
                    return;
                std::ofstream os(path);
                if (os)
                    instance().writeJson(os);
            });
            return true;
        }();
        (void)armed;
    }

    /** Record one headline number (insertion order is kept). */
    void
    metric(const std::string &key, double value)
    {
        metrics.emplace_back(key, value);
    }

    /** Fold one run's fired-alert counts and timeline EWMA rollups
     *  into the summary under @p prefix. Disarmed surfaces record
     *  nothing, so benches that never arm alerting keep their
     *  historical metric list. */
    void
    observability(const System &sys, const std::string &prefix)
    {
        if (sys.alerts().enabled()) {
            const AlertEngine &ae = sys.alerts();
            metric(prefix + ".alerts.raised",
                   static_cast<double>(ae.raised()));
            metric(prefix + ".alerts.critical",
                   static_cast<double>(ae.raisedBySeverity(
                       AlertSeverity::Critical)));
            metric(prefix + ".alerts.warn",
                   static_cast<double>(
                       ae.raisedBySeverity(AlertSeverity::Warn)));
        }
        const MetricTimeline &tl = sys.timeline();
        for (std::size_t i = 0; i < tl.metrics().size(); ++i)
            metric(prefix + ".ewma." + tl.metrics()[i],
                   tl.rollup(i).ewma);
    }

    void
    writeJson(std::ostream &os) const
    {
        JsonWriter w(os);
        w.beginObject();
        w.kv("schema", "mct-bench-summary-v1");
        w.kv("bench", name);
        w.key("metrics").beginObject();
        for (const auto &[k, v] : metrics)
            w.kv(k, v);
        w.endObject();
        w.key("profile").beginObject();
        w.key("stages").beginArray();
        for (const HostProfiler::Stage &s : profiler().stages()) {
            w.beginObject();
            w.kv("name", s.name);
            w.kv("seconds", s.wallSeconds);
            w.kv("calls", s.calls);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        w.endObject();
        os << '\n';
    }

  private:
    std::string name = "?";
    std::vector<std::pair<std::string, double>> metrics;
};

/** Standard evaluation run lengths (every bench must agree so the
 *  sweep cache stays coherent). */
inline EvalParams
standardEvalParams()
{
    return EvalParams{}; // 200k warm-up, 1M measured
}

/** Open the shared on-disk sweep cache (MCT_SWEEP_CACHE overrides). */
inline SweepCache
openCache()
{
    return SweepCache(standardEvalParams(), SweepCache::defaultPath());
}

/** Sweep one application over a space, with progress on stderr. */
inline std::vector<Metrics>
sweep(SweepCache &cache, const std::string &app,
      const std::vector<MellowConfig> &space)
{
    HostProfiler::Scope scope(&profiler(), "sweep");
    return cache.getAll(app, space, true);
}

/** Index of the ideal configuration (brute force, paper Section 6.2). */
inline int
idealIndex(const std::vector<Metrics> &truth, double lifetimeTarget)
{
    const int i =
        chooseOptimal(truth, LifetimeObjective{lifetimeTarget, 0.95});
    return i >= 0 ? i : chooseMostDurable(truth);
}

/**
 * Offline library over @p space for the offline/HBM models: one row
 * per application except @p excludeApp; the selector picks the
 * objective (0 IPC, 1 lifetime, 2 energy), normalized per-app by its
 * static-baseline value so magnitudes are comparable across apps.
 */
inline ml::Matrix
buildLibrary(SweepCache &cache, const std::vector<MellowConfig> &space,
             const std::string &excludeApp, int objective,
             bool normalize = true)
{
    std::vector<ml::Vector> rows;
    for (const auto &app : workloadNames()) {
        if (app == excludeApp)
            continue;
        const Metrics base = cache.get(app, staticBaselineConfig());
        ml::Vector row;
        row.reserve(space.size());
        for (const auto &cfg : space) {
            const Metrics m = cache.get(app, cfg);
            double v = objective == 0   ? m.ipc
                       : objective == 1 ? m.lifetimeYears
                                        : m.energyJ;
            if (normalize) {
                const double b = objective == 0   ? base.ipc
                                 : objective == 1 ? base.lifetimeYears
                                                  : base.energyJ;
                v /= std::max(b, 1e-12);
            }
            row.push_back(v);
        }
        rows.push_back(std::move(row));
    }
    return ml::Matrix::fromRows(rows);
}

/** Outcome of one live MCT run. */
struct MctRunResult
{
    MellowConfig chosen;
    Metrics chosenEvaluated; ///< fresh evaluation of the final config
    Metrics samplingPeriod;  ///< cost during sampling (Fig 9)
    Metrics testingPeriod;   ///< measured post-selection execution
    double samplingInsts = 0;
    double testingInsts = 0;
    std::size_t decisions = 0;
    std::uint64_t fallbacks = 0;
};

/**
 * Run the MCT runtime on @p app and evaluate its final configuration
 * with the standard evaluator (so MCT rows compare apples-to-apples
 * with default/static/ideal rows).
 */
inline MctRunResult
runMct(SweepCache &cache, const std::string &app, PredictorKind kind,
       double lifetimeTarget, InstCount totalInsts = 8 * 1000 * 1000)
{
    SystemParams sp;
    System sys(app, sp, staticBaselineConfig());
    sys.attachHostProfiler(&profiler());
    {
        HostProfiler::Scope scope(&profiler(), "replay");
        sys.run(standardEvalParams().warmupInsts);
    }

    MctParams mp;
    mp.predictor = kind;
    mp.objective.minLifetimeYears = lifetimeTarget;
    // Scaled-run substitution (MctParams::steadyMeasure): sample
    // objectives come from steady-state evaluations of the same 77
    // configurations, standing in for the paper's long (1B-insn)
    // sampling windows; the live cyclic sampler still runs and is
    // charged as overhead. A lighter live schedule keeps the Fig 9
    // sampling:testing ratio near the paper's 1:2.
    mp.steadyMeasure = [&cache, &app](const MellowConfig &cfg) {
        return cache.get(app, cfg);
    };
    mp.sampling.rounds = 6;
    MctController ctl(sys, mp);
    ctl.runFor(totalInsts);

    MctRunResult r;
    r.chosen = ctl.currentConfig();
    r.chosenEvaluated = cache.get(app, r.chosen);
    r.samplingPeriod = ctl.samplingAccum().metrics(sys);
    r.testingPeriod = ctl.testingAccum().metrics(sys);
    r.samplingInsts = static_cast<double>(ctl.samplingAccum().insts);
    r.testingInsts = static_cast<double>(ctl.testingAccum().insts);
    r.decisions = ctl.decisions().size();
    r.fallbacks = ctl.fallbacks();
    return r;
}

/** Print a one-line banner for a bench binary. Also raises the log
 *  level so sweep progress (reported via mct_inform) stays visible
 *  while a cold cache populates. */
inline void
banner(const std::string &what)
{
    if (logLevel() < LogLevel::Inform)
        setLogLevel(LogLevel::Inform);
    std::printf("==============================================="
                "=============\n%s\n"
                "==============================================="
                "=============\n",
                what.c_str());
}

} // namespace mct::bench

#endif // MCT_BENCH_BENCH_COMMON_HH
