/**
 * @file
 * mct_sim: command-line driver for the simulator and the MCT runtime.
 *
 * Modes:
 *   mct_sim eval --app lbm [config flags]           one configuration
 *   mct_sim mct  --app lbm [--target 8] [--model gbt|qlasso]
 *                                                   the adaptive runtime
 *   mct_sim sweep --app lbm [--space full|noquota] [--csv out.csv]
 *                                                   brute-force sweep
 *   mct_sim trace --app lbm --ops 100000 --out lbm.trace
 *                                                   capture a trace
 *   mct_sim eval --trace lbm.trace [config flags]   replay a trace
 *   mct_sim eval --app lbm --stats                  also print every
 *                                                   registry stat with
 *                                                   its description
 *   mct_sim list                                    applications & mixes
 *
 * Config flags for eval:
 *   --fast R --slow R --bank N --eager N --quota Y
 *   --cancel none|slow|both --pause --retention --fastreads
 *   --startgap
 *
 * Common flags: --warmup N --measure N --seed N
 *
 * Telemetry flags (eval and mct modes):
 *   --stats-json FILE    machine-readable stats document (final
 *                        snapshot, periodic deltas, decision and
 *                        health-check history, event counts)
 *   --stats-every N      dump a delta snapshot every N instructions
 *                        into the stats document's "periodic" array
 *   --trace-out FILE     structured event trace as JSONL
 *   --trace-chrome FILE  the same trace in Chrome trace-event format
 *                        (load in chrome://tracing or Perfetto)
 *   --trace-cap N        event ring-buffer capacity (default 65536)
 *   --spans-out FILE     request-lifecycle spans as JSONL (sampled
 *                        per-stage latency attribution)
 *   --spans-chrome FILE  the same spans as Chrome trace-event
 *                        complete events on per-component tracks
 *   --span-sample N      sample every Nth request id (default 64
 *                        when a spans output is requested, else off)
 *   --span-cap N         span ring-buffer capacity (default 16384)
 *
 * Host telemetry (eval and mct modes; nondeterministic by nature, so
 * it lives in its own files and never touches the byte-identical
 * stats/span/provenance surfaces):
 *   --host-profile-out FILE     mct-host-v1 document: sim.mips,
 *                               sim.host.* scalars, periodic samples
 *                               on the --stats-every cadence, and the
 *                               per-stage wall/CPU attribution
 *                               (replay, step, sampling, fit,
 *                               optimize)
 *   --host-profile-chrome FILE  the host stage timeline as Chrome
 *                               trace-event complete events (real
 *                               microseconds)
 *
 * Run manifests (all modes; docs/observability.md):
 *   --manifest-out FILE  mct-manifest-v1 document naming the run
 *                        (mode/app/config, seed, fault plan, run
 *                        fingerprint) and listing every artifact this
 *                        invocation produced with its relative path
 *                        and FNV-1a checksum, so a directory of runs
 *                        is a self-describing corpus for
 *                        `mct_report aggregate`
 *
 * Timelines & alerting (eval and mct modes; both require
 * --stats-every; docs/observability.md):
 *   --timeline-out FILE      mct-timeline-v1 document: per-window
 *                            delta series of the tracked metrics plus
 *                            EWMA/min/max rollups and final alert
 *                            scalars
 *   --timeline-metrics GLOBS comma-separated stat globs to track
 *                            (default "sim.*")
 *   --timeline-cap N         timeline ring capacity in windows
 *                            (default 512)
 *   --alerts FILE            declarative alert rules (see
 *                            docs/observability.md for the grammar);
 *                            rules are evaluated online at every
 *                            --stats-every window
 *   --alerts-out FILE        raised/cleared alert log as JSONL
 *
 * Decision audit (mct mode; docs/observability.md):
 *   --provenance-out FILE     closed decision-provenance records as
 *                             JSONL (predicted vs realized objectives,
 *                             constraints, runner-ups, regret)
 *   --provenance-chrome FILE  the same records as Chrome trace-event
 *                             complete events (decision -> realization)
 *   --provenance-cap N        provenance ring capacity (default 4096)
 *   --audit-every N           feature-attribution snapshot every Nth
 *                             decision (default 1; 0 disables
 *                             attribution, audit errors still accrue)
 *
 * Fault injection (eval, mct and sweep modes; docs/robustness.md):
 *   --faults PLAN        a built-in plan name (drift, degrade,
 *                        counters, garbage, skew, corrupt-cache,
 *                        corrupt-ckpt, storm) or a spec string like
 *                        "latency_drift@500k+1m:mag=3;clock_skew@2m"
 *   --fault-seed N       rng seed for stochastic faults (default 1)
 *
 * Crash-safe checkpoint/restore (eval and mct modes;
 * docs/robustness.md):
 *   --ckpt-out BASE      arm checkpointing into the double-buffered
 *                        slot files BASE.0 / BASE.1 (published via
 *                        temp-file + atomic rename)
 *   --ckpt-every N       checkpoint period in instructions
 *                        (default 1m; boundaries are absolute, so an
 *                        interrupted and an uninterrupted run chunk
 *                        the simulation identically)
 *   --resume             restore the newest valid checkpoint before
 *                        running; corrupt slots are quarantined and
 *                        the previous slot is used instead
 * While armed, SIGTERM/SIGINT finish the current chunk, write a final
 * checkpoint, and exit with status 75 (preempted; no telemetry files
 * are written). A resumed run re-produces the uninterrupted run's
 * stats/spans/provenance surfaces byte for byte.
 *
 * Malformed numeric flag values are fatal errors naming the flag,
 * never silent zeros: an integer flag takes a whole non-negative
 * value its target can hold. A malformed --faults plan prints the
 * parse error and exits 2, and so does a flag the mode does not read.
 */

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <fstream>
#include <iostream>
#include <sstream>

#include "common/alerts.hh"
#include "common/atomic_file.hh"
#include "common/csv.hh"
#include "common/fault_plan.hh"
#include "common/instrument.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/manifest.hh"
#include "common/serialize.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "mct/config.hh"
#include "mct/config_space.hh"
#include "mct/controller.hh"
#include "mct/predictors.hh"
#include "memctrl/mellow_config.hh"
#include "nvm/nvm_params.hh"
#include "nvm/start_gap.hh"
#include "sim/checkpoint.hh"
#include "sim/evaluator.hh"
#include "sim/fault_injector.hh"
#include "sim/sweep_cache.hh"
#include "sim/system.hh"
#include "workloads/mixes.hh"
#include "workloads/trace.hh"

namespace
{

using namespace mct;

struct Args
{
    std::string mode;
    std::map<std::string, std::string> kv;
    std::vector<std::string> flags;

    bool has(const std::string &f) const
    {
        for (const auto &x : flags)
            if (x == f)
                return true;
        return kv.count(f) > 0;
    }

    std::string
    get(const std::string &k, const std::string &dflt) const
    {
        const auto it = kv.find(k);
        return it == kv.end() ? dflt : it->second;
    }

    double
    getD(const std::string &k, double dflt) const
    {
        const auto it = kv.find(k);
        if (it == kv.end())
            return dflt;
        const std::string &s = it->second;
        double v = 0.0;
        const auto [end, ec] =
            std::from_chars(s.data(), s.data() + s.size(), v);
        if (ec != std::errc() || end != s.data() + s.size())
            mct_fatal("--", k, " expects a number, got '", s, "'");
        return v;
    }

    /**
     * A whole non-negative integer flag (nonzero when @p positive)
     * that @p T can hold, or @p dflt when the flag is absent. Any
     * other value is a fatal error naming the flag.
     */
    template <typename T>
    T
    getN(const std::string &k, T dflt, bool positive = false) const
    {
        const auto it = kv.find(k);
        if (it == kv.end())
            return dflt;
        const std::string &s = it->second;
        long long v = 0;
        const auto [end, ec] =
            std::from_chars(s.data(), s.data() + s.size(), v);
        const bool whole = end == s.data() + s.size();
        if (ec == std::errc::result_out_of_range && whole)
            mct_fatal("--", k, " is out of range, got '", s, "'");
        if (ec != std::errc() || !whole)
            mct_fatal("--", k, " expects an integer, got '", s, "'");
        if (v < 0 || (positive && v == 0))
            mct_fatal("--", k,
                      positive ? " must be positive" : " must be non-negative");
        if (static_cast<unsigned long long>(v) >
            static_cast<unsigned long long>(std::numeric_limits<T>::max()))
            mct_fatal("--", k, " is out of range, got '", s, "'");
        return static_cast<T>(v);
    }
};

/**
 * The flags @p mode reads: its own and those of the shared helpers it
 * calls (configFromArgs, evalFromArgs, telemetryFromArgs,
 * faultsFromArgs, ckptFromArgs). Null for an unknown mode.
 */
const std::set<std::string> *
modeFlags(const std::string &mode)
{
    using Flags = std::set<std::string>;
    static const std::map<std::string, Flags> table = [] {
        const Flags config{"fast",  "slow",      "bank",
                           "eager", "quota",     "cancel",
                           "pause", "retention", "fastreads"};
        const Flags run{"warmup", "measure", "seed", "startgap"};
        const Flags telemetry{
            "stats-json",     "stats-every",      "trace-out",
            "trace-chrome",   "trace-cap",        "spans-out",
            "spans-chrome",   "span-sample",      "span-cap",
            "provenance-out", "provenance-chrome", "provenance-cap",
            "audit-every",    "host-profile-out", "host-profile-chrome",
            "timeline-out",   "timeline-metrics", "timeline-cap",
            "alerts",         "alerts-out",       "manifest-out"};
        const Flags faults{"faults", "fault-seed"};
        const Flags ckpt{"ckpt-out", "ckpt-every", "resume"};
        const auto join = [](std::initializer_list<Flags> groups) {
            Flags out;
            for (const Flags &g : groups)
                out.insert(g.begin(), g.end());
            return out;
        };
        return std::map<std::string, Flags>{
            {"eval", join({config, run, telemetry, faults, ckpt,
                           {"app", "trace", "mlp", "stats"}})},
            {"mct", join({run, telemetry, faults, ckpt,
                          {"app", "insts", "target", "model"}})},
            {"sweep", join({run, faults,
                            {"app", "space", "csv", "manifest-out"}})},
            {"trace", {"app", "ops", "seed", "out", "manifest-out"}},
            {"list", {}},
        };
    }();
    const auto it = table.find(mode);
    return it == table.end() ? nullptr : &it->second;
}

Args
parse(int argc, char **argv)
{
    Args args;
    if (argc > 1)
        args.mode = argv[1];
    const std::set<std::string> *known = modeFlags(args.mode);
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) != 0) {
            std::fprintf(stderr, "unexpected argument '%s'\n",
                         a.c_str());
            std::exit(2);
        }
        a = a.substr(2);
        // A flag the mode never reads would be silently ignored.
        if (known && known->count(a) == 0) {
            std::fprintf(stderr, "unknown flag '--%s' for mct_sim %s\n",
                         a.c_str(), args.mode.c_str());
            std::exit(2);
        }
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
            args.kv[a] = argv[++i];
        else
            args.flags.push_back(a);
    }
    return args;
}

MellowConfig
configFromArgs(const Args &args)
{
    MellowConfig cfg;
    cfg.fastLatency = args.getD("fast", 1.0);
    if (args.has("slow")) {
        cfg.slowLatency = args.getD("slow", 3.0);
    }
    if (args.has("bank")) {
        cfg.bankAware = true;
        cfg.bankAwareThreshold = args.getN("bank", 1);
    }
    if (args.has("eager")) {
        cfg.eagerWritebacks = true;
        cfg.eagerThreshold = args.getN("eager", 4);
    }
    if (args.has("quota")) {
        cfg.wearQuota = true;
        cfg.wearQuotaTarget = args.getD("quota", 8.0);
    }
    const std::string cancel = args.get("cancel", "none");
    if (cancel == "slow") {
        cfg.slowCancellation = true;
    } else if (cancel == "both") {
        cfg.fastCancellation = true;
        cfg.slowCancellation = true;
    } else if (cancel != "none") {
        std::fprintf(stderr, "--cancel must be none|slow|both\n");
        std::exit(2);
    }
    if (!cfg.usesSlowWrites())
        cfg.slowLatency = cfg.fastLatency;
    cfg.pauseInsteadOfCancel = args.has("pause");
    cfg.shortRetentionWrites = args.has("retention");
    cfg.fastDisturbingReads = args.has("fastreads");
    if (!cfg.valid()) {
        std::fprintf(stderr, "invalid configuration: %s\n",
                     toString(cfg).c_str());
        std::exit(2);
    }
    return cfg;
}

EvalParams
evalFromArgs(const Args &args)
{
    EvalParams ep;
    ep.warmupInsts = args.getN("warmup", ep.warmupInsts);
    ep.measureInsts = args.getN("measure", ep.measureInsts);
    ep.sys.seed = args.getN<std::uint64_t>("seed", 1);
    if (args.has("startgap"))
        ep.sys.nvm.wearLevelMode = WearLevelMode::StartGap;
    return ep;
}

void
printMetrics(const Metrics &m)
{
    std::printf("IPC            %.4f\n", m.ipc);
    std::printf("lifetime       %.3f years\n", m.lifetimeYears);
    std::printf("energy         %.5f J per Minst\n", m.energyJ);
}

/** Telemetry destinations parsed from the common flags. */
struct Telemetry
{
    std::string statsJson;   ///< --stats-json FILE
    std::string traceOut;    ///< --trace-out FILE (JSONL)
    std::string traceChrome; ///< --trace-chrome FILE
    std::string spansOut;    ///< --spans-out FILE (JSONL)
    std::string spansChrome; ///< --spans-chrome FILE
    std::string provOut;     ///< --provenance-out FILE (JSONL)
    std::string provChrome;  ///< --provenance-chrome FILE
    std::string hostOut;     ///< --host-profile-out FILE
    std::string hostChrome;  ///< --host-profile-chrome FILE
    std::string timelineOut; ///< --timeline-out FILE
    std::string alertsOut;   ///< --alerts-out FILE (JSONL)
    std::string manifestOut; ///< --manifest-out FILE
    std::vector<std::string> timelineGlobs; ///< --timeline-metrics
    std::vector<AlertRule> alertRules;      ///< parsed --alerts file
    std::size_t timelineCap = 512;          ///< --timeline-cap N
    InstCount statsEvery = 0;
    std::size_t traceCap = 64 * 1024;
    std::uint64_t spanSample = 0; ///< --span-sample N (0 = off)
    std::size_t spanCap = 16 * 1024;
    std::size_t provCap = 4 * 1024;
    std::uint64_t auditEvery = 1; ///< --audit-every N

    /** Any surface requested at all? */
    bool
    any() const
    {
        return !statsJson.empty() || !traceOut.empty() ||
               !traceChrome.empty() || statsEvery > 0 ||
               wantsSpans() || wantsProvenance() || wantsHost() ||
               wantsTimeline() || wantsAlerts() ||
               !manifestOut.empty();
    }

    /** Should per-window metric deltas be collected into a ring? */
    bool wantsTimeline() const { return !timelineOut.empty(); }

    /** Should alert rules be evaluated at every stats window? */
    bool wantsAlerts() const { return !alertRules.empty(); }

    /** Should the event ring buffer record? */
    bool
    wantsTrace() const
    {
        return !statsJson.empty() || !traceOut.empty() ||
               !traceChrome.empty();
    }

    /** Should request-lifecycle spans be sampled? */
    bool wantsSpans() const { return spanSample > 0; }

    /** Should closed provenance records be kept? */
    bool
    wantsProvenance() const
    {
        return !provOut.empty() || !provChrome.empty();
    }

    /** Should host-side (wall-clock) telemetry be collected? */
    bool
    wantsHost() const
    {
        return !hostOut.empty() || !hostChrome.empty();
    }
};

/** Split a comma-separated glob list, dropping empty fields. */
std::vector<std::string>
splitGlobs(const std::string &spec)
{
    std::vector<std::string> out;
    std::string cur;
    std::istringstream is(spec);
    while (std::getline(is, cur, ','))
        if (!cur.empty())
            out.push_back(cur);
    return out;
}

Telemetry
telemetryFromArgs(const Args &args)
{
    Telemetry t;
    t.statsJson = args.get("stats-json", "");
    t.traceOut = args.get("trace-out", "");
    t.traceChrome = args.get("trace-chrome", "");
    t.statsEvery = args.getN<InstCount>("stats-every", 0);
    t.traceCap = args.getN("trace-cap", t.traceCap, true);
    t.spansOut = args.get("spans-out", "");
    t.spansChrome = args.get("spans-chrome", "");
    t.spanSample = args.getN("span-sample", t.spanSample);
    t.spanCap = args.getN("span-cap", t.spanCap, true);
    // A spans output implies sampling at the default period.
    if (t.spanSample == 0 &&
        (!t.spansOut.empty() || !t.spansChrome.empty()))
        t.spanSample = 64;
    t.provOut = args.get("provenance-out", "");
    t.provChrome = args.get("provenance-chrome", "");
    t.provCap = args.getN("provenance-cap", t.provCap, true);
    t.auditEvery = args.getN("audit-every", t.auditEvery);
    t.hostOut = args.get("host-profile-out", "");
    t.hostChrome = args.get("host-profile-chrome", "");
    t.timelineOut = args.get("timeline-out", "");
    t.timelineGlobs = splitGlobs(args.get("timeline-metrics", "sim.*"));
    if (t.timelineGlobs.empty())
        mct_fatal("--timeline-metrics needs at least one glob");
    t.timelineCap = args.getN("timeline-cap", t.timelineCap, true);
    if (t.timelineOut.empty() &&
        (args.has("timeline-metrics") || args.has("timeline-cap")))
        mct_fatal("--timeline-metrics and --timeline-cap require "
                  "--timeline-out");
    const std::string alertsFile = args.get("alerts", "");
    if (!alertsFile.empty()) {
        std::string err;
        if (!loadAlerts(alertsFile, t.alertRules, err))
            mct_fatal("--alerts: ", err);
    }
    t.alertsOut = args.get("alerts-out", "");
    if (!t.alertsOut.empty() && t.alertRules.empty())
        mct_fatal("--alerts-out requires --alerts");
    t.manifestOut = args.get("manifest-out", "");
    // Both surfaces observe the run at stats-window granularity; with
    // no window cadence there is nothing to observe.
    if ((t.wantsTimeline() || t.wantsAlerts()) && t.statsEvery == 0)
        mct_fatal("--timeline-out and --alerts require --stats-every");
    return t;
}

/**
 * Run in fixed-size chunks so the fault injector (polled at run()
 * boundaries) observes window transitions that would otherwise open
 * and close inside one long run call.
 */
void
runChunked(System &sys, InstCount insts)
{
    constexpr InstCount chunk = 50 * 1000;
    while (insts > 0) {
        const InstCount step = std::min(insts, chunk);
        sys.run(step);
        insts -= step;
    }
}

/** Fault-injection request parsed from --faults / --fault-seed. */
struct FaultArgs
{
    FaultPlan plan;
    std::uint64_t seed = 1;

    bool any() const { return !plan.empty(); }
};

FaultArgs
faultsFromArgs(const Args &args)
{
    FaultArgs f;
    f.seed = args.getN<std::uint64_t>("fault-seed", 1);
    const std::string spec = args.get("faults", "");
    if (spec.empty())
        return f;
    const FaultPlanParse parsed = parseFaultPlan(spec);
    if (!parsed.ok) {
        std::fprintf(stderr, "--faults: %s\n", parsed.error.c_str());
        std::fprintf(stderr, "built-in plans:");
        for (const std::string &n : builtinFaultPlanNames())
            std::fprintf(stderr, " %s", n.c_str());
        std::fprintf(stderr, "\n");
        std::exit(2);
    }
    f.plan = parsed.plan;
    return f;
}

/** Human summary of what the injector did and how the run coped. */
void
printFaultSummary(const FaultInjector &inj, const MctController *ctl)
{
    std::printf("faults         %s\n", inj.plan().summary().c_str());
    std::printf("injected       %llu total (",
                static_cast<unsigned long long>(inj.injectedTotal()));
    bool first = true;
    for (std::size_t k = 0; k < numFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        if (inj.injected(kind) == 0)
            continue;
        std::printf("%s%s %llu", first ? "" : ", ", toString(kind),
                    static_cast<unsigned long long>(inj.injected(kind)));
        first = false;
    }
    std::printf("%s)\n", first ? "none" : "");
    if (ctl) {
        std::printf("recovery       quarantined %llu, rejected %llu, "
                    "retries %llu, fallbacks %llu, clamps %llu, "
                    "reengaged %llu\n",
                    static_cast<unsigned long long>(
                        ctl->quarantinedSamples()),
                    static_cast<unsigned long long>(
                        ctl->rejectedPredictions()),
                    static_cast<unsigned long long>(ctl->retryRounds()),
                    static_cast<unsigned long long>(ctl->fallbacks()),
                    static_cast<unsigned long long>(
                        ctl->emergencyClamps()),
                    static_cast<unsigned long long>(
                        ctl->reengagements()));
    }
}

/** One periodic delta record collected during the run. */
struct PeriodicDelta
{
    InstCount inst = 0;
    StatSnapshot delta;
};

/** Raised by SIGTERM/SIGINT while checkpointing is armed. */
volatile std::sig_atomic_t gStopRequested = 0;

void
onStopSignal(int)
{
    gStopRequested = 1;
}

/** Arm graceful preemption (only while checkpointing is armed). */
void
installStopHandler()
{
    std::signal(SIGTERM, onStopSignal);
    std::signal(SIGINT, onStopSignal);
}

/** Exit status of a run preempted by a stop signal (EX_TEMPFAIL). */
constexpr int exitPreempted = 75;

/** Checkpoint/restore request parsed from --ckpt-* / --resume. */
struct CkptArgs
{
    std::string out;     ///< --ckpt-out BASE (slots BASE.0 / BASE.1)
    InstCount every = 0; ///< --ckpt-every N instructions
    bool resume = false; ///< --resume

    bool armed() const { return !out.empty(); }
};

CkptArgs
ckptFromArgs(const Args &args)
{
    CkptArgs c;
    c.out = args.get("ckpt-out", "");
    c.every = args.getN<InstCount>("ckpt-every", 1000 * 1000, true);
    c.resume = args.has("resume");
    if (c.out.empty() && (c.resume || args.has("ckpt-every")))
        mct_fatal("--resume and --ckpt-every require --ckpt-out");
    return c;
}

/**
 * Driver-side state that must survive a preemption: where the run is
 * relative to its warmup/measure schedule and everything already
 * accumulated for the final stats document.
 */
struct DriverState
{
    bool warmupDone = false;
    SysSnapshot s0;            ///< measure-window base (warmupDone)
    StatSnapshot prev;         ///< periodic-delta baseline
    InstCount lastCapture = 0; ///< inst of the last periodic capture
    std::vector<PeriodicDelta> periodic;

    /** Close the warm-up: the measure window and the periodic-delta
     *  baseline start here. */
    void
    startMeasure(const System &sys)
    {
        warmupDone = true;
        s0 = sys.snapshot();
        prev = sys.statRegistry().snapshot();
        lastCapture = sys.retired();
    }

    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.flag(warmupDone);
        s0.io(ar);
        ioSnapshot(ar, prev);
        ar.u64(lastCapture);
        ar.seq(periodic, [&ar](PeriodicDelta &pd) {
            ar.u64(pd.inst);
            ioSnapshot(ar, pd.delta);
        });
        // The JSON writer's non-finite tally is process-global state.
        std::uint64_t nonfinite = jsonNonfiniteCount();
        ar.u64(nonfinite);
        if constexpr (Ar::reading)
            restoreJsonNonfiniteCount(nonfinite);
    }
};

/**
 * The run identity pinned into every checkpoint. Any flag that shapes
 * simulated behavior or the telemetry ring geometry is included:
 * resuming under a different value would silently diverge from the
 * uninterrupted run, so such resumes are refused up front.
 */
std::string
runFingerprint(const std::string &mode, const std::string &app,
               const std::string &configId, const EvalParams &ep,
               InstCount measureTotal, const Telemetry &t,
               const Args &args, InstCount ckptEvery)
{
    std::ostringstream f;
    f << "mct-ckpt-fp-v2"
      << ";mode=" << mode << ";app=" << app << ";config=" << configId
      << ";seed=" << ep.sys.seed << ";warmup=" << ep.warmupInsts
      << ";measure=" << measureTotal
      << ";stats-every=" << t.statsEvery
      << ";trace=" << (t.wantsTrace() ? 1 : 0)
      << ";trace-cap=" << t.traceCap
      << ";span-sample=" << t.spanSample << ";span-cap=" << t.spanCap
      << ";prov=" << (t.wantsProvenance() ? 1 : 0)
      << ";prov-cap=" << t.provCap
      << ";audit-every=" << t.auditEvery
      << ";ckpt-every=" << ckptEvery
      << ";timeline=" << (t.wantsTimeline() ? 1 : 0)
      << ";timeline-cap=" << t.timelineCap;
    f << ";timeline-metrics=";
    for (const std::string &g : t.timelineGlobs)
        f << g << ',';
    f << ";alerts=" << canonicalAlertRules(t.alertRules)
      << ";faults=" << args.get("faults", "")
      << ";fault-seed=" << args.getN<std::uint64_t>("fault-seed", 1)
      << ";startgap=" << (args.has("startgap") ? 1 : 0);
    return f.str();
}

/**
 * The checkpoint schedule around a run. Armed (--ckpt-out), its
 * boundaries live at absolute multiples of the period in
 * retired-instruction space, so an uninterrupted run and a
 * killed-then-resumed run chunk the simulation identically — the
 * foundation of byte-identical resume. Unarmed, it has no store and
 * no boundary, so the same loops run a plain run in one stretch per
 * stats window: a boundary would split the controller's runFor and
 * move its phase windows.
 */
class CkptSession
{
  public:
    CkptSession(const CkptArgs &ck, std::string fingerprint, System &sys,
                DriverState &state)
        : fp(std::move(fingerprint)), every_(ck.every), sys_(sys),
          ds(state)
    {
        if (!ck.armed())
            return;
        store_.emplace(ck.out);
        store_->registerStats(sys.statRegistry());
        installStopHandler();
    }

    void attachController(const MctController *c) { ctl = c; }
    void attachInjector(const FaultInjector *f) { inj = f; }

    /** The slot store, or null when unarmed. */
    CheckpointStore *store() { return store_ ? &*store_ : nullptr; }

    /** First checkpoint boundary strictly after @p inst (none when
     *  unarmed). */
    InstCount
    nextBoundary(InstCount inst) const
    {
        return store_ ? (inst / every_ + 1) * every_
                      : std::numeric_limits<InstCount>::max();
    }

    /** Serialize everything live and publish one checkpoint. */
    bool
    save()
    {
        HostProfiler::Scope stage(sys_.hostProfiler(), "ckpt");
        Serializer s;
        s.putBool(ctl != nullptr);
        sys_.serialize(s);
        if (ctl)
            ctl->serialize(s);
        ds.io(s);
        s.putBool(inj != nullptr);
        if (inj)
            inj->serialize(s);
        return store_->save(fp, s.data());
    }

    const std::string &fingerprint() const { return fp; }

  private:
    std::optional<CheckpointStore> store_;
    std::string fp;
    InstCount every_;
    System &sys_;
    DriverState &ds;
    const MctController *ctl = nullptr;
    const FaultInjector *inj = nullptr;
};

/**
 * Run the warm-up to the absolute instruction @p target in
 * checkpoint-bounded chunks, charged to the host "replay" stage.
 * Returns false when a stop signal preempted the stretch (the caller
 * writes the final checkpoint and exits).
 */
template <typename StepFn>
bool
runArmedTo(System &sys, InstCount target, CkptSession &ck, StepFn step)
{
    HostProfiler::Scope replay(sys.hostProfiler(), "replay");
    while (sys.retired() < target && !gStopRequested) {
        const InstCount ckptAt = ck.nextBoundary(sys.retired());
        step(std::min(target, ckptAt) - sys.retired());
        if (sys.retired() >= ckptAt)
            ck.save();
    }
    return gStopRequested == 0;
}

/**
 * The measure loop: chunk to the next stats or checkpoint boundary
 * (whichever is closer), capturing a registry delta snapshot at every
 * stats boundary. Without --stats-json the deltas stream to stdout as
 * JSONL so --stats-every is useful on its own. Returns false on
 * preemption.
 */
template <typename StepFn>
bool
runMeasureArmed(System &sys, InstCount target, const Telemetry &t,
                CkptSession &ck, DriverState &ds, StepFn step)
{
    while (sys.retired() < target && !gStopRequested) {
        InstCount stop = target;
        if (t.statsEvery > 0)
            stop = std::min(stop, ds.lastCapture + t.statsEvery);
        const InstCount ckptAt = ck.nextBoundary(sys.retired());
        stop = std::min(stop, ckptAt);
        step(stop - sys.retired());
        const bool capture =
            t.statsEvery > 0 &&
            (sys.retired() >= ds.lastCapture + t.statsEvery ||
             sys.retired() >= target);
        if (capture) {
            if (HostProfiler *hp = sys.hostProfiler())
                hp->samplePeriodic(
                    static_cast<std::uint64_t>(sys.retired()));
            StatSnapshot cur = sys.statRegistry().snapshot();
            PeriodicDelta pd;
            pd.inst = sys.retired();
            pd.delta = StatRegistry::delta(ds.prev, cur);
            ds.prev = std::move(cur);
            ds.lastCapture = pd.inst;
            // Timeline capture and alert evaluation see the same
            // window delta that the stats document records.
            sys.observeWindow(pd.inst, pd.delta);
            if (t.statsJson.empty()) {
                JsonWriter w(std::cout);
                w.beginObject();
                w.kv("inst", static_cast<std::uint64_t>(pd.inst));
                w.key("delta");
                writeSnapshot(w, pd.delta);
                w.endObject();
                std::cout << '\n';
            } else {
                ds.periodic.push_back(std::move(pd));
            }
        }
        if (sys.retired() >= ckptAt)
            ck.save();
    }
    return gStopRequested == 0;
}

/** Publish the final checkpoint of a preempted run and exit 75. */
int
preempted(CkptSession &ck, const System &sys)
{
    ck.save();
    std::printf("checkpoint     preempted at inst %llu\n",
                static_cast<unsigned long long>(sys.retired()));
    return exitPreempted;
}

/**
 * Load the newest valid checkpoint and overlay it onto the freshly
 * constructed system. When the payload carries controller state,
 * @p makeCtl constructs the controller *before* the system overlay so
 * its construction side effects (baseline config, trace events) are
 * overwritten exactly as they were in the uninterrupted run. Returns
 * the constructed controller (null in eval mode).
 */
MctController *
restoreFromCheckpoint(CkptSession &sess, System &sys, DriverState &ds,
                      FaultInjector *inj,
                      const std::function<MctController *()> &makeCtl)
{
    CheckpointStore &store = *sess.store();
    if (inj && inj->wantsCkptCorruption() &&
        !store.newestSlot().empty()) {
        // Chaos drill: scramble the newest slot before the load so
        // the checksum-reject -> fall-back-to-previous path runs for
        // real (mirrors the sweep-cache corruption drill).
        inj->corruptCheckpointFile(store.newestSlot());
    }
    const CheckpointLoadResult r = store.load();
    if (!r.ok)
        mct_fatal("--resume: ", r.error);
    if (r.fingerprint != sess.fingerprint()) {
        mct_fatal("--resume: checkpoint was written by a different "
                  "run\n  saved:   ", r.fingerprint,
                  "\n  current: ", sess.fingerprint());
    }
    Deserializer d(r.payload);
    const bool hasCtl = d.getBool();
    if (hasCtl && !makeCtl)
        mct_fatal("--resume: checkpoint carries controller state "
                  "(was it written by mct mode?)");
    MctController *ctl = hasCtl ? makeCtl() : nullptr;
    sys.deserialize(d);
    if (ctl)
        ctl->deserialize(d);
    ds.io(d);
    const bool hasInj = d.getBool();
    if (hasInj) {
        if (!inj)
            mct_fatal("--resume: checkpoint carries fault-injector "
                      "state but no --faults plan was given");
        inj->deserialize(d);
    }
    if (!d.ok())
        mct_fatal("--resume: malformed checkpoint payload");
    if (!d.atEnd())
        mct_panic("checkpoint payload has trailing bytes");
    store.noteResume();
    if (r.corruptRejected) {
        sys.eventTrace().record(
            TraceEventType::RecoveryAction,
            static_cast<double>(RecoveryStep::CkptQuarantine), 0.0,
            static_cast<double>(store.corruptLoads()));
    }
    std::printf("checkpoint     resumed seq %llu from %s at inst "
                "%llu%s\n",
                static_cast<unsigned long long>(r.sequence),
                r.slotFile.c_str(),
                static_cast<unsigned long long>(sys.retired()),
                r.corruptRejected ? " (corrupt slot quarantined)"
                                  : "");
    return ctl;
}

/** Human summary of checkpoint activity (host-side; not in stats). */
void
printCkptSummary(const CheckpointStore &store)
{
    std::printf("ckpt           writes %llu, corrupt_loads %llu, "
                "resumes %llu\n",
                static_cast<unsigned long long>(store.writes()),
                static_cast<unsigned long long>(store.corruptLoads()),
                static_cast<unsigned long long>(store.resumes()));
}

/** Run identity recorded into the manifest (--manifest-out). */
struct RunIdentity
{
    std::uint64_t seed = 0;
    std::string faultPlan;   ///< --faults spec ("" when none)
    std::string fingerprint; ///< runFingerprint() of this invocation
};

/**
 * Publish the mct-manifest-v1 document naming this run and every
 * artifact it produced. Artifacts are re-read from disk for their
 * checksums, so the manifest attests to the published bytes, not to
 * what the writer intended.
 */
bool
writeRunManifest(const std::string &path, const std::string &mode,
                 const std::string &app, const std::string &config,
                 const RunIdentity &rid,
                 std::vector<ManifestArtifact> artifacts)
{
    RunManifest m;
    m.runId = manifestRunId(rid.fingerprint);
    m.mode = mode;
    m.app = app;
    m.config = config;
    m.seed = rid.seed;
    m.faultPlan = rid.faultPlan;
    m.fingerprint = rid.fingerprint;
    for (ManifestArtifact &a : artifacts) {
        std::uint64_t sum = 0, bytes = 0;
        if (!checksumFile(a.path, sum, bytes)) {
            std::fprintf(stderr, "cannot checksum '%s'\n",
                         a.path.c_str());
            return false;
        }
        a.checksum = sum;
        a.bytes = bytes;
        a.path = manifestRelative(path, a.path);
        m.artifacts.push_back(std::move(a));
    }
    AtomicFile f(path);
    writeManifestJson(f.stream(), m);
    if (!f.commit()) {
        std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
        return false;
    }
    std::printf("manifest-out   %s (%zu artifacts, run %s)\n",
                path.c_str(), m.artifacts.size(), m.runId.c_str());
    return true;
}

/** Write the machine-readable stats document (--stats-json). */
void
writeStatsDoc(std::ostream &os, const std::string &mode,
              const std::string &app, const System &sys,
              const MctController *ctl,
              const std::vector<PeriodicDelta> &periodic)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "mct-stats-v1");
    w.kv("mode", mode);
    w.kv("app", app);
    w.kv("config", configKey(sys.config()));
    const StatSnapshot final_ = sys.statRegistry().snapshot();
    w.key("final");
    writeSnapshot(w, final_);
    // Scalar kinds, so cross-run aggregation can tell counters (which
    // sum across a fleet) from gauges (which average). Histograms are
    // self-describing objects and need no entry.
    w.key("kinds").beginObject();
    for (const auto &[path, v] : final_) {
        if (v.kind == StatKind::Counter)
            w.kv(path, "counter");
        else if (v.kind == StatKind::Gauge)
            w.kv(path, "gauge");
    }
    w.endObject();
    w.key("periodic").beginArray();
    for (const PeriodicDelta &pd : periodic) {
        w.beginObject();
        w.kv("inst", static_cast<std::uint64_t>(pd.inst));
        w.key("delta");
        writeSnapshot(w, pd.delta);
        w.endObject();
    }
    w.endArray();
    if (ctl) {
        w.key("decisions").beginArray();
        for (const Decision &d : ctl->decisions()) {
            w.beginObject();
            w.kv("inst",
                 static_cast<std::uint64_t>(d.atInstruction));
            w.kv("config", configKey(d.config));
            w.kv("feasible", d.feasible);
            w.kv("pred_ipc", d.predicted.ipc);
            w.kv("pred_lifetime_years", d.predicted.lifetimeYears);
            w.kv("pred_energy_j", d.predicted.energyJ);
            w.endObject();
        }
        w.endArray();
        w.key("health_checks").beginArray();
        for (const HealthRecord &h : ctl->healthHistory()) {
            w.beginObject();
            w.kv("inst",
                 static_cast<std::uint64_t>(h.atInstruction));
            w.kv("chosen_ipc", h.chosenIpc);
            w.kv("baseline_ipc", h.baselineIpc);
            w.kv("fell_back", h.fellBack);
            w.endObject();
        }
        w.endArray();
    }
    const EventTrace &trace = sys.eventTrace();
    w.key("events").beginObject();
    const auto counts = trace.countsByType();
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i])
            w.kv(toString(static_cast<TraceEventType>(i)), counts[i]);
    }
    w.endObject();
    w.kv("events_recorded", trace.recorded());
    w.kv("events_dropped", trace.dropped());
    w.endObject();
    os << '\n';
}

/** One telemetry file a run can write: its stdout label, where it
 *  goes ("" when not requested), how the manifest lists it, how to
 *  write it, and what to print after its path. */
struct Surface
{
    const char *label;
    std::string path;
    const char *kind;
    const char *schema;
    std::function<void(std::ostream &)> write;
    std::function<std::string()> summary;
};

/** " (A NAME_A, B NAME_B)": a surface's two headline counts. */
std::string
counts(std::uint64_t a, const char *nameA, std::uint64_t b,
       const char *nameB)
{
    return " (" + std::to_string(a) + " " + nameA + ", " +
           std::to_string(b) + " " + nameB + ")";
}

/** Write all requested telemetry surfaces; 0 on success. */
int
finishTelemetry(const Telemetry &t, const std::string &mode,
                const std::string &app, const System &sys,
                const MctController *ctl,
                const std::vector<PeriodicDelta> &periodic,
                const RunIdentity &rid)
{
    const EventTrace &trace = sys.eventTrace();
    const SpanTrace &spans = sys.spanTrace();
    const ProvenanceTrace &prov = sys.provenanceTrace();
    const MetricTimeline &timeline = sys.timeline();
    const AlertEngine &alerts = sys.alerts();
    HostProfiler *const hp = sys.hostProfiler();
    const std::string config = configKey(sys.config());
    const Surface surfaces[] = {
        {"stats-json", t.statsJson, "stats", "mct-stats-v1",
         [&](std::ostream &os) {
             writeStatsDoc(os, mode, app, sys, ctl, periodic);
         },
         nullptr},
        {"trace-out", t.traceOut, "trace", "",
         [&](std::ostream &os) { trace.writeJsonl(os); },
         [&] {
             return counts(trace.size(), "events", trace.dropped(),
                           "dropped");
         }},
        {"trace-chrome", t.traceChrome, "trace_chrome", "",
         [&](std::ostream &os) { trace.writeChromeTrace(os); }, nullptr},
        {"spans-out", t.spansOut, "spans", "",
         [&](std::ostream &os) { spans.writeJsonl(os); },
         [&] {
             return counts(spans.size(), "spans", spans.dropped(),
                           "dropped");
         }},
        {"spans-chrome", t.spansChrome, "spans_chrome", "",
         [&](std::ostream &os) { spans.writeChromeTrace(os); }, nullptr},
        {"provenance-out", t.provOut, "provenance", "",
         [&](std::ostream &os) { prov.writeJsonl(os); },
         [&] {
             return counts(prov.size(), "records", prov.dropped(),
                           "dropped");
         }},
        {"provenance-chrome", t.provChrome, "provenance_chrome", "",
         [&](std::ostream &os) { prov.writeChromeTrace(os); }, nullptr},
        {"timeline-out", t.timelineOut, "timeline", "mct-timeline-v1",
         [&](std::ostream &os) {
             std::map<std::string, double> extra;
             if (alerts.enabled())
                 alerts.appendFinal(extra);
             timeline.writeJson(os, mode, app, config, extra);
         },
         [&] {
             return counts(timeline.recorded(), "windows",
                           timeline.dropped(), "dropped");
         }},
        {"alerts-out", t.alertsOut, "alerts", "",
         [&](std::ostream &os) { alerts.writeJsonl(os); },
         [&] {
             return counts(alerts.raised(), "raised", alerts.cleared(),
                           "cleared");
         }},
        // The host profile's own two rows come last: they report the
        // emit stage, so it must have ended before they are written.
        {"host-profile", t.hostOut, "host", "mct-host-v1",
         [&](std::ostream &os) { hp->writeJson(os, mode, app, config); },
         [&] {
             char buf[64];
             std::snprintf(buf, sizeof buf, " (%.2f mips, rss %.0f kB)",
                           hp->mips(), hp->rssHighWaterKb());
             return std::string(buf);
         }},
        {"host-chrome", t.hostChrome, "host_chrome", "",
         [&](std::ostream &os) { hp->writeChromeTrace(os); }, nullptr},
    };
    const Surface *const firstHost = std::end(surfaces) - 2;

    std::vector<ManifestArtifact> artifacts;
    std::optional<HostProfiler::Scope> emit(std::in_place, hp, "emit");
    for (const Surface &s : surfaces) {
        if (&s == firstHost) {
            emit.reset();
            if (hp)
                hp->sampleMemory(); // end-of-run RSS / high-water refresh
        }
        if (s.path.empty())
            continue;
        AtomicFile f(s.path);
        s.write(f.stream());
        if (!f.commit()) {
            std::fprintf(stderr, "cannot write '%s'\n", s.path.c_str());
            return 1;
        }
        std::printf("%-14s %s%s\n", s.label, s.path.c_str(),
                    s.summary ? s.summary().c_str() : "");
        artifacts.push_back({s.kind, s.schema, s.path});
    }
    if (!t.manifestOut.empty() &&
        !writeRunManifest(t.manifestOut, mode, app, config, rid,
                          std::move(artifacts)))
        return 1;
    return 0;
}

int
cmdList()
{
    std::printf("applications:\n");
    for (const auto &name : workloadNames())
        std::printf("  %s\n", name.c_str());
    std::printf("mixes (Table 11):\n");
    for (const auto &mix : multiProgramMixes()) {
        std::printf("  %s:", mix.name.c_str());
        for (const auto &a : mix.apps)
            std::printf(" %s", a.c_str());
        std::printf("\n");
    }
    return 0;
}

int
cmdEval(const Args &args)
{
    const MellowConfig cfg = configFromArgs(args);
    const EvalParams ep = evalFromArgs(args);
    const CkptArgs ck = ckptFromArgs(args);
    if (ck.armed() && args.has("trace"))
        mct_fatal("--ckpt-out is not supported with --trace replay");

    // --trace FILE replays a recorded trace instead of a model.
    if (args.has("trace")) {
        const std::string path = args.get("trace", "");
        auto wl = TraceWorkload::fromFile(path,
                                          args.getN<unsigned>("mlp", 16));
        System sys(std::move(wl), ep.sys, cfg);
        sys.run(ep.warmupInsts);
        const SysSnapshot s0 = sys.snapshot();
        sys.run(ep.measureInsts);
        std::printf("trace          %s\n", path.c_str());
        std::printf("config         %s\n", toString(cfg).c_str());
        printMetrics(sys.metricsSince(s0));
        return 0;
    }

    const std::string app = args.get("app", "lbm");
    if (!isWorkloadName(app)) {
        std::fprintf(stderr, "unknown app '%s' (try: mct_sim list)\n",
                     app.c_str());
        return 2;
    }
    std::printf("app            %s\n", app.c_str());
    std::printf("config         %s\n", toString(cfg).c_str());
    const Telemetry tel = telemetryFromArgs(args);
    const FaultArgs faults = faultsFromArgs(args);
    SystemParams sp = ep.sys;
    System sys(app, sp, cfg);
    FaultInjector inj(faults.plan, faults.seed);
    if (faults.any())
        sys.attachFaultInjector(&inj);
    if (tel.wantsTrace())
        sys.eventTrace().enable(tel.traceCap);
    if (tel.wantsSpans())
        sys.enableSpans(tel.spanSample, tel.spanCap);
    if (tel.wantsTimeline())
        sys.enableTimeline(tel.timelineGlobs, tel.timelineCap);
    if (tel.wantsAlerts())
        sys.enableAlerts(tel.alertRules);
    HostProfiler hostProf;
    if (tel.wantsHost()) {
        hostProf.enable();
        sys.attachHostProfiler(&hostProf);
    }
    const auto step = [&](InstCount n) {
        if (faults.any())
            runChunked(sys, n);
        else
            sys.run(n);
    };
    const RunIdentity rid{
        ep.sys.seed, args.get("faults", ""),
        runFingerprint("eval", app, configKey(cfg), ep, ep.measureInsts,
                       tel, args, ck.every)};
    DriverState ds;
    CkptSession sess(ck, rid.fingerprint, sys, ds);
    if (faults.any())
        sess.attachInjector(&inj);
    if (ck.resume)
        restoreFromCheckpoint(sess, sys, ds, faults.any() ? &inj : nullptr,
                              nullptr);
    if (!ds.warmupDone) {
        if (!runArmedTo(sys, ep.warmupInsts, sess, step))
            return preempted(sess, sys);
        ds.startMeasure(sys);
    }
    if (!runMeasureArmed(sys, ds.s0.instructions + ep.measureInsts, tel,
                         sess, ds, step))
        return preempted(sess, sys);
    printMetrics(sys.metricsSince(ds.s0));
    if (args.has("stats"))
        writeStatsText(std::cout, sys.statRegistry());
    if (faults.any())
        printFaultSummary(inj, nullptr);
    if (sess.store())
        printCkptSummary(*sess.store());
    return finishTelemetry(tel, "eval", app, sys, nullptr, ds.periodic,
                           rid);
}

int
cmdTrace(const Args &args)
{
    const std::string app = args.get("app", "lbm");
    if (!isWorkloadName(app)) {
        std::fprintf(stderr, "unknown app '%s'\n", app.c_str());
        return 2;
    }
    const auto count = args.getN<std::size_t>("ops", 100 * 1000);
    const auto seed = args.getN<std::uint64_t>("seed", 1);
    const std::string out = args.get("out", app + ".trace");
    auto wl = makeWorkload(app, seed);
    const auto ops = captureTrace(*wl, count);
    std::ofstream os(out);
    if (!os) {
        std::fprintf(stderr, "cannot write '%s'\n", out.c_str());
        return 1;
    }
    TraceWorkload::write(os, ops);
    os.close();
    std::printf("captured %zu operations of %s into %s\n", count,
                app.c_str(), out.c_str());
    const std::string manifestOut = args.get("manifest-out", "");
    if (!manifestOut.empty()) {
        std::ostringstream fp;
        fp << "mct-trace-fp-v1;app=" << app << ";ops=" << count
           << ";seed=" << seed;
        const RunIdentity rid{seed, "", fp.str()};
        ManifestArtifact a;
        a.kind = "trace_capture";
        a.path = out;
        if (!writeRunManifest(manifestOut, "trace", app, "", rid,
                              {std::move(a)}))
            return 1;
    }
    return 0;
}

int
cmdMct(const Args &args)
{
    const std::string app = args.get("app", "lbm");
    if (!isWorkloadName(app)) {
        std::fprintf(stderr, "unknown app '%s'\n", app.c_str());
        return 2;
    }
    const EvalParams ep = evalFromArgs(args);
    const Telemetry tel = telemetryFromArgs(args);
    const FaultArgs faults = faultsFromArgs(args);
    const CkptArgs ck = ckptFromArgs(args);
    const auto total = args.getN<InstCount>("insts", 4 * 1000 * 1000);

    MctParams mp;
    mp.objective.minLifetimeYears = args.getD("target", 8.0);
    mp.auditEvery = tel.auditEvery;
    const std::string model = args.get("model", "gbt");
    if (model == "gbt")
        mp.predictor = PredictorKind::GradientBoosting;
    else if (model == "qlasso")
        mp.predictor = PredictorKind::QuadraticLasso;
    else {
        std::fprintf(stderr, "--model must be gbt|qlasso\n");
        return 2;
    }

    SystemParams sp = ep.sys;
    System sys(app, sp, staticBaselineConfig());
    FaultInjector inj(faults.plan, faults.seed);
    if (faults.any())
        sys.attachFaultInjector(&inj);
    if (tel.wantsTrace())
        sys.eventTrace().enable(tel.traceCap);
    if (tel.wantsSpans())
        sys.enableSpans(tel.spanSample, tel.spanCap);
    if (tel.wantsProvenance())
        sys.provenanceTrace().enable(tel.provCap);
    if (tel.wantsTimeline())
        sys.enableTimeline(tel.timelineGlobs, tel.timelineCap);
    if (tel.wantsAlerts())
        sys.enableAlerts(tel.alertRules);
    HostProfiler hostProf;
    if (tel.wantsHost()) {
        hostProf.enable();
        sys.attachHostProfiler(&hostProf);
    }

    const std::string configId =
        model + ":" + std::to_string(mp.objective.minLifetimeYears);
    const RunIdentity rid{ep.sys.seed, args.get("faults", ""),
                          runFingerprint("mct", app, configId, ep,
                                         total, tel, args, ck.every)};
    DriverState ds;
    CkptSession sess(ck, rid.fingerprint, sys, ds);
    if (faults.any())
        sess.attachInjector(&inj);
    std::unique_ptr<MctController> ctl;
    if (ck.resume) {
        restoreFromCheckpoint(sess, sys, ds, faults.any() ? &inj : nullptr,
                              [&] {
                                  ctl = std::make_unique<MctController>(
                                      sys, mp);
                                  return ctl.get();
                              });
        if (ctl)
            sess.attachController(ctl.get());
    }
    if (!ds.warmupDone) {
        if (!runArmedTo(sys, ep.warmupInsts, sess,
                        [&](InstCount n) { sys.run(n); }))
            return preempted(sess, sys);
        ctl = std::make_unique<MctController>(sys, mp);
        sess.attachController(ctl.get());
        ds.startMeasure(sys);
    }
    // Close the observe -> react loop: a critical alert climbs the
    // controller's health-check ladder. Alerts only evaluate at
    // measure-window boundaries, so wiring after construction (and
    // after any resume overlay) cannot miss a firing.
    sys.alerts().setEscalation(
        [&ctl](const AlertRule &, const std::string &) {
            ctl->noteCriticalAlert();
        });
    if (!runMeasureArmed(sys, ds.s0.instructions + total, tel, sess, ds,
                         [&](InstCount n) { ctl->runFor(n); }))
        return preempted(sess, sys);
    // A record opened by the final decision has no realization window
    // left; count it dropped before any stats or traces are read.
    ctl->finalizeAudit();
    std::printf("app            %s (target %.1f years, %s)\n",
                app.c_str(), mp.objective.minLifetimeYears,
                model.c_str());
    std::printf("decisions      %zu (resamplings %llu, "
                "fallbacks %llu)\n",
                ctl->decisions().size(),
                static_cast<unsigned long long>(ctl->resamplings()),
                static_cast<unsigned long long>(ctl->fallbacks()));
    std::printf("audit          %llu closed, %llu dropped, "
                "regret %.4f\n",
                static_cast<unsigned long long>(ctl->auditClosed()),
                static_cast<unsigned long long>(ctl->auditDropped()),
                ctl->cumulativeRegret());
    std::printf("chosen         %s\n",
                toString(ctl->currentConfig()).c_str());
    printMetrics(sys.metricsSince(ds.s0));
    if (faults.any())
        printFaultSummary(inj, ctl.get());
    if (sess.store())
        printCkptSummary(*sess.store());
    if (tel.any())
        return finishTelemetry(tel, "mct", app, sys, ctl.get(),
                               ds.periodic, rid);
    return 0;
}

int
cmdSweep(const Args &args)
{
    const std::string app = args.get("app", "lbm");
    if (!isWorkloadName(app)) {
        std::fprintf(stderr, "unknown app '%s'\n", app.c_str());
        return 2;
    }
    const std::string spaceName = args.get("space", "noquota");
    const auto space = spaceName == "full" ? enumerateSpace()
                                           : enumerateNoQuotaSpace();
    const EvalParams ep = evalFromArgs(args);
    const FaultArgs faults = faultsFromArgs(args);
    FaultInjector inj(faults.plan, faults.seed);
    if (inj.wantsSweepCorruption()) {
        // Chaos drill: scramble the persisted cache before the load so
        // the recover-and-recompute path runs under real conditions.
        inj.corruptCsvFile(SweepCache::defaultPath());
    }
    SweepCache cache(ep, SweepCache::defaultPath());
    if (faults.any() && cache.recoveredLoads() > 0) {
        std::fprintf(stderr,
                     "sweep cache: recovered from %zu corrupt row(s)\n",
                     cache.recoveredLoads());
    }
    std::fprintf(stderr, "sweeping %zu configurations on %s...\n",
                 space.size(), app.c_str());
    // Sweep progress arrives via mct_inform; make it visible for the
    // duration of the long-running part.
    const LogLevel prevLevel = logLevel();
    if (prevLevel < LogLevel::Inform)
        setLogLevel(LogLevel::Inform);
    const auto metrics = cache.getAll(app, space, true);
    setLogLevel(prevLevel);
    cache.save();

    CsvFile out;
    out.row({"config", "ipc", "lifetime_years", "joules_per_minst"});
    for (std::size_t i = 0; i < space.size(); ++i) {
        out.row({configKey(space[i]), fmt(metrics[i].ipc, 6),
                 fmt(metrics[i].lifetimeYears, 6),
                 fmt(metrics[i].energyJ, 8)});
    }
    const std::string csv = args.get("csv", app + "_sweep.csv");
    if (!out.save(csv)) {
        std::fprintf(stderr, "cannot write %s\n", csv.c_str());
        return 1;
    }
    std::printf("wrote %zu rows to %s\n", space.size(), csv.c_str());
    const std::string manifestOut = args.get("manifest-out", "");
    if (!manifestOut.empty()) {
        std::ostringstream fp;
        fp << "mct-sweep-fp-v1;app=" << app << ";space=" << spaceName
           << ";seed=" << ep.sys.seed << ";warmup=" << ep.warmupInsts
           << ";measure=" << ep.measureInsts
           << ";faults=" << args.get("faults", "");
        const RunIdentity rid{ep.sys.seed, args.get("faults", ""),
                              fp.str()};
        ManifestArtifact a;
        a.kind = "sweep_csv";
        a.path = csv;
        if (!writeRunManifest(manifestOut, "sweep", app, spaceName,
                              rid, {std::move(a)}))
            return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    if (args.mode == "list")
        return cmdList();
    if (args.mode == "eval")
        return cmdEval(args);
    if (args.mode == "mct")
        return cmdMct(args);
    if (args.mode == "sweep")
        return cmdSweep(args);
    if (args.mode == "trace")
        return cmdTrace(args);
    std::fprintf(stderr,
                 "usage: mct_sim <eval|mct|sweep|trace|list> [flags]\n"
                 "see the header comment of tools/mct_sim.cc\n");
    return 2;
}
