/**
 * @file
 * The bench_perf workloads: what one operation of each does through the
 * library's public API, how its simulated output is digested for the
 * correctness check, and the in-memory span log the traced run records
 * around every call the benchmark makes into the library.
 *
 * Every operation starts from a fresh System with empty simulated
 * caches. Operation i of a run with seed s uses the key k = s + i as
 * its SystemParams::seed (and, for the sweep, to pick its configs), so
 * an operation's simulated output is a function of k alone and the
 * committed digests in expected/<workload>.txt are keyed by k.
 */

#ifndef MCT_BENCH_PERF_SUITE_HH
#define MCT_BENCH_PERF_SUITE_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common/alerts.hh"
#include "common/types.hh"
#include "memctrl/mellow_config.hh"
#include "sim/system.hh"

namespace mct::perf
{

/** Monotonic host time in ns, one clock for parent and child processes. */
std::uint64_t monoNs();

/** One timed call (or loop of calls) into the library. */
struct Span
{
    std::string name;
    std::uint64_t start = 0; ///< monoNs
    std::uint64_t end = 0;
    int parent = -1;         ///< index of the enclosing span, -1 at root
    std::uint64_t count = 1; ///< calls the span covers
};

/**
 * Spans kept in memory and written once, as a Chrome trace. Timed runs
 * pass a null log, so the only cost there is a pointer test.
 */
class SpanLog
{
  public:
    /** Open a span under the innermost open one; returns its index. */
    int begin(const std::string &name);

    /** Close span @p idx (the innermost open one). */
    void end(int idx, std::uint64_t count = 1);

    const std::vector<Span> &spans() const { return spans_; }

    /** Per span: its duration minus the time its children cover. */
    std::vector<std::uint64_t> selfNs() const;

    /** Chrome trace-event JSON ("X" events, args: count, parent). */
    void writeChrome(std::ostream &os) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Time @p fn as span @p name in @p log (null: just call it). */
template <typename Fn>
auto
timed(SpanLog *log, const char *name, Fn &&fn, std::uint64_t count = 1)
{
    if (!log)
        return fn();
    const int idx = log->begin(name);
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        log->end(idx, count);
    } else {
        auto r = fn();
        log->end(idx, count);
        return r;
    }
}

/**
 * What one op produced. The simulated output is kept raw and digested
 * by digest() after the op's timer stops, so the correctness check
 * costs no measured time.
 */
struct OpResult
{
    /** Sim-scope stats at the end of warm-up and at the end. */
    StatSnapshot from, to;
    /** Objectives: one row per evaluated configuration. */
    std::vector<Metrics> rows;
    /** mct-lbm: the configuration the controller chose. */
    std::string chosen;
    InstCount insts = 0;  ///< simulated instructions, warm-up included
    bool writesOk = true; ///< armed-lbm: every surface and checkpoint
};

/** State a workload prepares once per process, before its first op. */
struct Setup
{
    std::map<std::uint64_t, std::uint64_t> expected; ///< key -> digest
    std::vector<MellowConfig> space;                 ///< sweep-noquota
    std::vector<AlertRule> alertRules;               ///< armed-lbm
    /** Checkpoints and surfaces; created by prepareSetup(), removed by
     *  the process before it exits. */
    std::string scratchDir;
};

/** A reported metric as BENCHMARK.json declares it. */
struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better; ///< "higher" or "lower"
};

/** One benchmark workload. */
struct BenchWorkload
{
    const char *name;
    const char *app; ///< application model the ops simulate
    /** The workload's own preparation (counted in setup_s); false
     *  with @p err set when its input is bad. */
    bool (*prepare)(Setup &, std::string &err);
    /** One op of the closed loop, for key @p k. */
    OpResult (*run)(const Setup &, std::uint64_t k, SpanLog *);
};

/** The six workloads, in report order. */
const std::vector<BenchWorkload> &workloads();

/** Lookup by name; null when unknown. */
const BenchWorkload *findWorkload(const std::string &name);

/**
 * Create the scratch directory, then run the workload's own prepare().
 * Returns false with @p err set when either fails.
 */
[[nodiscard]] bool prepareSetup(const BenchWorkload &w, Setup &s,
                                std::string &err);

/** Default machine parameters with seed @p k: every op's System. */
SystemParams paramsFor(std::uint64_t k);

/** FNV-1a over the op's stats window, objectives and choice. */
std::uint64_t digest(const OpResult &u);

/** The correctness verdict on one op. */
struct Verdict
{
    std::uint64_t digest = 0;
    bool checked = false; ///< a committed digest exists for the key
    bool ok = false;      ///< sane, and equal to it when checked
};

/**
 * Judge op result @p u of key @p k: objectives finite and in range, every
 * write succeeded, and the digest equal to the committed one when
 * expected/ has key k.
 */
Verdict judge(const Setup &s, std::uint64_t k, const OpResult &u);

/**
 * One mct-lbm op on application @p app. The traced run probes every
 * workload's application with it, with @p hp attached to the System so
 * the controller charges its sampling, fit and optimize stages.
 */
OpResult mctOp(const std::string &app, std::uint64_t k, SpanLog *log,
               HostProfiler *hp = nullptr);

/** Configs swept by sweep-noquota's op @p k (indices into @p space). */
std::vector<MellowConfig> sweepConfigs(
    const std::vector<MellowConfig> &space, std::uint64_t k);

/** Directory holding alerts.txt and expected/ (compiled in). */
std::string dataDir();

/**
 * Directory of the running executable, inside the build tree: scratch
 * directories and traces go there, so every write stays in the build.
 */
std::string exeDir();

/** expected/<workload>.txt path. */
std::string expectedPath(const BenchWorkload &w);

/** Parse an expected-digest file ("<key> <16-hex digest>" lines). */
[[nodiscard]] bool loadExpected(const std::string &path,
                                std::map<std::uint64_t, std::uint64_t> &out,
                                std::string &err);

/** Remove @p dir and everything under it (no error when absent). */
void removeTree(const std::string &dir);

} // namespace mct::perf

#endif // MCT_BENCH_PERF_SUITE_HH
