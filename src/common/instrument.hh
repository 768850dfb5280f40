/**
 * @file
 * Unified instrumentation layer: the stat registry, the structured
 * event, span and provenance traces, the metric timeline, and the
 * host profiler.
 *
 * Every simulated component (core, caches, memory controller, NVM
 * device, MCT runtime) registers its counters under a dotted path in
 * a StatRegistry owned by the System. Registration stores cheap
 * closures over the component's existing counters, so the simulated
 * hot paths pay nothing: values are read only when a snapshot is
 * taken, which callers may do at any instruction boundary. Snapshots
 * subtract component-wise, giving delta windows for periodic dumps.
 *
 * The EventTrace is a preallocated ring buffer of small typed records
 * (phase change, sampling round, prediction, config switch, quota
 * throttle, health check, writeback burst) timestamped with the
 * *instruction* clock — never wall time — so traces are exactly
 * reproducible across runs. When the trace is disabled (the default)
 * record() is a single branch and no memory is touched. Traces
 * serialize to JSONL (one event object per line, jq-friendly) and to
 * the Chrome trace-event format loadable in chrome://tracing / Perfetto.
 *
 * SpanTrace applies the same discipline to whole requests: every Nth
 * request id carries a per-stage span record (L1 probe through NVM
 * device) into a fixed-capacity ring, feeding latency-attribution
 * histograms and JSONL / Chrome trace output. Disabled, every hook is
 * a single branch.
 *
 * Every capped record store here (event, span and provenance traces,
 * the timeline's windows, the alert log) is one RecordRing: one push,
 * one oldest-first walk the writers read in place, and one pair of
 * checkpoint halves.
 *
 * HostProfiler is the only knowingly non-deterministic piece: it
 * accumulates real wall and CPU time per named stage for mct_sim's
 * host telemetry and the bench harnesses' self-profiling, and is never
 * fed into simulated state.
 */

#ifndef MCT_COMMON_INSTRUMENT_HH
#define MCT_COMMON_INSTRUMENT_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace mct
{

/** What a registered statistic measures. */
enum class StatKind
{
    Counter,  ///< monotonic count; deltas subtract
    Gauge,    ///< instantaneous level; deltas keep the newer value
    Histogram ///< log2-bucketed distribution; deltas subtract buckets
};

/**
 * Power-of-two-bucketed histogram of non-negative observations.
 * Bucket 0 holds values below 1; bucket i >= 1 holds [2^(i-1), 2^i).
 * Recording is allocation-free.
 */
class LogHistogram
{
  public:
    static constexpr std::size_t numBuckets = 64;

    /** Record one observation (negatives clamp to bucket 0). */
    void record(double v);

    /** Observations recorded. */
    std::uint64_t count() const { return n; }

    /** Sum of all observations. */
    double sum() const { return total; }

    /** Mean observation (0 when empty). */
    double mean() const
    {
        return n ? total / static_cast<double>(n) : 0.0;
    }

    /** Raw bucket counts. */
    const std::array<std::uint64_t, numBuckets> &buckets() const
    {
        return buckets_;
    }

    /** Inclusive lower bound of bucket @p i. */
    static double bucketLow(std::size_t i);

    /** logHistogramPercentile() over this histogram's buckets. */
    double percentile(double p) const;

    /** Forget everything. */
    void reset();

    /** Checkpoint bucket counts and totals. */
    template <class Ar>
    void io(Ar &ar);

  private:
    std::array<std::uint64_t, numBuckets> buckets_{};
    std::uint64_t n = 0;
    double total = 0.0;
};

/**
 * Value at quantile @p p in [0, 1] of @p count observations held in
 * the dense LogHistogram buckets @p buckets (bucket i covers
 * [bucketLow(i), bucketLow(i + 1))), assuming observations are
 * uniformly distributed within each bucket: the target rank
 * p * count is located in its bucket and linearly interpolated
 * between the bucket's bounds. Exact for distributions that fill
 * buckets uniformly; within one bucket width otherwise. Returns 0
 * when @p count is 0.
 */
double logHistogramPercentile(std::span<const std::uint64_t> buckets,
                              std::uint64_t count, double p);

/** One stat's value as captured by a snapshot. */
struct StatValue
{
    StatKind kind = StatKind::Gauge;

    /** Counter/gauge value; for histograms, the sum. */
    double num = 0.0;

    /** Histogram observation count (0 otherwise). */
    std::uint64_t count = 0;

    /** Histogram buckets, trimmed of trailing zeros (empty otherwise). */
    std::vector<std::uint64_t> buckets;
};

/** A full registry capture, keyed by dotted path (sorted, so every
 *  serialization of the same snapshot is byte-identical). */
using StatSnapshot = std::map<std::string, StatValue>;

/** Checkpoint a snapshot (map order makes the bytes deterministic). */
template <class Ar>
void
ioSnapshot(Ar &ar, StatSnapshot &snap)
{
    ar.seq(snap, [&ar](auto &entry) {
        StatValue &v = entry.second;
        ar.str(entry.first);
        ar.u8(v.kind);
        ar.f64(v.num);
        ar.u64(v.count);
        ar.seq(v.buckets, [&ar](std::uint64_t &b) { ar.u64(b); });
    });
}

/**
 * Which stats a snapshot captures. Host-scoped stats (wall-clock and
 * process telemetry, sim.host.* / sim.mips) are nondeterministic by
 * nature, so the default Sim scope excludes them: every existing
 * snapshot consumer — the --stats-json document, periodic deltas,
 * goldens — stays byte-identical across runs even while host
 * profiling is live. Host values are read through an explicit Host
 * (or All) snapshot and land in their own output files.
 */
enum class StatScope
{
    Sim,  ///< deterministic stats only (the default)
    Host, ///< host-scoped stats only
    All   ///< everything
};

/**
 * Registry of named statistics. Components register closures over
 * their existing counters (or request registry-owned cells); queries
 * evaluate the closures on demand. Registering a path twice panics:
 * replacing the entry would leave the first owner's cell reference
 * dangling. One System therefore serves one owner per path (one
 * MctController, one injector, ...).
 */
class StatRegistry
{
  public:
    using CounterFn = std::function<std::uint64_t()>;
    using GaugeFn = std::function<double()>;

    /** Register a counter read through @p fn. */
    void addCounter(const std::string &path, CounterFn fn,
                    const std::string &desc = "");

    /** Register a gauge read through @p fn. */
    void addGauge(const std::string &path, GaugeFn fn,
                  const std::string &desc = "");

    /**
     * Register a registry-owned counter cell and return a reference
     * the component increments directly. The cell's address is stable
     * for the registry's lifetime.
     */
    std::uint64_t &addCounterCell(const std::string &path,
                                  const std::string &desc = "");

    /** Register a registry-owned histogram and return it (stable). */
    LogHistogram &addHistogram(const std::string &path,
                               const std::string &desc = "");

    /**
     * Flag an already-registered stat as host-scoped (nondeterministic
     * host telemetry): it is excluded from StatScope::Sim snapshots so
     * deterministic outputs stay byte-identical. Panics on an unknown
     * path — marking must follow registration.
     */
    void markHost(const std::string &path);

    /** True when @p path is registered and host-scoped. */
    bool isHost(const std::string &path) const;

    /** True when @p path is registered. */
    bool has(const std::string &path) const;

    /** Number of registered stats. */
    std::size_t size() const { return entries.size(); }

    /** Description of a registered stat ("" when absent). */
    std::string description(const std::string &path) const;

    /** All registered paths, sorted. */
    std::vector<std::string> paths() const;

    /** Evaluate one stat now (0 when absent; histograms: the sum). */
    double value(const std::string &path) const;

    /** Capture the registered stats selected by @p scope. */
    StatSnapshot snapshot(StatScope scope = StatScope::Sim) const;

    /**
     * Component-wise difference of two snapshots of the same
     * registry: counters and histograms subtract, gauges keep the
     * @p to value. Paths only in @p to appear unchanged.
     */
    static StatSnapshot delta(const StatSnapshot &from,
                              const StatSnapshot &to);

    /**
     * Checkpoint registry-owned cells and histograms, keyed by path.
     * Closure-backed stats read live component state and are restored
     * by the components themselves. On restore the owning components
     * must have re-registered their paths first; an unknown path is a
     * checkpoint-format bug and panics.
     */
    template <class Ar>
    void ioOwned(Ar &ar);

  private:
    struct Entry
    {
        StatKind kind = StatKind::Gauge;
        CounterFn counter;
        GaugeFn gauge;
        std::unique_ptr<std::uint64_t> cell;
        std::unique_ptr<LogHistogram> hist;
        std::string desc;
        bool host = false; ///< excluded from StatScope::Sim snapshots
    };

    std::map<std::string, Entry> entries;

    Entry &insert(const std::string &path, const std::string &desc);
};

class JsonWriter;

/**
 * Write a snapshot as one flat JSON object: scalar stats map to
 * numbers, histograms to {"count","sum","mean","buckets":[[lo,n]..]}.
 */
void writeSnapshotJson(std::ostream &os, const StatSnapshot &snap);

/** Same, emitted through an in-progress JsonWriter (for embedding
 *  snapshots inside a larger document). */
void writeSnapshot(JsonWriter &w, const StatSnapshot &snap);

/**
 * Print the Sim-scope stats of @p reg as aligned text, one row per
 * path: the path left-justified, the value right-justified (counters
 * as integers, gauges to six significant digits, histograms as
 * "n=COUNT mean=MEAN"), then "  # description" when one was
 * registered.
 */
void writeStatsText(std::ostream &os, const StatRegistry &reg);

/**
 * Fixed-capacity ring of records with dropped-record accounting: the
 * one ring behind the event, span and provenance traces, the metric
 * timeline's windows and the alert log. Disabled (capacity 0) until
 * enable() preallocates every slot; once the ring is full, each push
 * overwrites the oldest record.
 */
template <typename T>
class RecordRing
{
  public:
    /** Allocate @p capacity slots and forget every record. */
    void
    enable(std::size_t capacity)
    {
        if (capacity == 0)
            mct_fatal("a record ring needs a nonzero capacity");
        slots.assign(capacity, T{});
        cap = capacity;
        head = 0;
        held = 0;
        total = 0;
    }

    /** True once enable() has allocated the slots. */
    bool enabled() const { return cap != 0; }

    /** Records currently held (<= capacity). */
    std::size_t size() const { return held; }

    /** Slot count (0 when disabled). */
    std::size_t capacity() const { return cap; }

    /** Records ever pushed. */
    std::uint64_t recorded() const { return total; }

    /** Records overwritten by ring wraparound. */
    std::uint64_t dropped() const { return total - held; }

    /** The slot the next record goes in, for the caller to fill
     *  (enabled rings only). */
    T &
    push()
    {
        T &slot = slots[head];
        head = head + 1 == cap ? 0 : head + 1;
        held = std::min(held + 1, cap);
        ++total;
        return slot;
    }

    /** Visit the held records in place, oldest first. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        // The oldest record sits at head once the ring has wrapped.
        std::size_t at = held == cap ? head : 0;
        for (std::size_t i = 0; i < held; ++i) {
            fn(slots[at]);
            at = at + 1 == cap ? 0 : at + 1;
        }
    }

    /** A copy of the held records, oldest first. */
    std::vector<T>
    items() const
    {
        std::vector<T> out;
        out.reserve(held);
        forEach([&out](const T &r) { out.push_back(r); });
        return out;
    }

    /** Checkpoint half one: the cursors, then the record total. */
    template <class Ar>
    void
    ioCursor(Ar &ar)
    {
        ar.ring(head, held, cap);
        ar.u64(total);
    }

    /** Checkpoint half two: every slot through @p each, in storage
     *  order. */
    template <typename Fn>
    void
    ioSlots(Fn &&each)
    {
        for (T &r : slots)
            each(r);
    }

  private:
    std::vector<T> slots;
    std::size_t cap = 0;
    std::size_t head = 0; ///< next slot to write
    std::size_t held = 0;
    std::uint64_t total = 0;
};

/** Typed events recorded by the runtime layers. */
enum class TraceEventType : std::uint8_t
{
    PhaseChange,        ///< phase detector declared a new phase
    SamplingRoundStart, ///< a cyclic sampling period began
    SamplingRoundEnd,   ///< the sampling period finished
    PredictionMade,     ///< predictor + optimizer chose a config
    ConfigApplied,      ///< a configuration was applied to the system
    QuotaThrottle,      ///< wear quota entered/left a restricted slice
    HealthCheckPass,    ///< health check kept the chosen config
    HealthCheckFallback,///< health check fell back to the baseline
    WritebackBurst,     ///< write-drain burst started/stopped
    FaultInjected,      ///< a fault-plan spec armed or cleared
    RecoveryAction,     ///< the MCT runtime took a degradation step
    SpanComplete,       ///< a sampled request-lifecycle span closed
    DecisionProvenance, ///< a decision's provenance record closed
    AlertRaised,        ///< an alert rule's streak crossed its window count
    AlertCleared,       ///< a raised alert's condition stopped holding
};

/** Number of distinct TraceEventType values. */
constexpr std::size_t numTraceEventTypes = 15;

/** Stable snake_case name of an event type (JSONL "ev" field). */
const char *toString(TraceEventType type);

/** Per-type names of the three numeric event arguments. */
std::array<const char *, 3> traceArgNames(TraceEventType type);

/** One ring-buffer record. POD; no strings, no allocation. */
struct TraceEvent
{
    TraceEventType type = TraceEventType::PhaseChange;

    /** Instruction clock at the record (deterministic timestamp). */
    InstCount inst = 0;

    /** Event arguments; meaning per type (see traceArgNames). */
    std::array<double, 3> args{};
};

/**
 * Fixed-capacity ring buffer of TraceEvents. Disabled (capacity 0)
 * until enable() preallocates storage; record() on a disabled trace
 * is a single predictable branch.
 */
class EventTrace : private RecordRing<TraceEvent>
{
  public:
    /** The ring's accessors; items() holds the events oldest first. */
    using RecordRing::enable, RecordRing::enabled, RecordRing::size,
        RecordRing::capacity, RecordRing::recorded, RecordRing::dropped,
        RecordRing::items;

    /**
     * Point the instruction clock at a live counter (the core's
     * retired-instruction count). Events recorded with no clock get
     * timestamp 0.
     */
    void setClock(const InstCount *instClock) { clock = instClock; }

    /** Record one event (no-op when disabled). */
    void
    record(TraceEventType type, double a0 = 0.0, double a1 = 0.0,
           double a2 = 0.0)
    {
        if (!enabled())
            return;
        append(type, a0, a1, a2);
    }

    /** Count of held events per type. */
    std::array<std::uint64_t, numTraceEventTypes> countsByType() const;

    /** Forget held events (capacity and clock are kept). */
    void
    clear()
    {
        if (enabled())
            enable(capacity());
    }

    /** One JSON object per line: {"ev","inst",<named args>}. */
    void writeJsonl(std::ostream &os) const;

    /**
     * Chrome trace-event JSON ({"traceEvents":[...]}). Sampling
     * rounds become B/E duration pairs; everything else instant
     * events. The "ts" field carries the instruction count (the
     * viewer's microseconds axis reads as instructions).
     */
    void writeChromeTrace(std::ostream &os) const;

    /** Checkpoint ring contents and cursors (clock stays attached);
     *  the capacity must match the current enable() configuration
     *  (panics otherwise). */
    template <class Ar>
    void io(Ar &ar);

  private:
    const InstCount *clock = nullptr;

    void append(TraceEventType type, double a0, double a1, double a2);
};

/**
 * Pipeline stages a sampled request's latency is attributed to, in
 * the order a demand access traverses them.
 */
enum class SpanStage : std::uint8_t
{
    L1,        ///< L1 probe (instant on miss; absorbs stall on hit)
    L2,        ///< L2 probe
    Llc,       ///< last-level cache probe
    Mshr,      ///< core-side miss wait (submit -> completion)
    CtrlQueue, ///< controller bank-queue wait (arrival -> issue)
    Bank,      ///< bank occupancy (issue -> finish, incl. burst)
    Device,    ///< NVM array access (activate + CAS)
};

/** Number of distinct SpanStage values. */
constexpr std::size_t numSpanStages = 7;

/** Stable snake_case name of a span stage. */
const char *toString(SpanStage stage);

/** Component track a stage belongs to in the Chrome trace output. */
const char *spanStageTrack(SpanStage stage);

/**
 * One completed (or in-flight) request-lifecycle span. POD-ish; all
 * timestamps are simulated Ticks (picoseconds), so serialization is
 * byte-identical across identically-seeded runs.
 */
struct SpanRecord
{
    std::uint64_t id = 0;   ///< request id (core in the top byte)
    Addr addr = 0;
    bool isWrite = false;
    int hitLevel = 0;       ///< 1..3 = cache level hit, 0 = NVM
    InstCount inst = 0;     ///< instruction clock at begin
    Tick begin = 0;
    Tick end = 0;
    std::array<Tick, numSpanStages> enter{};
    std::array<Tick, numSpanStages> exit{};
    std::uint8_t present = 0; ///< bitmask of stages with marks

    bool has(SpanStage s) const
    {
        return (present >> static_cast<unsigned>(s)) & 1u;
    }
};

/**
 * Deterministically sampled request-lifecycle spans. Every Nth
 * request id (by its low 56-bit per-core sequence, so each core
 * samples the same fraction regardless of its id prefix) carries a
 * SpanRecord from the L1 probe to read completion; the cache
 * hierarchy, core, memory controller, and NVM device contribute
 * per-stage enter/exit marks. Completed spans land in a fixed
 * -capacity ring (oldest overwritten, like EventTrace) and feed the
 * optional per-stage latency histograms. Disabled (the default) every
 * hook is a single predictable branch and no memory is touched.
 */
class SpanTrace : private RecordRing<SpanRecord>
{
  public:
    /** Sample every @p sampleEvery-th request; ring of @p capacity. */
    void enable(std::uint64_t sampleEvery, std::size_t capacity);

    /** The ring's accessors; items() holds the completed spans oldest
     *  first. */
    using RecordRing::enabled, RecordRing::size, RecordRing::capacity,
        RecordRing::recorded, RecordRing::dropped, RecordRing::items;

    /** Point the instruction clock at a live counter (see EventTrace). */
    void setClock(const InstCount *instClock) { clock = instClock; }

    /** Emit a SpanComplete event into @p t whenever a span closes. */
    void attachTrace(EventTrace *t) { events_ = t; }

    /** Feed per-stage durations (ns) into @p h on span close. */
    void setStageHistogram(SpanStage stage, LogHistogram *h)
    {
        stageHist[static_cast<std::size_t>(stage)] = h;
    }

    /** Feed end-to-end durations (ns) into @p h on span close. */
    void setTotalHistogram(LogHistogram *h) { totalHist = h; }

    /** True when @p id falls on the sampling grid. */
    bool sampled(std::uint64_t id) const
    {
        return every != 0 && (id & seqMask) % every == 0;
    }

    /** Open a span for a demand access (no-op unless sampled). */
    void begin(std::uint64_t id, Addr addr, bool isWrite, Tick now);

    /**
     * Record a cache probe on the span opened by the latest begin().
     * A miss is an instant mark; a hit leaves the stage open so the
     * exposed stall is attributed to it when end() closes the span.
     */
    void probe(SpanStage stage, bool hit);

    /** Open @p stage at @p now; end() closes it. */
    void stageEnter(std::uint64_t id, SpanStage stage, Tick now);

    /** Record a closed [@p from, @p to] interval for @p stage. */
    void stageMark(std::uint64_t id, SpanStage stage, Tick from,
                   Tick to);

    /** Close the span: open stages end at @p now; record + emit. */
    void end(std::uint64_t id, Tick now, int hitLevel);

    /** One JSON object per line, integer fields only (see docs). */
    void writeJsonl(std::ostream &os) const;

    /**
     * Chrome trace-event JSON: each stage becomes an "X" complete
     * event on its component's named track ("ts" carries Ticks, so
     * the viewer's microseconds axis reads picoseconds).
     */
    void writeChromeTrace(std::ostream &os) const;

    /** Checkpoint ring, cursors, and in-flight open spans (histogram
     *  and trace sinks stay attached); sampling period and capacity
     *  must match the current enable() configuration. */
    template <class Ar>
    void io(Ar &ar);

  private:
    /** Low 56 bits of a request id hold the per-core sequence. */
    static constexpr std::uint64_t seqMask = (1ULL << 56) - 1;

    struct OpenSpan
    {
        std::uint64_t id = 0;
        SpanRecord rec;
        std::uint8_t openBits = 0; ///< stages begun but not yet closed
    };

    /** In-flight spans by ascending id: ids rise per core and at most
     *  MSHRs + 1 are open at once, so a sorted vector beats a map. */
    std::vector<OpenSpan> open;
    std::uint64_t every = 0;
    std::uint64_t curId = 0; ///< span the latest begin() opened
    bool curValid = false;
    std::array<LogHistogram *, numSpanStages> stageHist{};
    LogHistogram *totalHist = nullptr;
    EventTrace *events_ = nullptr;
    const InstCount *clock = nullptr;

    /** The first open span whose id is not below @p id. */
    std::vector<OpenSpan>::iterator lowerBound(std::uint64_t id);

    /** The open span @p id, or nullptr. */
    OpenSpan *findOpen(std::uint64_t id);
};

/** Objectives a ProvenanceRecord audits, in storage order. */
constexpr std::size_t numProvenanceObjectives = 3;

/** Stable name of provenance objective @p i: ipc, lifetime, energy. */
const char *provenanceObjectiveName(std::size_t i);

/** One objective's prediction, later joined with its realization. */
struct ProvenanceObjective
{
    double predicted = 0.0;   ///< predicted value for the chosen config
    double uncertainty = 0.0; ///< model-reported 1-sigma (0 when n/a)
    double realized = 0.0;    ///< measured value one window later
    double relError = 0.0;    ///< |predicted - realized| / |realized|
    bool errorValid = false;  ///< false until closed, or when realized ~ 0
};

/** A rejected candidate configuration at a decision point. */
struct ProvenanceCandidate
{
    std::uint32_t config = 0; ///< index into the configuration space
    double ipc = 0.0;         ///< predicted IPC
    double lifetimeYears = 0.0;
    double energyJ = 0.0;
    bool feasible = false;    ///< met the lifetime floor
};

/**
 * Why one optimization decision was made and how it turned out: the
 * model's identity, its per-objective predictions with uncertainty,
 * the constraint set and the rejected runner-ups at decision time;
 * then, one monitored window later, the realized objectives, the
 * per-objective relative error and the regret versus the best sampled
 * configuration. All inputs are simulation-deterministic, so records
 * serialize byte-identically across identically-seeded runs.
 */
struct ProvenanceRecord
{
    std::uint64_t seq = 0;    ///< decision index (0-based)
    std::uint64_t phase = 0;  ///< phase id that triggered the decision
    InstCount inst = 0;       ///< instruction clock at the decision
    InstCount closeInst = 0;  ///< instruction clock at close (0 = open)
    std::string model;        ///< predictor identity (Table 7 label)
    std::string configKey;    ///< chosen configuration, human-readable
    std::int32_t chosen = -1; ///< chosen index into the space
    bool fallback = false;    ///< decision fell back to the baseline
    std::uint32_t sampledConfigs = 0; ///< configs measured this round

    /** Constraint set the optimizer enforced. */
    double minLifetimeYears = 0.0;
    double ipcFraction = 0.0;
    double safetyMargin = 0.0;

    /** ipc, lifetime, energy (see provenanceObjectiveName). */
    std::array<ProvenanceObjective, numProvenanceObjectives>
        objectives{};

    /** Highest-ranked rejected candidates, best first. */
    std::vector<ProvenanceCandidate> runnerUps;

    /** Best *measured* IPC among the sampled configurations. */
    double bestSampledIpc = 0.0;

    /** bestSampledIpc - realized IPC (negative: beat the samples). */
    double regret = 0.0;

    /** Running sum of max(regret, 0) up to and including this record. */
    double cumRegret = 0.0;

    /**
     * Per-objective feature attribution in configuration-vector space
     * (lasso |coefficients|, GBM split-gain importances), populated
     * only on audit-sampled decisions; empty vectors otherwise.
     */
    std::array<std::vector<double>, numProvenanceObjectives>
        attribution{};

    bool closed = false; ///< realized objectives have been attached

    /** Checkpoint every field (strings and vectors included). */
    template <class Ar>
    void io(Ar &ar);
};

/**
 * Attach realized objectives to @p rec: fills the realized values,
 * the per-objective relative error |pred - real| / |real| (marked
 * invalid when the realized value is non-finite or ~0 — nothing
 * meaningful divides by it), the IPC regret versus bestSampledIpc
 * (0 when the record has no sample oracle), and marks the record
 * closed at @p closeInst. Returns how many objectives' errors were
 * invalidated by the zero-realized guard.
 */
std::size_t closeProvenanceRecord(ProvenanceRecord &rec,
                                  double realizedIpc,
                                  double realizedLifetimeYears,
                                  double realizedEnergyJ,
                                  InstCount closeInst);

/**
 * Fixed-capacity ring of closed ProvenanceRecords, mirroring
 * SpanTrace's lifecycle: disabled (the default) record() is a single
 * branch; enabled, closed records land in the ring (oldest
 * overwritten) and optionally echo a DecisionProvenance event into an
 * attached EventTrace. Serializes to JSONL (one record per line) and
 * to the Chrome trace-event format, where each decision becomes a
 * complete event spanning decision to close on a "provenance" track.
 */
class ProvenanceTrace : private RecordRing<ProvenanceRecord>
{
  public:
    /** The ring's accessors; items() holds the records oldest first. */
    using RecordRing::enable, RecordRing::enabled, RecordRing::size,
        RecordRing::capacity, RecordRing::recorded, RecordRing::dropped,
        RecordRing::items;

    /** Emit a DecisionProvenance event into @p t per closed record. */
    void attachTrace(EventTrace *t) { events_ = t; }

    /** Append a closed record (no-op when disabled). */
    void record(const ProvenanceRecord &rec);

    /** One JSON object per line (see docs/observability.md). */
    void writeJsonl(std::ostream &os) const;

    /**
     * Chrome trace-event JSON: each decision is an "X" complete event
     * from its decision instruction to its close instruction on the
     * "provenance" track ("ts" carries instructions).
     */
    void writeChromeTrace(std::ostream &os) const;

    /** Checkpoint ring contents and cursors; the capacity must match
     *  the current enable() configuration (panics otherwise). */
    template <class Ar>
    void io(Ar &ar);

  private:
    EventTrace *events_ = nullptr;
};

/**
 * Glob match for dotted stat paths: '*' matches any run of
 * characters (dots included), everything else is literal. The one
 * matcher behind the timeline's globs, alerts.txt rules and
 * thresholds.txt rules, so every pattern selects the same metrics.
 */
bool statGlobMatch(const std::string &pattern, const std::string &path);

/** One MetricTimeline window: its instruction mark and one value per
 *  bound metric. */
struct TimelineWindow
{
    InstCount inst = 0;
    std::vector<double> vals;
};

/**
 * Windowed time series of glob-selected deterministic metrics. On
 * every --stats-every boundary the driver hands over the window's
 * delta snapshot (StatScope::Sim only, so the series is byte-identical
 * across identically-seeded runs); the timeline keeps the per-metric
 * window values in a fixed-capacity ring (oldest window overwritten,
 * with dropped-window accounting like EventTrace) plus streaming
 * EWMA/min/max rollups over *all* observed windows, survivors and
 * dropped alike.
 *
 * The tracked-metric list is bound lazily from the first observed
 * snapshot's keys: stats that register after construction (the MCT
 * controller's mct.* family appears post-warmup) are still selectable
 * as long as they exist by the first window. Metrics absent from a
 * later snapshot read as 0.
 *
 * Disabled (the default) observe() is a single branch. The ring,
 * binding, and rollups serialize through the checkpoint subsystem so
 * a killed-then-resumed run reproduces the identical timeline; the
 * enable() configuration (globs, capacity) is construction-time state
 * pinned by the run fingerprint and must match at restore.
 */
class MetricTimeline : private RecordRing<TimelineWindow>
{
  public:
    /** EWMA smoothing factor (fixed; part of the on-disk format). */
    static constexpr double ewmaAlpha = 0.25;

    /** Track metrics matching any of @p globs; ring of @p capacity
     *  windows. An empty glob list tracks everything. */
    void enable(std::vector<std::string> globs, std::size_t capacity);

    /** The ring's accessors, counted in windows; items() holds the
     *  windows oldest first. */
    using RecordRing::enabled, RecordRing::size, RecordRing::capacity,
        RecordRing::recorded, RecordRing::dropped, RecordRing::items;

    /** True once the metric list has been bound (first observe()). */
    bool bound() const { return bound_; }

    /** Bound metric paths, sorted (empty before the first window). */
    const std::vector<std::string> &metrics() const { return names; }

    /** Record one window (no-op when disabled). */
    void observe(InstCount inst, const StatSnapshot &delta);

    /** Streaming rollup over every observed window of one metric. */
    struct Rollup
    {
        double ewma = 0.0;
        double min = 0.0;
        double max = 0.0;
    };

    /** Rollup of bound metric @p metricIdx (zeros before window 1). */
    const Rollup &rollup(std::size_t metricIdx) const
    {
        return rollups[metricIdx];
    }

    /**
     * The timeline body of the mct-timeline-v1 document: bound
     * metrics, window instruction marks, per-metric series and
     * rollups, and a flat "final" object (sim.timeline.* scalars plus
     * per-metric ewma/min/max) that mct_report diff can gate.
     * @p extraFinal appends additional scalars (the driver passes the
     * alert counters) into the same "final" object.
     */
    void writeJson(std::ostream &os, const std::string &mode,
                   const std::string &app, const std::string &config,
                   const std::map<std::string, double> &extraFinal)
        const;

    /** Checkpoint binding, ring, cursors, and rollups; the capacity
     *  must match the current enable() configuration (panics
     *  otherwise). */
    template <class Ar>
    void io(Ar &ar);

  private:
    std::vector<std::string> globs_;
    std::vector<std::string> names; ///< bound metric paths, sorted
    std::vector<Rollup> rollups;
    bool bound_ = false;

    bool selected(const std::string &path) const;
};

/** Process memory telemetry parsed from /proc/self/status. */
struct HostMemory
{
    double rssKb = 0.0;  ///< VmRSS: current resident set
    double hwmKb = 0.0;  ///< VmHWM: peak resident set
    double heapKb = 0.0; ///< VmData: data segment (heap + globals)
    bool valid = false;  ///< at least one field parsed
};

/** Parse a /proc/self/status-style text. Exposed for tests. */
HostMemory parseHostStatus(const std::string &text);

/**
 * Time and memory source behind HostProfiler. The base class reads
 * the real process clocks (steady wall clock, CLOCK_PROCESS_CPUTIME)
 * and /proc/self/status; tests substitute a subclass with scripted
 * values so host-metric arithmetic is checked deterministically.
 */
class HostClock
{
  public:
    virtual ~HostClock() = default;

    /** Monotonic wall-clock nanoseconds (arbitrary epoch). */
    virtual std::uint64_t wallNs() const;

    /** Process CPU-time nanoseconds (all threads). */
    virtual std::uint64_t cpuNs() const;

    /** /proc/self/status text ("" where unavailable). */
    virtual std::string procStatus() const;
};

/**
 * Host-side performance telemetry for the simulator's core loop: how
 * fast the simulation runs on the machine underneath it, and where
 * the host time goes. Accumulates wall *and* CPU seconds per named
 * stage (replay, step, sampling, fit, optimize), tracks process
 * memory (RSS high-water), counts simulated instructions, and derives
 * the sim.mips throughput gauge (million simulated instructions per
 * host wall-second).
 *
 * Everything here is wall-clock derived and therefore
 * nondeterministic; values are published only through host-scoped
 * registry stats (StatScope::Host) and the dedicated
 * --host-profile-out / --host-profile-chrome files, never through the
 * byte-identical surfaces. Disabled (the default) the begin/end hot
 * path is a single branch, mirroring the other traces.
 */
class HostProfiler
{
  public:
    HostProfiler() = default;

    /**
     * Arm the profiler. @p clock defaults to the real host clock;
     * @p timelineCap bounds the Chrome-trace slice ring.
     */
    void enable(const HostClock *clock = nullptr,
                std::size_t timelineCap = 8192);

    bool enabled() const { return clock_ != nullptr; }

    /** Start a stage (no-op while disabled). */
    void begin(const char *stage);

    /** Stop a stage and accumulate wall + CPU time. */
    void end(const char *stage);

    /** RAII stage guard; null profiler and disabled are both safe. */
    class Scope
    {
      public:
        Scope(HostProfiler *profiler, const char *stage)
            : p(profiler && profiler->enabled() ? profiler : nullptr),
              name(stage)
        {
            if (p)
                p->begin(name);
        }
        ~Scope()
        {
            if (p)
                p->end(name);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        HostProfiler *p;
        const char *name;
    };

    struct Stage
    {
        std::string name;
        double wallSeconds = 0.0;
        double cpuSeconds = 0.0;
        std::uint64_t calls = 0;
    };

    /** All stages, in first-use order. */
    std::vector<Stage> stages() const;

    /** Accumulated wall seconds of one stage (0 when absent). */
    double wallSeconds(const std::string &stage) const;

    /** Accumulated CPU seconds of one stage (0 when absent). */
    double cpuSeconds(const std::string &stage) const;

    /** Credit @p n simulated instructions to the run. */
    void addInstructions(std::uint64_t n) { insts_ += n; }

    std::uint64_t instructions() const { return insts_; }

    /** Wall / CPU seconds since enable(). */
    double elapsedWallSeconds() const;
    double elapsedCpuSeconds() const;

    /** Million simulated instructions per host wall-second. */
    double mips() const;

    /** Refresh memory telemetry; RSS high-water is kept. */
    void sampleMemory();

    const HostMemory &memory() const { return mem_; }

    /** Largest resident set seen by any sampleMemory() call (kB). */
    double rssHighWaterKb() const { return rssHwmKb_; }

    /** One host sample on the --stats-every cadence. */
    struct PeriodicSample
    {
        std::uint64_t inst = 0;
        double wallSeconds = 0.0;
        double cpuSeconds = 0.0;
        double mips = 0.0;
        double rssKb = 0.0;
    };

    /** Record a periodic sample (also refreshes memory telemetry). */
    void samplePeriodic(std::uint64_t inst);

    const std::vector<PeriodicSample> &periodic() const
    {
        return periodic_;
    }

    /** Timeline slices dropped once the ring filled. */
    std::uint64_t timelineDropped() const { return timelineDropped_; }

    /**
     * Register the sim.mips / sim.host.* gauges, host-scoped so they
     * never leak into deterministic (StatScope::Sim) snapshots.
     */
    void registerStats(StatRegistry &reg);

    /** The mct-host-v1 document (--host-profile-out). */
    void writeJson(std::ostream &os, const std::string &mode,
                   const std::string &app,
                   const std::string &config) const;

    /** Host timeline as Chrome trace events (--host-profile-chrome). */
    void writeChromeTrace(std::ostream &os) const;

  private:
    struct Cell
    {
        double wallNs = 0.0;
        double cpuNs = 0.0;
        std::uint64_t calls = 0;
        std::uint64_t openWallNs = 0;
        std::uint64_t openCpuNs = 0;
        std::uint32_t index = 0; ///< position in order_
        bool open = false;
    };

    /** One completed begin/end pair for the Chrome timeline. */
    struct TimelineSlice
    {
        std::uint32_t stage = 0; ///< index into order_
        std::uint64_t startNs = 0;
        std::uint64_t durNs = 0;
        std::uint64_t cpuNs = 0;
    };

    const HostClock *clock_ = nullptr;
    std::uint64_t epochWallNs_ = 0;
    std::uint64_t epochCpuNs_ = 0;
    std::map<std::string, Cell> cells_;
    std::vector<std::string> order_;
    std::uint64_t insts_ = 0;
    HostMemory mem_;
    double rssHwmKb_ = 0.0;
    std::vector<TimelineSlice> timeline_;
    std::size_t timelineCap_ = 0;
    std::uint64_t timelineDropped_ = 0;
    std::vector<PeriodicSample> periodic_;
};

} // namespace mct

#endif // MCT_COMMON_INSTRUMENT_HH
