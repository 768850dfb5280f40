/**
 * @file
 * Trace-driven core timing model.
 *
 * The paper's substrate simulated an 8-issue out-of-order Alpha core
 * in gem5 (Table 8). MCT only observes the memory-system consequences
 * of the core, so this model reproduces exactly those couplings:
 *
 *  - non-memory instructions retire at the issue width;
 *  - cache hits expose a small, level-dependent fraction of their
 *    latency (out-of-order overlap);
 *  - NVM reads proceed in parallel up to a per-workload memory-level-
 *    parallelism bound (and the LLC MSHR count), with an optional
 *    dependent-load probability that forces serialization (pointer
 *    chasing a la gups);
 *  - LLC writebacks stall the core only through write-queue
 *    backpressure.
 *
 * Cache state is updated instantly on access (classic trace-driven
 * approximation); timing is accounted separately via the outstanding-
 * miss window.
 */

#ifndef MCT_CPU_CORE_HH
#define MCT_CPU_CORE_HH

#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "memctrl/controller.hh"
#include "workloads/workload.hh"

namespace mct
{

/** Core timing parameters (Table 8 defaults). */
struct CoreParams
{
    unsigned issueWidth = 8;

    /** Exposed stall cycles for an L2 hit (12-cycle latency, mostly
     *  hidden by out-of-order overlap). */
    double l2StallCycles = 4.0;

    /** Exposed stall cycles for an L3 hit (35-cycle latency). */
    double l3StallCycles = 14.0;

    /** LLC MSHRs: hard cap on outstanding NVM reads (Table 8: 32). */
    unsigned maxMshrs = 32;

    /** Collect eager-writeback candidates every this many mem ops. */
    unsigned eagerCheckPeriod = 32;
};

/** Cumulative core statistics; snapshot-and-diff for windows. */
struct CoreStats
{
    InstCount instructions = 0;
    std::uint64_t memOps = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l3Hits = 0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;     // writebacks submitted
    std::uint64_t eagerSubmitted = 0;
    Tick memStallTicks = 0;
    Tick wbStallTicks = 0;

    CoreStats delta(const CoreStats &earlier) const;

    /** Checkpoint every counter. */
    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.u64(instructions, memOps, l1Hits, l2Hits, l3Hits, memReads,
               memWrites, eagerSubmitted, memStallTicks, wbStallTicks);
    }
};

class Core;

/**
 * Routes demand-read completions from the shared memory controller
 * back to the issuing cores. Request ids carry the core index in
 * their top byte.
 */
class CompletionRouter
{
  public:
    explicit CompletionRouter(MemController &controller)
        : ctrl(controller)
    {}

    /** Register a core; its index must equal its position. */
    void addCore(Core *core) { cores.push_back(core); }

    /** Dispatch all pending completions to their cores. */
    void drain();

  private:
    MemController &ctrl;
    std::vector<Core *> cores;
};

/**
 * One simulated core: a workload, a cache hierarchy, and a connection
 * to the shared memory controller.
 */
class Core
{
  public:
    Core(unsigned id, const CoreParams &params, Workload &workload,
         CacheHierarchy &hierarchy, MemController &controller,
         CompletionRouter &router);

    /** Run until at least @p insts more instructions retire. */
    void run(InstCount insts);

    /** Current core time. */
    Tick now() const { return cpuTick; }

    /** Total instructions retired. */
    InstCount retired() const { return st.instructions; }

    /** Cumulative statistics. */
    const CoreStats &stats() const { return st; }

    /** Core index. */
    unsigned id() const { return coreId; }

    /** IPC over the whole run so far. */
    double ipc() const;

    /** Register this core's counters under @p prefix (e.g. "cpu"). */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    /** Completion callback used by the CompletionRouter. */
    void onReadComplete(std::uint64_t id, Tick tick);

    /** Open/close request-lifecycle spans on this core's accesses. */
    void attachSpans(SpanTrace *t) { spans = t; }

    /**
     * Let this core's clock catch up to @p tick without retiring
     * instructions (used by the multi-core scheduler).
     */
    void syncTo(Tick tick) { cpuTick = std::max(cpuTick, tick); }

    /** Checkpoint clocks, MSHR set, partial-op state, and stats. */
    template <class Ar>
    void io(Ar &ar);

  private:
    unsigned coreId;
    CoreParams p;
    Workload &wl;
    CacheHierarchy &hier;
    MemController &ctrl;
    CompletionRouter &router;
    Rng rng;

    SpanTrace *spans = nullptr;
    Tick cpuTick = 0;
    std::uint64_t nextReadSeq = 0;
    /** Ids of the reads in flight (the MSHRs): at most
     *  min(mlp, maxMshrs) of them, in no particular order. */
    std::vector<std::uint64_t> outstanding;
    Tick lastCompletionTick = 0;
    std::uint64_t memOpsSinceEagerCheck = 0;

    // One op may be partially executed when a run() quantum ends.
    WorkloadOp pendingOp{};
    bool havePending = false;
    std::uint32_t gapLeft = 0;

    CoreStats st;
    std::vector<Addr> eagerScratch;
    AccessOutcome outcome; // the current access's; refilled by each

    std::uint64_t makeReadId();

    /** Execute up to @p maxInsts gap instructions; returns how many. */
    InstCount executeGap(InstCount maxInsts);

    /** Issue the memory part of the pending op. */
    void executeMemOp();

    /** Submit a writeback, stalling on queue backpressure. */
    void submitWriteback(Addr addr);

    /** Block until fewer than @p limit reads are outstanding. */
    void waitOutstandingBelow(std::size_t limit);

    /** Block until a specific read id completes. */
    void waitForRead(std::uint64_t id);

    /** Advance the controller one event and route completions. */
    void pumpController();

    /** Opportunistically push eager-writeback candidates. */
    void maybeCollectEager();
};

} // namespace mct

#endif // MCT_CPU_CORE_HH
