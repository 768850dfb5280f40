/**
 * @file
 * A frozen copy of the memory controller as it stood before its
 * per-bank event state was made compact: every event rescans all
 * banks' in-flight records. Test-only. The lockstep differential test
 * drives it beside the production MemController and requires every
 * return value, completion, statistic and checkpoint byte to agree.
 *
 * Only the namespace differs from that version (and registerStats is
 * gone); the parameters, statistics, requests, wear quota and device
 * are the production types. Do not optimize this file: its value is
 * that it stays the plain version.
 */

#ifndef MCT_TESTS_REF_REF_CONTROLLER_HH
#define MCT_TESTS_REF_REF_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "common/types.hh"
#include "memctrl/controller.hh"
#include "memctrl/mellow_config.hh"
#include "memctrl/request.hh"
#include "memctrl/wear_quota.hh"
#include "nvm/device.hh"

namespace mct::ref
{

/**
 * Event-driven NVM memory controller.
 */
class MemController
{
  public:
    /** Sentinel for "no scheduled event". */
    static constexpr Tick noEvent = std::numeric_limits<Tick>::max();

    MemController(NvmDevice &device, const MemCtrlParams &params,
                  const MellowConfig &config);

    /** Replace the active technique configuration at @p now. */
    void setConfig(const MellowConfig &config, Tick now);

    /** Currently active configuration. */
    const MellowConfig &config() const { return cfg; }

    /** Simulate bank activity up to @p to. */
    void advance(Tick to);

    /**
     * Submit a demand read. Returns false (and counts a reject) when
     * the read queue is full; the caller must retry later.
     */
    bool submitRead(Addr addr, Tick now, std::uint64_t id,
                    unsigned coreId = 0);

    /** Submit an LLC eviction writeback; false when the queue is full. */
    bool submitWrite(Addr addr, Tick now, unsigned coreId = 0);

    /** Submit an eager mellow writeback; false when the queue is full. */
    bool submitEager(Addr addr, Tick now, unsigned coreId = 0);

    /** True when another eager request can be accepted. */
    bool eagerSpace() const { return eagerCount < p.eagerQCap; }

    /** Free eager-queue slots. */
    unsigned
    eagerFree() const
    {
        return eagerCount >= p.eagerQCap ? 0u : p.eagerQCap - eagerCount;
    }

    /** True when another writeback can be accepted. */
    bool writeSpace() const { return writeCount < p.writeQCap; }

    /** Completed demand reads since the last drain of this list. */
    std::vector<std::pair<std::uint64_t, Tick>> &completedReads()
    {
        return completed;
    }

    /**
     * Tick of the next internally scheduled event (earliest in-flight
     * completion), or, when banks are idle but work is queued, the
     * current time; noEvent when fully idle and empty.
     */
    Tick nextEventTick() const;

    /** Current controller time. */
    Tick now() const { return curTick; }

    /** Cumulative statistics. */
    const CtrlStats &stats() const { return st; }

    /**
     * Record queue/quota transition events (writeback bursts, quota
     * throttling) into @p t; null detaches. Transitions are rare, so
     * the issue path pays one pointer test per drain flip at most.
     */
    void attachTrace(EventTrace *t);

    /** Record queue/bank stage marks on sampled request spans; null
     *  detaches. One pointer test per issued read when detached. */
    void attachSpans(SpanTrace *t) { spans = t; }

    /** The wear-quota state machine (read-only, for tests/benches). */
    const WearQuota &wearQuota() const { return quota; }

    /** Fault-injection hook: skew the wear quota's perceived clock
     *  (forwarded to WearQuota::setClockSkew; 1.0 restores honesty). */
    void setQuotaClockSkew(double factor) { quota.setClockSkew(factor); }

    /** Number of queued demand reads. */
    std::size_t readQSize() const { return readCount; }

    /** Number of queued writebacks. */
    std::size_t writeQSize() const { return writeCount; }

    /** Number of queued eager writebacks. */
    std::size_t eagerQSize() const { return eagerCount; }

    /** True while the forced write drain is active. */
    bool draining() const { return drainActive; }

    /** True when no request is queued or in flight. */
    bool idle() const;

    /** Checkpoint configuration, queues, in-flight and paused writes,
     *  retention/disturb tracking, quota clocks, and statistics
     *  (restore requires the same bank geometry). */
    template <class Ar>
    void io(Ar &ar);

  private:
    /** What a busy bank is doing. */
    struct InFlight
    {
        bool valid = false;
        Request req;
        Tick start = 0;
        Tick finish = 0;
        double ratio = 1.0;     // writes only
        bool cancellable = false;
        bool isQuotaWrite = false;
        /** Wear still to charge on completion (resumed writes have
         *  already been charged their pre-pause progress). */
        double wearFraction = 1.0;
    };

    NvmDevice &dev;
    MemCtrlParams p;
    MellowConfig cfg;
    WearQuota quota;
    Tick curTick = 0;

    // Per-bank FCFS queues with global occupancy counters.
    std::vector<std::deque<Request>> readQs;
    std::vector<std::deque<Request>> writeQs;
    std::vector<std::deque<Request>> eagerQs;
    unsigned readCount = 0;
    unsigned writeCount = 0;
    unsigned eagerCount = 0;

    /** A write interrupted by a read, waiting to resume. */
    struct PausedWrite
    {
        bool valid = false;
        Request req;
        double ratio = 1.0;
        Tick remaining = 0;
        bool isQuotaWrite = false;
        double fractionCharged = 0.0;
    };

    std::vector<InFlight> inflight; // one per bank
    std::vector<PausedWrite> paused; // one per bank

    /** Short-retention rows awaiting their refresh deadline. */
    std::vector<std::deque<std::pair<std::uint64_t, Tick>>>
        retentionFifo;

    /** Fast-read disturb counters per (bank, row); allocated only
     *  when fast disturbing reads are enabled. */
    std::vector<std::vector<std::uint16_t>> disturbCount;
    unsigned inflightCount = 0;
    std::vector<std::pair<std::uint64_t, Tick>> completed;
    bool drainActive = false;
    std::deque<Tick> recentActivates; // tFAW window
    std::uint64_t nextWriteId = 1ULL << 62;
    CtrlStats st;
    EventTrace *trace = nullptr;
    SpanTrace *spans = nullptr;
    std::uint64_t nDrains = 0;

    /** Finalize every in-flight op with finish <= t, oldest first. */
    void completeUpTo(Tick t);

    /** Finalize one in-flight op on @p bank. */
    void finish(unsigned bank);

    /** Try to start new operations on all idle banks at time t. */
    void tryIssueAll(Tick t);

    /** Try to start one operation on @p bank; true if issued. */
    bool tryIssue(unsigned bank, Tick t);

    /** Start a read on its bank at time t. */
    void issueRead(const Request &req, Tick t);

    /** Start a write on its bank at time t. */
    void issueWrite(const Request &req, Tick t, bool fromEager);

    /** Cancel the cancellable write in flight on @p bank at t. */
    void cancelWrite(unsigned bank, Tick t);

    /** Pause the cancellable write in flight on @p bank at t. */
    void pauseWrite(unsigned bank, Tick t);

    /** Resume @p bank's paused write at time t. */
    void resumeWrite(unsigned bank, Tick t);

    /** Earliest start honoring the tFAW activate window. */
    Tick activateConstrainedStart(Tick t);

    /** Update the drain hysteresis from the current queue level. */
    void updateDrain();

    /** Enqueue a forced refresh write of (bank, row). */
    void enqueueScrub(unsigned bank, std::uint64_t row);

    /** Issue scrubs for short-retention rows past their deadline. */
    void processRetention(unsigned bank, Tick t);

    /** Count a fast read's disturbance; scrub at the threshold. */
    void recordDisturb(unsigned bank, std::uint64_t row);

    /** Lazily size the disturb table (fast reads just enabled). */
    void ensureDisturbTable();

    /** Account a write's wear and energy, scaled by completed work. */
    void accountWrite(const Request &req, double fraction,
                      double ratio);
};

} // namespace mct::ref

#endif // MCT_TESTS_REF_REF_CONTROLLER_HH
