/**
 * @file
 * Per-bank state of the NVM device: busy window, open row, and
 * accumulated wear. Scheduling decisions live in the memory
 * controller; the bank only records physical state.
 */

#ifndef MCT_NVM_BANK_HH
#define MCT_NVM_BANK_HH

#include <cstdint>

#include "common/types.hh"

namespace mct
{

/**
 * State record for a single NVM bank.
 */
class Bank
{
  public:
    /** The bank can start a new operation at or after this tick. */
    Tick busyUntil = 0;

    /** Currently open row, or -1 when no row is open. */
    std::int64_t openRow = -1;

    /** True while the in-progress operation is a write. */
    bool writing = false;

    /** Start tick of the in-progress write (valid when writing). */
    Tick writeStart = 0;

    /** Latency ratio of the in-progress write (valid when writing). */
    double writeRatio = 1.0;

    /** Accumulated wear in fast-write-equivalent line writes. */
    double wear = 0.0;

    /** Completed reads serviced by this bank. */
    std::uint64_t reads = 0;

    /** Row-buffer hits among those reads. */
    std::uint64_t rowHits = 0;

    /** Completed writes performed by this bank. */
    std::uint64_t writes = 0;

    /** Ticks this bank has spent busy (for utilization/energy). */
    Tick busyTicks = 0;

    /**
     * Degradation multiplier applied to this bank's operation
     * latencies (aging/thermal drift; 1.0 = healthy). Set only by the
     * fault-injection harness via NvmDevice::setBankDegradation.
     */
    double latencyFactor = 1.0;

    /** Degradation multiplier applied to wear charged to this bank
     *  (weak cells wear faster; 1.0 = healthy). */
    double wearFactor = 1.0;

    /** Forget transient state but keep wear (used on config switch). */
    void
    quiesce()
    {
        writing = false;
        openRow = -1;
    }

    /** Checkpoint the full physical state of the bank. */
    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.u64(busyUntil);
        ar.i64(openRow);
        ar.flag(writing);
        ar.u64(writeStart);
        ar.f64(writeRatio, wear);
        ar.u64(reads, rowHits, writes, busyTicks);
        ar.f64(latencyFactor, wearFactor);
    }
};

} // namespace mct

#endif // MCT_NVM_BANK_HH
