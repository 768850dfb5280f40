/**
 * @file
 * The NVM device: address decoding, bank array, wear bookkeeping, and
 * lifetime computation under the paper's cyclic-execution assumption.
 */

#ifndef MCT_NVM_DEVICE_HH
#define MCT_NVM_DEVICE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "nvm/bank.hh"
#include "nvm/nvm_params.hh"
#include "nvm/start_gap.hh"

namespace mct
{

class StatRegistry;
class SpanTrace;

/** Decoded physical location of a cache-line address. */
struct NvmLocation
{
    unsigned bank;
    std::uint64_t row;
    unsigned lineInRow;
};

/**
 * The NVM main-memory device.
 *
 * Address mapping places consecutive cache lines in the same row
 * (preserving stream row-buffer locality) and interleaves rows across
 * banks, which spreads wear under the bank-granularity wear-leveling
 * assumption of Table 9.
 */
class NvmDevice
{
  public:
    /** Construct with validated parameters. */
    explicit NvmDevice(const NvmParams &params);

    /** Device parameters. */
    const NvmParams &params() const { return p; }

    /** Decode a byte address into bank/row/line coordinates. */
    NvmLocation decode(Addr addr) const;

    /**
     * Array access latency of a read on @p bankIdx: tCAS on a row
     * hit, activate (tRCD or tRCDFast) + tCAS otherwise, scaled by
     * the bank's fault-injected latencyFactor. Excludes the burst
     * transfer, which belongs to the channel.
     */
    Tick readAccessLatency(unsigned bankIdx, bool rowHit,
                           bool fastActivate) const;

    /**
     * readAccessLatency plus span bookkeeping: marks the Device stage
     * [start, start + latency] on request @p reqId's span (if one is
     * open). The controller owns queueing and bank occupancy; the
     * device owns (and attributes) the array time.
     */
    Tick accessRead(unsigned bankIdx, bool rowHit, bool fastActivate,
                    std::uint64_t reqId, Tick start);

    /** Record Device-stage marks on sampled request spans. */
    void attachSpans(SpanTrace *t) { spans = t; }

    /** Mutable access to a bank's state. */
    Bank &bank(unsigned idx);

    /** Read-only access to a bank's state. */
    const Bank &bank(unsigned idx) const;

    /** Number of banks. */
    unsigned numBanks() const { return p.numBanks; }

    /**
     * Record wear from a write to @p logicalRow of @p bank
     * (fast-write-equivalent units). This is the only sanctioned
     * mutation path for wear; it keeps the cached device total
     * consistent, and under Start-Gap it remaps the row, tracks
     * per-physical-row wear, and charges gap-movement copies.
     */
    void addWear(unsigned bank, std::uint64_t logicalRow, double wear);

    /**
     * Fault-injection hook: set a bank's degradation multipliers
     * (latency and wear; 1.0 = healthy). @p bank of -1 targets every
     * bank. Values are clamped to a sane range so a corrupt plan
     * cannot freeze the simulation.
     */
    void setBankDegradation(int bank, double latencyFactor,
                            double wearFactor);

    /** Clear all degradation multipliers back to healthy. */
    void clearDegradation();

    /** Total wear across all banks (O(1), maintained by addWear). */
    double totalWear() const { return wearTotal; }

    /** Largest per-bank wear. */
    double maxBankWear() const;

    /**
     * Expected memory lifetime in years if the observed per-bank wear,
     * accumulated over elapsedTicks of execution, repeats cyclically
     * until the most-worn bank reaches its wear capacity (paper
     * Section 6.1). Returns params().maxLifetimeYears when no wear was
     * recorded.
     */
    double lifetimeYears(Tick elapsedTicks) const;

    /** Reset transient bank state and wear counters. */
    void reset();

    /** Register device and per-bank counters under @p prefix
     *  (e.g. "nvm" gives nvm.total_wear, nvm.bank00.reads, ...). */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    /** Measured Start-Gap leveling efficiency (1.0 under the
     *  assumed-efficiency mode, which levels by definition). */
    double levelingEfficiency() const;

    /** Most-worn physical row's wear (Start-Gap mode only). */
    double maxRowWear() const;

    /** The Start-Gap remapper of @p bank (Start-Gap mode only). */
    const StartGap &startGap(unsigned bank) const;

    /** Checkpoint bank state, wear totals, and remapping tables
     *  (restore requires the same geometry). */
    template <class Ar>
    void io(Ar &ar);

  private:
    NvmParams p;
    std::vector<Bank> banks;
    SpanTrace *spans = nullptr;
    double wearTotal = 0.0;
    std::vector<StartGap> remappers;           // StartGap mode
    std::unique_ptr<RowWearTable> rowWear;     // StartGap mode
};

} // namespace mct

#endif // MCT_NVM_DEVICE_HH
