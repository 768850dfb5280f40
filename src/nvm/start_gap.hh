/**
 * @file
 * Start-Gap wear leveling (Qureshi et al., MICRO'09) at row
 * granularity.
 *
 * Table 9 *assumes* an effective bank-granularity wear-leveling
 * scheme achieving 95% of ideal lifetime; this module implements the
 * scheme the paper cites so the assumption can be validated rather
 * than taken on faith (see bench/bench_ablation_wear_leveling).
 *
 * Each bank owns one spare row and a gap pointer. Every `gapPeriod`
 * writes the gap moves down by one row, which copies the displaced
 * row into the gap (a full row write, charged as wear). After
 * rows+1 movements the start pointer advances, completing one
 * rotation; over time every logical row visits every physical row.
 *
 * Mapping (per the paper): with gap G and start S over R+1 physical
 * rows, logical row L maps to P = (L + S) mod (R + 1), skipping the
 * gap: if P >= G then P + 1... implemented in the standard two-case
 * form below.
 */

#ifndef MCT_NVM_START_GAP_HH
#define MCT_NVM_START_GAP_HH

#include <cstdint>
#include <vector>

namespace mct
{

/**
 * Start-Gap remapping state for one bank.
 */
class StartGap
{
  public:
    /**
     * @param rows Logical rows in the bank (physical rows = rows+1).
     * @param gapPeriod Writes between gap movements (the paper uses
     *        100; smaller moves the gap faster at more overhead).
     */
    StartGap(std::uint64_t rows, std::uint64_t gapPeriod = 100);

    /** Map a logical row to its current physical row. */
    std::uint64_t mapRow(std::uint64_t logicalRow) const;

    /**
     * Account one serviced write. When the gap moves, returns the
     * physical row that received the displaced row's copy (the
     * caller charges one row-copy of wear there); -1 otherwise.
     */
    std::int64_t onWrite();

    /** Gap movements so far. */
    std::uint64_t gapMoves() const { return moves; }

    /** Completed full rotations of the start pointer. */
    std::uint64_t rotations() const { return starts; }

    /** Physical rows managed (logical rows + 1 spare). */
    std::uint64_t physicalRows() const { return nRows + 1; }

    /** Checkpoint the remapping pointers and counters (restore
     *  requires the same geometry). */
    template <class Ar>
    void io(Ar &ar);

  private:
    std::uint64_t nRows;
    std::uint64_t period;
    std::uint64_t gap;        // current gap position in [0, nRows]
    std::uint64_t start = 0;  // rotation offset
    std::uint64_t sinceMove = 0;
    std::uint64_t moves = 0;
    std::uint64_t starts = 0;
};

/**
 * Per-row wear tracking for a device using Start-Gap. Row-granular:
 * assumes intra-row accesses spread across the row's lines (the same
 * granularity at which Start-Gap levels).
 */
class RowWearTable
{
  public:
    RowWearTable(unsigned banks, std::uint64_t physicalRowsPerBank);

    /** Add wear (fast-write-equivalent line writes) to one row. */
    void add(unsigned bank, std::uint64_t physicalRow, double wear);

    /** Most-worn row's wear across the device. */
    double maxRowWear() const { return worst; }

    /** Total wear recorded. */
    double total() const { return sum; }

    /**
     * Achieved leveling efficiency: average row wear divided by the
     * maximum row wear (1.0 = perfectly level). Only meaningful once
     * wear has accumulated.
     */
    double levelingEfficiency() const;

    /** Checkpoint the per-row wear cells and aggregates (restore
     *  requires the same geometry). */
    template <class Ar>
    void io(Ar &ar);

  private:
    unsigned nBanks;
    std::uint64_t rowsPerBank;
    std::vector<float> wear; // banks x physicalRowsPerBank
    double worst = 0.0;
    double sum = 0.0;
    std::uint64_t touched = 0;
};

} // namespace mct

#endif // MCT_NVM_START_GAP_HH
