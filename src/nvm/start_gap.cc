#include "nvm/start_gap.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace mct
{

StartGap::StartGap(std::uint64_t rows, std::uint64_t gapPeriod)
    : nRows(rows), period(gapPeriod), gap(rows)
{
    if (rows == 0)
        mct_fatal("StartGap: bank needs at least one row");
    if (period == 0)
        mct_fatal("StartGap: gap period must be positive");
}

std::uint64_t
StartGap::mapRow(std::uint64_t logicalRow) const
{
    if (logicalRow >= nRows)
        mct_panic("StartGap::mapRow: row out of range");
    // Canonical Start-Gap: rotate by the start pointer over the
    // nRows logical slots, then skip the gap slot (physical rows are
    // nRows + 1, so the skipped image stays in range).
    const std::uint64_t rotated = (logicalRow + start) % nRows;
    return rotated >= gap ? rotated + 1 : rotated;
}

std::int64_t
StartGap::onWrite()
{
    if (++sinceMove < period)
        return -1;
    sinceMove = 0;
    ++moves;
    if (gap == 0) {
        // Wrap: pure bookkeeping, no copy (Qureshi et al., Fig 4).
        gap = nRows;
        ++starts;
        start = (start + 1) % nRows;
        return -1;
    }
    const std::int64_t filled = static_cast<std::int64_t>(gap);
    --gap;
    return filled;
}

RowWearTable::RowWearTable(unsigned banks,
                           std::uint64_t physicalRowsPerBank)
    : nBanks(banks), rowsPerBank(physicalRowsPerBank),
      wear(static_cast<std::size_t>(banks) * physicalRowsPerBank, 0.0f)
{
    if (banks == 0 || physicalRowsPerBank == 0)
        mct_fatal("RowWearTable: empty geometry");
}

void
RowWearTable::add(unsigned bank, std::uint64_t physicalRow, double w)
{
    if (bank >= nBanks || physicalRow >= rowsPerBank)
        mct_panic("RowWearTable::add: out of range");
    auto &cell = wear[static_cast<std::size_t>(bank) * rowsPerBank +
                      physicalRow];
    if (cell == 0.0f && w > 0.0)
        ++touched;
    cell += static_cast<float>(w);
    sum += w;
    worst = std::max(worst, static_cast<double>(cell));
}

double
RowWearTable::levelingEfficiency() const
{
    if (worst <= 0.0 || touched == 0)
        return 1.0;
    const double avg = sum / static_cast<double>(touched);
    return avg / worst;
}

template <class Ar>
void
StartGap::io(Ar &ar)
{
    ar.check(nRows, "checkpoint Start-Gap geometry mismatch");
    ar.check(period, "checkpoint Start-Gap geometry mismatch");
    ar.u64(gap, start, sinceMove, moves, starts);
}

template void StartGap::io(Serializer &);
template void StartGap::io(Deserializer &);

template <class Ar>
void
RowWearTable::io(Ar &ar)
{
    ar.check(nBanks, "checkpoint row-wear geometry mismatch");
    ar.check(rowsPerBank, "checkpoint row-wear geometry mismatch");
    for (float &cell : wear)
        ar.f64(cell);
    ar.f64(worst, sum);
    ar.u64(touched);
}

template void RowWearTable::io(Serializer &);
template void RowWearTable::io(Deserializer &);

} // namespace mct
