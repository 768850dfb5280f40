#include "nvm/device.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/instrument.hh"
#include "common/logging.hh"
#include "common/serialize.hh"

namespace mct
{

NvmDevice::NvmDevice(const NvmParams &params)
    : p(params)
{
    p.validate();
    banks.resize(p.numBanks);
    if (p.wearLevelMode == WearLevelMode::StartGap) {
        for (unsigned b = 0; b < p.numBanks; ++b)
            remappers.emplace_back(p.rowsPerBank(), p.startGapPeriod);
        rowWear = std::make_unique<RowWearTable>(
            p.numBanks, p.rowsPerBank() + 1);
    }
}

NvmLocation
NvmDevice::decode(Addr addr) const
{
    const std::uint64_t line = (addr / lineBytes) %
        (p.capacityBytes / lineBytes);
    const unsigned lpr = p.linesPerRow();
    NvmLocation loc;
    loc.lineInRow = static_cast<unsigned>(line % lpr);
    const std::uint64_t rowGlobal = line / lpr;
    loc.bank = static_cast<unsigned>(rowGlobal % p.numBanks);
    loc.row = rowGlobal / p.numBanks;
    return loc;
}

Tick
NvmDevice::readAccessLatency(unsigned bankIdx, bool rowHit,
                             bool fastActivate) const
{
    Tick lat;
    if (rowHit) {
        lat = p.tCAS;
    } else {
        const Tick activate = fastActivate ? p.tRCDFast : p.tRCD;
        lat = activate + p.tCAS;
    }
    const Bank &b = bank(bankIdx);
    if (b.latencyFactor != 1.0) {
        // Fault-injected degradation: the array is slower than the
        // timing parameters claim.
        lat = std::max<Tick>(
            1, static_cast<Tick>(static_cast<double>(lat) *
                                 b.latencyFactor));
    }
    return lat;
}

Tick
NvmDevice::accessRead(unsigned bankIdx, bool rowHit, bool fastActivate,
                      std::uint64_t reqId, Tick start)
{
    const Tick lat = readAccessLatency(bankIdx, rowHit, fastActivate);
    if (spans)
        spans->stageMark(reqId, SpanStage::Device, start, start + lat);
    return lat;
}

Bank &
NvmDevice::bank(unsigned idx)
{
    if (idx >= banks.size())
        mct_panic("bank index out of range: ", idx);
    return banks[idx];
}

const Bank &
NvmDevice::bank(unsigned idx) const
{
    if (idx >= banks.size())
        mct_panic("bank index out of range: ", idx);
    return banks[idx];
}

void
NvmDevice::setBankDegradation(int bankIdx, double latencyFactor,
                              double wearFactor)
{
    auto clamp = [](double f) {
        if (!(f > 0.0) || !std::isfinite(f))
            return 1.0;
        return std::min(std::max(f, 0.1), 100.0);
    };
    const double latF = clamp(latencyFactor);
    const double wearF = clamp(wearFactor);
    if (bankIdx < 0) {
        for (auto &b : banks) {
            b.latencyFactor = latF;
            b.wearFactor = wearF;
        }
        return;
    }
    if (static_cast<std::size_t>(bankIdx) >= banks.size())
        return; // plans may target banks a smaller device lacks
    banks[bankIdx].latencyFactor = latF;
    banks[bankIdx].wearFactor = wearF;
}

void
NvmDevice::clearDegradation()
{
    for (auto &b : banks) {
        b.latencyFactor = 1.0;
        b.wearFactor = 1.0;
    }
}

void
NvmDevice::addWear(unsigned bankIdx, std::uint64_t logicalRow,
                   double wear)
{
    // Degraded cells wear faster than the controller's nominal model.
    wear *= bank(bankIdx).wearFactor;
    bank(bankIdx).wear += wear;
    wearTotal += wear;
    if (p.wearLevelMode != WearLevelMode::StartGap)
        return;
    StartGap &sg = remappers[bankIdx];
    rowWear->add(bankIdx, sg.mapRow(logicalRow), wear);
    const std::int64_t filled = sg.onWrite();
    if (filled >= 0) {
        // Gap movement copies one full row with normal writes.
        const double copyWear = static_cast<double>(p.linesPerRow());
        rowWear->add(bankIdx, static_cast<std::uint64_t>(filled),
                     copyWear);
        bank(bankIdx).wear += copyWear;
        wearTotal += copyWear;
    }
}

double
NvmDevice::levelingEfficiency() const
{
    if (p.wearLevelMode != WearLevelMode::StartGap)
        return 1.0;
    return rowWear->levelingEfficiency();
}

double
NvmDevice::maxRowWear() const
{
    if (p.wearLevelMode != WearLevelMode::StartGap)
        mct_panic("maxRowWear() without Start-Gap mode");
    return rowWear->maxRowWear();
}

const StartGap &
NvmDevice::startGap(unsigned bankIdx) const
{
    if (p.wearLevelMode != WearLevelMode::StartGap)
        mct_panic("startGap() without Start-Gap mode");
    if (bankIdx >= remappers.size())
        mct_panic("startGap: bank out of range");
    return remappers[bankIdx];
}

double
NvmDevice::maxBankWear() const
{
    double worst = 0.0;
    for (const auto &b : banks)
        worst = std::max(worst, b.wear);
    return worst;
}

double
NvmDevice::lifetimeYears(Tick elapsedTicks) const
{
    if (elapsedTicks == 0)
        return p.maxLifetimeYears;
    const double elapsedSec = static_cast<double>(elapsedTicks) /
        static_cast<double>(tickSec);
    double years;
    if (p.wearLevelMode == WearLevelMode::StartGap) {
        // Explicit leveling: the device dies when its most-worn
        // physical row does; no assumed-efficiency credit.
        const double worstRow = rowWear->maxRowWear();
        if (worstRow <= 0.0)
            return p.maxLifetimeYears;
        years = p.rowWearCapacity() / (worstRow / elapsedSec) /
                secondsPerYear;
    } else {
        const double worst = maxBankWear();
        if (worst <= 0.0)
            return p.maxLifetimeYears;
        years = p.bankWearCapacity() / (worst / elapsedSec) /
                secondsPerYear;
    }
    return std::min(years, p.maxLifetimeYears);
}

void
NvmDevice::reset()
{
    for (auto &b : banks)
        b = Bank();
    wearTotal = 0.0;
    if (p.wearLevelMode == WearLevelMode::StartGap) {
        remappers.clear();
        for (unsigned b = 0; b < p.numBanks; ++b)
            remappers.emplace_back(p.rowsPerBank(), p.startGapPeriod);
        rowWear = std::make_unique<RowWearTable>(
            p.numBanks, p.rowsPerBank() + 1);
    }
}

void
NvmDevice::registerStats(StatRegistry &reg,
                         const std::string &prefix) const
{
    reg.addGauge(prefix + ".total_wear", [this] { return wearTotal; },
                 "fast-write-equivalent line writes, all banks");
    reg.addGauge(prefix + ".max_bank_wear",
                 [this] { return maxBankWear(); });
    reg.addGauge(prefix + ".leveling_efficiency",
                 [this] { return levelingEfficiency(); });
    for (unsigned b = 0; b < p.numBanks; ++b) {
        char suffix[16];
        std::snprintf(suffix, sizeof(suffix), ".bank%02u", b);
        const std::string bankPath = prefix + suffix;
        const Bank *bank = &banks[b];
        reg.addCounter(bankPath + ".reads",
                       [bank] { return bank->reads; });
        reg.addCounter(bankPath + ".writes",
                       [bank] { return bank->writes; });
        reg.addGauge(bankPath + ".wear", [bank] { return bank->wear; });
    }
}

template <class Ar>
void
NvmDevice::io(Ar &ar)
{
    ar.check(static_cast<std::uint32_t>(banks.size()),
             "checkpoint device bank-count mismatch");
    for (Bank &b : banks)
        b.io(ar);
    ar.f64(wearTotal);
    ar.check(static_cast<std::uint32_t>(remappers.size()),
             "checkpoint device remapper-count mismatch");
    for (StartGap &sg : remappers)
        sg.io(ar);
    ar.check(rowWear != nullptr,
             "checkpoint device wear-level mode mismatch");
    if (rowWear)
        rowWear->io(ar);
}

template void NvmDevice::io(Serializer &);
template void NvmDevice::io(Deserializer &);

} // namespace mct
