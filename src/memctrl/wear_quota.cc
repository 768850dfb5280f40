#include "memctrl/wear_quota.hh"

#include <algorithm>
#include <cmath>

#include "common/instrument.hh"
#include "common/logging.hh"
#include "common/serialize.hh"

namespace mct
{

WearQuota::WearQuota(Tick sliceTicks, double totalWearCapacity)
    : slice(sliceTicks), capacity(totalWearCapacity)
{
    if (slice == 0)
        mct_fatal("WearQuota: slice length must be positive");
    if (capacity <= 0.0)
        mct_fatal("WearQuota: wear capacity must be positive");
}

void
WearQuota::setClockSkew(double factor)
{
    if (!std::isfinite(factor) || factor <= 0.0)
        factor = 1.0;
    skew = std::min(std::max(factor, 0.01), 100.0);
}

void
WearQuota::configure(bool enabled, double targetYears, Tick now,
                     double currentWear)
{
    isEnabled = enabled;
    isRestricted = false;
    armTick = now;
    // A non-finite device total would poison every later budget
    // comparison; arm from zero instead.
    armWear = std::isfinite(currentWear) ? currentWear : 0.0;
    sliceStart = now;
    lastUsedWear = 0.0;
    lastAllowedWear = 0.0;
    if (enabled) {
        if (targetYears <= 0.0)
            mct_fatal("WearQuota: target lifetime must be positive");
        ratePerSec = capacity / (targetYears * secondsPerYear);
    } else {
        ratePerSec = 0.0;
    }
}

void
WearQuota::update(Tick now, double currentWear)
{
    if (!isEnabled || now < sliceStart || now < sliceStart + slice)
        return;
    // We only re-evaluate at slice boundaries; catch up in whole
    // slices (arithmetically, so long idle gaps stay O(1)).
    sliceStart += ((now - sliceStart) / slice) * slice;
    const double elapsedSec =
        static_cast<double>(sliceStart - armTick) /
        static_cast<double>(tickSec) * skew;
    const double allowed = ratePerSec * elapsedSec;
    // Wear is monotonic and sampled after arming, so used is
    // non-negative on an honest device; clamp defensively so a
    // corrupted total can never grant unbounded budget.
    const double used = std::isfinite(currentWear)
        ? std::max(currentWear - armWear, 0.0)
        : lastUsedWear;
    lastUsedWear = used;
    lastAllowedWear = allowed;
    const bool over = used > allowed;
    if (over && !isRestricted)
        ++nRestricted;
    if (trace && over != isRestricted)
        trace->record(TraceEventType::QuotaThrottle, over ? 1.0 : 0.0,
                      static_cast<double>(nRestricted), ratePerSec);
    isRestricted = over;
}

void
WearQuota::registerStats(StatRegistry &reg,
                         const std::string &prefix) const
{
    reg.addGauge(prefix + ".enabled",
                 [this] { return isEnabled ? 1.0 : 0.0; });
    reg.addGauge(prefix + ".restricted",
                 [this] { return isRestricted ? 1.0 : 0.0; },
                 "currently inside a restricted (4x-write) slice");
    reg.addCounter(prefix + ".restricted_slices",
                   [this] { return nRestricted; },
                   "restricted slices entered since arming");
    reg.addGauge(prefix + ".budget_rate",
                 [this] { return ratePerSec; },
                 "allowed wear per second for the lifetime target");
    reg.addGauge(prefix + ".used", [this] { return lastUsedWear; },
                 "wear counted against the budget at the last update");
    reg.addGauge(prefix + ".allowed",
                 [this] { return lastAllowedWear; },
                 "cumulative wear budget at the last update");
    reg.addGauge(prefix + ".clock_skew", [this] { return skew; },
                 "fault-injected clock multiplier (1 = honest)");
}

template <class Ar>
void
WearQuota::io(Ar &ar)
{
    ar.u64(slice);
    ar.f64(capacity);
    ar.flag(isEnabled, isRestricted);
    ar.u64(armTick);
    ar.f64(armWear);
    ar.u64(sliceStart);
    ar.f64(ratePerSec);
    ar.u64(nRestricted);
    ar.f64(skew, lastUsedWear, lastAllowedWear);
}

template void WearQuota::io(Serializer &);
template void WearQuota::io(Deserializer &);

} // namespace mct
