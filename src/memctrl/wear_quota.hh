/**
 * @file
 * Wear Quota (paper Section 3.1, from Mellow Writes ISCA'16).
 *
 * Execution is divided into small time slices and each slice is
 * granted a wear budget consistent with the target lifetime. If, at a
 * slice boundary, the cumulative wear since the quota was armed
 * exceeds the cumulative budget, the entire next slice is restricted:
 * every write is issued with the slowest (4x) latency and write
 * cancellation is enforced so reads are not penalized.
 */

#ifndef MCT_MEMCTRL_WEAR_QUOTA_HH
#define MCT_MEMCTRL_WEAR_QUOTA_HH

#include <string>

#include "common/types.hh"

namespace mct
{

class EventTrace;
class StatRegistry;

/**
 * Tracks the per-slice wear budget and the restricted/unrestricted
 * state machine.
 */
class WearQuota
{
  public:
    /**
     * @param sliceTicks Length of one quota slice.
     * @param totalWearCapacity Fast-write-equivalent wear the whole
     *        device can absorb (sum over banks, after leveling
     *        efficiency).
     */
    WearQuota(Tick sliceTicks, double totalWearCapacity);

    /**
     * Arm or disarm the quota. Wear accumulated before arming does not
     * count against the budget.
     *
     * @param enabled Whether the technique is active.
     * @param targetYears Target lifetime used to size the budget.
     * @param now Current tick.
     * @param currentWear Device total wear at this instant.
     */
    void configure(bool enabled, double targetYears, Tick now,
                   double currentWear);

    /**
     * Advance the slice state machine to @p now. Called by the
     * controller before making issue decisions.
     */
    void update(Tick now, double currentWear);

    /** True while the current slice is restricted to 4x writes. */
    bool restricted() const { return isRestricted; }

    /** True when the technique is armed. */
    bool enabled() const { return isEnabled; }

    /** Number of restricted slices entered so far (statistics). */
    std::uint64_t restrictedSlices() const { return nRestricted; }

    /** Allowed wear per second for the configured target. */
    double budgetRate() const { return ratePerSec; }

    /** Wear counted against the budget at the last update. */
    double lastUsed() const { return lastUsedWear; }

    /** Cumulative budget at the last update. */
    double lastAllowed() const { return lastAllowedWear; }

    /**
     * Fault-injection hook: multiply the quota's perceived elapsed
     * time by @p factor (clamped to [0.01, 100]; non-finite restores
     * 1.0). A skewed clock inflates or starves the budget — the MCT
     * runtime's emergency clamp must catch the resulting overdraw.
     */
    void setClockSkew(double factor);

    /** Current clock-skew factor (1.0 = honest clock). */
    double clockSkew() const { return skew; }

    /** Record restricted/unrestricted transitions into @p t (may be
     *  null to detach). */
    void attachTrace(EventTrace *t) { trace = t; }

    /** Register quota state under @p prefix (e.g. "memctrl.quota"). */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    /** Checkpoint the budget clocks and restriction state machine. */
    template <class Ar>
    void io(Ar &ar);

  private:
    Tick slice;
    double capacity;
    bool isEnabled = false;
    bool isRestricted = false;
    Tick armTick = 0;
    double armWear = 0.0;
    Tick sliceStart = 0;
    double ratePerSec = 0.0;
    std::uint64_t nRestricted = 0;
    double skew = 1.0;
    double lastUsedWear = 0.0;
    double lastAllowedWear = 0.0;
    EventTrace *trace = nullptr;
};

} // namespace mct

#endif // MCT_MEMCTRL_WEAR_QUOTA_HH
