/**
 * @file
 * Deterministic fault-injection harness (the "chaos" half of the
 * robustness story; see docs/robustness.md).
 *
 * A FaultInjector executes a declarative FaultPlan against a live
 * System. Window faults (latency drift, bank degradation, wear-clock
 * skew) are applied to device/controller state when their instruction
 * window opens and reverted when it closes — polled from System::run,
 * so no component below the sim layer knows the injector exists.
 * Stochastic faults (counter corruption, predictor garbage) are
 * sampled on demand by the MCT runtime through the corrupt* hooks.
 *
 * Every draw comes from a private seeded Rng, so a given (plan, seed,
 * workload) triple reproduces the exact same fault sequence — chaos
 * runs are diffable evidence like every other run in this repo.
 */

#ifndef MCT_SIM_FAULT_INJECTOR_HH
#define MCT_SIM_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fault_plan.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace mct
{

class EventTrace;
class StatRegistry;
class System;
struct Metrics;
class Serializer;
class Deserializer;

/**
 * Drives a FaultPlan against a System. One injector serves one system;
 * attach it via System::attachFaultInjector.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan,
                           std::uint64_t seed = 1);

    const FaultPlan &plan() const { return plan_; }

    /** Follow a live instruction counter (timestamps + windows). */
    void setClock(const InstCount *instClock) { clock = instClock; }

    /** Record arm/clear transitions into @p t (null detaches). */
    void attachTrace(EventTrace *t) { trace = t; }

    /** Register fault.* counters/gauges. */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix = "fault");

    /**
     * Re-evaluate window faults at the current instruction count and
     * (re)apply device degradation and quota clock skew on
     * transitions. Called from System::run; cheap when nothing
     * changes.
     */
    void poll(System &sys);

    /**
     * CounterCorrupt hook: with an armed spec firing, scramble one or
     * more fields of @p m (NaN, Inf, sign flip, or a mag-scaled
     * outlier). Returns true when anything was corrupted.
     */
    bool corruptMetrics(Metrics &m);

    /** True while any PredictorGarbage spec is armed. */
    bool predictorGarbageArmed() const;

    /**
     * PredictorGarbage hook: scramble elements of a predicted ratio
     * vector. Returns the number of elements corrupted.
     */
    std::size_t corruptPredictions(std::vector<double> &ratios);

    /** True when the plan asks for sweep-cache corruption. */
    bool
    wantsSweepCorruption() const
    {
        return plan_.has(FaultKind::SweepCacheCorrupt);
    }

    /**
     * SweepCacheCorrupt hook: deterministically truncate and scramble
     * the file at @p path (missing files are left alone). Returns
     * true when the file was rewritten.
     */
    bool corruptCsvFile(const std::string &path);

    /** True when the plan asks for checkpoint corruption. */
    bool
    wantsCkptCorruption() const
    {
        return plan_.has(FaultKind::CkptCorrupt);
    }

    /**
     * CkptCorrupt hook: bit-flip or truncate the binary checkpoint at
     * @p path so its checksum can no longer verify (missing files are
     * left alone). Returns true when the file was rewritten.
     */
    bool corruptCheckpointFile(const std::string &path);

    /** Checkpoint the injector's RNG and arming state. */
    void serialize(Serializer &s) const;

    /** Restore state written by serialize() (same plan). */
    void deserialize(Deserializer &d);

    /** Times a window fault of @p kind armed / a stochastic one fired. */
    std::uint64_t injected(FaultKind kind) const;

    /** Sum of injected() over all kinds. */
    std::uint64_t injectedTotal() const;

    /** Number of currently armed specs. */
    std::size_t activeCount() const;

  private:
    FaultPlan plan_;
    Rng rng;
    const InstCount *clock = nullptr;
    EventTrace *trace = nullptr;
    std::vector<bool> wasActive;
    std::array<std::uint64_t, numFaultKinds> nInjected{};

    InstCount instNow() const { return clock ? *clock : 0; }

    template <class Ar>
    void io(Ar &ar);

    /** Armed specs of @p kind at the current instruction. */
    template <typename Fn>
    void
    forEachArmed(FaultKind kind, Fn &&fn) const
    {
        const InstCount inst = instNow();
        for (const auto &s : plan_.specs)
            if (s.kind == kind && s.activeAt(inst))
                fn(s);
    }

    /** Replace @p v with one corrupted value (shared helper). */
    double garbleValue(double v, double mag);
};

} // namespace mct

#endif // MCT_SIM_FAULT_INJECTOR_HH
