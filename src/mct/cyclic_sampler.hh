/**
 * @file
 * Cyclic fine-grained runtime sampling (paper Section 5.2).
 *
 * The sampling period of T instructions is divided into units of t
 * instructions; the schedule loops over all N sample configurations
 * T/(N*t) times so every sample experiences the same mix of bursty
 * and idle memory behavior. Per-sample statistics are accumulated
 * across a sample's units and reduced to the three objectives.
 */

#ifndef MCT_MCT_CYCLIC_SAMPLER_HH
#define MCT_MCT_CYCLIC_SAMPLER_HH

#include <vector>

#include "common/types.hh"
#include "memctrl/mellow_config.hh"
#include "sim/system.hh"

namespace mct
{

/** Accumulated deltas of several disjoint execution windows. */
struct WindowAccum
{
    Tick time = 0;
    InstCount insts = 0;
    std::uint64_t reads = 0;
    double writeEnergyUnits = 0.0;
    std::vector<double> wearDelta;

    /** Fold in the window between two snapshots. */
    void add(const SysSnapshot &from, const SysSnapshot &to);

    /** Reduce to the three objectives on the given system. */
    Metrics metrics(const System &sys) const;

    /** Checkpoint the accumulated window. */
    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.u64(time, insts, reads);
        ar.f64(writeEnergyUnits);
        ar.seq(wearDelta, [&ar](double &w) { ar.f64(w); });
    }
};

/** Sampling schedule parameters. */
struct CyclicSamplerParams
{
    /** Measured instructions per sampling unit (t). */
    InstCount unitInsts = 2000;

    /**
     * Instructions run after each configuration switch before the
     * measured unit starts. Without this, a configuration's deferred
     * costs (a write queue it filled cheaply) land in the next
     * sample's window and bias every measurement. The settle phase is
     * adaptive: it ends early once the write queue has drained, and
     * extends (up to maxSettleFactor * settleInsts) while a backlog
     * from the previous configuration persists.
     */
    InstCount settleInsts = 1000;

    /** Upper bound on adaptive settling, as a factor of settleInsts;
     *  1 disables the adaptive extension (empirically the fixed-length
     *  settle pairs better with the rotating anchor). */
    unsigned maxSettleFactor = 1;

    /** The write-queue level considered "drained" during settle. */
    unsigned settleDrainTarget = 4;

    /** Passes over the whole sample list (many small scattered units
     *  approximate the paper's T/(N*t) ~ 100 loops; raise this when
     *  the sampling budget allows — estimate quality grows with
     *  scattered coverage of the workload's bursts). */
    unsigned rounds = 4;

    /**
     * Sample order is re-shuffled every round so the schedule period
     * cannot alias against the workload's burst period (with a fixed
     * order, every sample would re-visit the same burst phase each
     * round).
     */
    std::uint64_t shuffleSeed = 99;
};

/**
 * Runs the schedule on a live system and reports per-sample
 * objectives plus the aggregate cost of the sampling period.
 */
class CyclicSampler
{
  public:
    CyclicSampler(System &system, const CyclicSamplerParams &params)
        : sys(system), p(params)
    {}

    /**
     * Execute the schedule: rounds x samples units of unitInsts each.
     * The system is left configured with the last sample.
     *
     * @return per-sample objectives, index-aligned with @p samples.
     */
    std::vector<Metrics> run(const std::vector<MellowConfig> &samples);

    /**
     * Like run(), but rotates an extra anchor configuration (the
     * normalization baseline, Section 4.4) through the same schedule
     * so its measurement sees the same burst mix as every sample.
     *
     * @return the anchor's objectives and the per-sample objectives.
     */
    std::pair<Metrics, std::vector<Metrics>> runWithAnchor(
        const MellowConfig &anchor,
        const std::vector<MellowConfig> &samples);

    /** Result of the paired schedule. */
    struct PairedResult
    {
        /** Pooled objectives per sample. */
        std::vector<Metrics> sample;

        /** Pooled objectives of each sample's adjacent anchor
         *  units (same burst mix as that sample's units). */
        std::vector<Metrics> pairedAnchor;

        /** Anchor pooled over the whole period (absolute scale). */
        Metrics anchor;
    };

    /**
     * Paired schedule: each sample unit is immediately preceded by an
     * anchor unit, so per-sample normalization divides out the burst
     * state both units shared. This is how short scaled-down sampling
     * periods recover the stability the paper gets from looping
     * T/(N*t) ~ 100 times over each sample.
     */
    PairedResult runPaired(const MellowConfig &anchor,
                           const std::vector<MellowConfig> &samples);

    /** Aggregate window over the whole last sampling period. */
    const WindowAccum &periodAccum() const { return period; }

    /** Total instructions the last run consumed. */
    InstCount instsUsed() const { return period.insts; }

  private:
    System &sys;
    CyclicSamplerParams p;
    WindowAccum period;

    /** Adaptive post-switch settling (see settleInsts). */
    void settle();
};

} // namespace mct

#endif // MCT_MCT_CYCLIC_SAMPLER_HH
