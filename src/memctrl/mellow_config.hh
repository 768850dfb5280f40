/**
 * @file
 * The combined Mellow-Writes technique configuration (paper Section
 * 3.1, Tables 2 and 3). This is the raw knob set consumed by the
 * memory controller and the cache hierarchy; the learning framework's
 * 10-dimensional vector encoding wraps this struct (mct/config.hh).
 */

#ifndef MCT_MEMCTRL_MELLOW_CONFIG_HH
#define MCT_MEMCTRL_MELLOW_CONFIG_HH

namespace mct
{

/**
 * One point in the combined-technique configuration space.
 *
 * Constraints (paper Section 3.3.1):
 *  - technique parameters are meaningful only when the technique is
 *    enabled;
 *  - slowLatency >= fastLatency;
 *  - fastCancellation == true forces slowCancellation == true.
 */
struct MellowConfig
{
    /** Bank-Aware Mellow Writes enabled. */
    bool bankAware = false;

    /** Issue slow writes while the bank's write-queue backlog is
     *  below this many entries (1..4). */
    int bankAwareThreshold = 1;

    /** Eager Mellow Writes (eager writeback of dead LLC lines). */
    bool eagerWritebacks = false;

    /** Dead-position rule: the N LRU-end stack positions qualify for
     *  eager writeback when they receive < 1/eagerThreshold of hits
     *  (4..32). */
    int eagerThreshold = 4;

    /** Wear Quota enabled (the lifetime-guarantee fixup). */
    bool wearQuota = false;

    /** Wear Quota target lifetime in years (4..10). */
    double wearQuotaTarget = 8.0;

    /** Latency ratio of fast (normal) writes, 1.0..4.0. */
    double fastLatency = 1.0;

    /** Latency ratio of slow (mellow) writes, fastLatency..4.0. */
    double slowLatency = 1.0;

    /** Write cancellation applies to fast writes. */
    bool fastCancellation = false;

    /** Write cancellation applies to slow writes. */
    bool slowCancellation = false;

    /**
     * Extension beyond the paper's enumerated space: pause in-flight
     * writes for arriving reads instead of cancelling them (Qureshi
     * et al., HPCA'10 write pausing). Pausing preserves the work done
     * so far (no wasted wear) at slightly higher write completion
     * latency. Applies wherever cancellation would apply.
     */
    bool pauseInsteadOfCancel = false;

    /**
     * Extension (Table 1, write latency vs retention): issue normal
     * and slow writes with shortened pulses at the cost of periodic
     * scrub refreshes of the written rows.
     */
    bool shortRetentionWrites = false;

    /**
     * Extension (Table 1, read latency vs read disturbance): serve
     * row activations with the fast, disturbing read; rows scrub
     * after NvmParams::disturbThreshold fast reads.
     */
    bool fastDisturbingReads = false;

    /** The ratio forced during a wear-quota restricted slice. */
    static constexpr double quotaRatio = 4.0;

    /**
     * True when the configuration satisfies all constraints. Each
     * range is written as the test it must pass, so NaN fails it.
     */
    bool
    valid() const
    {
        if (!(fastLatency >= 1.0 && fastLatency <= 4.0))
            return false;
        if (usesSlowWrites() &&
            !(slowLatency >= fastLatency && slowLatency <= 4.0)) {
            return false;
        }
        if (fastCancellation && usesSlowWrites() && !slowCancellation)
            return false;
        if (bankAware &&
            (bankAwareThreshold < 1 || bankAwareThreshold > 4)) {
            return false;
        }
        if (eagerWritebacks && (eagerThreshold < 4 || eagerThreshold > 32))
            return false;
        if (wearQuota && !(wearQuotaTarget >= 4.0 && wearQuotaTarget <= 10.0))
            return false;
        return true;
    }

    /** True when any enabled technique issues slow writes. */
    bool
    usesSlowWrites() const
    {
        return bankAware || eagerWritebacks;
    }

    bool operator==(const MellowConfig &) const = default;

    /** Checkpoint every knob. */
    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.flag(bankAware);
        ar.i64(bankAwareThreshold);
        ar.flag(eagerWritebacks);
        ar.i64(eagerThreshold);
        ar.flag(wearQuota);
        ar.f64(wearQuotaTarget, fastLatency, slowLatency);
        ar.flag(fastCancellation, slowCancellation, pauseInsteadOfCancel,
                shortRetentionWrites, fastDisturbingReads);
    }
};

/** The paper's "default" system: fast writes only, no techniques. */
MellowConfig inline
defaultConfig()
{
    return MellowConfig{};
}

/**
 * The paper's "best static policy" (Table 5/10 row "static"):
 * bank-aware(1) + eager(32) + wear quota(8y), fast 1.0, slow 3.0,
 * cancellation on slow writes only.
 */
MellowConfig inline
staticBaselineConfig()
{
    MellowConfig c;
    c.bankAware = true;
    c.bankAwareThreshold = 1;
    c.eagerWritebacks = true;
    c.eagerThreshold = 32;
    c.wearQuota = true;
    c.wearQuotaTarget = 8.0;
    c.fastLatency = 1.0;
    c.slowLatency = 3.0;
    c.fastCancellation = false;
    c.slowCancellation = true;
    return c;
}

} // namespace mct

#endif // MCT_MEMCTRL_MELLOW_CONFIG_HH
