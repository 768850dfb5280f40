/**
 * @file
 * Unit tests for the Mellow-Writes memory controller: queue
 * priorities, drain hysteresis, write cancellation, bank-aware slow
 * writes, eager queue behavior, wear-quota enforcement, and wear /
 * energy accounting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "memctrl/controller.hh"

namespace mct
{
namespace
{

/** Address that decodes to the given bank (line 0 of some row). */
Addr
addrForBank(const NvmDevice &dev, unsigned bank, unsigned row = 0)
{
    // Rows are bank-interleaved: global row = row * numBanks + bank.
    const std::uint64_t lpr = dev.params().linesPerRow();
    const std::uint64_t line =
        (static_cast<std::uint64_t>(row) * dev.numBanks() + bank) * lpr;
    const Addr addr = line * lineBytes;
    EXPECT_EQ(dev.decode(addr).bank, bank);
    return addr;
}

struct Rig
{
    NvmDevice dev;
    MemController ctrl;

    explicit Rig(const MellowConfig &cfg = defaultConfig(),
                 const MemCtrlParams &mp = MemCtrlParams{})
        : dev(NvmParams{}), ctrl(dev, mp, cfg)
    {}

    /** Run until no request remains. */
    void
    drainAll()
    {
        while (!ctrl.idle()) {
            const Tick next = ctrl.nextEventTick();
            ASSERT_NE(next, MemController::noEvent);
            ctrl.advance(next == ctrl.now() ? next + 1 : next);
        }
    }
};

TEST(WearQuotaUnit, DisabledNeverRestricts)
{
    WearQuota q(1000, 1e6);
    q.configure(false, 8.0, 0, 0.0);
    q.update(100000, 1e9);
    EXPECT_FALSE(q.restricted());
}

TEST(WearQuotaUnit, RestrictsWhenOverBudget)
{
    WearQuota q(tickMs, 1e6);
    q.configure(true, 8.0, 0, 0.0);
    // Budget per second = 1e6 / (8 years in seconds): tiny. Any real
    // wear exceeds it.
    q.update(2 * tickMs, 100.0);
    EXPECT_TRUE(q.restricted());
    EXPECT_EQ(q.restrictedSlices(), 1u);
}

TEST(WearQuotaUnit, UnrestrictsOnceUnderBudget)
{
    WearQuota q(tickMs, 1e6);
    q.configure(true, 8.0, 0, 0.0);
    q.update(2 * tickMs, 100.0);
    ASSERT_TRUE(q.restricted());
    // Budget rate is 1e6 / (8 years) ~ 4e-3 wear/s: after 1e5
    // seconds the accrued budget (~400) legalizes the 100 wear.
    q.update(static_cast<Tick>(100000) * tickSec, 100.0);
    EXPECT_FALSE(q.restricted());
}

TEST(WearQuotaUnit, WearBeforeArmingDoesNotCount)
{
    WearQuota q(tickMs, 1e6);
    q.configure(true, 8.0, tickSec, 5000.0); // armed with prior wear
    q.update(tickSec + 2 * tickMs, 5000.0);  // no new wear
    EXPECT_FALSE(q.restricted());
}

TEST(WearQuotaUnit, BudgetRateScalesWithTarget)
{
    WearQuota a(tickMs, 1e6), b(tickMs, 1e6);
    a.configure(true, 4.0, 0, 0.0);
    b.configure(true, 8.0, 0, 0.0);
    EXPECT_NEAR(a.budgetRate() / b.budgetRate(), 2.0, 1e-12);
}

TEST(WearQuotaUnit, IdleGapCatchesUpInWholeSlices)
{
    // A long idle gap must advance the slice clock to the last whole
    // boundary (not to `now`), so the budget is computed at slice
    // granularity and mid-slice updates change nothing.
    WearQuota q(tickMs, 1e6);
    q.configure(true, 8.0, 0, 0.0);
    const Tick gap = 1000 * tickMs + tickMs / 2; // 1000.5 slices
    q.update(gap, 0.0);
    const double allowedAtBoundary =
        q.budgetRate() * (1000.0 * static_cast<double>(tickMs) /
                          static_cast<double>(tickSec));
    EXPECT_NEAR(q.lastAllowed(), allowedAtBoundary,
                1e-12 * allowedAtBoundary);
    // Still inside slice 1000: another update must not re-evaluate.
    q.update(gap + tickMs / 4, 1e9);
    EXPECT_NEAR(q.lastAllowed(), allowedAtBoundary,
                1e-12 * allowedAtBoundary);
    EXPECT_FALSE(q.restricted());
}

TEST(WearQuotaUnit, ReconfigureMidRunReArmsCleanly)
{
    WearQuota q(tickMs, 1e6);
    q.configure(true, 8.0, 0, 0.0);
    q.update(2 * tickMs, 100.0);
    ASSERT_TRUE(q.restricted());
    // Re-arm mid-run at the current wear level: restriction clears,
    // counters reset, and the old 100 units are never counted again.
    q.configure(true, 8.0, 2 * tickMs, 100.0);
    EXPECT_FALSE(q.restricted());
    EXPECT_DOUBLE_EQ(q.lastUsed(), 0.0);
    EXPECT_DOUBLE_EQ(q.lastAllowed(), 0.0);
    q.update(4 * tickMs, 100.0); // no new wear since re-arm
    EXPECT_FALSE(q.restricted());
    EXPECT_DOUBLE_EQ(q.lastUsed(), 0.0);
}

TEST(WearQuotaUnit, UsedWearNeverGoesNegative)
{
    // A corrupted (shrinking) device total must clamp to zero used
    // wear, never grant unbounded budget via a negative balance.
    WearQuota q(tickMs, 1e6);
    q.configure(true, 8.0, 0, 50.0);
    q.update(2 * tickMs, 10.0); // "less wear than at arming"
    EXPECT_DOUBLE_EQ(q.lastUsed(), 0.0);
    EXPECT_FALSE(q.restricted());
}

TEST(WearQuotaUnit, NonFiniteWearHoldsLastGoodReading)
{
    WearQuota q(tickMs, 1e6);
    q.configure(true, 8.0, 0, 0.0);
    q.update(2 * tickMs, 100.0);
    ASSERT_TRUE(q.restricted());
    const double used = q.lastUsed();
    q.update(4 * tickMs, std::nan(""));
    EXPECT_DOUBLE_EQ(q.lastUsed(), used); // held, not poisoned
    q.update(6 * tickMs,
             std::numeric_limits<double>::infinity());
    EXPECT_DOUBLE_EQ(q.lastUsed(), used);
    EXPECT_TRUE(std::isfinite(q.lastAllowed()));
}

TEST(WearQuotaUnit, NonFiniteWearAtArmingIsDiscarded)
{
    WearQuota q(tickMs, 1e6);
    q.configure(true, 8.0, 0, std::nan(""));
    q.update(2 * tickMs, 100.0); // counted from 0, not from NaN
    EXPECT_DOUBLE_EQ(q.lastUsed(), 100.0);
    EXPECT_TRUE(q.restricted());
}

TEST(WearQuotaUnit, ClockSkewClampsAndRestores)
{
    WearQuota q(tickMs, 1e6);
    q.setClockSkew(1e9);
    EXPECT_DOUBLE_EQ(q.clockSkew(), 100.0);
    q.setClockSkew(1e-9);
    EXPECT_DOUBLE_EQ(q.clockSkew(), 0.01);
    q.setClockSkew(std::nan(""));
    EXPECT_DOUBLE_EQ(q.clockSkew(), 1.0);
    q.setClockSkew(-3.0);
    EXPECT_DOUBLE_EQ(q.clockSkew(), 1.0);
}

TEST(WearQuotaUnit, SkewedClockInflatesBudget)
{
    // A fast-running quota clock (skew > 1) inflates the perceived
    // budget: wear that restricts an honest quota passes a skewed one.
    WearQuota honest(tickMs, 1e6), skewed(tickMs, 1e6);
    honest.configure(true, 8.0, 0, 0.0);
    skewed.configure(true, 8.0, 0, 0.0);
    skewed.setClockSkew(100.0);
    const Tick at = static_cast<Tick>(2000) * tickSec;
    const double wear = honest.budgetRate() * 2100.0; // > honest budget
    honest.update(at, wear);
    skewed.update(at, wear);
    EXPECT_TRUE(honest.restricted());
    EXPECT_FALSE(skewed.restricted());
}

TEST(MemController, ReadCompletesWithActivateLatency)
{
    Rig rig;
    const Addr a = addrForBank(rig.dev, 0);
    ASSERT_TRUE(rig.ctrl.submitRead(a, 0, 1));
    rig.drainAll();
    ASSERT_EQ(rig.ctrl.completedReads().size(), 1u);
    const auto [id, done] = rig.ctrl.completedReads()[0];
    EXPECT_EQ(id, 1u);
    const NvmParams &np = rig.dev.params();
    EXPECT_EQ(done, np.tRCD + np.tCAS + np.tBURST);
}

TEST(MemController, RowBufferHitIsFaster)
{
    Rig rig;
    const Addr a = addrForBank(rig.dev, 0);
    ASSERT_TRUE(rig.ctrl.submitRead(a, 0, 1));
    rig.drainAll();
    const Tick first = rig.ctrl.completedReads()[0].second;
    rig.ctrl.completedReads().clear();

    // Second read to the same row: open-page hit, no tRCD.
    ASSERT_TRUE(rig.ctrl.submitRead(a + lineBytes, first, 2));
    rig.drainAll();
    const Tick second = rig.ctrl.completedReads()[0].second;
    const NvmParams &np = rig.dev.params();
    EXPECT_EQ(second - first, np.tCAS + np.tBURST);
    EXPECT_EQ(rig.ctrl.stats().rowHits, 1u);
}

TEST(MemController, ReadsToSameBankSerialize)
{
    Rig rig;
    const Addr a = addrForBank(rig.dev, 0, 0);
    const Addr b = addrForBank(rig.dev, 0, 1); // different row, bank 0
    ASSERT_TRUE(rig.ctrl.submitRead(a, 0, 1));
    ASSERT_TRUE(rig.ctrl.submitRead(b, 0, 2));
    rig.drainAll();
    ASSERT_EQ(rig.ctrl.completedReads().size(), 2u);
    const Tick t1 = rig.ctrl.completedReads()[0].second;
    const Tick t2 = rig.ctrl.completedReads()[1].second;
    EXPECT_GT(t2, t1);
}

TEST(MemController, ReadsToDifferentBanksOverlap)
{
    Rig rig;
    ASSERT_TRUE(rig.ctrl.submitRead(addrForBank(rig.dev, 0), 0, 1));
    ASSERT_TRUE(rig.ctrl.submitRead(addrForBank(rig.dev, 1), 0, 2));
    rig.drainAll();
    const Tick t1 = rig.ctrl.completedReads()[0].second;
    const Tick t2 = rig.ctrl.completedReads()[1].second;
    EXPECT_EQ(t1, t2); // fully parallel banks
}

TEST(MemController, WriteTakesWritePulse)
{
    Rig rig;
    ASSERT_TRUE(rig.ctrl.submitWrite(addrForBank(rig.dev, 0), 0));
    rig.drainAll();
    EXPECT_EQ(rig.ctrl.stats().writesCompleted, 1u);
    EXPECT_EQ(rig.ctrl.stats().fastWrites, 1u);
    EXPECT_DOUBLE_EQ(rig.ctrl.stats().wearAdded, 1.0);
}

TEST(MemController, ReadPriorityOverQueuedWrite)
{
    Rig rig;
    const Addr a = addrForBank(rig.dev, 0, 0);
    const Addr b = addrForBank(rig.dev, 0, 1);
    // Fill bank 0 with one in-flight write, then queue another write
    // and a read; when the bank frees, the read must go first.
    ASSERT_TRUE(rig.ctrl.submitWrite(a, 0));
    ASSERT_TRUE(rig.ctrl.submitWrite(b, 0));
    ASSERT_TRUE(rig.ctrl.submitRead(a, 0, 7));
    rig.drainAll();
    ASSERT_EQ(rig.ctrl.completedReads().size(), 1u);
    const Tick readDone = rig.ctrl.completedReads()[0].second;
    // Read waits only for the first write, not both.
    const NvmParams &np = rig.dev.params();
    const Tick firstWrite = np.writePulse(1.0) + np.tBURST;
    EXPECT_LT(readDone, firstWrite + np.writePulse(1.0));
    EXPECT_GE(readDone, firstWrite);
}

TEST(MemController, WriteQueueRejectsWhenFull)
{
    MemCtrlParams mp;
    mp.writeQCap = 4;
    mp.drainHigh = 4;
    mp.drainLow = 2;
    Rig rig(defaultConfig(), mp);
    // Saturate one bank so nothing drains instantly.
    const Addr base = addrForBank(rig.dev, 0, 0);
    unsigned accepted = 0;
    for (unsigned i = 0; i < 10; ++i) {
        accepted += rig.ctrl.submitWrite(
            addrForBank(rig.dev, 0, i), 0);
    }
    (void)base;
    // One write issues immediately; capacity bounds the rest.
    EXPECT_LE(rig.ctrl.writeQSize(), 4u);
    EXPECT_GT(rig.ctrl.stats().writeQRejects, 0u);
    EXPECT_LT(accepted, 10u);
}

TEST(MemController, DrainHysteresis)
{
    MemCtrlParams mp;
    mp.writeQCap = 8;
    mp.drainHigh = 8;
    mp.drainLow = 2;
    Rig rig(defaultConfig(), mp);
    for (unsigned i = 0; i < 12; ++i)
        rig.ctrl.submitWrite(addrForBank(rig.dev, 0, i), 0);
    EXPECT_TRUE(rig.ctrl.draining());
    rig.drainAll();
    EXPECT_FALSE(rig.ctrl.draining());
}

TEST(MemController, BankAwareIssuesSlowWritesWhenQueueShallow)
{
    MellowConfig cfg;
    cfg.bankAware = true;
    cfg.bankAwareThreshold = 4;
    cfg.fastLatency = 1.0;
    cfg.slowLatency = 3.0;
    ASSERT_TRUE(cfg.valid());
    Rig rig(cfg);
    ASSERT_TRUE(rig.ctrl.submitWrite(addrForBank(rig.dev, 0), 0));
    rig.drainAll();
    EXPECT_EQ(rig.ctrl.stats().slowWrites, 1u);
    // Slow 3.0x write wears 1/9.
    EXPECT_NEAR(rig.ctrl.stats().wearAdded, 1.0 / 9.0, 1e-12);
}

TEST(MemController, BankAwareFallsBackToFastWhenBacklogged)
{
    MellowConfig cfg;
    cfg.bankAware = true;
    cfg.bankAwareThreshold = 1; // slow only when no other write waits
    cfg.fastLatency = 1.0;
    cfg.slowLatency = 3.0;
    Rig rig(cfg);
    for (unsigned i = 0; i < 6; ++i)
        rig.ctrl.submitWrite(addrForBank(rig.dev, 0, i), 0);
    rig.drainAll();
    // The backlogged writes go fast; only queue-empty issues go slow.
    EXPECT_GT(rig.ctrl.stats().fastWrites, 0u);
}

TEST(MemController, EagerWritesAreSlowAndLowestPriority)
{
    MellowConfig cfg;
    cfg.eagerWritebacks = true;
    cfg.eagerThreshold = 4;
    cfg.fastLatency = 1.0;
    cfg.slowLatency = 2.0;
    Rig rig(cfg);
    ASSERT_TRUE(rig.ctrl.submitEager(addrForBank(rig.dev, 0, 0), 0));
    ASSERT_TRUE(rig.ctrl.submitEager(addrForBank(rig.dev, 0, 1), 0));
    ASSERT_TRUE(rig.ctrl.submitWrite(addrForBank(rig.dev, 0, 2), 0));
    rig.drainAll();
    EXPECT_EQ(rig.ctrl.stats().eagerWrites, 2u);
    // Eager writes at 2.0x wear 0.25 each; demand write wears 1.0.
    EXPECT_NEAR(rig.ctrl.stats().wearAdded, 1.0 + 2 * 0.25, 1e-12);
}

TEST(MemController, EagerQueueRejectsWhenFull)
{
    MemCtrlParams mp;
    mp.eagerQCap = 2;
    Rig rig(staticBaselineConfig(), mp);
    unsigned ok = 0;
    for (unsigned i = 0; i < 6; ++i)
        ok += rig.ctrl.submitEager(addrForBank(rig.dev, 0, i), 0);
    EXPECT_LE(rig.ctrl.eagerQSize(), 2u);
    EXPECT_GT(rig.ctrl.stats().eagerQRejects, 0u);
    EXPECT_LT(ok, 6u);
}

TEST(MemController, CancellationAbortsSlowWriteForRead)
{
    MellowConfig cfg;
    cfg.bankAware = true;
    cfg.bankAwareThreshold = 4;
    cfg.fastLatency = 1.0;
    cfg.slowLatency = 4.0;
    cfg.slowCancellation = true;
    Rig rig(cfg);
    const NvmParams &np = rig.dev.params();
    // Start a 4x write (600 ns) on bank 0 at t=0.
    ASSERT_TRUE(rig.ctrl.submitWrite(addrForBank(rig.dev, 0, 0), 0));
    // A read arrives at 100 ns: the write is cancelled, the read runs.
    ASSERT_TRUE(
        rig.ctrl.submitRead(addrForBank(rig.dev, 0, 1), 100 * tickNs, 9));
    rig.drainAll();
    ASSERT_EQ(rig.ctrl.stats().cancellations, 1u);
    const Tick readDone = rig.ctrl.completedReads()[0].second;
    EXPECT_EQ(readDone, 100 * tickNs + np.tRCD + np.tCAS + np.tBURST);
    // The write still completed afterwards (requeued).
    EXPECT_EQ(rig.ctrl.stats().writesCompleted, 1u);
    // Wear: partial progress of the aborted pulse plus a full redo.
    EXPECT_GT(rig.ctrl.stats().wearAdded,
              NvmParams::wearOfWrite(4.0));
}

TEST(MemController, NoCancellationWithoutPermission)
{
    MellowConfig cfg; // fast writes, no cancellation
    Rig rig(cfg);
    const NvmParams &np = rig.dev.params();
    ASSERT_TRUE(rig.ctrl.submitWrite(addrForBank(rig.dev, 0, 0), 0));
    ASSERT_TRUE(
        rig.ctrl.submitRead(addrForBank(rig.dev, 0, 1), 10 * tickNs, 4));
    rig.drainAll();
    EXPECT_EQ(rig.ctrl.stats().cancellations, 0u);
    // Read waited for the full write pulse.
    const Tick readDone = rig.ctrl.completedReads()[0].second;
    EXPECT_GE(readDone,
              np.writePulse(1.0) + np.tBURST + np.tRCD + np.tCAS);
}

TEST(MemController, NearlyFinishedWritesAreNotCancelled)
{
    MellowConfig cfg;
    cfg.fastCancellation = true;
    cfg.fastLatency = 1.0;
    Rig rig(cfg);
    const NvmParams &np = rig.dev.params();
    ASSERT_TRUE(rig.ctrl.submitWrite(addrForBank(rig.dev, 0, 0), 0));
    // Write finishes at 170 ns; a read at 160 ns is within the final
    // 25% of the pulse and must not cancel it.
    const Tick late = np.writePulse(1.0) + np.tBURST - 10 * tickNs;
    ASSERT_TRUE(rig.ctrl.submitRead(addrForBank(rig.dev, 0, 1), late, 5));
    rig.drainAll();
    EXPECT_EQ(rig.ctrl.stats().cancellations, 0u);
}

TEST(MemController, QuotaRestrictionForcesSlowestWrites)
{
    MellowConfig cfg;
    cfg.wearQuota = true;
    cfg.wearQuotaTarget = 10.0;
    MemCtrlParams mp;
    mp.quotaSliceTicks = 10 * tickUs;
    NvmDevice dev{NvmParams{}};
    MemController ctrl(dev, mp, cfg);

    // Burn way past the budget, then cross a slice boundary.
    Tick t = 0;
    for (unsigned row = 0; row < 200; ++row) {
        while (!ctrl.submitWrite(addrForBank(dev, row % 16, row / 16), t))
            t = ctrl.nextEventTick();
        ctrl.advance(t);
    }
    while (!ctrl.idle())
        ctrl.advance(ctrl.nextEventTick());
    // Next slice: restricted; writes complete at 4x.
    const Tick afterSlice = ctrl.now() + 2 * mp.quotaSliceTicks;
    ctrl.advance(afterSlice);
    ASSERT_TRUE(ctrl.submitWrite(addrForBank(dev, 0, 500), afterSlice));
    while (!ctrl.idle())
        ctrl.advance(ctrl.nextEventTick());
    EXPECT_GT(ctrl.stats().quotaWrites, 0u);
}

TEST(MellowConfig, ValidRejectsNaNFields)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    MellowConfig fast;
    fast.fastLatency = nan;
    EXPECT_FALSE(fast.valid());

    MellowConfig slow;
    slow.bankAware = true;
    slow.slowLatency = 3.0;
    ASSERT_TRUE(slow.valid());
    slow.slowLatency = nan;
    EXPECT_FALSE(slow.valid());
    slow.slowLatency = 3.0;
    slow.fastLatency = nan;
    EXPECT_FALSE(slow.valid());

    MellowConfig quota;
    quota.wearQuota = true;
    ASSERT_TRUE(quota.valid());
    quota.wearQuotaTarget = nan;
    EXPECT_FALSE(quota.valid());
}

TEST(MemController, SetConfigRejectsInvalid)
{
    Rig rig;
    MellowConfig bad;
    bad.fastLatency = 9.0;
    EXPECT_FALSE(bad.valid());
    // mct_fatal exits; only verify valid() guards here.
    MellowConfig good = staticBaselineConfig();
    EXPECT_TRUE(good.valid());
    rig.ctrl.setConfig(good, rig.ctrl.now());
    EXPECT_EQ(rig.ctrl.config(), good);
}

TEST(MemController, StatsDeltaSubtracts)
{
    Rig rig;
    ASSERT_TRUE(rig.ctrl.submitWrite(addrForBank(rig.dev, 0), 0));
    rig.drainAll();
    const CtrlStats snap = rig.ctrl.stats();
    ASSERT_TRUE(
        rig.ctrl.submitWrite(addrForBank(rig.dev, 1), rig.ctrl.now()));
    rig.drainAll();
    const CtrlStats d = rig.ctrl.stats().delta(snap);
    EXPECT_EQ(d.writesCompleted, 1u);
    EXPECT_DOUBLE_EQ(d.wearAdded, 1.0);
}

TEST(MemController, IdleAndNextEvent)
{
    Rig rig;
    EXPECT_TRUE(rig.ctrl.idle());
    EXPECT_EQ(rig.ctrl.nextEventTick(), MemController::noEvent);
    rig.ctrl.submitRead(addrForBank(rig.dev, 0), 0, 1);
    EXPECT_FALSE(rig.ctrl.idle());
    EXPECT_NE(rig.ctrl.nextEventTick(), MemController::noEvent);
}

TEST(MemController, AvgReadLatencyTracksCompletion)
{
    Rig rig;
    rig.ctrl.submitRead(addrForBank(rig.dev, 0), 0, 1);
    rig.drainAll();
    const NvmParams &np = rig.dev.params();
    EXPECT_DOUBLE_EQ(rig.ctrl.stats().avgReadLatency(),
                     static_cast<double>(np.tRCD + np.tCAS + np.tBURST));
}

TEST(MemController, WriteEnergyUnitsFollowLaw)
{
    MellowConfig cfg;
    cfg.bankAware = true;
    cfg.bankAwareThreshold = 4;
    cfg.slowLatency = 2.0;
    Rig rig(cfg);
    rig.ctrl.submitWrite(addrForBank(rig.dev, 0), 0);
    rig.drainAll();
    // One slow write at ratio 2: energy unit 2^-0.35.
    EXPECT_NEAR(rig.ctrl.stats().writeEnergyUnits,
                std::pow(2.0, -0.35), 1e-12);
}

TEST(MemController, TFawThrottlesActivationBursts)
{
    // Five row activations to five banks at t=0: the fifth must wait
    // for the tFAW window of the first four.
    Rig rig;
    const NvmParams &np = rig.dev.params();
    for (unsigned b = 0; b < 5; ++b)
        ASSERT_TRUE(rig.ctrl.submitRead(addrForBank(rig.dev, b), 0,
                                        b + 1));
    rig.drainAll();
    ASSERT_EQ(rig.ctrl.completedReads().size(), 5u);
    Tick last = 0;
    for (const auto &[id, done] : rig.ctrl.completedReads())
        last = std::max(last, done);
    // Unthrottled, all five would finish together at ~142.5 ns; the
    // tFAW (50 ns) delays the fifth activation.
    EXPECT_GE(last, np.tFAW + np.tRCD + np.tCAS + np.tBURST);
}

TEST(MemController, EagerNeverBeatsQueuedWrite)
{
    MellowConfig cfg = staticBaselineConfig();
    cfg.wearQuota = false;
    Rig rig(cfg);
    // Same bank: an eager entry enqueued BEFORE a demand writeback
    // must still lose to it once the bank frees.
    ASSERT_TRUE(rig.ctrl.submitWrite(addrForBank(rig.dev, 3, 0), 0));
    ASSERT_TRUE(rig.ctrl.submitEager(addrForBank(rig.dev, 3, 1), 0));
    ASSERT_TRUE(rig.ctrl.submitWrite(addrForBank(rig.dev, 3, 2), 0));
    rig.drainAll();
    // All three complete; the eager one is the slow-latency one and
    // completes last (lowest priority).
    EXPECT_EQ(rig.ctrl.stats().writesCompleted, 3u);
    EXPECT_EQ(rig.ctrl.stats().eagerWrites, 1u);
}

class ConfigValidity
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(ConfigValidity, SlowMustBeAtLeastFast)
{
    const auto [fast, slow] = GetParam();
    MellowConfig cfg;
    cfg.bankAware = true;
    cfg.fastLatency = fast;
    cfg.slowLatency = slow;
    EXPECT_EQ(cfg.valid(), slow >= fast && fast >= 1.0 && slow <= 4.0);
}

INSTANTIATE_TEST_SUITE_P(
    LatencyPairs, ConfigValidity,
    ::testing::Values(std::make_tuple(1.0, 1.0),
                      std::make_tuple(1.0, 4.0),
                      std::make_tuple(2.0, 1.5),
                      std::make_tuple(3.5, 4.0),
                      std::make_tuple(4.0, 4.0),
                      std::make_tuple(1.5, 1.0)));

} // namespace
} // namespace mct
