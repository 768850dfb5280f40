/**
 * @file
 * Lockstep differential test of the memory controller. The production
 * MemController and the frozen reference in tests/ref (which rescans
 * every bank on every event) each drive their own NvmDevice through
 * the same calls. After every call the return value, the completed
 * reads, the event and queue observers, every statistic and the
 * checkpoint bytes of both controllers and both devices must agree.
 *
 * Two kinds of call streams run over a grid of configurations: seeded
 * random calls (bursts at one tick, jumps past the retention deadline,
 * addresses packed on a few banks and rows) and the miss and writeback
 * streams of real workloads through a cache hierarchy. Every few
 * thousand steps the production side is checkpointed into fresh
 * instances, so a restore that forgets its derived state fails too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "memctrl/controller.hh"
#include "ref/ref_controller.hh"
#include "workloads/workload.hh"

namespace mct
{
namespace
{

/** Steps between checkpoint round trips of the production side. */
constexpr std::uint64_t roundTripEvery = 2500;

/** One point of the configuration grid. */
struct Case
{
    std::string name;
    MellowConfig cfg;
    NvmParams nvm;
    MemCtrlParams mp;
    int degradedBank = -1;
    double clockSkew = 1.0;
};

/** Default geometry with a short retention deadline, so scrubs come
 *  due within a run of a few thousand calls. */
NvmParams
lockstepNvm()
{
    NvmParams p;
    p.retentionTime = 40 * tickUs;
    return p;
}

/** A 4 MB device: fast disturbing reads allocate a per-row table,
 *  and a small one keeps the per-call checkpoint comparison cheap. */
NvmParams
smallNvm()
{
    NvmParams p = lockstepNvm();
    p.capacityBytes = 4ULL << 20;
    return p;
}

std::vector<Case>
grid()
{
    std::vector<Case> g;
    const auto add = [&g](const std::string &name, MellowConfig cfg) {
        Case c;
        c.name = name;
        c.cfg = cfg;
        c.nvm = cfg.fastDisturbingReads ? smallNvm() : lockstepNvm();
        EXPECT_TRUE(cfg.valid()) << name;
        g.push_back(c);
        return &g.back();
    };
    add("default", defaultConfig());
    add("static", staticBaselineConfig());

    MellowConfig c = defaultConfig();
    c.fastCancellation = true;
    add("fast-cancellation", c);

    c = defaultConfig();
    c.bankAware = true;
    c.bankAwareThreshold = 2;
    c.slowLatency = 2.0;
    c.slowCancellation = true;
    add("slow-cancellation", c);

    c = defaultConfig();
    c.fastCancellation = true;
    c.pauseInsteadOfCancel = true;
    add("pause", c);

    c = defaultConfig();
    c.bankAware = true;
    c.bankAwareThreshold = 3;
    c.slowLatency = 3.0;
    add("bank-aware", c);

    c = defaultConfig();
    c.eagerWritebacks = true;
    c.eagerThreshold = 4;
    c.slowLatency = 2.5;
    add("eager", c);

    c = defaultConfig();
    c.wearQuota = true;
    c.wearQuotaTarget = 8.0;
    add("wear-quota", c)->mp.quotaSliceTicks = tickUs;

    c = defaultConfig();
    c.shortRetentionWrites = true;
    add("short-retention", c);

    c = defaultConfig();
    c.fastDisturbingReads = true;
    add("fast-disturbing-reads", c);

    c = defaultConfig();
    c.bankAware = true;
    c.bankAwareThreshold = 2;
    c.eagerWritebacks = true;
    c.eagerThreshold = 8;
    c.wearQuota = true;
    c.wearQuotaTarget = 6.0;
    c.fastLatency = 1.5;
    c.slowLatency = 3.0;
    c.fastCancellation = true;
    c.slowCancellation = true;
    c.pauseInsteadOfCancel = true;
    c.shortRetentionWrites = true;
    c.fastDisturbingReads = true;
    add("all-on", c)->mp.quotaSliceTicks = 2 * tickUs;

    c = staticBaselineConfig();
    c.shortRetentionWrites = true;
    add("32-bank", c)->nvm.numBanks = 32;

    Case *d = add("degraded-skewed", staticBaselineConfig());
    d->degradedBank = 3;
    d->clockSkew = 4.0;
    return g;
}

/** A device and its controller, kept together so the pair can be
 *  replaced by a checkpoint round trip. */
template <class Ctrl>
struct Side
{
    std::unique_ptr<NvmDevice> dev;
    std::unique_ptr<Ctrl> ctrl;

    explicit Side(const Case &c)
        : dev(std::make_unique<NvmDevice>(c.nvm)),
          ctrl(std::make_unique<Ctrl>(*dev, c.mp, c.cfg))
    {
        if (c.degradedBank >= 0)
            dev->setBankDegradation(c.degradedBank, 2.5, 1.5);
        ctrl->setQuotaClockSkew(c.clockSkew);
    }

    /** The checkpoint bytes of the device and then the controller. */
    std::string
    bytes()
    {
        Serializer s;
        dev->io(s);
        ctrl->io(s);
        return std::string(s.data());
    }
};

/** Mechanism counts summed over every run, so the grid cannot pass
 *  without exercising each path. */
struct Coverage
{
    std::uint64_t rowHits = 0, cancellations = 0, pauses = 0;
    std::uint64_t drainBursts = 0, rejects = 0, scrubs = 0;
    std::uint64_t roundTrips = 0;

    void
    add(const CtrlStats &s)
    {
        rowHits += s.rowHits;
        cancellations += s.cancellations;
        pauses += s.pausedWrites;
        rejects += s.readQRejects + s.writeQRejects + s.eagerQRejects;
        scrubs += s.scrubWrites;
    }
};

constexpr std::pair<const char *, std::uint64_t CtrlStats::*> u64Stats[] = {
    {"readsCompleted", &CtrlStats::readsCompleted},
    {"rowHits", &CtrlStats::rowHits},
    {"writesCompleted", &CtrlStats::writesCompleted},
    {"fastWrites", &CtrlStats::fastWrites},
    {"slowWrites", &CtrlStats::slowWrites},
    {"quotaWrites", &CtrlStats::quotaWrites},
    {"eagerWrites", &CtrlStats::eagerWrites},
    {"cancellations", &CtrlStats::cancellations},
    {"pausedWrites", &CtrlStats::pausedWrites},
    {"scrubWrites", &CtrlStats::scrubWrites},
    {"readQRejects", &CtrlStats::readQRejects},
    {"writeQRejects", &CtrlStats::writeQRejects},
    {"eagerQRejects", &CtrlStats::eagerQRejects},
    {"readLatencySum", &CtrlStats::readLatencySum},
    {"bankBusyTicks", &CtrlStats::bankBusyTicks},
};

constexpr std::pair<const char *, double CtrlStats::*> f64Stats[] = {
    {"wearAdded", &CtrlStats::wearAdded},
    {"writeEnergyUnits", &CtrlStats::writeEnergyUnits},
};

/**
 * Drives the production controller and the reference side by side.
 * Every call is one step; the first disagreement is kept in failure()
 * and every later call is a no-op.
 */
class Lockstep
{
  public:
    Lockstep(const Case &c, Coverage &coverage)
        : kase(c), cov(coverage), prod(c), ref(c)
    {}

    bool ok() const { return failure_.empty(); }
    const std::string &failure() const { return failure_; }
    Tick now() const { return prod.ctrl->now(); }
    bool idle() const { return prod.ctrl->idle(); }
    const MellowConfig &config() const { return prod.ctrl->config(); }
    unsigned eagerFree() const { return prod.ctrl->eagerFree(); }

    bool
    submitRead(Addr a, Tick t)
    {
        const std::uint64_t id = nextId++;
        return call("submitRead", a, t, [&](auto &c) {
            return c.submitRead(a, t, id);
        });
    }

    bool
    submitWrite(Addr a, Tick t)
    {
        return call("submitWrite", a, t,
                    [&](auto &c) { return c.submitWrite(a, t); });
    }

    bool
    submitEager(Addr a, Tick t)
    {
        return call("submitEager", a, t,
                    [&](auto &c) { return c.submitEager(a, t); });
    }

    void
    advance(Tick t)
    {
        call("advance", 0, t, [&](auto &c) {
            c.advance(t);
            return true;
        });
    }

    void
    setConfig(const MellowConfig &cfg, Tick t)
    {
        call("setConfig", 0, t, [&](auto &c) {
            c.setConfig(cfg, t);
            return true;
        });
    }

    /** The core's wait step: advance to the next event. False when
     *  there is none (the core would panic there). */
    bool
    pump()
    {
        if (!ok() || prod.ctrl->nextEventTick() == MemController::noEvent)
            return false;
        call("pump", 0, 0, [](auto &c) {
            const Tick next = c.nextEventTick();
            c.advance(next == c.now() ? next + 1 : next);
            return true;
        });
        return ok();
    }

    /** Drain until nothing is queued or in flight. */
    void
    drain()
    {
        while (ok() && !idle() && pump()) {
        }
    }

    /** Counted into the coverage once the run is over. */
    void finishRun() { cov.add(prod.ctrl->stats()); }

  private:
    const Case &kase;
    Coverage &cov;
    Side<MemController> prod;
    Side<ref::MemController> ref;
    std::uint64_t step = 0;
    std::uint64_t nextId = 1;
    bool wasDraining = false;
    std::string failure_;

    /** The call being compared, for the failure message. */
    struct Call
    {
        const char *name = "";
        Addr addr = 0;
        Tick tick = 0;
    } lastCall;

    template <class Fn>
    bool
    call(const char *name, Addr a, Tick t, Fn &&fn)
    {
        if (!ok())
            return false;
        ++step;
        const bool gotProd = fn(*prod.ctrl);
        const bool gotRef = fn(*ref.ctrl);
        lastCall = {name, a, t};
        compare(gotProd, gotRef);
        if (ok() && step % roundTripEvery == 0)
            roundTrip();
        return gotProd;
    }

    /** Keep the first failure, naming the config, step and call. */
    void
    fail(const std::string &what)
    {
        std::ostringstream os;
        os << "config '" << kase.name << "', step " << step << ", call "
           << lastCall.name << "(addr 0x" << std::hex << lastCall.addr
           << std::dec << ", t " << lastCall.tick << "): " << what;
        failure_ = os.str();
    }

    template <class T>
    bool
    same(const char *field, const T &got, const T &want)
    {
        if (got == want)
            return true;
        std::ostringstream os;
        os << field << " differs: production " << got << ", reference " << want;
        fail(os.str());
        return false;
    }

    void
    compare(bool gotProd, bool gotRef)
    {
        MemController &p = *prod.ctrl;
        ref::MemController &r = *ref.ctrl;
        if (!same("return value", gotProd, gotRef) ||
            !same("completedReads().size()",
                  p.completedReads().size(), r.completedReads().size()))
            return;
        for (std::size_t i = 0; i < p.completedReads().size(); ++i) {
            if (!same("completedReads() id",
                      p.completedReads()[i].first,
                      r.completedReads()[i].first) ||
                !same("completedReads() tick",
                      p.completedReads()[i].second,
                      r.completedReads()[i].second))
                return;
        }
        p.completedReads().clear();
        r.completedReads().clear();
        if (!same("nextEventTick()", p.nextEventTick(),
                  r.nextEventTick()) ||
            !same("now()", p.now(), r.now()) ||
            !same("idle()", p.idle(), r.idle()) ||
            !same("draining()", p.draining(), r.draining()) ||
            !same("eagerFree()", p.eagerFree(), r.eagerFree()) ||
            !same("readQSize()", p.readQSize(), r.readQSize()) ||
            !same("writeQSize()", p.writeQSize(), r.writeQSize()) ||
            !same("eagerQSize()", p.eagerQSize(), r.eagerQSize()))
            return;
        for (const auto &[field, member] : u64Stats) {
            if (!same(field, p.stats().*member, r.stats().*member))
                return;
        }
        for (const auto &[field, member] : f64Stats) {
            if (!same(field,
                      std::bit_cast<std::uint64_t>(p.stats().*member),
                      std::bit_cast<std::uint64_t>(r.stats().*member)))
                return;
        }
        const std::string pb = prod.bytes();
        const std::string rb = ref.bytes();
        if (pb != rb) {
            const auto at = std::mismatch(pb.begin(), pb.end(), rb.begin(),
                                          rb.end()).first - pb.begin();
            fail("checkpoint bytes differ from offset " +
                 std::to_string(at) + " (production " +
                 std::to_string(pb.size()) + " bytes, reference " +
                 std::to_string(rb.size()) + ")");
            return;
        }
        if (p.draining() && !wasDraining)
            ++cov.drainBursts;
        wasDraining = p.draining();
    }

    /** Restore the production side from its own checkpoint into fresh
     *  instances and carry on with those. */
    void
    roundTrip()
    {
        const std::string bytes = prod.bytes();
        Side<MemController> fresh(kase);
        Deserializer d(bytes);
        fresh.dev->io(d);
        fresh.ctrl->io(d);
        if (!d.atEnd()) {
            fail("the checkpoint did not read back whole");
            return;
        }
        prod = std::move(fresh);
        ++cov.roundTrips;
    }
};

/** Address of a line in (@p bank, @p row) of a device of @p p. */
Addr
addrOf(const NvmParams &p, std::uint64_t bank, std::uint64_t row,
       std::uint64_t line)
{
    const std::uint64_t rowGlobal = row * p.numBanks + bank;
    return (rowGlobal * p.linesPerRow() + line) * lineBytes;
}

/**
 * Seeded random calls. Time never goes back; it stands still for
 * bursts and now and then jumps past the retention deadline.
 */
void
runRandom(const Case &c, std::uint64_t seed, std::uint64_t calls,
          Coverage &cov)
{
    Lockstep ls(c, cov);
    Rng rng(seed);
    const std::vector<Case> configs = grid();
    Tick t = 0;
    const auto addr = [&] {
        if (rng.flip(0.65)) {
            return addrOf(c.nvm, rng.below(3), rng.below(3),
                          rng.below(c.nvm.linesPerRow()));
        }
        return rng.below(2 * c.nvm.capacityBytes / lineBytes) * lineBytes;
    };
    std::uint64_t burst = 0;
    for (std::uint64_t i = 0; i < calls && ls.ok(); ++i) {
        // A burst submits at one tick with no pump in between, so the
        // queues fill: drains and rejects.
        if (burst > 0) {
            --burst;
            if (rng.flip(0.6))
                ls.submitWrite(addr(), t);
            else
                ls.submitRead(addr(), t);
            continue;
        }
        if (rng.flip(0.01))
            burst = rng.range(16, 160);
        // 45% of calls share the previous call's tick.
        const double u = rng.uniform();
        if (u >= 0.99)
            t += c.nvm.retentionTime + rng.below(c.nvm.retentionTime);
        else if (u >= 0.95)
            t += rng.below(4 * tickUs);
        else if (u >= 0.45)
            t += rng.below(300 * tickNs);
        if (rng.flip(0.1))
            t = std::max(t, ls.now());

        const double op = rng.uniform();
        if (op < 0.34) {
            ls.submitRead(addr(), t);
        } else if (op < 0.60) {
            ls.submitWrite(addr(), t);
        } else if (op < 0.70) {
            ls.submitEager(addr(), t);
        } else if (op < 0.80) {
            ls.advance(t + rng.below(2 * tickUs));
        } else if (op < 0.995) {
            ls.pump();
        } else {
            // Another point of the grid, or back to this one. The
            // disturb table's size follows the case's device, so the
            // fast-read knob stays as the case set it.
            MellowConfig next = rng.flip(0.5)
                ? c.cfg
                : configs[rng.below(configs.size())].cfg;
            next.fastDisturbingReads = c.cfg.fastDisturbingReads;
            ls.setConfig(next, t);
        }
    }
    ls.drain();
    ls.finishRun();
    EXPECT_TRUE(ls.ok()) << "random seed " << seed << ": " << ls.failure();
}

/**
 * The misses and L3 writebacks of @p app through a cache hierarchy,
 * submitted as the core submits them: writebacks first, a rejected
 * submit retried after a pump, eager candidates every 32 memory ops.
 */
void
runWorkload(const Case &c, const std::string &app, std::uint64_t memOps,
            Coverage &cov)
{
    Lockstep ls(c, cov);
    auto wl = makeWorkload(app, 7);
    // Small caches fill within a few thousand ops, so the stream has
    // writebacks beside its misses from early on.
    HierarchyParams hp;
    hp.l1 = {"L1D", 8 * 1024, 4};
    hp.l2 = {"L2", 32 * 1024, 8};
    hp.l3 = {"L3", 128 * 1024, 16};
    CacheHierarchy hier{hp};
    AccessOutcome out;
    WorkloadOp op;
    // Warm the caches first, so writebacks flow from the first call.
    for (int i = 0; i < 20000; ++i) {
        wl->next(op);
        hier.access(op.addr, op.isWrite, out);
    }
    std::vector<Addr> eager;
    Tick t = 0;
    const auto submit = [&](auto &&fn) {
        while (ls.ok() && !fn()) {
            if (!ls.pump())
                break;
            t = std::max(t, ls.now());
        }
    };
    for (std::uint64_t i = 0; i < memOps && ls.ok(); ++i) {
        wl->next(op);
        t += (static_cast<Tick>(op.gap) + 1) * cpuCyclePs / 8;
        hier.access(op.addr, op.isWrite, out);
        for (const Addr wb : out.writebacks)
            submit([&] { return ls.submitWrite(wb, t); });
        if (out.hitLevel == 0)
            submit([&] { return ls.submitRead(op.addr, t); });
        const MellowConfig &cfg = ls.config();
        if (cfg.eagerWritebacks && i % 32 == 31) {
            eager.clear();
            hier.llc().collectEagerCandidates(
                cfg.eagerThreshold, std::min(8u, ls.eagerFree()), eager);
            for (const Addr a : eager) {
                if (!ls.submitEager(a, t))
                    break;
            }
        }
    }
    // An idle stretch past the retention deadline, then the scrubs.
    ls.advance(ls.now() + 2 * c.nvm.retentionTime);
    ls.drain();
    ls.finishRun();
    EXPECT_TRUE(ls.ok()) << app << ": " << ls.failure();
}

/** A grid run that never reached a mechanism compared nothing there. */
void
expectExercised(const Coverage &cov)
{
    EXPECT_GT(cov.rowHits, 0u);
    EXPECT_GT(cov.cancellations, 0u);
    EXPECT_GT(cov.pauses, 0u);
    EXPECT_GT(cov.drainBursts, 0u);
    EXPECT_GT(cov.rejects, 0u);
    EXPECT_GT(cov.scrubs, 0u);
    EXPECT_GT(cov.roundTrips, 0u);
}

TEST(MemCtrlLockstep, RandomCallsMatchReference)
{
    Coverage cov;
    std::uint64_t seed = 1;
    for (const Case &c : grid())
        runRandom(c, seed++, 4000, cov);
    expectExercised(cov);
}

TEST(MemCtrlLockstep, WorkloadStreamsMatchReference)
{
    Coverage cov;
    for (const Case &c : grid()) {
        for (const char *app : {"lbm", "gups", "zeusmp"})
            runWorkload(c, app, 1500, cov);
    }
    expectExercised(cov);
}

} // namespace
} // namespace mct
