/**
 * @file
 * Lockstep differential test of the set-associative cache. The
 * production Cache and the frozen reference in tests/ref (24-byte
 * lines, early-exit way scans) receive the same calls. After every
 * call the return value, the victim, the eager candidate list, the
 * stack-position histogram and every statistic must agree; every
 * 1,000 calls both sides' checkpoint bytes must agree too.
 *
 * Two kinds of call streams run: seeded random calls on addresses
 * packed onto a few sets (tag-0 addresses among them, since an
 * invalid line's tag is 0 as well), and the address streams of real
 * workloads through a three-level composition that forwards dirty
 * victims as the hierarchy does, with an eager scan of the last level
 * as the core makes it. Every 2,500 calls the production side is
 * checkpointed into a fresh instance, so a restore that loses state
 * fails too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "ref/ref_cache.hh"
#include "workloads/workload.hh"

namespace mct
{
namespace
{

/** Calls between comparisons of both sides' checkpoint bytes. */
constexpr std::uint64_t bytesEvery = 1000;

/** Calls between checkpoint round trips of the production side. */
constexpr std::uint64_t roundTripEvery = 2500;

/** Table 8's levels and small odd geometries (one set among them). */
std::vector<CacheParams>
geometries()
{
    return {
        {"L1D", 32 * 1024, 4},
        {"L2", 256 * 1024, 8},
        {"L3", 2 * 1024 * 1024, 16},
        {"1-way", 8 * 1 * lineBytes, 1},
        {"3-way", 4 * 3 * lineBytes, 3},
        {"5-way", 16 * 5 * lineBytes, 5},
        {"1-set-6-way", 1 * 6 * lineBytes, 6},
        {"2-set-12-way", 2 * 12 * lineBytes, 12},
    };
}

/** Counts summed over every run, so the test cannot pass without
 *  exercising each path. */
struct Coverage
{
    std::uint64_t hits = 0, dirtyEvictions = 0;
    std::uint64_t eagerCleaned = 0, rewrites = 0;
    std::uint64_t tiedVictims = 0, roundTrips = 0;

    void
    add(const CacheStats &s)
    {
        hits += s.hits;
        dirtyEvictions += s.dirtyEvictions;
        eagerCleaned += s.eagerCleaned;
        rewrites += s.rewrites;
    }
};

constexpr std::pair<const char *, std::uint64_t CacheStats::*> statFields[] = {
    {"accesses", &CacheStats::accesses},
    {"hits", &CacheStats::hits},
    {"evictions", &CacheStats::evictions},
    {"dirtyEvictions", &CacheStats::dirtyEvictions},
    {"eagerCleaned", &CacheStats::eagerCleaned},
    {"rewrites", &CacheStats::rewrites},
};

/** What one call returned: a value, a victim and a candidate list. */
struct Result
{
    std::uint64_t value = 0;
    Victim victim;
    std::vector<Addr> candidates;
};

template <class C>
std::string
bytesOf(C &cache)
{
    Serializer s;
    cache.io(s);
    return std::string(s.data());
}

/**
 * Drives the production cache and the reference side by side. Every
 * call is one step; the first disagreement is kept in failure() and
 * every later call is a no-op.
 */
class Lockstep
{
  public:
    Lockstep(const CacheParams &params, Coverage &coverage)
        : p(params), cov(coverage), prod(params), ref(params)
    {}

    bool ok() const { return failure_.empty(); }
    const std::string &failure() const { return failure_; }
    const Cache &production() const { return prod; }

    /** Checked before every access and writeback: count a victim
     *  chosen among ways that share the smallest stamp. Decodes the
     *  reference's checkpoint bytes, so only small caches do it. */
    void watchTies(bool on) { tiesWatched = on; }

    Result
    access(Addr a, bool write)
    {
        const bool tied = tiedSet(a);
        Result r = call(write ? "access(write)" : "access(read)", a,
                        [&](auto &c, Result &out) {
                            out.value = c.access(a, write, out.victim);
                        });
        if (ok() && tied && r.victim.valid)
            ++cov.tiedVictims;
        return r;
    }

    Result
    writeback(Addr a)
    {
        const bool tied = tiedSet(a);
        Result r = call("writeback", a, [&](auto &c, Result &out) {
            c.writeback(a, out.victim);
        });
        if (ok() && tied && r.victim.valid)
            ++cov.tiedVictims;
        return r;
    }

    void
    contains(Addr a)
    {
        call("contains", a,
             [&](auto &c, Result &out) { out.value = c.contains(a); });
    }

    void
    isDirty(Addr a)
    {
        call("isDirty", a,
             [&](auto &c, Result &out) { out.value = c.isDirty(a); });
    }

    Result
    collect(int threshold, unsigned maxCount)
    {
        return call("collectEagerCandidates", 0,
                    [&](auto &c, Result &out) {
                        out.value = c.collectEagerCandidates(
                            threshold, maxCount, out.candidates);
                    });
    }

    void
    useless(int threshold)
    {
        call("uselessPositions", 0, [&](auto &c, Result &out) {
            out.value = c.uselessPositions(threshold);
        });
    }

    void
    reset()
    {
        call("reset", 0, [](auto &c, Result &) { c.reset(); });
    }

    /** Counted into the coverage once the run is over. */
    void finishRun() { cov.add(prod.stats()); }

  private:
    CacheParams p;
    Coverage &cov;
    Cache prod;
    ref::Cache ref;
    std::uint64_t step = 0;
    bool tiesWatched = false;
    std::string failure_;

    /** The call being compared, for the failure message. */
    const char *lastName = "";
    Addr lastAddr = 0;

    template <class Fn>
    Result
    call(const char *name, Addr a, Fn &&fn)
    {
        Result got, want;
        if (!ok())
            return got;
        ++step;
        lastName = name;
        lastAddr = a;
        fn(prod, got);
        fn(ref, want);
        compare(got, want);
        if (ok() && step % bytesEvery == 0)
            compareBytes();
        if (ok() && step % roundTripEvery == 0)
            roundTrip();
        return got;
    }

    /** Keep the first failure, naming the geometry, step and call. */
    void
    fail(const std::string &what)
    {
        std::ostringstream os;
        os << "cache '" << p.name << "', step " << step << ", call "
           << lastName << "(addr 0x" << std::hex << lastAddr << std::dec
           << "): " << what;
        failure_ = os.str();
    }

    template <class T>
    bool
    same(const char *field, const T &got, const T &want)
    {
        if (got == want)
            return true;
        std::ostringstream os;
        os << field << " differs: production " << got << ", reference "
           << want;
        fail(os.str());
        return false;
    }

    void
    compare(const Result &got, const Result &want)
    {
        if (!same("return value", got.value, want.value) ||
            !same("victim.valid", got.victim.valid, want.victim.valid) ||
            !same("victim.dirty", got.victim.dirty, want.victim.dirty) ||
            !same("victim.addr", got.victim.addr, want.victim.addr) ||
            !same("candidates.size()", got.candidates.size(),
                  want.candidates.size()))
            return;
        for (std::size_t i = 0; i < got.candidates.size(); ++i) {
            if (!same("candidate", got.candidates[i], want.candidates[i]))
                return;
        }
        const auto &ph = prod.positionHits();
        const auto &rh = ref.positionHits();
        if (!same("positionHits().size()", ph.size(), rh.size()))
            return;
        for (std::size_t i = 0; i < ph.size(); ++i) {
            if (!same("positionHits()", ph[i], rh[i]))
                return;
        }
        for (const auto &[field, member] : statFields) {
            if (!same(field, prod.stats().*member, ref.stats().*member))
                return;
        }
    }

    void
    compareBytes()
    {
        const std::string pb = bytesOf(prod);
        const std::string rb = bytesOf(ref);
        if (pb == rb)
            return;
        const auto at = std::mismatch(pb.begin(), pb.end(), rb.begin(),
                                      rb.end()).first - pb.begin();
        fail("checkpoint bytes differ from offset " + std::to_string(at) +
             " (production " + std::to_string(pb.size()) +
             " bytes, reference " + std::to_string(rb.size()) + ")");
    }

    /** Restore the production side from its own checkpoint into a
     *  fresh instance and carry on with that. */
    void
    roundTrip()
    {
        const std::string bytes = bytesOf(prod);
        Cache fresh(p);
        Deserializer d(bytes);
        fresh.io(d);
        if (!d.atEnd()) {
            fail("the checkpoint did not read back whole");
            return;
        }
        prod = std::move(fresh);
        ++cov.roundTrips;
    }

    /**
     * True when @p a's set is full and at least two of its ways hold
     * the smallest stamp, read from the reference's checkpoint: a
     * u64 line count, then per line a u64 tag, the valid, dirty and
     * eager-clean flags and a u64 stamp.
     */
    bool
    tiedSet(Addr a)
    {
        if (!tiesWatched || !ok())
            return false;
        const std::string bytes = bytesOf(ref);
        const std::uint64_t sets = prod.numSets();
        const std::uint64_t set = (a / lineBytes) % sets;
        constexpr std::size_t lineSize = 8 + 3 + 8;
        std::vector<std::uint64_t> stamps;
        for (unsigned w = 0; w < p.ways; ++w) {
            Deserializer line(bytes.data() + 8 +
                                  (set * p.ways + w) * lineSize,
                              lineSize);
            (void)line.getU64(); // tag
            const bool valid = line.getBool();
            (void)line.getBool(); // dirty
            (void)line.getBool(); // eager-clean
            if (!valid)
                return false;
            stamps.push_back(line.getU64());
        }
        const std::uint64_t low =
            *std::min_element(stamps.begin(), stamps.end());
        return std::count(stamps.begin(), stamps.end(), low) >= 2;
    }
};

/**
 * Seeded random calls on addresses packed onto three sets, with small
 * tags (0 among them) so sets overflow and tags repeat, and now and
 * then an arbitrary 64-bit address.
 */
void
runRandom(const CacheParams &params, std::uint64_t seed,
          std::uint64_t calls, Coverage &cov)
{
    Lockstep ls(params, cov);
    const Cache &c = ls.production();
    ls.watchTies(c.numSets() * params.ways <= 64);
    Rng rng(seed);
    const std::uint64_t sets = c.numSets();
    const std::uint64_t hotSets[] = {0, sets / 2, sets - 1};
    const auto addr = [&]() -> Addr {
        if (rng.flip(0.02))
            return rng.next();
        const std::uint64_t set = hotSets[rng.below(3)];
        const std::uint64_t tag =
            rng.flip(0.2) ? 0 : rng.below(2 * params.ways + 3);
        return (tag * sets + set) * lineBytes + rng.below(lineBytes);
    };
    // Writeback-heavy stretches give stamps that tie: an allocation
    // takes useCounter - lines, clamped to 0.
    double wbShare = 0.15;
    for (std::uint64_t i = 0; i < calls && ls.ok(); ++i) {
        if (i % 500 == 0)
            wbShare = rng.flip(0.3) ? 0.6 : 0.15;
        const double op = rng.uniform();
        if (op < wbShare) {
            ls.writeback(addr());
        } else if (op < 0.80) {
            ls.access(addr(), rng.flip(0.4));
        } else if (op < 0.86) {
            ls.contains(addr());
        } else if (op < 0.92) {
            ls.isDirty(addr());
        } else if (op < 0.96) {
            static constexpr int thresholds[] = {-1, 0, 1, 2, 4, 8, 64};
            ls.collect(thresholds[rng.below(7)],
                       static_cast<unsigned>(rng.below(10)));
        } else if (op < 0.9995) {
            ls.useless(static_cast<int>(rng.below(40)) - 2);
        } else {
            ls.reset();
        }
    }
    ls.finishRun();
    EXPECT_TRUE(ls.ok()) << "random seed " << seed << ": " << ls.failure();
}

/**
 * Three caches in lockstep pairs composed as CacheHierarchy composes
 * them: a read or write at the first level, fills down the levels,
 * dirty victims written back one level down.
 */
struct Levels
{
    Lockstep l1, l2, l3;

    Levels(const CacheParams &p1, const CacheParams &p2,
           const CacheParams &p3, Coverage &cov)
        : l1(p1, cov), l2(p2, cov), l3(p3, cov)
    {}

    bool ok() const { return l1.ok() && l2.ok() && l3.ok(); }

    std::string
    failure() const
    {
        return l1.failure() + l2.failure() + l3.failure();
    }

    void
    access(Addr a, bool write)
    {
        const Result r1 = l1.access(a, write);
        if (r1.value)
            return;
        if (r1.victim.valid && r1.victim.dirty)
            writebackToL2(r1.victim.addr);
        const Result r2 = l2.access(a, false);
        if (r2.value)
            return;
        if (r2.victim.valid && r2.victim.dirty)
            l3.writeback(r2.victim.addr);
        l3.access(a, false);
    }

    void
    writebackToL2(Addr a)
    {
        const Result r = l2.writeback(a);
        if (r.victim.valid && r.victim.dirty)
            l3.writeback(r.victim.addr);
    }

    void
    finishRun()
    {
        l1.finishRun();
        l2.finishRun();
        l3.finishRun();
    }
};

/**
 * @p app's address stream through @p levels, with an eager scan of
 * the last level every 32 memory ops as the core makes it and a
 * histogram probe every few hundred.
 */
void
runWorkload(Levels &levels, const std::string &app, std::uint64_t memOps)
{
    auto wl = makeWorkload(app, 11);
    WorkloadOp op;
    for (std::uint64_t i = 0; i < memOps && levels.ok(); ++i) {
        wl->next(op);
        levels.access(op.addr, op.isWrite);
        if (i % 32 == 31)
            levels.l3.collect(static_cast<int>(4 << (i / 32 % 3)), 8);
        if (i % 300 == 299) {
            levels.l2.useless(8);
            levels.l3.contains(op.addr);
            levels.l3.isDirty(op.addr);
        }
    }
    levels.finishRun();
    EXPECT_TRUE(levels.ok()) << app << ": " << levels.failure();
}

TEST(CacheLockstep, RandomCallsMatchReference)
{
    Coverage cov;
    std::uint64_t seed = 1;
    for (const CacheParams &p : geometries())
        runRandom(p, seed++, 20000, cov);
    EXPECT_GT(cov.hits, 0u);
    EXPECT_GT(cov.dirtyEvictions, 0u);
    EXPECT_GT(cov.eagerCleaned, 0u);
    EXPECT_GT(cov.rewrites, 0u);
    EXPECT_GT(cov.roundTrips, 0u);
    // Victims chosen among ways that share the smallest stamp: the
    // lowest way must win the tie on both sides.
    EXPECT_GT(cov.tiedVictims, 0u);
}

TEST(CacheLockstep, WorkloadStreamsMatchReference)
{
    const auto g = geometries();
    Coverage cov;
    for (const char *app : {"lbm", "zeusmp", "gups"}) {
        Levels table8(g[0], g[1], g[2], cov);
        runWorkload(table8, app, 150000);
        Levels small(g[4], g[5], {"7-way-L3", 64 * 7 * lineBytes, 7},
                     cov);
        runWorkload(small, app, 30000);
    }
    EXPECT_GT(cov.hits, 0u);
    EXPECT_GT(cov.dirtyEvictions, 0u);
    EXPECT_GT(cov.eagerCleaned, 0u);
    EXPECT_GT(cov.roundTrips, 0u);
}

} // namespace
} // namespace mct
