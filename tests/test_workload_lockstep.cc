/**
 * @file
 * Lockstep differential test of the pattern workload generator. For
 * every application model, the production generator and the frozen
 * reference in tests/ref (built from the model's own traits and phase
 * list) must produce the same ops field by field, and the same
 * checkpoint bytes. The run moves the address base, reseeds both
 * sides, and every 100k ops restores the production side from its
 * checkpoint into a fresh instance, so a restore that forgets a value
 * it derives (the burst position) fails too.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "common/serialize.hh"
#include "ref/ref_workload.hh"
#include "workloads/workload.hh"

namespace mct
{
namespace
{

/** Ops between checkpoint round trips of the production side. */
constexpr std::uint64_t roundTripEvery = 100 * 1000;

/** Ops compared per application. */
constexpr std::uint64_t opsPerApp = 2 * 1000 * 1000;

std::string
bytesOf(const Workload &w)
{
    Serializer s;
    w.serialize(s);
    return std::string(s.data());
}

/** The model @p app as the concrete production generator. */
std::unique_ptr<PatternWorkload>
makePattern(const std::string &app, std::uint64_t seed)
{
    std::unique_ptr<Workload> w = makeWorkload(app, seed);
    if (!dynamic_cast<PatternWorkload *>(w.get()))
        return nullptr;
    return std::unique_ptr<PatternWorkload>(
        static_cast<PatternWorkload *>(w.release()));
}

bool
sameOp(const WorkloadOp &a, const WorkloadOp &b)
{
    return a.gap == b.gap && a.isWrite == b.isWrite && a.addr == b.addr &&
           a.dependent == b.dependent;
}

/** The first field of @p got that differs from @p want. */
std::string
opDiff(const WorkloadOp &got, const WorkloadOp &want)
{
    std::ostringstream os;
    if (got.gap != want.gap)
        os << "gap: production " << got.gap << ", reference " << want.gap;
    else if (got.isWrite != want.isWrite)
        os << "isWrite: production " << got.isWrite << ", reference "
           << want.isWrite;
    else if (got.addr != want.addr)
        os << "addr: production 0x" << std::hex << got.addr
           << ", reference 0x" << want.addr;
    else if (got.dependent != want.dependent)
        os << "dependent: production " << got.dependent << ", reference "
           << want.dependent;
    return os.str();
}

TEST(WorkloadLockstep, EveryAppMatchesReference)
{
    std::uint64_t seed = 3;
    for (const std::string &app : workloadNames()) {
        SCOPED_TRACE(app);
        std::unique_ptr<PatternWorkload> prod = makePattern(app, seed);
        ASSERT_TRUE(prod) << "not a PatternWorkload";
        ref::PatternWorkload ref(prod->traits(), prod->phaseList(), seed);
        const bool phased = prod->phaseList().size() > 1;

        WorkloadOp got, want;
        std::uint64_t phaseChanges = 0, roundTrips = 0;
        std::size_t phase = prod->currentPhase();
        for (std::uint64_t i = 0; i < opsPerApp; ++i) {
            if (i == opsPerApp / 4) {
                prod->setAddrBase(7ULL << 32);
                ref.setAddrBase(7ULL << 32);
            }
            if (i == opsPerApp / 2) {
                prod->reset(seed + 100);
                ref.reset(seed + 100);
            }
            if (i > 0 && i % roundTripEvery == 0) {
                const std::string bytes = bytesOf(*prod);
                ASSERT_EQ(bytes, bytesOf(ref))
                    << "checkpoint bytes differ before op " << i;
                auto fresh = makePattern(app, seed + 1);
                Deserializer d(bytes);
                fresh->deserialize(d);
                ASSERT_TRUE(d.atEnd()) << "op " << i << ": the checkpoint "
                                       << "did not read back whole";
                prod = std::move(fresh);
                ++roundTrips;
            }
            prod->next(got);
            ref.next(want);
            ASSERT_TRUE(sameOp(got, want))
                << "op " << i << ", phase " << prod->currentPhase() << ": "
                << opDiff(got, want);
            if (prod->currentPhase() != phase) {
                phase = prod->currentPhase();
                ++phaseChanges;
            }
        }
        EXPECT_EQ(bytesOf(*prod), bytesOf(ref));
        EXPECT_EQ(roundTrips, opsPerApp / roundTripEvery - 1);
        // GemsFDTD and ocean change phase, and with it burstPeriod.
        if (phased) {
            EXPECT_GT(phaseChanges, 2u);
        }
        ++seed;
    }
}

} // namespace
} // namespace mct
