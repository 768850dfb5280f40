#include "ref_workload.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace mct::ref
{

PatternWorkload::PatternWorkload(WorkloadTraits traits,
                                 std::vector<PhaseSpec> phaseList,
                                 std::uint64_t seed)
    : tr(std::move(traits)), phases(std::move(phaseList)), seed0(seed),
      rng(seed)
{
    if (phases.empty())
        mct_fatal("PatternWorkload '", tr.name, "': needs >= 1 phase");
    for (const auto &ph : phases) {
        if (ph.insts == 0)
            mct_fatal("PatternWorkload: zero-length phase");
        const auto &pt = ph.pattern;
        if (pt.memIntensity <= 0.0 || pt.memIntensity > 1.0)
            mct_fatal("PatternWorkload: memIntensity out of (0,1]");
        if (pt.numStreams == 0 && pt.streamFrac > 0.0)
            mct_fatal("PatternWorkload: streamFrac > 0 with no streams");
        if (pt.wsBytes < lineBytes || pt.streamBytes < lineBytes)
            mct_fatal("PatternWorkload: working set smaller than a line");
    }
    enterPhase(0);
}

void
PatternWorkload::reset(std::uint64_t seed)
{
    seed0 = seed;
    rng = Rng(seed);
    phaseIdx = 0;
    instInPhase = 0;
    totalInsts = 0;
    rmwPending = false;
    enterPhase(0);
}

void
PatternWorkload::enterPhase(std::size_t idx)
{
    phaseIdx = idx;
    instInPhase = 0;
    const PatternSpec &pt = phases[idx].pattern;
    streamPos.assign(pt.numStreams, 0);
    // Desynchronize the streams so they touch different rows/banks.
    for (unsigned s = 0; s < pt.numStreams; ++s)
        streamPos[s] = (rng.next() % std::max<std::uint64_t>(
            1, pt.streamBytes / lineBytes)) * lineBytes;
}

Addr
PatternWorkload::genAddr()
{
    const PatternSpec &pt = pat();
    Addr addr;
    if (pt.numStreams > 0 && rng.uniform() < pt.streamFrac) {
        const unsigned s =
            static_cast<unsigned>(rng.next() % pt.numStreams);
        // Each stream owns a contiguous region of the working set.
        const Addr regionBase = static_cast<Addr>(s) * pt.streamBytes;
        addr = regionBase + streamPos[s];
        streamPos[s] = (streamPos[s] + pt.stride) % pt.streamBytes;
    } else if (pt.reuseFrac > 0.0 && rng.uniform() < pt.reuseFrac) {
        addr = (rng.next() % std::max<std::uint64_t>(
            1, pt.hotBytes / lineBytes)) * lineBytes;
    } else {
        addr = (rng.next() % std::max<std::uint64_t>(
            1, pt.wsBytes / lineBytes)) * lineBytes;
    }
    return (addr & ~static_cast<Addr>(lineBytes - 1)) + addrBase;
}

void
PatternWorkload::next(WorkloadOp &op)
{
    const PatternSpec &pt = pat();

    // gups-style read-modify-write: the store to the just-loaded line
    // follows immediately.
    if (rmwPending) {
        rmwPending = false;
        op.gap = 0;
        op.isWrite = true;
        op.addr = rmwAddr;
        op.dependent = false;
        return;
    }

    // Bursty intensity modulation (Section 5.2): within each burst
    // period the first burstDuty fraction runs at full intensity.
    const std::uint64_t posInPeriod = totalInsts % pt.burstPeriod;
    const bool bursting =
        static_cast<double>(posInPeriod) <
        pt.burstDuty * static_cast<double>(pt.burstPeriod);
    const double intensity =
        pt.memIntensity * (bursting ? 1.0 : pt.idleScale);

    // Geometric gap with the configured mean: floor(Exp(lambda))
    // is geometric, and lambda = 1/ln(1 + 1/m) makes its mean exactly
    // m (plain floor(Exp(m)) would undershoot by ~0.5).
    const double meanGap = std::max(0.0, 1.0 / intensity - 1.0);
    double g = 0.0;
    if (meanGap > 1e-9) {
        const double lambda = 1.0 / std::log1p(1.0 / meanGap);
        g = rng.exponential(lambda);
    }
    op.gap = static_cast<std::uint32_t>(std::min(g, 100000.0));

    op.addr = genAddr();
    if (pt.rmw) {
        op.isWrite = false;
        op.dependent = true;
        rmwPending = true;
        rmwAddr = op.addr;
    } else {
        op.isWrite = rng.uniform() < pt.writeFrac;
        op.dependent = !op.isWrite && rng.uniform() < pt.depProb;
    }

    const InstCount cost = op.gap + 1;
    instInPhase += cost;
    totalInsts += cost;
    if (instInPhase >= phases[phaseIdx].insts)
        enterPhase((phaseIdx + 1) % phases.size());
}

template <class Ar>
void
PatternWorkload::io(Ar &ar)
{
    ar.u64(seed0);
    rng.io(ar);
    ar.u64(addrBase, phaseIdx);
    if (phaseIdx >= phases.size())
        mct_panic("checkpoint workload phase out of range");
    ar.u64(instInPhase, totalInsts);
    ar.seq32(streamPos, [&ar](std::uint64_t &pos) { ar.u64(pos); });
    ar.flag(rmwPending);
    ar.u64(rmwAddr);
}

void
PatternWorkload::serialize(Serializer &s) const
{
    const_cast<PatternWorkload *>(this)->io(s);
}

void
PatternWorkload::deserialize(Deserializer &d)
{
    io(d);
}

} // namespace mct::ref
