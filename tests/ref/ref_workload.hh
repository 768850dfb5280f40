/**
 * @file
 * A frozen copy of the pattern workload generator as it stood before
 * its per-phase constants were hoisted out of next(): every op takes
 * the burst position by modulo, the gap rate through std::log1p and
 * two divisions, and every bounded draw by modulo. Test-only. The
 * lockstep differential test drives it beside the production
 * PatternWorkload and requires every op and checkpoint byte to agree.
 *
 * Only the namespace differs from that version, and each bounded draw
 * is spelled `rng.next() % n`, which is what Rng::below computed
 * then. The traits, phase specs, ops and Rng are the production
 * types. Do not optimize this file: its value is that it stays the
 * plain version.
 */

#ifndef MCT_TESTS_REF_REF_WORKLOAD_HH
#define MCT_TESTS_REF_REF_WORKLOAD_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "workloads/workload.hh"

namespace mct::ref
{

/**
 * The generic generator behind every application model: cycles
 * through its phases forever, producing stream/random accesses with
 * bursty intensity modulation.
 */
class PatternWorkload : public Workload
{
  public:
    PatternWorkload(WorkloadTraits traits, std::vector<PhaseSpec> phases,
                    std::uint64_t seed);

    const WorkloadTraits &traits() const override { return tr; }
    void next(WorkloadOp &op) override;
    void reset(std::uint64_t seed) override;
    void setAddrBase(Addr base) override { addrBase = base; }
    void serialize(Serializer &s) const override;
    void deserialize(Deserializer &d) override;

    /** Index of the phase currently generating (for tests). */
    std::size_t currentPhase() const { return phaseIdx; }

  private:
    WorkloadTraits tr;
    std::vector<PhaseSpec> phases;
    std::uint64_t seed0;
    Rng rng;
    Addr addrBase = 0;

    std::size_t phaseIdx = 0;
    InstCount instInPhase = 0;
    InstCount totalInsts = 0;
    std::vector<std::uint64_t> streamPos;
    bool rmwPending = false;
    Addr rmwAddr = 0;

    void enterPhase(std::size_t idx);
    const PatternSpec &pat() const { return phases[phaseIdx].pattern; }

    template <class Ar>
    void io(Ar &ar);
    Addr genAddr();
};

} // namespace mct::ref

#endif // MCT_TESTS_REF_REF_WORKLOAD_HH
