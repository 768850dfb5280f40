/**
 * @file
 * Synthetic workload models.
 *
 * The paper drove gem5 with SPEC CPU2006 / SPLASH-2 binaries plus the
 * gups and stream microbenchmarks. We replace the binaries with
 * parameterized generators that reproduce each benchmark's memory
 * character: working-set size, stream/random mix, write fraction,
 * memory intensity, burstiness (Section 5.2: bursts of >= 10M
 * instructions, scaled down here), coarse phase structure (Fig 6) and
 * memory-level parallelism. DESIGN.md documents the substitution.
 */

#ifndef MCT_WORKLOADS_WORKLOAD_HH
#define MCT_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace mct
{

class Serializer;
class Deserializer;

/** One generated operation: gap of plain instructions, then a memory
 *  access. */
struct WorkloadOp
{
    /** Non-memory instructions retiring before the access. */
    std::uint32_t gap = 0;

    /** True for a store. */
    bool isWrite = false;

    /** Byte address of the access (line-aligned by the caller). */
    Addr addr = 0;

    /** True when a load must complete before execution continues
     *  (dependent pointer chase). */
    bool dependent = false;
};

/** Static characteristics the core model needs. */
struct WorkloadTraits
{
    std::string name = "synthetic";

    /** Maximum useful outstanding NVM reads (ROB-limited MLP). */
    unsigned mlp = 16;
};

/**
 * Abstract workload: an infinite, deterministic operation stream.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Static traits. */
    virtual const WorkloadTraits &traits() const = 0;

    /** Produce the next operation. */
    virtual void next(WorkloadOp &op) = 0;

    /** Restart the stream with a new seed. */
    virtual void reset(std::uint64_t seed) = 0;

    /** Offset every generated address (multi-program isolation). */
    virtual void setAddrBase(Addr base) = 0;

    /** Checkpoint the generator's position in its stream. */
    virtual void serialize(Serializer &s) const = 0;

    /** Restore state written by serialize() (same construction). */
    virtual void deserialize(Deserializer &d) = 0;
};

/** One access-pattern regime within a workload. */
struct PatternSpec
{
    /** Fraction of accesses that follow sequential streams. */
    double streamFrac = 0.5;

    /** Number of concurrent sequential streams. */
    unsigned numStreams = 4;

    /** Bytes each stream walks before wrapping. */
    std::uint64_t streamBytes = 64ULL << 20;

    /** Stream advance per access in bytes. */
    std::uint64_t stride = lineBytes;

    /** Working set for the random component. */
    std::uint64_t wsBytes = 64ULL << 20;

    /** Fraction of random accesses confined to a hot subset. */
    double reuseFrac = 0.0;

    /** Size of the hot subset. */
    std::uint64_t hotBytes = 1ULL << 20;

    /** Fraction of memory ops that are stores. */
    double writeFrac = 0.3;

    /** Memory ops per instruction while bursting. */
    double memIntensity = 0.1;

    /** Fraction of each burst period spent bursting. */
    double burstDuty = 1.0;

    /** Instructions per burst period. */
    std::uint64_t burstPeriod = 200 * 1000;

    /** Intensity multiplier outside bursts. */
    double idleScale = 0.1;

    /** Probability that a load is dependency-blocking. */
    double depProb = 0.05;

    /** Read-modify-write mode (gups): each address is read then
     *  written; writeFrac is ignored. */
    bool rmw = false;
};

/** A phase: run the pattern for a fixed number of instructions. */
struct PhaseSpec
{
    InstCount insts = 1000 * 1000;
    PatternSpec pattern;
};

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

    /** The phases this generator cycles through. */
    const std::vector<PhaseSpec> &phaseList() const { return phases; }

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

    // Derived from the phase and the clock; rebuilt by
    // derivePhaseConstants(), never checkpointed.
    double gapLambda[2] = {0.0, 0.0}; // [bursting]; 0 draws no gap
    double burstEdge = 0.0;           // burstDuty * burstPeriod
    std::uint64_t burstPos = 0;       // totalInsts % burstPeriod

    void enterPhase(std::size_t idx);
    void derivePhaseConstants();
    const PatternSpec &pat() const { return phases[phaseIdx].pattern; }

    template <class Ar>
    void io(Ar &ar);
    Addr genAddr();
};

/** Construct one of the named application models (fatal if unknown). */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/** The 10 evaluated applications, in the paper's order. */
const std::vector<std::string> &workloadNames();

/** The SPEC-only subset used in some experiments. */
bool isWorkloadName(const std::string &name);

} // namespace mct

#endif // MCT_WORKLOADS_WORKLOAD_HH
