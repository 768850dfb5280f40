/**
 * @file
 * Trace-replay workload: drives the simulated system from a recorded
 * memory-access trace instead of a synthetic model. This is the
 * adoption path for downstream users who have traces of their own
 * applications (e.g. from a PIN/DynamoRIO tool or another simulator).
 *
 * Trace format (text, one record per line, '#' comments allowed):
 *
 *     <gap> <R|W> <hex-or-dec address> [D]
 *
 * gap     non-memory instructions retiring before this access
 * R/W     load or store
 * address byte address (0x-prefixed hex or decimal)
 * D       optional: the load is dependency-blocking
 *
 * The trace loops when exhausted (the paper's cyclic-execution
 * lifetime assumption). Traces can also be captured from any
 * Workload via captureTrace(), making the format self-hosting.
 */

#ifndef MCT_WORKLOADS_TRACE_HH
#define MCT_WORKLOADS_TRACE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"
#include "workloads/workload.hh"

namespace mct
{

/**
 * Replays a fixed operation sequence, looping forever.
 */
class TraceWorkload : public Workload
{
  public:
    /**
     * @param name Reported trait name.
     * @param ops The recorded operations (at least one).
     * @param mlp Memory-level-parallelism bound for the core model.
     */
    TraceWorkload(std::string name, std::vector<WorkloadOp> ops,
                  unsigned mlp = 16);

    /** Parse a trace stream (fatal on malformed records). */
    static std::vector<WorkloadOp> parse(std::istream &in);

    /** Load a trace file (fatal if unreadable). */
    static std::unique_ptr<TraceWorkload> fromFile(
        const std::string &path, unsigned mlp = 16);

    /** Serialize operations in the trace format. */
    static void write(std::ostream &out,
                      const std::vector<WorkloadOp> &ops);

    const WorkloadTraits &traits() const override { return tr; }
    void next(WorkloadOp &op) override;
    void reset(std::uint64_t seed) override;
    void setAddrBase(Addr base) override { addrBase = base; }
    void serialize(Serializer &s) const override;
    void deserialize(Deserializer &d) override;

    /** Number of recorded operations. */
    std::size_t size() const { return ops.size(); }

    /** Times the trace has wrapped around. */
    std::uint64_t loops() const { return nLoops; }

  private:
    WorkloadTraits tr;
    std::vector<WorkloadOp> ops;
    Addr addrBase = 0;
    std::size_t cursor = 0;
    std::uint64_t nLoops = 0;

    template <class Ar>
    void io(Ar &ar);
};

/**
 * Record @p count operations from any workload into trace form
 * (useful to snapshot a synthetic model or convert formats).
 */
std::vector<WorkloadOp> captureTrace(Workload &source,
                                     std::size_t count);

} // namespace mct

#endif // MCT_WORKLOADS_TRACE_HH
