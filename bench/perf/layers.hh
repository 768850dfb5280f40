/**
 * @file
 * The traced run: per-layer host costs and simulated ratios of one
 * workload, and the replay-fidelity self-check that ties them to the
 * end-to-end run.
 *
 * Layers whose calls happen inside System::run are timed by replaying
 * the workload's own stream at each layer boundary: Workload::next,
 * then the same ops through a fresh CacheHierarchy, then its NVM reads
 * and writebacks through a standalone MemController (open loop, at the
 * in-system request rate) and NvmDevice. Under defaultConfig() the
 * cache contents depend on the access stream alone, so the replayed
 * hit and miss counts must equal the in-system CoreStats exactly; that
 * equality is what lets the replayed costs stand for the simulated
 * work.
 */

#ifndef MCT_BENCH_PERF_LAYERS_HH
#define MCT_BENCH_PERF_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "suite.hh"

namespace mct::perf
{

/** Every per-layer metric the traced run reports, in report order. */
const std::vector<MetricDef> &perLayerMetrics();

/** Result of one traced run. */
struct LayerRun
{
    std::map<std::string, double> values; ///< one per perLayerMetrics()
    std::uint64_t attempted = 0;          ///< traced ops
    std::uint64_t failed = 0;             ///< traced ops with bad output
    /** Replay-fidelity mismatch or failed write ("" when none). */
    std::string problem;
};

/**
 * Trace workload @p w: the layer suite on its application, then its
 * own ops (keys seed, seed+1, ...) until @p budgetNs has passed since
 * @p startNs. Every call is a span in @p log.
 */
LayerRun runLayers(const BenchWorkload &w, const Setup &s, std::uint64_t seed,
                   std::uint64_t startNs, std::uint64_t budgetNs,
                   SpanLog &log);

/**
 * Run @p app under defaultConfig() with seed @p k until at least
 * @p memOps memory ops have executed, replay them layer by layer and
 * compare. Returns "" when every count matches, else what differed.
 */
std::string checkReplayFidelity(const std::string &app, std::uint64_t k,
                                std::uint64_t memOps);

} // namespace mct::perf

#endif // MCT_BENCH_PERF_LAYERS_HH
