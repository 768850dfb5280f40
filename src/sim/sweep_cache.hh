/**
 * @file
 * Memoized configuration-space sweeps.
 *
 * Every table and figure of the evaluation reuses the same artifact:
 * the objectives of (application, configuration) pairs. The cache
 * memoizes evaluations in memory and optionally persists them to a
 * CSV file so successive bench binaries share one brute-force sweep.
 */

#ifndef MCT_SIM_SWEEP_CACHE_HH
#define MCT_SIM_SWEEP_CACHE_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "memctrl/mellow_config.hh"
#include "sim/evaluator.hh"

namespace mct
{

/** Canonical, parse-stable text key of a configuration. */
std::string configKey(const MellowConfig &cfg);

/**
 * Evaluation memoizer with CSV persistence. Each row of the file
 * carries the fingerprint of the EvalParams that made it: a cache
 * serves only rows of its own fingerprint, and keeps the others in
 * the file when it saves.
 */
class SweepCache
{
  public:
    /**
     * @param ep Evaluation parameters of every entry this cache serves.
     * @param path CSV backing file; empty for in-memory only.
     */
    explicit SweepCache(const EvalParams &ep, std::string path = "");

    ~SweepCache();

    /** Evaluate (memoized). */
    [[nodiscard]] Metrics get(const std::string &app,
                              const MellowConfig &cfg);

    /** Evaluate many configurations, reporting progress. */
    [[nodiscard]] std::vector<Metrics>
    getAll(const std::string &app,
           const std::vector<MellowConfig> &cfgs,
           bool progress = false);

    /** Entries currently cached. */
    std::size_t size() const { return table.size(); }

    /** Evaluations actually executed (cache misses). */
    std::size_t misses() const { return nMisses; }

    /**
     * Rows of the backing file that were malformed (wrong arity,
     * non-numeric, or non-finite) and skipped at load. Skipped
     * entries simply re-evaluate on demand, so a truncated or
     * corrupted cache degrades to recomputation instead of aborting.
     */
    std::size_t recoveredLoads() const { return nRecovered; }

    /**
     * Well-formed rows of the old format, which names no evaluation
     * parameters: dropped at load (and from the file at the next
     * save), so they recompute on demand.
     */
    std::size_t unkeyedLoads() const { return nUnkeyed; }

    /** Persist now (no-op for in-memory caches). */
    void save();

    const EvalParams &evalParams() const { return ep; }

    /** Default on-disk location: `mct_sweep_cache.csv` in the build
     *  tree (or the working directory when built without CMake),
     *  overridable via the MCT_SWEEP_CACHE environment variable. */
    [[nodiscard]] static std::string defaultPath();

    /** The row key of @p ep: every field that mct_sim's --warmup,
     *  --measure, --seed and --startgap set. */
    [[nodiscard]] static std::string fingerprint(const EvalParams &ep);

  private:
    EvalParams ep;
    std::string fp;
    std::string path;
    std::unordered_map<std::string, Metrics> table;
    std::vector<std::vector<std::string>> foreign; // other fingerprints
    std::size_t nMisses = 0;
    std::size_t unsaved = 0;
    std::size_t nRecovered = 0;
    std::size_t nUnkeyed = 0;

    void load();
};

} // namespace mct

#endif // MCT_SIM_SWEEP_CACHE_HH
