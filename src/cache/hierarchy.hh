/**
 * @file
 * Three-level cache hierarchy (Table 8: 32 KB L1D, 256 KB L2, 2 MB
 * shared L3). The L3 may be shared between several hierarchies in the
 * multi-core system, in which case each core owns private L1/L2 and a
 * pointer to the common L3.
 */

#ifndef MCT_CACHE_HIERARCHY_HH
#define MCT_CACHE_HIERARCHY_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "common/types.hh"

namespace mct
{

class SpanTrace;

/** Geometry of all levels. */
struct HierarchyParams
{
    CacheParams l1{"L1D", 32 * 1024, 4};
    CacheParams l2{"L2", 256 * 1024, 8};
    CacheParams l3{"L3", 2 * 1024 * 1024, 16};
};

/** What one CPU access did to the hierarchy. */
struct AccessOutcome
{
    /** 1, 2, or 3 for a cache hit; 0 when NVM must be read. */
    int hitLevel = 0;

    /** Dirty L3 victims that must be written back to NVM. */
    std::vector<Addr> writebacks;
};

/**
 * Composes the cache levels; knows nothing about timing (the core
 * model translates hit levels into cycles) or about the memory
 * controller (the system submits the returned writebacks).
 */
class CacheHierarchy
{
  public:
    /** Private three-level hierarchy. */
    explicit CacheHierarchy(const HierarchyParams &params);

    /** Private L1/L2 over a shared L3 (multi-core). */
    CacheHierarchy(const HierarchyParams &params,
                   std::shared_ptr<Cache> sharedL3);

    /**
     * Perform one data access. The outcome reports the hit level and
     * any dirty lines pushed out of the L3 toward memory.
     */
    void access(Addr addr, bool write, AccessOutcome &outcome);

    /** The last-level cache (eager-writeback candidate source). */
    Cache &llc() { return *l3; }

    /** The last-level cache, read-only. */
    const Cache &llc() const { return *l3; }

    /** L1 data cache. */
    const Cache &l1d() const { return l1; }

    /** L2 cache. */
    const Cache &l2c() const { return l2; }

    /** Invalidate all levels (L3 too, shared or not). */
    void reset();

    /** Register all levels' counters under @p prefix ("cache" gives
     *  cache.l1d.*, cache.l2.*, cache.llc.*). */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    /** Record per-level probe marks on sampled request spans. */
    void attachSpans(SpanTrace *t) { spans = t; }

    /** Checkpoint all three levels (L3 included, shared or not;
     *  restore requires the same geometry). */
    template <class Ar>
    void io(Ar &ar);

  private:
    Cache l1;
    Cache l2;
    std::shared_ptr<Cache> l3;
    SpanTrace *spans = nullptr;

    /** Push a dirty line down one level, cascading L3 evictions. */
    void writebackToL2(Addr addr, AccessOutcome &outcome);
    void writebackToL3(Addr addr, AccessOutcome &outcome);
};

} // namespace mct

#endif // MCT_CACHE_HIERARCHY_HH
