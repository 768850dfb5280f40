/**
 * @file
 * A frozen copy of the set-associative cache as it stood before its
 * lines were packed and its way scans made branch-free: 24-byte lines
 * and early-exit scans. Test-only. The lockstep differential test
 * drives it beside the production Cache and requires every return
 * value, victim, candidate list, histogram, statistic and checkpoint
 * byte to agree.
 *
 * Only the namespace differs from that version (and registerStats is
 * gone); the parameters, victim and statistics are the production
 * types. Do not optimize this file: its value is that it stays the
 * plain version.
 */

#ifndef MCT_TESTS_REF_REF_CACHE_HH
#define MCT_TESTS_REF_REF_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/types.hh"

namespace mct::ref
{

/**
 * One cache level. The hierarchy composes these; this class knows
 * nothing about other levels or memory.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up @p addr; on a miss, install the line and report the
     * displaced victim. Marks the line dirty when @p write.
     *
     * @return true on hit.
     */
    bool access(Addr addr, bool write, Victim &victim);

    /**
     * Install-or-dirty a line written back from an upper level; the
     * line becomes dirty regardless of prior state.
     */
    void writeback(Addr addr, Victim &victim);

    /** True when the line is present. */
    bool contains(Addr addr) const;

    /** True when the line is present and dirty. */
    bool isDirty(Addr addr) const;

    /**
     * Eager mellow-write candidate collection. Appends up to
     * @p maxCount dirty-line addresses currently sitting in the
     * "useless" LRU positions implied by @p eagerThreshold, marking
     * each clean (the caller is about to write them to NVM). Lines
     * re-dirtied later are counted as rewrites.
     *
     * @return number of candidates appended.
     */
    unsigned collectEagerCandidates(int eagerThreshold, unsigned maxCount,
                                    std::vector<Addr> &out);

    /**
     * Number of LRU-end stack positions whose combined hit share is
     * below 1/eagerThreshold (the "useless" region).
     */
    unsigned uselessPositions(int eagerThreshold) const;

    /** Per-stack-position hit counts, MRU first. */
    const std::vector<std::uint64_t> &positionHits() const
    {
        return posHits;
    }

    /** Cumulative statistics. */
    const CacheStats &stats() const { return st; }

    /** Geometry. */
    const CacheParams &params() const { return p; }

    /** Number of sets. */
    std::uint64_t numSets() const { return sets; }

    /** Invalidate everything and clear statistics. */
    void reset();

    /** Checkpoint lines, LRU clocks, histogram, and statistics
     *  (restore requires the same geometry). */
    template <class Ar>
    void io(Ar &ar);

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        bool eagerClean = false; // cleaned by an eager writeback
        std::uint64_t lastUse = 0;
    };

    CacheParams p;
    std::uint64_t sets;
    std::vector<Line> lines;
    std::vector<std::uint64_t> posHits;
    std::uint64_t useCounter = 0;
    std::uint64_t scanCursor = 0;  // rotating eager-scan position
    std::uint64_t sinceDecay = 0;
    CacheStats st;

    /** Histogram half-life in accesses, so phases age out. */
    static constexpr std::uint64_t decayPeriod = 1 << 16;

    std::uint64_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Line *find(Addr addr);
    const Line *find(Addr addr) const;

    /** LRU stack depth of the given line within its set (0 = MRU). */
    unsigned stackPosition(const Line &line) const;

    void decayHistogram();
};

} // namespace mct::ref

#endif // MCT_TESTS_REF_REF_CACHE_HH
