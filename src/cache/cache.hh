/**
 * @file
 * Set-associative write-back cache with true-LRU replacement and a
 * per-stack-position hit histogram.
 *
 * The histogram drives Eager Mellow Writes (paper Section 3.1): the N
 * least-recently-used stack positions are considered "useless" when
 * they contribute less than 1/eager_threshold of all hits, and dirty
 * lines residing there may be written back to NVM early.
 *
 * Layout: a set is `ways` consecutive 16-byte lines. Each line holds
 * one word with the tag in bits 0-60 and the valid (63), dirty (62)
 * and eager-clean (61) flags above it, then the u64 LRU stamp. Every
 * reachable tag is below 2^58 (a 64-bit address over at least 64-byte
 * lines), so the flags never meet a tag; a checkpoint that restores a
 * tag of 2^61 or more fails its stream instead of being truncated.
 * The checkpoint holds the unpacked fields: a u64 tag, three flags and
 * the u64 stamp per line.
 *
 * Way scans read every way and take no branch per way on what they
 * find; the order of their answers is part of the simulated behaviour:
 * - a lookup returns the lowest way holding the tag (first match
 *   wins, also when a restored set holds it twice);
 * - the victim is the lowest invalid way, else the lowest way with the
 *   smallest stamp (first minimum wins: a writeback allocation's
 *   stamp, useCounter minus the line count or 0, can tie, and a
 *   restored set need not hold its valid ways first);
 * - a line's stack position counts the valid ways with a larger stamp.
 * tests/ref holds the cache these rules came from, and
 * test_cache_lockstep holds this one to it.
 */

#ifndef MCT_CACHE_CACHE_HH
#define MCT_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mct
{

class StatRegistry;

/** Geometry of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned ways = 4;
};

/** Result of an access or writeback: the line that was displaced. */
struct Victim
{
    bool valid = false;
    bool dirty = false;
    Addr addr = 0;
};

/** Cumulative per-cache statistics. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;
    std::uint64_t eagerCleaned = 0;
    std::uint64_t rewrites = 0; // re-dirtied after eager cleaning
};

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

    /**
     * Register this cache's counters under @p prefix (dotted path,
     * e.g. "cache.l1d"). The registry reads the live counters through
     * closures; the access hot path is untouched.
     */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

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
    /** One way: the tag and its flags in one word, then the stamp. */
    struct Line
    {
        std::uint64_t word = 0;
        std::uint64_t lastUse = 0;
    };

    static constexpr std::uint64_t validBit = 1ULL << 63;
    static constexpr std::uint64_t dirtyBit = 1ULL << 62;
    /** Cleaned by an eager writeback; a later write is a rewrite. */
    static constexpr std::uint64_t eagerCleanBit = 1ULL << 61;
    /** Tags are below this; the flag bits sit above it. */
    static constexpr std::uint64_t tagLimit = 1ULL << 61;

    CacheParams p;
    std::uint64_t sets;
    unsigned setShift; // log2(sets)
    std::vector<Line> lines;
    std::vector<std::uint64_t> posHits;
    std::uint64_t useCounter = 0;
    std::uint64_t scanCursor = 0;  // rotating eager-scan position
    std::uint64_t sinceDecay = 0;
    CacheStats st;

    /** Histogram half-life in accesses, so phases age out. */
    static constexpr std::uint64_t decayPeriod = 1 << 16;

    std::uint64_t setIndex(Addr addr) const
    {
        return (addr / lineBytes) & (sets - 1);
    }
    Addr tagOf(Addr addr) const { return addr / lineBytes >> setShift; }
    Line *setAt(std::uint64_t s) { return &lines[s * p.ways]; }

    /** The line of set @p s holding @p tag, or nullptr. */
    Line *find(std::uint64_t s, Addr tag);
    /** The line holding @p addr, or nullptr. */
    const Line *find(Addr addr) const;

    /** LRU stack depth of a line stamped @p stamp in @p set (0 = MRU). */
    unsigned stackPosition(const Line *set, std::uint64_t stamp) const;

    /** The way a miss in set @p s replaces; a valid line there is
     *  reported in @p victim and counted as an eviction. */
    Line &evict(std::uint64_t s, Victim &victim);

    /** Dirty @p line; one an eager writeback cleaned is a rewrite. */
    void markDirty(Line &line);

    /** Byte address of @p line, which sits in set @p s. */
    Addr lineAddr(const Line &line, std::uint64_t s) const
    {
        return (((line.word & (tagLimit - 1)) << setShift) | s) * lineBytes;
    }

    void decayHistogram();
};

} // namespace mct

#endif // MCT_CACHE_CACHE_HH
