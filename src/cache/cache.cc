#include "cache/cache.hh"

#include <algorithm>
#include <bit>

#include "common/instrument.hh"
#include "common/logging.hh"
#include "common/serialize.hh"

namespace mct
{

Cache::Cache(const CacheParams &params)
    : p(params)
{
    if (p.ways == 0 || p.sizeBytes == 0)
        mct_fatal("Cache ", p.name, ": ways and size must be positive");
    if (p.sizeBytes % (static_cast<std::uint64_t>(p.ways) * lineBytes))
        mct_fatal("Cache ", p.name, ": size not divisible by ways*line");
    sets = p.sizeBytes / lineBytes / p.ways;
    if (sets == 0 || (sets & (sets - 1)) != 0)
        mct_fatal("Cache ", p.name, ": set count must be a power of two");
    setShift = static_cast<unsigned>(std::countr_zero(sets));
    lines.resize(sets * p.ways);
    posHits.assign(p.ways, 0);
}

Cache::Line *
Cache::find(std::uint64_t s, Addr tag)
{
    Line *set = setAt(s);
    const std::uint64_t want = tag | validBit;
    constexpr std::uint64_t flags = dirtyBit | eagerCleanBit;
    // Every way of a block of up to 64 is compared into a mask, the
    // highest way first, so bit w is way w; the lowest set bit is the
    // first match.
    for (unsigned base = 0; base < p.ways; base += 64) {
        const Line *block = set + base;
        std::uint64_t match = 0;
        for (unsigned w = std::min(p.ways - base, 64u); w-- > 0;) {
            match = (match << 1) |
                    static_cast<std::uint64_t>((block[w].word & ~flags) ==
                                               want);
        }
        if (match)
            return &set[base + std::countr_zero(match)];
    }
    return nullptr;
}

const Cache::Line *
Cache::find(Addr addr) const
{
    return const_cast<Cache *>(this)->find(setIndex(addr), tagOf(addr));
}

unsigned
Cache::stackPosition(const Line *set, std::uint64_t stamp) const
{
    // The line itself never counts: its stamp is not above its own.
    unsigned pos = 0;
    for (unsigned w = 0; w < p.ways; ++w) {
        pos += static_cast<unsigned>(set[w].word >> 63) &
               static_cast<unsigned>(set[w].lastUse > stamp);
    }
    return pos;
}

Cache::Line &
Cache::evict(std::uint64_t s, Victim &victim)
{
    // The lowest invalid way, else the lowest way with the smallest
    // stamp. One pass finds whether a way is invalid and the smallest
    // stamp; a downward pass keeps the last, so lowest, way that
    // qualifies.
    Line *set = setAt(s);
    bool anyInvalid = false;
    std::uint64_t low = ~0ULL;
    for (unsigned w = 0; w < p.ways; ++w) {
        anyInvalid |= !(set[w].word & validBit);
        low = std::min(low, set[w].lastUse);
    }
    unsigned way = 0;
    if (anyInvalid) {
        for (unsigned w = p.ways; w-- > 0;)
            way = (set[w].word & validBit) ? way : w;
    } else {
        for (unsigned w = p.ways; w-- > 0;)
            way = set[w].lastUse == low ? w : way;
    }
    Line &slot = set[way];
    if (!anyInvalid) {
        const bool dirty = (slot.word & dirtyBit) != 0;
        ++st.evictions;
        st.dirtyEvictions += dirty;
        victim.valid = true;
        victim.dirty = dirty;
        victim.addr = lineAddr(slot, s);
    }
    return slot;
}

void
Cache::markDirty(Line &line)
{
    if ((line.word & (dirtyBit | eagerCleanBit)) == eagerCleanBit)
        ++st.rewrites;
    line.word = (line.word & ~eagerCleanBit) | dirtyBit;
}

bool
Cache::access(Addr addr, bool write, Victim &victim)
{
    ++st.accesses;
    if (++sinceDecay >= decayPeriod)
        decayHistogram();
    victim = Victim{};

    const std::uint64_t s = setIndex(addr);
    if (Line *line = find(s, tagOf(addr))) {
        ++st.hits;
        ++posHits[stackPosition(setAt(s), line->lastUse)];
        line->lastUse = ++useCounter;
        if (write)
            markDirty(*line);
        return true;
    }

    // Miss: install, evicting the LRU way (preferring invalid ways).
    Line &slot = evict(s, victim);
    slot.word = tagOf(addr) | validBit | (write ? dirtyBit : 0);
    slot.lastUse = ++useCounter;
    return false;
}

void
Cache::writeback(Addr addr, Victim &victim)
{
    victim = Victim{};
    const std::uint64_t s = setIndex(addr);
    if (Line *line = find(s, tagOf(addr))) {
        markDirty(*line);
        // A writeback does not constitute a use for recency purposes;
        // the line keeps its stack position.
        return;
    }
    // Write-allocate the incoming dirty line.
    Line &slot = evict(s, victim);
    slot.word = tagOf(addr) | validBit | dirtyBit;
    // Inserted near the LRU end: writeback-allocated lines are not
    // expected to be re-referenced soon.
    slot.lastUse = useCounter > lines.size() ? useCounter - lines.size()
                                             : 0;
}

bool
Cache::contains(Addr addr) const
{
    return find(addr) != nullptr;
}

bool
Cache::isDirty(Addr addr) const
{
    const Line *line = find(addr);
    return line && (line->word & dirtyBit);
}

unsigned
Cache::uselessPositions(int eagerThreshold) const
{
    if (eagerThreshold <= 0)
        return 0;
    std::uint64_t total = 0;
    for (auto h : posHits)
        total += h;
    if (total == 0)
        return 0;
    // Largest N such that the N LRU-end positions together receive
    // fewer than total/eagerThreshold hits.
    const double budget = static_cast<double>(total) /
                          static_cast<double>(eagerThreshold);
    std::uint64_t acc = 0;
    unsigned n = 0;
    for (unsigned w = p.ways; w-- > 0;) {
        acc += posHits[w];
        if (static_cast<double>(acc) >= budget)
            break;
        ++n;
    }
    return n;
}

unsigned
Cache::collectEagerCandidates(int eagerThreshold, unsigned maxCount,
                              std::vector<Addr> &out)
{
    const unsigned dead = uselessPositions(eagerThreshold);
    if (dead == 0 || maxCount == 0)
        return 0;
    unsigned found = 0;
    // Rotate through the sets so all of the LLC is eventually scanned
    // across calls; each call is bounded so the scanner stays cheap
    // (hardware would scan a few sets per idle interval, too).
    const std::uint64_t budget = std::min<std::uint64_t>(sets, 64);
    for (std::uint64_t visited = 0; visited < budget && found < maxCount;
         ++visited) {
        const std::uint64_t s = scanCursor;
        scanCursor = (scanCursor + 1) & (sets - 1);
        Line *set = setAt(s);
        for (unsigned w = 0; w < p.ways && found < maxCount; ++w) {
            Line &line = set[w];
            if ((line.word & (validBit | dirtyBit)) != (validBit | dirtyBit))
                continue;
            if (stackPosition(set, line.lastUse) < p.ways - dead)
                continue;
            line.word = (line.word & ~dirtyBit) | eagerCleanBit;
            ++st.eagerCleaned;
            out.push_back(lineAddr(line, s));
            ++found;
        }
    }
    return found;
}

void
Cache::decayHistogram()
{
    sinceDecay = 0;
    for (auto &h : posHits)
        h >>= 1;
}

void
Cache::reset()
{
    for (auto &line : lines)
        line = Line{};
    posHits.assign(p.ways, 0);
    useCounter = 0;
    scanCursor = 0;
    sinceDecay = 0;
    st = CacheStats{};
}

template <class Ar>
void
Cache::io(Ar &ar)
{
    ar.check(lines.size(), "checkpoint cache geometry mismatch: ", p.name);
    for (Line &line : lines) {
        // The unpacked fields; a tag that reaches the flag bits fails
        // the stream.
        std::uint64_t tag = line.word & (tagLimit - 1);
        bool valid = line.word & validBit;
        bool dirty = line.word & dirtyBit;
        bool eagerClean = line.word & eagerCleanBit;
        ar.u64Below(tag, tagLimit);
        ar.flag(valid, dirty, eagerClean);
        ar.u64(line.lastUse);
        if constexpr (Ar::reading) {
            line.word = tag | (valid ? validBit : 0) |
                        (dirty ? dirtyBit : 0) |
                        (eagerClean ? eagerCleanBit : 0);
        }
    }
    ar.check(posHits.size(), "checkpoint cache way-count mismatch: ",
             p.name);
    for (std::uint64_t &h : posHits)
        ar.u64(h);
    ar.u64(useCounter, scanCursor, sinceDecay);
    ar.u64(st.accesses, st.hits, st.evictions, st.dirtyEvictions,
           st.eagerCleaned, st.rewrites);
}

template void Cache::io(Serializer &);
template void Cache::io(Deserializer &);

void
Cache::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    const CacheStats *s = &st;
    reg.addCounter(prefix + ".accesses", [s] { return s->accesses; });
    reg.addCounter(prefix + ".hits", [s] { return s->hits; });
    reg.addGauge(prefix + ".hit_rate", [s] {
        return s->accesses ? static_cast<double>(s->hits) /
                                 static_cast<double>(s->accesses)
                           : 0.0;
    });
    reg.addCounter(prefix + ".evictions", [s] { return s->evictions; });
    reg.addCounter(prefix + ".dirty_evictions",
                   [s] { return s->dirtyEvictions; });
    reg.addCounter(prefix + ".eager_cleaned",
                   [s] { return s->eagerCleaned; },
                   "lines cleaned by eager mellow writebacks");
    reg.addCounter(prefix + ".rewrites", [s] { return s->rewrites; },
                   "eagerly-cleaned lines dirtied again");
}

} // namespace mct
