#include "ref_cache.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace mct::ref
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
    lines.resize(sets * p.ways);
    posHits.assign(p.ways, 0);
}

std::uint64_t
Cache::setIndex(Addr addr) const
{
    return (addr / lineBytes) & (sets - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr / lineBytes / sets;
}

Cache::Line *
Cache::find(Addr addr)
{
    const std::uint64_t s = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines[s * p.ways];
    for (unsigned w = 0; w < p.ways; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::find(Addr addr) const
{
    return const_cast<Cache *>(this)->find(addr);
}

unsigned
Cache::stackPosition(const Line &line) const
{
    const std::size_t idx = static_cast<std::size_t>(&line - &lines[0]);
    const std::size_t setBase = idx - (idx % p.ways);
    unsigned pos = 0;
    for (unsigned w = 0; w < p.ways; ++w) {
        const Line &other = lines[setBase + w];
        if (&other != &line && other.valid && other.lastUse > line.lastUse)
            ++pos;
    }
    return pos;
}

bool
Cache::access(Addr addr, bool write, Victim &victim)
{
    ++st.accesses;
    if (++sinceDecay >= decayPeriod)
        decayHistogram();
    victim = Victim{};

    if (Line *line = find(addr)) {
        ++st.hits;
        ++posHits[stackPosition(*line)];
        line->lastUse = ++useCounter;
        if (write) {
            if (line->eagerClean && !line->dirty)
                ++st.rewrites;
            line->dirty = true;
            line->eagerClean = false;
        }
        return true;
    }

    // Miss: install, evicting the LRU way (preferring invalid ways).
    const std::uint64_t s = setIndex(addr);
    Line *base = &lines[s * p.ways];
    Line *slot = nullptr;
    for (unsigned w = 0; w < p.ways; ++w) {
        if (!base[w].valid) {
            slot = &base[w];
            break;
        }
    }
    if (!slot) {
        slot = &base[0];
        for (unsigned w = 1; w < p.ways; ++w) {
            if (base[w].lastUse < slot->lastUse)
                slot = &base[w];
        }
        ++st.evictions;
        if (slot->dirty)
            ++st.dirtyEvictions;
        victim.valid = true;
        victim.dirty = slot->dirty;
        victim.addr = (slot->tag * sets +
                       (static_cast<Addr>(s))) * lineBytes;
    }
    slot->tag = tagOf(addr);
    slot->valid = true;
    slot->dirty = write;
    slot->eagerClean = false;
    slot->lastUse = ++useCounter;
    return false;
}

void
Cache::writeback(Addr addr, Victim &victim)
{
    victim = Victim{};
    if (Line *line = find(addr)) {
        if (line->eagerClean && !line->dirty)
            ++st.rewrites;
        line->dirty = true;
        line->eagerClean = false;
        // A writeback does not constitute a use for recency purposes;
        // the line keeps its stack position.
        return;
    }
    // Write-allocate the incoming dirty line.
    const std::uint64_t s = setIndex(addr);
    Line *base = &lines[s * p.ways];
    Line *slot = nullptr;
    for (unsigned w = 0; w < p.ways; ++w) {
        if (!base[w].valid) {
            slot = &base[w];
            break;
        }
    }
    if (!slot) {
        slot = &base[0];
        for (unsigned w = 1; w < p.ways; ++w) {
            if (base[w].lastUse < slot->lastUse)
                slot = &base[w];
        }
        ++st.evictions;
        if (slot->dirty)
            ++st.dirtyEvictions;
        victim.valid = true;
        victim.dirty = slot->dirty;
        victim.addr = (slot->tag * sets +
                       (static_cast<Addr>(s))) * lineBytes;
    }
    slot->tag = tagOf(addr);
    slot->valid = true;
    slot->dirty = true;
    slot->eagerClean = false;
    // Inserted near the LRU end: writeback-allocated lines are not
    // expected to be re-referenced soon.
    slot->lastUse = useCounter > lines.size() ? useCounter - lines.size()
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
    return line && line->dirty;
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
        Line *base = &lines[s * p.ways];
        for (unsigned w = 0; w < p.ways && found < maxCount; ++w) {
            Line &line = base[w];
            if (!line.valid || !line.dirty)
                continue;
            if (stackPosition(line) < p.ways - dead)
                continue;
            line.dirty = false;
            line.eagerClean = true;
            ++st.eagerCleaned;
            out.push_back((line.tag * sets + s) * lineBytes);
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
        ar.u64(line.tag);
        ar.flag(line.valid, line.dirty, line.eagerClean);
        ar.u64(line.lastUse);
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

} // namespace mct::ref
