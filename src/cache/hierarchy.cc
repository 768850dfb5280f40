#include "cache/hierarchy.hh"

#include "common/instrument.hh"
#include "common/serialize.hh"

namespace mct
{

CacheHierarchy::CacheHierarchy(const HierarchyParams &params)
    : l1(params.l1), l2(params.l2),
      l3(std::make_shared<Cache>(params.l3))
{
}

CacheHierarchy::CacheHierarchy(const HierarchyParams &params,
                               std::shared_ptr<Cache> sharedL3)
    : l1(params.l1), l2(params.l2), l3(std::move(sharedL3))
{
}

void
CacheHierarchy::access(Addr addr, bool write, AccessOutcome &outcome)
{
    outcome.hitLevel = 0;
    outcome.writebacks.clear();

    Victim v1;
    if (l1.access(addr, write, v1)) {
        outcome.hitLevel = 1;
        if (spans)
            spans->probe(SpanStage::L1, true);
        return;
    }
    if (spans)
        spans->probe(SpanStage::L1, false);
    // L1 miss: the displaced dirty line moves into L2.
    if (v1.valid && v1.dirty)
        writebackToL2(v1.addr, outcome);

    Victim v2;
    if (l2.access(addr, false, v2)) {
        outcome.hitLevel = 2;
        if (spans)
            spans->probe(SpanStage::L2, true);
        return;
    }
    if (spans)
        spans->probe(SpanStage::L2, false);
    if (v2.valid && v2.dirty)
        writebackToL3(v2.addr, outcome);

    Victim v3;
    if (l3->access(addr, false, v3)) {
        outcome.hitLevel = 3;
        if (spans)
            spans->probe(SpanStage::Llc, true);
        if (v3.valid && v3.dirty)
            outcome.writebacks.push_back(v3.addr);
        return;
    }
    if (spans)
        spans->probe(SpanStage::Llc, false);
    if (v3.valid && v3.dirty)
        outcome.writebacks.push_back(v3.addr);
    outcome.hitLevel = 0; // fill from NVM
}

void
CacheHierarchy::writebackToL2(Addr addr, AccessOutcome &outcome)
{
    Victim victim;
    l2.writeback(addr, victim);
    if (victim.valid && victim.dirty)
        writebackToL3(victim.addr, outcome);
}

void
CacheHierarchy::writebackToL3(Addr addr, AccessOutcome &outcome)
{
    Victim victim;
    l3->writeback(addr, victim);
    if (victim.valid && victim.dirty)
        outcome.writebacks.push_back(victim.addr);
}

void
CacheHierarchy::reset()
{
    l1.reset();
    l2.reset();
    l3->reset();
}

template <class Ar>
void
CacheHierarchy::io(Ar &ar)
{
    l1.io(ar);
    l2.io(ar);
    l3->io(ar);
}

template void CacheHierarchy::io(Serializer &);
template void CacheHierarchy::io(Deserializer &);

void
CacheHierarchy::registerStats(StatRegistry &reg,
                              const std::string &prefix) const
{
    l1.registerStats(reg, prefix + ".l1d");
    l2.registerStats(reg, prefix + ".l2");
    l3->registerStats(reg, prefix + ".llc");
}

} // namespace mct
