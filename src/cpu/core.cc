#include "cpu/core.hh"

#include <algorithm>
#include <cmath>

#include "common/instrument.hh"
#include "common/logging.hh"
#include "common/serialize.hh"

namespace mct
{

namespace
{
/** Read ids carry the issuing core in their top byte. */
constexpr unsigned coreIdShift = 56;
} // namespace

CoreStats
CoreStats::delta(const CoreStats &earlier) const
{
    CoreStats d;
    d.instructions = instructions - earlier.instructions;
    d.memOps = memOps - earlier.memOps;
    d.l1Hits = l1Hits - earlier.l1Hits;
    d.l2Hits = l2Hits - earlier.l2Hits;
    d.l3Hits = l3Hits - earlier.l3Hits;
    d.memReads = memReads - earlier.memReads;
    d.memWrites = memWrites - earlier.memWrites;
    d.eagerSubmitted = eagerSubmitted - earlier.eagerSubmitted;
    d.memStallTicks = memStallTicks - earlier.memStallTicks;
    d.wbStallTicks = wbStallTicks - earlier.wbStallTicks;
    return d;
}

void
CompletionRouter::drain()
{
    auto &done = ctrl.completedReads();
    for (const auto &[id, tick] : done) {
        const unsigned core = static_cast<unsigned>(id >> coreIdShift);
        if (core >= cores.size())
            mct_panic("completion for unknown core ", core);
        cores[core]->onReadComplete(id, tick);
    }
    done.clear();
}

Core::Core(unsigned id, const CoreParams &params, Workload &workload,
           CacheHierarchy &hierarchy, MemController &controller,
           CompletionRouter &completionRouter)
    : coreId(id), p(params), wl(workload), hier(hierarchy),
      ctrl(controller), router(completionRouter),
      rng(0xC0DEull + id)
{
    if (p.issueWidth == 0)
        mct_fatal("Core: issueWidth must be positive");
    router.addCore(this);
}

std::uint64_t
Core::makeReadId()
{
    return (static_cast<std::uint64_t>(coreId) << coreIdShift) |
           (nextReadSeq++ & ((1ULL << coreIdShift) - 1));
}

double
Core::ipc() const
{
    if (cpuTick == 0)
        return 0.0;
    const double cycles = static_cast<double>(cpuTick) /
                          static_cast<double>(cpuCyclePs);
    return static_cast<double>(st.instructions) / cycles;
}

void
Core::onReadComplete(std::uint64_t id, Tick tick)
{
    const auto it = std::find(outstanding.begin(), outstanding.end(), id);
    if (it != outstanding.end()) {
        *it = outstanding.back();
        outstanding.pop_back();
    }
    lastCompletionTick = std::max(lastCompletionTick, tick);
    if (spans)
        spans->end(id, tick, 0);
}

InstCount
Core::executeGap(InstCount maxInsts)
{
    const InstCount todo =
        std::min<InstCount>(gapLeft, maxInsts);
    if (todo > 0) {
        const double cycles = static_cast<double>(todo) /
                              static_cast<double>(p.issueWidth);
        cpuTick += static_cast<Tick>(cycles *
                                     static_cast<double>(cpuCyclePs));
        st.instructions += todo;
        gapLeft -= static_cast<std::uint32_t>(todo);
    }
    return todo;
}

void
Core::run(InstCount insts)
{
    const InstCount target = st.instructions + insts;
    while (st.instructions < target) {
        if (!havePending) {
            wl.next(pendingOp);
            gapLeft = pendingOp.gap;
            havePending = true;
        }
        // Retire the plain-instruction gap (possibly split across
        // run() quanta so sampling windows stay exact).
        executeGap(target - st.instructions);
        if (gapLeft > 0)
            return; // quantum exhausted mid-gap
        if (st.instructions >= target)
            return; // the memory op belongs to the next quantum
        executeMemOp();
        havePending = false;
        st.instructions += 1; // the memory instruction itself
    }
}

void
Core::executeMemOp()
{
    ++st.memOps;
    // Every access gets an id so span sampling is keyed on a stable
    // grid whether or not it misses (only misses submit the id).
    const std::uint64_t id = makeReadId();
    if (spans)
        spans->begin(id, pendingOp.addr, pendingOp.isWrite, cpuTick);
    hier.access(pendingOp.addr, pendingOp.isWrite, outcome);

    for (Addr wb : outcome.writebacks)
        submitWriteback(wb);

    switch (outcome.hitLevel) {
      case 1:
        ++st.l1Hits;
        // Fully pipelined (Table 8: 2-cycle hit, hidden at 8-issue).
        break;
      case 2:
        ++st.l2Hits;
        cpuTick += static_cast<Tick>(p.l2StallCycles *
                                     static_cast<double>(cpuCyclePs));
        break;
      case 3:
        ++st.l3Hits;
        cpuTick += static_cast<Tick>(p.l3StallCycles *
                                     static_cast<double>(cpuCyclePs));
        break;
      default: {
        // NVM demand read (store misses fetch their line too:
        // write-allocate). Retry on a full read queue.
        while (!ctrl.submitRead(pendingOp.addr, cpuTick, id, coreId)) {
            const Tick before = cpuTick;
            pumpController();
            cpuTick = std::max(cpuTick, ctrl.now());
            st.memStallTicks += cpuTick - before;
        }
        ++st.memReads;
        outstanding.push_back(id);
        if (spans)
            spans->stageEnter(id, SpanStage::Mshr, cpuTick);
        router.drain();

        const unsigned limit =
            std::min<unsigned>(wl.traits().mlp, p.maxMshrs);
        if (pendingOp.dependent && !pendingOp.isWrite) {
            waitForRead(id);
        } else if (outstanding.size() >= limit) {
            waitOutstandingBelow(limit);
        }
        break;
      }
    }

    // Hits close their span here (the hit stage absorbs the exposed
    // stall); misses close when the completion is routed back.
    if (spans && outcome.hitLevel != 0)
        spans->end(id, cpuTick, outcome.hitLevel);

    if (++memOpsSinceEagerCheck >= p.eagerCheckPeriod) {
        memOpsSinceEagerCheck = 0;
        maybeCollectEager();
    }
}

void
Core::submitWriteback(Addr addr)
{
    const Tick before = cpuTick;
    while (!ctrl.submitWrite(addr, cpuTick, coreId)) {
        // Write-queue backpressure stalls the LLC and hence the core.
        pumpController();
        cpuTick = std::max(cpuTick, ctrl.now());
    }
    st.wbStallTicks += cpuTick - before;
    ++st.memWrites;
}

void
Core::waitOutstandingBelow(std::size_t limit)
{
    const Tick before = cpuTick;
    while (outstanding.size() >= limit) {
        pumpController();
    }
    cpuTick = std::max(cpuTick, lastCompletionTick);
    st.memStallTicks += cpuTick - before;
}

void
Core::waitForRead(std::uint64_t id)
{
    const Tick before = cpuTick;
    while (std::find(outstanding.begin(), outstanding.end(), id) !=
           outstanding.end()) {
        pumpController();
    }
    cpuTick = std::max(cpuTick, lastCompletionTick);
    st.memStallTicks += cpuTick - before;
}

void
Core::pumpController()
{
    const Tick next = ctrl.nextEventTick();
    if (next == MemController::noEvent)
        mct_panic("core ", coreId, " waiting on an idle controller");
    ctrl.advance(next == ctrl.now() ? next + 1 : next);
    router.drain();
}

void
Core::maybeCollectEager()
{
    const MellowConfig &cfg = ctrl.config();
    if (!cfg.eagerWritebacks)
        return;
    const unsigned space = std::min(8u, ctrl.eagerFree());
    if (space == 0)
        return;
    eagerScratch.clear();
    hier.llc().collectEagerCandidates(cfg.eagerThreshold, space,
                                      eagerScratch);
    for (Addr addr : eagerScratch) {
        if (!ctrl.submitEager(addr, cpuTick, coreId))
            break;
        ++st.eagerSubmitted;
    }
}

void
Core::registerStats(StatRegistry &reg, const std::string &prefix) const
{
    const CoreStats *s = &st;
    reg.addCounter(prefix + ".instructions",
                   [s] { return s->instructions; });
    reg.addGauge(prefix + ".ipc", [this] { return ipc(); });
    reg.addCounter(prefix + ".mem_ops", [s] { return s->memOps; });
    reg.addCounter(prefix + ".l1_hits", [s] { return s->l1Hits; });
    reg.addCounter(prefix + ".l2_hits", [s] { return s->l2Hits; });
    reg.addCounter(prefix + ".l3_hits", [s] { return s->l3Hits; });
    reg.addCounter(prefix + ".nvm_reads", [s] { return s->memReads; });
    reg.addCounter(prefix + ".nvm_writebacks",
                   [s] { return s->memWrites; });
    reg.addCounter(prefix + ".eager_submitted",
                   [s] { return s->eagerSubmitted; });
    reg.addCounter(prefix + ".mem_stall_ticks",
                   [s] { return s->memStallTicks; });
    reg.addCounter(prefix + ".wb_stall_ticks",
                   [s] { return s->wbStallTicks; });
}

template <class Ar>
void
Core::io(Ar &ar)
{
    // eagerScratch and outcome are per-call scratch, cleared before
    // every use.
    rng.io(ar);
    ar.u64(cpuTick, nextReadSeq);
    // The MSHR set is unordered; it travels sorted so identical state
    // always produces identical bytes.
    std::vector<std::uint64_t> ids = outstanding;
    std::sort(ids.begin(), ids.end());
    ar.seq(ids, [&ar](std::uint64_t &id) { ar.u64(id); });
    if constexpr (Ar::reading)
        outstanding = std::move(ids);
    ar.u64(lastCompletionTick, memOpsSinceEagerCheck);
    ar.u32(pendingOp.gap);
    ar.flag(pendingOp.isWrite);
    ar.u64(pendingOp.addr);
    ar.flag(pendingOp.dependent, havePending);
    ar.u32(gapLeft);
    st.io(ar);
}

template void Core::io(Serializer &);
template void Core::io(Deserializer &);

} // namespace mct
