#include "ref_controller.hh"

#include <algorithm>
#include <cmath>

#include "common/instrument.hh"
#include "common/logging.hh"
#include "common/serialize.hh"

namespace mct::ref
{

namespace
{

/**
 * A write may only be cancelled while at least this fraction of its
 * pulse remains; cancelling a nearly-finished write wastes wear for no
 * latency benefit (cf. write cancellation, Qureshi et al. HPCA'10).
 */
constexpr double minCancelRemaining = 0.25;

} // namespace

MemController::MemController(NvmDevice &device, const MemCtrlParams &params,
                             const MellowConfig &config)
    : dev(device), p(params), cfg(config),
      quota(params.quotaSliceTicks,
            device.params().bankWearCapacity() * device.numBanks())
{
    if (!cfg.valid())
        mct_fatal("MemController: invalid MellowConfig");
    if (p.drainLow > p.drainHigh || p.drainHigh > p.writeQCap)
        mct_fatal("MemController: bad drain thresholds");
    const unsigned nb = dev.numBanks();
    inflight.resize(nb);
    paused.resize(nb);
    retentionFifo.resize(nb);
    readQs.resize(nb);
    writeQs.resize(nb);
    eagerQs.resize(nb);
    quota.configure(cfg.wearQuota, cfg.wearQuotaTarget, 0,
                    dev.totalWear());
}

void
MemController::setConfig(const MellowConfig &config, Tick now)
{
    if (!config.valid())
        mct_fatal("MemController::setConfig: invalid MellowConfig");
    advance(now);
    const bool quotaChanged = config.wearQuota != cfg.wearQuota ||
        config.wearQuotaTarget != cfg.wearQuotaTarget;
    cfg = config;
    if (quotaChanged) {
        quota.configure(cfg.wearQuota, cfg.wearQuotaTarget, curTick,
                        dev.totalWear());
    }
    tryIssueAll(curTick);
}

void
MemController::advance(Tick to)
{
    if (to < curTick)
        return;
    // Retention scrubs whose deadline falls inside this window become
    // issueable work even on an otherwise idle controller.
    for (unsigned b = 0; b < retentionFifo.size(); ++b) {
        if (!retentionFifo[b].empty())
            processRetention(b, to);
    }
    // Banks can only become issueable after a completion (submits
    // already call tryIssue), except when everything was idle.
    if (inflightCount == 0 && (readCount || writeCount || eagerCount))
        tryIssueAll(curTick);
    while (inflightCount > 0) {
        Tick earliest = noEvent;
        for (const auto &fl : inflight) {
            if (fl.valid)
                earliest = std::min(earliest, fl.finish);
        }
        if (earliest > to)
            break;
        curTick = earliest;
        completeUpTo(curTick);
        tryIssueAll(curTick);
    }
    curTick = std::max(curTick, to);
}

bool
MemController::submitRead(Addr addr, Tick now, std::uint64_t id,
                          unsigned coreId)
{
    advance(now);
    if (readCount >= p.readQCap) {
        ++st.readQRejects;
        return false;
    }
    Request req;
    req.addr = addr;
    req.isWrite = false;
    req.source = ReqSource::Demand;
    req.arrival = curTick;
    req.id = id;
    req.coreId = coreId;
    const NvmLocation loc = dev.decode(addr);
    req.bank = loc.bank;
    req.row = loc.row;

    // Write cancellation: an arriving read may abort an in-progress
    // cancellable write on its bank (Section 2, "with or without
    // write cancellation").
    InFlight &fl = inflight[req.bank];
    if (fl.valid && fl.req.isWrite && fl.cancellable) {
        const Tick total = fl.finish - fl.start;
        const Tick remaining = fl.finish - curTick;
        if (total > 0 &&
            static_cast<double>(remaining) >
                minCancelRemaining * static_cast<double>(total)) {
            const bool pausePreferred =
                cfg.pauseInsteadOfCancel ||
                (fl.isQuotaWrite && p.quotaUsesPausing);
            if (pausePreferred && !paused[req.bank].valid)
                pauseWrite(req.bank, curTick);
            else
                cancelWrite(req.bank, curTick);
        }
    }
    readQs[req.bank].push_back(req);
    ++readCount;
    tryIssue(req.bank, curTick);
    return true;
}

bool
MemController::submitWrite(Addr addr, Tick now, unsigned coreId)
{
    advance(now);
    if (writeCount >= p.writeQCap) {
        ++st.writeQRejects;
        return false;
    }
    Request req;
    req.addr = addr;
    req.isWrite = true;
    req.source = ReqSource::Writeback;
    req.arrival = curTick;
    req.id = nextWriteId++;
    req.coreId = coreId;
    const NvmLocation loc = dev.decode(addr);
    req.bank = loc.bank;
    req.row = loc.row;
    writeQs[req.bank].push_back(req);
    ++writeCount;
    updateDrain();
    if (drainActive)
        tryIssueAll(curTick);
    else
        tryIssue(req.bank, curTick);
    return true;
}

bool
MemController::submitEager(Addr addr, Tick now, unsigned coreId)
{
    advance(now);
    if (eagerCount >= p.eagerQCap) {
        ++st.eagerQRejects;
        return false;
    }
    Request req;
    req.addr = addr;
    req.isWrite = true;
    req.source = ReqSource::Eager;
    req.arrival = curTick;
    req.id = nextWriteId++;
    req.coreId = coreId;
    const NvmLocation loc = dev.decode(addr);
    req.bank = loc.bank;
    req.row = loc.row;
    eagerQs[req.bank].push_back(req);
    ++eagerCount;
    tryIssue(req.bank, curTick);
    return true;
}

Tick
MemController::nextEventTick() const
{
    if (inflightCount > 0) {
        Tick earliest = noEvent;
        for (const auto &fl : inflight) {
            if (fl.valid)
                earliest = std::min(earliest, fl.finish);
        }
        return earliest;
    }
    if (readCount || writeCount || eagerCount)
        return curTick;
    return noEvent;
}

bool
MemController::idle() const
{
    return inflightCount == 0 && readCount == 0 && writeCount == 0 &&
           eagerCount == 0;
}

void
MemController::completeUpTo(Tick t)
{
    // Finalize in chronological order so statistics are well ordered.
    while (inflightCount > 0) {
        int bank = -1;
        Tick best = noEvent;
        for (unsigned b = 0; b < inflight.size(); ++b) {
            if (inflight[b].valid && inflight[b].finish <= t &&
                inflight[b].finish < best) {
                best = inflight[b].finish;
                bank = static_cast<int>(b);
            }
        }
        if (bank < 0)
            break;
        finish(static_cast<unsigned>(bank));
    }
}

void
MemController::finish(unsigned bankIdx)
{
    InFlight &fl = inflight[bankIdx];
    if (!fl.valid)
        mct_panic("finish() on idle bank ", bankIdx);
    Bank &bank = dev.bank(bankIdx);
    bank.busyTicks += fl.finish - fl.start;
    st.bankBusyTicks += fl.finish - fl.start;

    if (fl.req.isWrite) {
        accountWrite(fl.req, fl.wearFraction, fl.ratio);
        ++st.writesCompleted;
        ++bank.writes;
        if (fl.isQuotaWrite)
            ++st.quotaWrites;
        else if (fl.ratio > cfg.fastLatency)
            ++st.slowWrites;
        else
            ++st.fastWrites;
        if (fl.req.source == ReqSource::Eager)
            ++st.eagerWrites;
        if (fl.req.source == ReqSource::Scrub)
            ++st.scrubWrites;
        if (cfg.fastDisturbingReads && !disturbCount.empty()) {
            // Writing a row restores it; the disturb budget resets.
            auto &row = disturbCount[bankIdx];
            if (fl.req.row < row.size())
                row[fl.req.row] = 0;
        }
        bank.writing = false;
    } else {
        ++st.readsCompleted;
        ++bank.reads;
        st.readLatencySum += fl.finish - fl.req.arrival;
        completed.emplace_back(fl.req.id, fl.finish);
    }
    fl.valid = false;
    --inflightCount;
}

void
MemController::tryIssueAll(Tick t)
{
    for (unsigned b = 0; b < inflight.size(); ++b) {
        if (!inflight[b].valid)
            tryIssue(b, t);
    }
}

bool
MemController::tryIssue(unsigned bank, Tick t)
{
    if (inflight[bank].valid)
        return false;
    processRetention(bank, t);
    auto &rq = readQs[bank];
    auto &wq = writeQs[bank];
    auto &eq = eagerQs[bank];
    if (rq.empty() && wq.empty() && eq.empty() && !paused[bank].valid)
        return false;

    if (quota.enabled())
        quota.update(t, dev.totalWear());

    // Forced write drain: the queue hit its high watermark, so writes
    // take precedence until the level falls to the low watermark.
    if (drainActive && !wq.empty()) {
        Request req = wq.front();
        wq.pop_front();
        --writeCount;
        updateDrain();
        issueWrite(req, t, false);
        return true;
    }

    // Reads have the highest priority (Table 9).
    if (!rq.empty()) {
        Request req = rq.front();
        rq.pop_front();
        --readCount;
        issueRead(req, t);
        return true;
    }

    // A paused write resumes before any new write is dequeued.
    if (paused[bank].valid) {
        resumeWrite(bank, t);
        return true;
    }

    // Opportunistic writes when the bank has no pending reads.
    if (!wq.empty()) {
        Request req = wq.front();
        wq.pop_front();
        --writeCount;
        updateDrain();
        issueWrite(req, t, false);
        return true;
    }

    // Eager mellow writes have the lowest priority and never drain.
    if (!eq.empty()) {
        Request req = eq.front();
        eq.pop_front();
        --eagerCount;
        issueWrite(req, t, true);
        return true;
    }
    return false;
}

void
MemController::issueRead(const Request &req, Tick t)
{
    Bank &bank = dev.bank(req.bank);
    Tick start = std::max(t, bank.busyUntil);
    const bool hit = bank.openRow == static_cast<std::int64_t>(req.row);
    if (hit) {
        ++st.rowHits;
    } else {
        start = std::max(start, activateConstrainedStart(start));
        bank.openRow = static_cast<std::int64_t>(req.row);
        recentActivates.push_back(start);
        if (recentActivates.size() > 4)
            recentActivates.pop_front();
    }
    if (cfg.fastDisturbingReads)
        recordDisturb(req.bank, req.row);
    // The device owns (and span-attributes) the array time.
    const Tick lat = dev.accessRead(req.bank, hit,
                                    cfg.fastDisturbingReads, req.id,
                                    start);
    const Tick finishAt = start + lat + dev.params().tBURST;
    if (spans) {
        spans->stageMark(req.id, SpanStage::CtrlQueue, req.arrival,
                         start);
        spans->stageMark(req.id, SpanStage::Bank, start, finishAt);
    }
    InFlight &fl = inflight[req.bank];
    fl.valid = true;
    fl.req = req;
    fl.start = start;
    fl.finish = finishAt;
    fl.cancellable = false;
    fl.isQuotaWrite = false;
    fl.wearFraction = 1.0;
    bank.busyUntil = finishAt;
    bank.writing = false;
    ++inflightCount;
}

void
MemController::issueWrite(const Request &req, Tick t, bool fromEager)
{
    Bank &bank = dev.bank(req.bank);
    const Tick start = std::max(t, bank.busyUntil);

    double ratio;
    bool cancellable;
    bool quotaWrite = false;
    if (req.source == ReqSource::Scrub) {
        // Refresh writes restore full retention: nominal pulse, not
        // interruptible (they are correctness-critical).
        ratio = 1.0;
        cancellable = false;
    } else if (quota.enabled() && quota.restricted()) {
        // Restricted slice: slowest writes with enforced cancellation
        // so reads do not starve behind 4x pulses.
        ratio = MellowConfig::quotaRatio;
        cancellable = true;
        quotaWrite = true;
    } else if (fromEager) {
        ratio = cfg.slowLatency;
        cancellable = cfg.slowCancellation;
    } else if (cfg.bankAware &&
               writeQs[req.bank].size() <
                   static_cast<std::size_t>(cfg.bankAwareThreshold)) {
        // Bank-aware mellow writes: the bank backlog is shallow, so a
        // slow write will not block urgent work.
        ratio = cfg.slowLatency;
        cancellable = cfg.slowCancellation;
    } else {
        ratio = cfg.fastLatency;
        cancellable = cfg.fastCancellation;
    }

    Tick pulse = dev.params().writePulse(ratio);
    const bool shortRetention = cfg.shortRetentionWrites &&
        req.source != ReqSource::Scrub && !quotaWrite;
    if (shortRetention) {
        pulse = static_cast<Tick>(static_cast<double>(pulse) *
                                  dev.params().retentionRatio);
    }
    if (bank.latencyFactor != 1.0) {
        pulse = std::max<Tick>(
            1, static_cast<Tick>(static_cast<double>(pulse) *
                                 bank.latencyFactor));
    }
    const Tick finishAt = start + pulse + dev.params().tBURST;
    InFlight &fl = inflight[req.bank];
    fl.valid = true;
    fl.req = req;
    fl.start = start;
    fl.finish = finishAt;
    fl.ratio = ratio;
    fl.cancellable = cancellable;
    fl.isQuotaWrite = quotaWrite;
    fl.wearFraction = 1.0;
    if (shortRetention) {
        // The written row must be refreshed before its (scaled)
        // retention deadline.
        retentionFifo[req.bank].emplace_back(
            req.row, finishAt + dev.params().retentionTime);
        if (retentionFifo[req.bank].size() > 65536)
            retentionFifo[req.bank].pop_front();
    }
    bank.busyUntil = finishAt;
    bank.writing = true;
    bank.writeStart = start;
    bank.writeRatio = ratio;
    ++inflightCount;
}

void
MemController::cancelWrite(unsigned bankIdx, Tick t)
{
    InFlight &fl = inflight[bankIdx];
    if (!fl.valid || !fl.req.isWrite)
        mct_panic("cancelWrite: no write in flight on bank ", bankIdx);
    Bank &bank = dev.bank(bankIdx);

    // The aborted pulse still wears the cells in proportion to its
    // progress, and the full write must be redone later: this is the
    // lifetime cost of write cancellation. For a previously-paused
    // write only the in-flight segment's share remains chargeable.
    const Tick total = fl.finish - fl.start;
    double fraction = 0.0;
    if (total > 0 && t > fl.start) {
        fraction = static_cast<double>(t - fl.start) /
                   static_cast<double>(total);
        fraction = std::min(1.0, fraction);
    }
    accountWrite(fl.req, fraction * fl.wearFraction, fl.ratio);
    ++st.cancellations;

    const Tick busy = (t > fl.start ? t - fl.start : 0);
    bank.busyTicks += busy;
    st.bankBusyTicks += busy;
    bank.busyUntil = t;
    bank.writing = false;

    // Re-queue at the front of the originating queue; the entry's
    // buffer slot was never released, so a transient overflow past the
    // configured capacity is acceptable.
    if (fl.req.source == ReqSource::Eager) {
        eagerQs[bankIdx].push_front(fl.req);
        ++eagerCount;
    } else {
        writeQs[bankIdx].push_front(fl.req);
        ++writeCount;
        updateDrain();
    }
    fl.valid = false;
    --inflightCount;
}

void
MemController::pauseWrite(unsigned bankIdx, Tick t)
{
    InFlight &fl = inflight[bankIdx];
    if (!fl.valid || !fl.req.isWrite)
        mct_panic("pauseWrite: no write in flight on bank ", bankIdx);
    Bank &bank = dev.bank(bankIdx);

    const Tick total = fl.finish - fl.start;
    double fraction = 0.0;
    if (total > 0 && t > fl.start) {
        fraction = static_cast<double>(t - fl.start) /
                   static_cast<double>(total);
        fraction = std::min(1.0, fraction);
    }
    PausedWrite &pw = paused[bankIdx];
    // Work done so far is preserved (that is the point of pausing);
    // charge only the new progress of this pulse segment. A resumed
    // write's earlier progress was already charged (wearFraction).
    const double priorCharge = 1.0 - fl.wearFraction;
    const double charge = priorCharge + fraction * fl.wearFraction;
    accountWrite(fl.req, charge - priorCharge, fl.ratio);

    pw.valid = true;
    pw.req = fl.req;
    pw.ratio = fl.ratio;
    pw.remaining = fl.finish - t;
    pw.isQuotaWrite = fl.isQuotaWrite;
    pw.fractionCharged = charge;
    ++st.pausedWrites;

    const Tick busy = (t > fl.start ? t - fl.start : 0);
    bank.busyTicks += busy;
    st.bankBusyTicks += busy;
    bank.busyUntil = t;
    bank.writing = false;
    fl.valid = false;
    --inflightCount;
}

void
MemController::resumeWrite(unsigned bankIdx, Tick t)
{
    PausedWrite &pw = paused[bankIdx];
    if (!pw.valid)
        mct_panic("resumeWrite: nothing paused on bank ", bankIdx);
    Bank &bank = dev.bank(bankIdx);
    const Tick start = std::max(t, bank.busyUntil);
    const Tick finishAt = start + pw.remaining;
    InFlight &fl = inflight[bankIdx];
    fl.valid = true;
    fl.req = pw.req;
    fl.start = start;
    fl.finish = finishAt;
    fl.ratio = pw.ratio;
    // A resumed write may be paused again by a later read.
    fl.cancellable = true;
    fl.isQuotaWrite = pw.isQuotaWrite;
    fl.wearFraction = 1.0 - pw.fractionCharged;
    bank.busyUntil = finishAt;
    bank.writing = true;
    bank.writeStart = start;
    bank.writeRatio = pw.ratio;
    ++inflightCount;
    pw.valid = false;
}

Tick
MemController::activateConstrainedStart(Tick t)
{
    if (recentActivates.size() < 4)
        return t;
    return std::max(t, recentActivates.front() + dev.params().tFAW);
}

void
MemController::updateDrain()
{
    if (!drainActive && writeCount >= p.drainHigh) {
        drainActive = true;
        ++nDrains;
        if (trace)
            trace->record(TraceEventType::WritebackBurst, 1.0,
                          static_cast<double>(writeCount),
                          static_cast<double>(nDrains));
    } else if (drainActive && writeCount <= p.drainLow) {
        drainActive = false;
        if (trace)
            trace->record(TraceEventType::WritebackBurst, 0.0,
                          static_cast<double>(writeCount),
                          static_cast<double>(nDrains));
    }
}

void
MemController::enqueueScrub(unsigned bankIdx, std::uint64_t row)
{
    Request req;
    // Reconstruct a representative line address inside the row.
    const NvmParams &np = dev.params();
    const std::uint64_t globalRow =
        row * np.numBanks + bankIdx;
    req.addr = globalRow * np.rowBytes;
    req.isWrite = true;
    req.source = ReqSource::Scrub;
    req.arrival = curTick;
    req.id = nextWriteId++;
    req.bank = bankIdx;
    req.row = row;
    // Scrubs are mandatory: they may transiently exceed the write
    // queue capacity, like re-queued cancelled writes.
    writeQs[bankIdx].push_back(req);
    ++writeCount;
    updateDrain();
}

void
MemController::processRetention(unsigned bankIdx, Tick t)
{
    auto &fifo = retentionFifo[bankIdx];
    while (!fifo.empty() && fifo.front().second <= t) {
        enqueueScrub(bankIdx, fifo.front().first);
        fifo.pop_front();
    }
}

void
MemController::ensureDisturbTable()
{
    if (!disturbCount.empty())
        return;
    disturbCount.assign(
        dev.numBanks(),
        std::vector<std::uint16_t>(dev.params().rowsPerBank(), 0));
}

void
MemController::recordDisturb(unsigned bankIdx, std::uint64_t row)
{
    ensureDisturbTable();
    auto &counts = disturbCount[bankIdx];
    if (row >= counts.size())
        mct_panic("recordDisturb: row out of range");
    if (++counts[row] >= dev.params().disturbThreshold) {
        counts[row] = 0;
        enqueueScrub(bankIdx, row);
    }
}

void
MemController::accountWrite(const Request &req, double fraction,
                            double ratio)
{
    const double wear = fraction * NvmParams::wearOfWrite(ratio);
    dev.addWear(req.bank, req.row, wear);
    st.wearAdded += wear;
    st.writeEnergyUnits += fraction * std::pow(ratio, p.writeEnergyExp);
}

void
MemController::attachTrace(EventTrace *t)
{
    trace = t;
    quota.attachTrace(t);
}

namespace
{

template <class Ar>
void
ioRequest(Ar &ar, Request &r)
{
    ar.u64(r.addr);
    ar.flag(r.isWrite);
    ar.u8(r.source);
    ar.u64(r.arrival, r.id);
    ar.u32(r.coreId, r.bank);
    ar.u64(r.row);
}

template <class Ar>
void
ioQueues(Ar &ar, std::vector<std::deque<Request>> &qs)
{
    ar.check(qs.size(), "checkpoint controller bank-count mismatch");
    for (std::deque<Request> &q : qs)
        ar.seq(q, [&ar](Request &r) { ioRequest(ar, r); });
}

} // namespace

template <class Ar>
void
MemController::io(Ar &ar)
{
    cfg.io(ar);
    quota.io(ar);
    ar.u64(curTick);
    ioQueues(ar, readQs);
    ioQueues(ar, writeQs);
    ioQueues(ar, eagerQs);
    ar.u32(readCount, writeCount, eagerCount);
    ar.check(inflight.size(),
             "checkpoint controller in-flight size mismatch");
    for (InFlight &f : inflight) {
        ar.flag(f.valid);
        ioRequest(ar, f.req);
        ar.u64(f.start, f.finish);
        ar.f64(f.ratio);
        ar.flag(f.cancellable, f.isQuotaWrite);
        ar.f64(f.wearFraction);
    }
    ar.check(paused.size(), "checkpoint controller paused size mismatch");
    for (PausedWrite &w : paused) {
        ar.flag(w.valid);
        ioRequest(ar, w.req);
        ar.f64(w.ratio);
        ar.u64(w.remaining);
        ar.flag(w.isQuotaWrite);
        ar.f64(w.fractionCharged);
    }
    ar.check(retentionFifo.size(),
             "checkpoint controller retention size mismatch");
    for (auto &fifo : retentionFifo)
        ar.seq(fifo, [&ar](auto &row) { ar.u64(row.first, row.second); });
    // The disturb table is lazily allocated, so its shape travels too.
    ar.seq(disturbCount, [&ar](std::vector<std::uint16_t> &rows) {
        ar.seq(rows, [&ar](std::uint16_t &c) { ar.u32(c); });
    });
    ar.u32(inflightCount);
    ar.seq(completed, [&ar](auto &c) { ar.u64(c.first, c.second); });
    ar.flag(drainActive);
    ar.seq(recentActivates, [&ar](Tick &t) { ar.u64(t); });
    ar.u64(nextWriteId);
    st.io(ar);
    ar.u64(nDrains);
}

template void MemController::io(Serializer &);
template void MemController::io(Deserializer &);

} // namespace mct::ref
