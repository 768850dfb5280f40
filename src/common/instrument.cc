#include "common/instrument.hh"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string_view>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/serialize.hh"

namespace mct
{

// --------------------------------------------------------------------
// LogHistogram
// --------------------------------------------------------------------

void
LogHistogram::record(double v)
{
    std::size_t idx = 0;
    if (v >= 1.0) {
        idx = 1 + static_cast<std::size_t>(std::floor(std::log2(v)));
        idx = std::min(idx, numBuckets - 1);
    }
    ++buckets_[idx];
    ++n;
    total += std::max(v, 0.0);
}

double
LogHistogram::bucketLow(std::size_t i)
{
    return i == 0 ? 0.0 : std::pow(2.0, static_cast<double>(i - 1));
}

double
LogHistogram::percentile(double p) const
{
    return logHistogramPercentile(buckets_, n, p);
}

double
logHistogramPercentile(std::span<const std::uint64_t> buckets,
                       std::uint64_t count, double p)
{
    constexpr std::size_t top = LogHistogram::numBuckets;
    if (count == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    // Target rank in (0, count]; rank r falls in the bucket holding
    // the r-th smallest observation, placed uniformly within its
    // bounds.
    const double target = p * static_cast<double>(count);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets.size() && i < top; ++i) {
        if (buckets[i] == 0)
            continue;
        cum += buckets[i];
        if (static_cast<double>(cum) >= target) {
            const double lo = LogHistogram::bucketLow(i);
            const double hi =
                i + 1 < top ? LogHistogram::bucketLow(i + 1) : lo * 2.0;
            const double into =
                target - static_cast<double>(cum - buckets[i]);
            const double frac = std::clamp(
                into / static_cast<double>(buckets[i]), 0.0, 1.0);
            return lo + (hi - lo) * frac;
        }
    }
    // Unreachable when counts are consistent; fall back to the top.
    return LogHistogram::bucketLow(top - 1) * 2.0;
}

void
LogHistogram::reset()
{
    buckets_.fill(0);
    n = 0;
    total = 0.0;
}

// --------------------------------------------------------------------
// StatRegistry
// --------------------------------------------------------------------

StatRegistry::Entry &
StatRegistry::insert(const std::string &path, const std::string &desc)
{
    auto [it, isNew] = entries.try_emplace(path);
    if (!isNew)
        mct_panic("stat '", path, "' is already registered");
    it->second.desc = desc;
    return it->second;
}

void
StatRegistry::addCounter(const std::string &path, CounterFn fn,
                         const std::string &desc)
{
    Entry &e = insert(path, desc);
    e.kind = StatKind::Counter;
    e.counter = std::move(fn);
}

void
StatRegistry::addGauge(const std::string &path, GaugeFn fn,
                       const std::string &desc)
{
    Entry &e = insert(path, desc);
    e.kind = StatKind::Gauge;
    e.gauge = std::move(fn);
}

std::uint64_t &
StatRegistry::addCounterCell(const std::string &path,
                             const std::string &desc)
{
    Entry &e = insert(path, desc);
    e.kind = StatKind::Counter;
    e.cell = std::make_unique<std::uint64_t>(0);
    std::uint64_t *cell = e.cell.get();
    e.counter = [cell] { return *cell; };
    return *cell;
}

LogHistogram &
StatRegistry::addHistogram(const std::string &path,
                           const std::string &desc)
{
    Entry &e = insert(path, desc);
    e.kind = StatKind::Histogram;
    e.hist = std::make_unique<LogHistogram>();
    return *e.hist;
}

void
StatRegistry::markHost(const std::string &path)
{
    const auto it = entries.find(path);
    if (it == entries.end())
        mct_panic("markHost on unregistered stat '", path, "'");
    it->second.host = true;
}

bool
StatRegistry::isHost(const std::string &path) const
{
    const auto it = entries.find(path);
    return it != entries.end() && it->second.host;
}

bool
StatRegistry::has(const std::string &path) const
{
    return entries.count(path) > 0;
}

std::string
StatRegistry::description(const std::string &path) const
{
    const auto it = entries.find(path);
    return it == entries.end() ? std::string() : it->second.desc;
}

std::vector<std::string>
StatRegistry::paths() const
{
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const auto &[path, e] : entries)
        out.push_back(path);
    return out;
}

double
StatRegistry::value(const std::string &path) const
{
    const auto it = entries.find(path);
    if (it == entries.end())
        return 0.0;
    const Entry &e = it->second;
    switch (e.kind) {
      case StatKind::Counter:
        return static_cast<double>(e.counter());
      case StatKind::Gauge:
        return e.gauge();
      case StatKind::Histogram:
        return e.hist->sum();
    }
    return 0.0;
}

StatSnapshot
StatRegistry::snapshot(StatScope scope) const
{
    StatSnapshot snap;
    for (const auto &[path, e] : entries) {
        if (scope == StatScope::Sim && e.host)
            continue;
        if (scope == StatScope::Host && !e.host)
            continue;
        StatValue v;
        v.kind = e.kind;
        switch (e.kind) {
          case StatKind::Counter:
            v.num = static_cast<double>(e.counter());
            break;
          case StatKind::Gauge:
            v.num = e.gauge();
            break;
          case StatKind::Histogram: {
            v.num = e.hist->sum();
            v.count = e.hist->count();
            const auto &b = e.hist->buckets();
            std::size_t last = b.size();
            while (last > 0 && b[last - 1] == 0)
                --last;
            v.buckets.assign(b.begin(), b.begin() + last);
            break;
          }
        }
        snap.emplace(path, std::move(v));
    }
    return snap;
}

StatSnapshot
StatRegistry::delta(const StatSnapshot &from, const StatSnapshot &to)
{
    StatSnapshot out;
    for (const auto &[path, newer] : to) {
        StatValue d = newer;
        const auto it = from.find(path);
        if (it != from.end() && newer.kind != StatKind::Gauge) {
            const StatValue &older = it->second;
            d.num -= older.num;
            d.count -= older.count;
            for (std::size_t i = 0;
                 i < d.buckets.size() && i < older.buckets.size(); ++i)
                d.buckets[i] -= older.buckets[i];
            while (!d.buckets.empty() && d.buckets.back() == 0)
                d.buckets.pop_back();
        }
        out.emplace(path, std::move(d));
    }
    return out;
}

void
writeSnapshotJson(std::ostream &os, const StatSnapshot &snap)
{
    JsonWriter w(os);
    writeSnapshot(w, snap);
}

void
writeSnapshot(JsonWriter &w, const StatSnapshot &snap)
{
    w.beginObject();
    for (const auto &[path, v] : snap) {
        if (v.kind == StatKind::Histogram) {
            w.key(path).beginObject();
            w.kv("count", v.count);
            w.kv("sum", v.num);
            w.kv("mean",
                 v.count ? v.num / static_cast<double>(v.count) : 0.0);
            w.key("buckets").beginArray();
            for (std::size_t i = 0; i < v.buckets.size(); ++i) {
                if (v.buckets[i] == 0)
                    continue;
                w.beginArray()
                    .value(LogHistogram::bucketLow(i))
                    .value(v.buckets[i])
                    .endArray();
            }
            w.endArray();
            w.endObject();
        } else {
            w.kv(path, v.num);
        }
    }
    w.endObject();
}

void
writeStatsText(std::ostream &os, const StatRegistry &reg)
{
    const auto text = [](const StatValue &v) {
        std::ostringstream s; // six significant digits by default
        if (v.kind == StatKind::Counter)
            s << std::fixed << std::setprecision(0) << v.num;
        else if (v.kind == StatKind::Gauge)
            s << v.num;
        else
            s << "n=" << v.count << " mean="
              << (v.count ? v.num / static_cast<double>(v.count) : 0.0);
        return s.str();
    };
    const StatSnapshot snap = reg.snapshot();
    std::vector<std::string> values;
    std::size_t pathW = 0, valueW = 0;
    for (const auto &[path, v] : snap) {
        values.push_back(text(v));
        pathW = std::max(pathW, path.size());
        valueW = std::max(valueW, values.back().size());
    }
    std::size_t i = 0;
    for (const auto &[path, v] : snap) {
        os << std::left << std::setw(static_cast<int>(pathW) + 2) << path
           << std::right << std::setw(static_cast<int>(valueW))
           << values[i++];
        const std::string desc = reg.description(path);
        if (!desc.empty())
            os << "  # " << desc;
        os << '\n';
    }
}

namespace
{

/**
 * Write one Chrome trace-event document: the {"displayTimeUnit":"ms",
 * "traceEvents":[...]} frame around the events @p body writes.
 */
template <typename Body>
void
writeChromeDoc(std::ostream &os, Body &&body)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("displayTimeUnit", "ms");
    w.key("traceEvents").beginArray();
    body(w);
    w.endArray();
    w.endObject();
    os << '\n';
}

/** A metadata event naming thread @p tid of process @p pid, or the
 *  process itself when @p tid is 0. */
void
chromeName(JsonWriter &w, int pid, int tid, std::string_view name)
{
    w.beginObject();
    w.kv("name", tid ? "thread_name" : "process_name");
    w.kv("ph", "M");
    w.kv("pid", pid);
    if (tid)
        w.kv("tid", tid);
    w.key("args").beginObject();
    w.kv("name", name);
    w.endObject();
    w.endObject();
}

/*
 * The event and span writers format each record straight into one
 * chunk string: keys go in as literals with their quotes, colon and
 * comma, and the names between quotes come from toString(),
 * traceArgNames() and spanStageTrack(), which need no escaping.
 */

/** Bytes a record writer collects before handing them to its stream. */
constexpr std::size_t chunkBytes = 64 * 1024;

/** The opening of a Chrome trace-event document, up to its first
 *  event. */
constexpr std::string_view chromeDocOpen =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

/** A chunk string with room for one chunk and its last record. */
std::string
chunkBuffer()
{
    std::string buf;
    buf.reserve(chunkBytes + 1024);
    return buf;
}

/** Hand @p buf to @p os once it holds a chunk, or, when @p last,
 *  whatever it holds. */
void
passChunk(std::ostream &os, std::string &buf, bool last = false)
{
    if (buf.size() < chunkBytes && !last)
        return;
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
}

/** Append @p v in decimal. */
void
appendU64(std::string &buf, std::uint64_t v)
{
    char num[20];
    buf.append(num, std::to_chars(num, num + sizeof num, v).ptr);
}

/** Append @p e's three arguments as "name":value members, the first
 *  after @p open and the others after a comma. */
void
appendArgs(std::string &buf, const TraceEvent &e, char open)
{
    const auto names = traceArgNames(e.type);
    for (std::size_t a = 0; a < names.size(); ++a) {
        buf += a == 0 ? open : ',';
        buf += '"';
        buf += names[a];
        buf += "\":";
        appendJsonNumber(buf, e.args[a]);
    }
}

} // namespace

// --------------------------------------------------------------------
// EventTrace
// --------------------------------------------------------------------

const char *
toString(TraceEventType type)
{
    switch (type) {
      case TraceEventType::PhaseChange:
        return "phase_change";
      case TraceEventType::SamplingRoundStart:
        return "sampling_round_start";
      case TraceEventType::SamplingRoundEnd:
        return "sampling_round_end";
      case TraceEventType::PredictionMade:
        return "prediction_made";
      case TraceEventType::ConfigApplied:
        return "config_applied";
      case TraceEventType::QuotaThrottle:
        return "quota_throttle";
      case TraceEventType::HealthCheckPass:
        return "health_check_pass";
      case TraceEventType::HealthCheckFallback:
        return "health_check_fallback";
      case TraceEventType::WritebackBurst:
        return "writeback_burst";
      case TraceEventType::FaultInjected:
        return "fault_injected";
      case TraceEventType::RecoveryAction:
        return "recovery_action";
      case TraceEventType::SpanComplete:
        return "span_complete";
      case TraceEventType::DecisionProvenance:
        return "decision_provenance";
      case TraceEventType::AlertRaised:
        return "alert_raised";
      case TraceEventType::AlertCleared:
        return "alert_cleared";
    }
    return "unknown";
}

std::array<const char *, 3>
traceArgNames(TraceEventType type)
{
    switch (type) {
      case TraceEventType::PhaseChange:
        return {"score", "windows", "workload_mean"};
      case TraceEventType::SamplingRoundStart:
        return {"round", "samples", "unit_insts"};
      case TraceEventType::SamplingRoundEnd:
        return {"round", "insts_used", "baseline_ipc"};
      case TraceEventType::PredictionMade:
        return {"pred_ipc", "pred_lifetime_years", "feasible"};
      case TraceEventType::ConfigApplied:
        return {"slow_latency", "wear_quota", "cancellation"};
      case TraceEventType::QuotaThrottle:
        return {"restricted", "restricted_slices", "budget_rate"};
      case TraceEventType::HealthCheckPass:
        return {"chosen_ipc", "baseline_ipc", "bad_checks"};
      case TraceEventType::HealthCheckFallback:
        return {"chosen_ipc", "baseline_ipc", "fallbacks"};
      case TraceEventType::WritebackBurst:
        return {"active", "writeq_level", "drains"};
      case TraceEventType::FaultInjected:
        return {"kind", "active", "magnitude"};
      case TraceEventType::RecoveryAction:
        return {"step", "ladder_level", "detail"};
      case TraceEventType::SpanComplete:
        return {"total_ns", "hit_level", "stages"};
      case TraceEventType::DecisionProvenance:
        return {"seq", "err_ipc", "regret"};
      case TraceEventType::AlertRaised:
        return {"rule", "severity", "value"};
      case TraceEventType::AlertCleared:
        return {"rule", "severity", "windows_active"};
    }
    return {"a0", "a1", "a2"};
}

void
EventTrace::append(TraceEventType type, double a0, double a1, double a2)
{
    TraceEvent &e = push();
    e.type = type;
    e.inst = clock ? *clock : 0;
    e.args = {a0, a1, a2};
}

std::array<std::uint64_t, numTraceEventTypes>
EventTrace::countsByType() const
{
    std::array<std::uint64_t, numTraceEventTypes> counts{};
    forEach([&counts](const TraceEvent &e) {
        ++counts[static_cast<std::size_t>(e.type)];
    });
    return counts;
}

void
EventTrace::writeJsonl(std::ostream &os) const
{
    std::string buf = chunkBuffer();
    forEach([&os, &buf](const TraceEvent &e) {
        buf += "{\"ev\":\"";
        buf += toString(e.type);
        buf += "\",\"inst\":";
        appendU64(buf, e.inst);
        appendArgs(buf, e, ',');
        buf += "}\n";
        passChunk(os, buf);
    });
    passChunk(os, buf, true);
}

void
EventTrace::writeChromeTrace(std::ostream &os) const
{
    std::string buf = chunkBuffer();
    buf += chromeDocOpen;
    bool first = true;
    forEach([&os, &buf, &first](const TraceEvent &e) {
        if (!first)
            buf += ',';
        first = false;
        // Sampling rounds are B/E duration pairs, the rest global
        // instants.
        const bool round = e.type == TraceEventType::SamplingRoundStart ||
                           e.type == TraceEventType::SamplingRoundEnd;
        buf += "{\"name\":\"";
        buf += round ? "sampling_round" : toString(e.type);
        buf += "\",\"ph\":\"";
        buf += !round ? 'i'
               : e.type == TraceEventType::SamplingRoundStart ? 'B'
                                                               : 'E';
        // ts nominally holds microseconds; we put the instruction
        // count there so the viewer's time axis reads instructions.
        buf += "\",\"ts\":";
        appendU64(buf, e.inst);
        buf += round ? ",\"pid\":0,\"tid\":0,\"args\":"
                     : ",\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":";
        appendArgs(buf, e, '{');
        buf += "}}";
        passChunk(os, buf);
    });
    buf += "]}\n";
    passChunk(os, buf, true);
}

// --------------------------------------------------------------------
// SpanTrace
// --------------------------------------------------------------------

const char *
toString(SpanStage stage)
{
    switch (stage) {
      case SpanStage::L1:
        return "l1";
      case SpanStage::L2:
        return "l2";
      case SpanStage::Llc:
        return "llc";
      case SpanStage::Mshr:
        return "mshr";
      case SpanStage::CtrlQueue:
        return "queue";
      case SpanStage::Bank:
        return "bank";
      case SpanStage::Device:
        return "device";
    }
    return "unknown";
}

const char *
spanStageTrack(SpanStage stage)
{
    switch (stage) {
      case SpanStage::L1:
        return "cache.l1";
      case SpanStage::L2:
        return "cache.l2";
      case SpanStage::Llc:
        return "cache.llc";
      case SpanStage::Mshr:
        return "cpu.mshr";
      case SpanStage::CtrlQueue:
        return "memctrl.queue";
      case SpanStage::Bank:
        return "memctrl.bank";
      case SpanStage::Device:
        return "nvm.device";
    }
    return "unknown";
}

void
SpanTrace::enable(std::uint64_t sampleEvery, std::size_t capacity)
{
    if (sampleEvery == 0)
        mct_fatal("SpanTrace::enable requires a nonzero sample period");
    RecordRing::enable(capacity);
    open.clear();
    every = sampleEvery;
    curValid = false;
}

void
SpanTrace::begin(std::uint64_t id, Addr addr, bool isWrite, Tick now)
{
    if (every == 0)
        return;
    curValid = false;
    if ((id & seqMask) % every != 0)
        return;
    OpenSpan o;
    o.id = id;
    o.rec.id = id;
    o.rec.addr = addr;
    o.rec.isWrite = isWrite;
    o.rec.inst = clock ? *clock : 0;
    o.rec.begin = now;
    // begin() on an open id starts the span over.
    const auto it = lowerBound(id);
    if (it != open.end() && it->id == id)
        *it = o;
    else
        open.insert(it, o);
    curId = id;
    curValid = true;
}

void
SpanTrace::probe(SpanStage stage, bool hit)
{
    if (every == 0 || !curValid)
        return;
    OpenSpan *const found = findOpen(curId);
    if (!found)
        return;
    OpenSpan &o = *found;
    const auto s = static_cast<std::size_t>(stage);
    o.rec.enter[s] = o.rec.begin;
    o.rec.exit[s] = o.rec.begin;
    o.rec.present |= static_cast<std::uint8_t>(1u << s);
    if (hit)
        o.openBits |= static_cast<std::uint8_t>(1u << s);
}

void
SpanTrace::stageEnter(std::uint64_t id, SpanStage stage, Tick now)
{
    if (every == 0)
        return;
    OpenSpan *const found = findOpen(id);
    if (!found)
        return;
    OpenSpan &o = *found;
    const auto s = static_cast<std::size_t>(stage);
    o.rec.enter[s] = now;
    o.rec.exit[s] = now;
    o.rec.present |= static_cast<std::uint8_t>(1u << s);
    o.openBits |= static_cast<std::uint8_t>(1u << s);
}

void
SpanTrace::stageMark(std::uint64_t id, SpanStage stage, Tick from,
                     Tick to)
{
    if (every == 0)
        return;
    OpenSpan *const found = findOpen(id);
    if (!found)
        return;
    OpenSpan &o = *found;
    const auto s = static_cast<std::size_t>(stage);
    o.rec.enter[s] = from;
    o.rec.exit[s] = to;
    o.rec.present |= static_cast<std::uint8_t>(1u << s);
    o.openBits &= static_cast<std::uint8_t>(~(1u << s));
}

void
SpanTrace::end(std::uint64_t id, Tick now, int hitLevel)
{
    if (every == 0)
        return;
    const auto it = lowerBound(id);
    if (it == open.end() || it->id != id)
        return;
    OpenSpan &o = *it;
    o.rec.end = now;
    o.rec.hitLevel = hitLevel;
    for (std::size_t s = 0; s < numSpanStages; ++s)
        if ((o.openBits >> s) & 1u)
            o.rec.exit[s] = now;
    int stages = 0;
    for (std::size_t s = 0; s < numSpanStages; ++s) {
        if (!((o.rec.present >> s) & 1u))
            continue;
        ++stages;
        if (stageHist[s])
            stageHist[s]->record(
                static_cast<double>(o.rec.exit[s] - o.rec.enter[s]) *
                nsPerTick);
    }
    if (totalHist)
        totalHist->record(
            static_cast<double>(o.rec.end - o.rec.begin) * nsPerTick);
    if (events_)
        events_->record(
            TraceEventType::SpanComplete,
            static_cast<double>(o.rec.end - o.rec.begin) * nsPerTick,
            static_cast<double>(hitLevel), static_cast<double>(stages));
    push() = o.rec;
    open.erase(it);
    if (curValid && curId == id)
        curValid = false;
}

std::vector<SpanTrace::OpenSpan>::iterator
SpanTrace::lowerBound(std::uint64_t id)
{
    // Ids rise per core, so the newest span is the usual target.
    if (open.empty() || open.back().id < id)
        return open.end();
    if (open.back().id == id)
        return open.end() - 1;
    return std::lower_bound(
        open.begin(), open.end(), id,
        [](const OpenSpan &o, std::uint64_t key) { return o.id < key; });
}

SpanTrace::OpenSpan *
SpanTrace::findOpen(std::uint64_t id)
{
    const auto it = lowerBound(id);
    return it != open.end() && it->id == id ? &*it : nullptr;
}

void
SpanTrace::writeJsonl(std::ostream &os) const
{
    std::string buf = chunkBuffer();
    forEach([&os, &buf](const SpanRecord &r) {
        buf += "{\"id\":";
        appendU64(buf, r.id);
        buf += ",\"addr\":";
        appendU64(buf, r.addr);
        buf += r.isWrite ? ",\"write\":1,\"hit_level\":"
                         : ",\"write\":0,\"hit_level\":";
        appendU64(buf, static_cast<std::uint64_t>(r.hitLevel));
        buf += ",\"inst\":";
        appendU64(buf, r.inst);
        buf += ",\"begin_ps\":";
        appendU64(buf, r.begin);
        buf += ",\"end_ps\":";
        appendU64(buf, r.end);
        buf += ",\"stages\":{";
        char sep = '"';
        for (std::size_t s = 0; s < numSpanStages; ++s) {
            if (!((r.present >> s) & 1u))
                continue;
            if (sep == ',')
                buf += ',';
            sep = ',';
            buf += '"';
            buf += toString(static_cast<SpanStage>(s));
            buf += "\":[";
            appendU64(buf, r.enter[s]);
            buf += ',';
            appendU64(buf, r.exit[s]);
            buf += ']';
        }
        buf += "}}\n";
        passChunk(os, buf);
    });
    passChunk(os, buf, true);
}

void
SpanTrace::writeChromeTrace(std::ostream &os) const
{
    std::string buf = chunkBuffer();
    buf += chromeDocOpen;
    // Name one track per component so stages nest visually.
    for (std::size_t s = 0; s < numSpanStages; ++s) {
        buf += s == 0 ? "{" : ",{";
        buf += "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
        appendU64(buf, s + 1);
        buf += ",\"args\":{\"name\":\"";
        buf += spanStageTrack(static_cast<SpanStage>(s));
        buf += "\"}}";
    }
    forEach([&os, &buf](const SpanRecord &r) {
        for (std::size_t s = 0; s < numSpanStages; ++s) {
            if (!((r.present >> s) & 1u))
                continue;
            buf += ",{\"name\":\"";
            buf += toString(static_cast<SpanStage>(s));
            // ts nominally holds microseconds; we put Ticks
            // (picoseconds) there, as EventTrace does instructions.
            buf += "\",\"ph\":\"X\",\"ts\":";
            appendU64(buf, r.enter[s]);
            buf += ",\"dur\":";
            appendU64(buf, r.exit[s] - r.enter[s]);
            buf += ",\"pid\":1,\"tid\":";
            appendU64(buf, s + 1);
            buf += ",\"args\":{\"id\":";
            appendU64(buf, r.id);
            buf += ",\"addr\":";
            appendU64(buf, r.addr);
            buf += ",\"hit_level\":";
            appendU64(buf, static_cast<std::uint64_t>(r.hitLevel));
            buf += "}}";
        }
        passChunk(os, buf);
    });
    buf += "]}\n";
    passChunk(os, buf, true);
}

// --------------------------------------------------------------------
// ProvenanceTrace
// --------------------------------------------------------------------

const char *
provenanceObjectiveName(std::size_t i)
{
    switch (i) {
      case 0:
        return "ipc";
      case 1:
        return "lifetime";
      case 2:
        return "energy";
      default:
        return "unknown";
    }
}

std::size_t
closeProvenanceRecord(ProvenanceRecord &rec, double realizedIpc,
                      double realizedLifetimeYears,
                      double realizedEnergyJ, InstCount closeInst)
{
    const std::array<double, numProvenanceObjectives> real = {
        realizedIpc, realizedLifetimeYears, realizedEnergyJ};
    std::size_t invalid = 0;
    for (std::size_t i = 0; i < numProvenanceObjectives; ++i) {
        ProvenanceObjective &o = rec.objectives[i];
        o.realized = real[i];
        if (std::isfinite(real[i]) && std::abs(real[i]) > 1e-12 &&
            std::isfinite(o.predicted)) {
            o.relError =
                std::abs(o.predicted - real[i]) / std::abs(real[i]);
            o.errorValid = true;
        } else {
            o.relError = 0.0;
            o.errorValid = false;
            ++invalid;
        }
    }
    rec.regret = rec.bestSampledIpc > 0.0 &&
                         std::isfinite(realizedIpc)
                     ? rec.bestSampledIpc - realizedIpc
                     : 0.0;
    rec.closeInst = closeInst;
    rec.closed = true;
    return invalid;
}

void
ProvenanceTrace::record(const ProvenanceRecord &rec)
{
    if (!enabled())
        return;
    push() = rec;
    if (events_)
        events_->record(TraceEventType::DecisionProvenance,
                        static_cast<double>(rec.seq),
                        rec.objectives[0].relError, rec.regret);
}

namespace
{

void
writeProvenanceRecord(JsonWriter &w, const ProvenanceRecord &r)
{
    w.beginObject();
    w.kv("seq", r.seq);
    w.kv("phase", r.phase);
    w.kv("inst", static_cast<std::uint64_t>(r.inst));
    w.kv("close_inst", static_cast<std::uint64_t>(r.closeInst));
    w.kv("model", r.model);
    w.kv("config", r.configKey);
    w.kv("chosen", static_cast<std::int64_t>(r.chosen));
    w.kv("fallback", r.fallback);
    w.kv("sampled", static_cast<std::uint64_t>(r.sampledConfigs));
    w.key("constraints").beginObject();
    w.kv("min_lifetime_years", r.minLifetimeYears);
    w.kv("ipc_fraction", r.ipcFraction);
    w.kv("safety_margin", r.safetyMargin);
    w.endObject();
    w.key("objectives").beginObject();
    for (std::size_t i = 0; i < numProvenanceObjectives; ++i) {
        const ProvenanceObjective &o = r.objectives[i];
        w.key(provenanceObjectiveName(i)).beginObject();
        w.kv("pred", o.predicted);
        w.kv("sigma", o.uncertainty);
        w.kv("real", o.realized);
        w.kv("err", o.relError);
        w.kv("err_valid", o.errorValid);
        w.endObject();
    }
    w.endObject();
    w.key("runner_ups").beginArray();
    for (const ProvenanceCandidate &c : r.runnerUps) {
        w.beginObject();
        w.kv("config", static_cast<std::uint64_t>(c.config));
        w.kv("ipc", c.ipc);
        w.kv("lifetime_years", c.lifetimeYears);
        w.kv("energy_j", c.energyJ);
        w.kv("feasible", c.feasible);
        w.endObject();
    }
    w.endArray();
    w.kv("best_sampled_ipc", r.bestSampledIpc);
    w.kv("regret", r.regret);
    w.kv("cum_regret", r.cumRegret);
    bool anyAttr = false;
    for (const auto &a : r.attribution)
        anyAttr = anyAttr || !a.empty();
    if (anyAttr) {
        w.key("attribution").beginObject();
        for (std::size_t i = 0; i < numProvenanceObjectives; ++i) {
            if (r.attribution[i].empty())
                continue;
            w.key(provenanceObjectiveName(i)).beginArray();
            for (double v : r.attribution[i])
                w.value(v);
            w.endArray();
        }
        w.endObject();
    }
    w.kv("closed", r.closed);
    w.endObject();
}

} // namespace

void
ProvenanceTrace::writeJsonl(std::ostream &os) const
{
    JsonWriter w(os);
    forEach([&w, &os](const ProvenanceRecord &r) {
        writeProvenanceRecord(w, r);
        os << '\n';
    });
}

void
ProvenanceTrace::writeChromeTrace(std::ostream &os) const
{
    writeChromeDoc(os, [this](JsonWriter &w) {
        chromeName(w, 2, 1, "provenance");
        forEach([&w](const ProvenanceRecord &r) {
            w.beginObject();
            w.kv("name", r.configKey);
            w.kv("ph", "X");
            // ts nominally holds microseconds; we put the instruction
            // count there, as EventTrace does.
            w.kv("ts", static_cast<std::uint64_t>(r.inst));
            w.kv("dur", static_cast<std::uint64_t>(
                            r.closeInst > r.inst ? r.closeInst - r.inst
                                                 : 0));
            w.kv("pid", 2);
            w.kv("tid", 1);
            w.key("args").beginObject();
            w.kv("seq", r.seq);
            w.kv("model", r.model);
            w.kv("pred_ipc", r.objectives[0].predicted);
            w.kv("real_ipc", r.objectives[0].realized);
            w.kv("regret", r.regret);
            w.endObject();
            w.endObject();
        });
    });
}

// --------------------------------------------------------------------
// MetricTimeline
// --------------------------------------------------------------------

bool
statGlobMatch(const std::string &pattern, const std::string &path)
{
    // Iterative greedy glob: '*' matches any run of characters (dots
    // included), everything else is literal.
    std::size_t p = 0, s = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (s < path.size()) {
        if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = s;
        } else if (p < pattern.size() && pattern[p] == path[s]) {
            ++p;
            ++s;
        } else if (star != std::string::npos) {
            p = star + 1;
            s = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

void
MetricTimeline::enable(std::vector<std::string> globs,
                       std::size_t capacity)
{
    RecordRing::enable(capacity);
    globs_ = std::move(globs);
    names.clear();
    rollups.clear();
    bound_ = false;
}

bool
MetricTimeline::selected(const std::string &path) const
{
    if (globs_.empty())
        return true;
    for (const std::string &g : globs_)
        if (statGlobMatch(g, path))
            return true;
    return false;
}

void
MetricTimeline::observe(InstCount inst, const StatSnapshot &delta)
{
    if (!enabled())
        return;
    if (!bound_) {
        // Bind the tracked-metric list from the first window's keys:
        // snapshot maps are sorted, so the binding is deterministic,
        // and late-registering stats (mct.* appears post-warmup) are
        // selectable as long as they exist by the first boundary.
        for (const auto &[path, v] : delta)
            if (selected(path))
                names.push_back(path);
        rollups.assign(names.size(), Rollup{});
        bound_ = true;
    }
    TimelineWindow &w = push();
    w.inst = inst;
    w.vals.assign(names.size(), 0.0);
    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto it = delta.find(names[i]);
        if (it != delta.end())
            w.vals[i] = it->second.num;
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
        Rollup &r = rollups[i];
        const double v = w.vals[i];
        if (recorded() == 1) {
            r.ewma = v;
            r.min = v;
            r.max = v;
        } else {
            r.ewma = ewmaAlpha * v + (1.0 - ewmaAlpha) * r.ewma;
            r.min = std::min(r.min, v);
            r.max = std::max(r.max, v);
        }
    }
}

void
MetricTimeline::writeJson(std::ostream &os, const std::string &mode,
                          const std::string &app,
                          const std::string &config,
                          const std::map<std::string, double>
                              &extraFinal) const
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "mct-timeline-v1");
    w.kv("mode", mode);
    w.kv("app", app);
    w.kv("config", config);
    w.kv("capacity", static_cast<std::uint64_t>(capacity()));
    w.key("metrics").beginArray();
    for (const std::string &n : names)
        w.value(n);
    w.endArray();
    w.key("inst").beginArray();
    forEach([&w](const TimelineWindow &win) {
        w.value(static_cast<std::uint64_t>(win.inst));
    });
    w.endArray();
    w.key("series").beginObject();
    for (std::size_t m = 0; m < names.size(); ++m) {
        w.key(names[m]).beginArray();
        forEach([&w, m](const TimelineWindow &win) {
            w.value(m < win.vals.size() ? win.vals[m] : 0.0);
        });
        w.endArray();
    }
    w.endObject();
    // The flat "final" object follows the mct-stats-v1 shape, so
    // mct_report's loadSnapshots / diff gate it like any other run
    // document. The std::map keeps key order deterministic.
    std::map<std::string, double> fin = extraFinal;
    fin["sim.timeline.windows"] = static_cast<double>(size());
    fin["sim.timeline.recorded"] = static_cast<double>(recorded());
    fin["sim.timeline.dropped"] = static_cast<double>(dropped());
    fin["sim.timeline.metrics"] = static_cast<double>(names.size());
    for (std::size_t m = 0; m < names.size(); ++m) {
        fin["timeline." + names[m] + ".ewma"] = rollups[m].ewma;
        fin["timeline." + names[m] + ".min"] = rollups[m].min;
        fin["timeline." + names[m] + ".max"] = rollups[m].max;
    }
    w.key("final").beginObject();
    for (const auto &[k, v] : fin)
        w.kv(k, v);
    w.endObject();
    w.endObject();
    os << '\n';
}

// --------------------------------------------------------------------
// HostProfiler
// --------------------------------------------------------------------

HostMemory
parseHostStatus(const std::string &text)
{
    HostMemory m;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        const std::string key = line.substr(0, colon);
        double *field = nullptr;
        if (key == "VmRSS")
            field = &m.rssKb;
        else if (key == "VmHWM")
            field = &m.hwmKb;
        else if (key == "VmData")
            field = &m.heapKb;
        if (!field)
            continue;
        // "VmRSS:     123456 kB" — the value is the first numeric
        // token after the colon, always reported in kB.
        char *end = nullptr;
        const double v = std::strtod(line.c_str() + colon + 1, &end);
        if (end == line.c_str() + colon + 1)
            continue;
        *field = v;
        m.valid = true;
    }
    return m;
}

std::uint64_t
HostClock::wallNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
HostClock::cpuNs() const
{
#if defined(CLOCK_PROCESS_CPUTIME_ID)
    timespec ts{};
    if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0)
        return static_cast<std::uint64_t>(ts.tv_sec) *
                   1000ull * 1000 * 1000 +
               static_cast<std::uint64_t>(ts.tv_nsec);
#endif
    return static_cast<std::uint64_t>(
        static_cast<double>(std::clock()) * 1e9 / CLOCKS_PER_SEC);
}

std::string
HostClock::procStatus() const
{
    std::ifstream is("/proc/self/status");
    if (!is)
        return {};
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void
HostProfiler::enable(const HostClock *clock, std::size_t timelineCap)
{
    static const HostClock realClock;
    clock_ = clock ? clock : &realClock;
    epochWallNs_ = clock_->wallNs();
    epochCpuNs_ = clock_->cpuNs();
    timelineCap_ = timelineCap;
    timeline_.clear();
    timelineDropped_ = 0;
    sampleMemory();
}

void
HostProfiler::begin(const char *stage)
{
    if (!enabled())
        return;
    auto [it, isNew] = cells_.try_emplace(stage);
    Cell &c = it->second;
    if (isNew) {
        c.index = static_cast<std::uint32_t>(order_.size());
        order_.push_back(stage);
    }
    if (c.open)
        mct_panic("HostProfiler stage '", stage, "' begun twice");
    c.open = true;
    c.openWallNs = clock_->wallNs();
    c.openCpuNs = clock_->cpuNs();
}

void
HostProfiler::end(const char *stage)
{
    if (!enabled())
        return;
    const auto it = cells_.find(stage);
    if (it == cells_.end() || !it->second.open)
        mct_panic("HostProfiler stage '", stage,
                  "' ended but not begun");
    Cell &c = it->second;
    c.open = false;
    ++c.calls;
    const std::uint64_t wall = clock_->wallNs();
    const std::uint64_t cpu = clock_->cpuNs();
    const std::uint64_t wallD =
        wall > c.openWallNs ? wall - c.openWallNs : 0;
    const std::uint64_t cpuD =
        cpu > c.openCpuNs ? cpu - c.openCpuNs : 0;
    c.wallNs += static_cast<double>(wallD);
    c.cpuNs += static_cast<double>(cpuD);
    if (timeline_.size() < timelineCap_) {
        const std::uint64_t start = c.openWallNs > epochWallNs_
                                        ? c.openWallNs - epochWallNs_
                                        : 0;
        timeline_.push_back({c.index, start, wallD, cpuD});
    } else {
        ++timelineDropped_;
    }
}

std::vector<HostProfiler::Stage>
HostProfiler::stages() const
{
    std::vector<Stage> out;
    out.reserve(order_.size());
    for (const std::string &name : order_) {
        const Cell &c = cells_.at(name);
        out.push_back({name, c.wallNs / 1e9, c.cpuNs / 1e9, c.calls});
    }
    return out;
}

double
HostProfiler::wallSeconds(const std::string &stage) const
{
    const auto it = cells_.find(stage);
    return it == cells_.end() ? 0.0 : it->second.wallNs / 1e9;
}

double
HostProfiler::cpuSeconds(const std::string &stage) const
{
    const auto it = cells_.find(stage);
    return it == cells_.end() ? 0.0 : it->second.cpuNs / 1e9;
}

double
HostProfiler::elapsedWallSeconds() const
{
    if (!enabled())
        return 0.0;
    const std::uint64_t now = clock_->wallNs();
    return now > epochWallNs_
               ? static_cast<double>(now - epochWallNs_) / 1e9
               : 0.0;
}

double
HostProfiler::elapsedCpuSeconds() const
{
    if (!enabled())
        return 0.0;
    const std::uint64_t now = clock_->cpuNs();
    return now > epochCpuNs_
               ? static_cast<double>(now - epochCpuNs_) / 1e9
               : 0.0;
}

double
HostProfiler::mips() const
{
    const double wall = elapsedWallSeconds();
    if (wall <= 0.0)
        return 0.0;
    return static_cast<double>(insts_) / 1e6 / wall;
}

void
HostProfiler::sampleMemory()
{
    if (!enabled())
        return;
    mem_ = parseHostStatus(clock_->procStatus());
    rssHwmKb_ = std::max({rssHwmKb_, mem_.rssKb, mem_.hwmKb});
}

void
HostProfiler::samplePeriodic(std::uint64_t inst)
{
    if (!enabled())
        return;
    sampleMemory();
    periodic_.push_back({inst, elapsedWallSeconds(),
                         elapsedCpuSeconds(), mips(), mem_.rssKb});
}

void
HostProfiler::registerStats(StatRegistry &reg)
{
    reg.addGauge(
        "sim.mips", [this] { return mips(); },
        "million simulated instructions per host wall-second");
    reg.addGauge(
        "sim.host.wall_seconds",
        [this] { return elapsedWallSeconds(); },
        "host wall seconds since host profiling was enabled");
    reg.addGauge(
        "sim.host.cpu_seconds",
        [this] { return elapsedCpuSeconds(); },
        "process CPU seconds since host profiling was enabled");
    reg.addGauge(
        "sim.host.cpu_util",
        [this] {
            const double wall = elapsedWallSeconds();
            return wall > 0.0 ? elapsedCpuSeconds() / wall : 0.0;
        },
        "process CPU seconds per wall second (>1 with threads)");
    reg.addGauge(
        "sim.host.rss_kb", [this] { return mem_.rssKb; },
        "resident set size (kB) at the last memory sample");
    reg.addGauge(
        "sim.host.rss_hwm_kb", [this] { return rssHighWaterKb(); },
        "resident set high water (kB) across all memory samples");
    reg.addGauge(
        "sim.host.heap_kb", [this] { return mem_.heapKb; },
        "data segment heap + globals (kB) at the last sample");
    reg.addCounter(
        "sim.host.instructions", [this] { return instructions(); },
        "simulated instructions credited to the host profiler");
    for (const char *path :
         {"sim.mips", "sim.host.wall_seconds", "sim.host.cpu_seconds",
          "sim.host.cpu_util", "sim.host.rss_kb",
          "sim.host.rss_hwm_kb", "sim.host.heap_kb",
          "sim.host.instructions"})
        reg.markHost(path);
}

void
HostProfiler::writeJson(std::ostream &os, const std::string &mode,
                        const std::string &app,
                        const std::string &config) const
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "mct-host-v1");
    w.kv("mode", mode);
    w.kv("app", app);
    w.kv("config", config);
    w.key("final").beginObject();
    w.kv("sim.mips", mips());
    const double wall = elapsedWallSeconds();
    w.kv("sim.host.wall_seconds", wall);
    w.kv("sim.host.cpu_seconds", elapsedCpuSeconds());
    w.kv("sim.host.cpu_util",
         wall > 0.0 ? elapsedCpuSeconds() / wall : 0.0);
    w.kv("sim.host.rss_kb", mem_.rssKb);
    w.kv("sim.host.rss_hwm_kb", rssHwmKb_);
    w.kv("sim.host.heap_kb", mem_.heapKb);
    w.kv("sim.host.instructions", insts_);
    w.kv("sim.host.timeline_dropped", timelineDropped_);
    w.endObject();
    w.key("periodic").beginArray();
    for (const PeriodicSample &s : periodic_) {
        w.beginObject();
        w.kv("inst", s.inst);
        w.key("delta").beginObject();
        w.kv("sim.mips", s.mips);
        w.kv("sim.host.wall_seconds", s.wallSeconds);
        w.kv("sim.host.cpu_seconds", s.cpuSeconds);
        w.kv("sim.host.rss_kb", s.rssKb);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.key("stages").beginArray();
    for (const Stage &s : stages()) {
        w.beginObject();
        w.kv("name", s.name);
        w.kv("seconds", s.wallSeconds);
        w.kv("cpu_seconds", s.cpuSeconds);
        w.kv("calls", s.calls);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

void
HostProfiler::writeChromeTrace(std::ostream &os) const
{
    writeChromeDoc(os, [this](JsonWriter &w) {
        chromeName(w, 3, 0, "mct_sim host");
        chromeName(w, 3, 1, "host");
        for (const TimelineSlice &s : timeline_) {
            w.beginObject();
            w.kv("name", order_[s.stage]);
            w.kv("ph", "X");
            // ts/dur are real microseconds since enable(); the
            // simulated tracks put the instruction/tick clock there
            // instead, so this file stands alone rather than merging
            // with them.
            w.kv("ts", static_cast<double>(s.startNs) / 1000.0);
            w.kv("dur", static_cast<double>(s.durNs) / 1000.0);
            w.kv("pid", 3);
            w.kv("tid", 1);
            w.key("args").beginObject();
            w.kv("cpu_us", static_cast<double>(s.cpuNs) / 1000.0);
            w.endObject();
            w.endObject();
        }
    });
}

// ---------------------------------------------------------------------
// Checkpoint serialization: one io body per class names each field
// once for both archives, so a resumed run re-produces an
// uninterrupted run's output byte for byte.
// ---------------------------------------------------------------------

template <class Ar>
void
LogHistogram::io(Ar &ar)
{
    for (std::uint64_t &b : buckets_)
        ar.u64(b);
    ar.u64(n);
    ar.f64(total);
}

template <class Ar>
void
StatRegistry::ioOwned(Ar &ar)
{
    // Owned entries travel as (path, tag, value); the writer walks the
    // registry and the reader finds each entry again by its path.
    std::uint64_t owned = 0;
    for (const auto &kv : entries)
        if (kv.second.cell || kv.second.hist)
            ++owned;
    ar.u64(owned);
    auto next = entries.begin();
    for (std::uint64_t i = 0; i < owned; ++i) {
        std::uint8_t tag = 0;
        Entry *e = nullptr;
        if constexpr (Ar::reading) {
            std::string path;
            ar.str(path);
            ar.u8(tag);
            if (!ar.ok())
                return;
            auto it = entries.find(path);
            if (it == entries.end())
                mct_panic("checkpoint restores unregistered stat ", path);
            e = &it->second;
            if (tag == 1 ? !e->cell : !e->hist)
                mct_panic("checkpoint cell/histogram mismatch at ", path);
        } else {
            while (!next->second.cell && !next->second.hist)
                ++next;
            e = &next->second;
            tag = e->cell ? 1 : 2;
            ar.str(next->first);
            ar.u8(tag);
            ++next;
        }
        if (tag == 1)
            ar.u64(*e->cell);
        else
            e->hist->io(ar);
    }
}

template void StatRegistry::ioOwned(Serializer &);
template void StatRegistry::ioOwned(Deserializer &);

template <class Ar>
void
EventTrace::io(Ar &ar)
{
    ar.check(capacity(), "checkpoint EventTrace capacity mismatch");
    ioCursor(ar);
    ioSlots([&ar](TraceEvent &e) {
        ar.u8(e.type);
        ar.u64(e.inst);
        for (double &a : e.args)
            ar.f64(a);
    });
}

template void EventTrace::io(Serializer &);
template void EventTrace::io(Deserializer &);

namespace
{

template <class Ar>
void
ioSpan(Ar &ar, SpanRecord &r)
{
    ar.u64(r.id, r.addr);
    ar.flag(r.isWrite);
    ar.i64(r.hitLevel);
    ar.u64(r.inst, r.begin, r.end);
    for (Tick &t : r.enter)
        ar.u64(t);
    for (Tick &t : r.exit)
        ar.u64(t);
    ar.u8(r.present);
}

} // namespace

template <class Ar>
void
SpanTrace::io(Ar &ar)
{
    ar.check(every, "checkpoint SpanTrace configuration mismatch");
    ar.check(capacity(), "checkpoint SpanTrace configuration mismatch");
    ioCursor(ar);
    ar.u64(curId);
    ar.flag(curValid);
    ioSlots([&ar](SpanRecord &r) { ioSpan(ar, r); });
    ar.seq(open, [&ar](OpenSpan &o) {
        ar.u64(o.id);
        ioSpan(ar, o.rec);
        ar.u8(o.openBits);
    });
    if constexpr (Ar::reading) {
        // Keep the table's order whatever the stream holds: ascending
        // ids, the first of any repeated id winning, as a map kept it.
        const auto byId = [](const OpenSpan &a, const OpenSpan &b) {
            return a.id < b.id;
        };
        std::stable_sort(open.begin(), open.end(), byId);
        open.erase(std::unique(open.begin(), open.end(),
                               [](const OpenSpan &a, const OpenSpan &b) {
                                   return a.id == b.id;
                               }),
                   open.end());
    }
}

template void SpanTrace::io(Serializer &);
template void SpanTrace::io(Deserializer &);

template <class Ar>
void
ProvenanceRecord::io(Ar &ar)
{
    ar.u64(seq, phase, inst, closeInst);
    ar.str(model, configKey);
    ar.i64(chosen);
    ar.flag(fallback);
    ar.u32(sampledConfigs);
    ar.f64(minLifetimeYears, ipcFraction, safetyMargin);
    for (ProvenanceObjective &o : objectives) {
        ar.f64(o.predicted, o.uncertainty, o.realized, o.relError);
        ar.flag(o.errorValid);
    }
    ar.seq(runnerUps, [&ar](ProvenanceCandidate &c) {
        ar.u32(c.config);
        ar.f64(c.ipc, c.lifetimeYears, c.energyJ);
        ar.flag(c.feasible);
    });
    ar.f64(bestSampledIpc, regret, cumRegret);
    for (std::vector<double> &attr : attribution)
        ar.seq(attr, [&ar](double &a) { ar.f64(a); });
    ar.flag(closed);
}

template void ProvenanceRecord::io(Serializer &);
template void ProvenanceRecord::io(Deserializer &);

template <class Ar>
void
ProvenanceTrace::io(Ar &ar)
{
    ar.check(capacity(), "checkpoint ProvenanceTrace capacity mismatch");
    ioCursor(ar);
    ioSlots([&ar](ProvenanceRecord &r) { r.io(ar); });
}

template void ProvenanceTrace::io(Serializer &);
template void ProvenanceTrace::io(Deserializer &);

template <class Ar>
void
MetricTimeline::io(Ar &ar)
{
    // globs_ is enable()-time configuration pinned by the run
    // fingerprint; the capacity check below cross-checks the rest.
    ar.check(capacity(), "checkpoint MetricTimeline capacity mismatch");
    ioCursor(ar);
    ar.flag(bound_);
    ar.seq(names, [&ar](std::string &n) { ar.str(n); });
    // One rollup per bound name; the names' count covers both.
    rollups.resize(names.size());
    for (Rollup &r : rollups)
        ar.f64(r.ewma, r.min, r.max);
    ioSlots([&ar](TimelineWindow &w) {
        ar.u64(w.inst);
        ar.seq(w.vals, [&ar](double &v) { ar.f64(v); });
    });
}

template void MetricTimeline::io(Serializer &);
template void MetricTimeline::io(Deserializer &);

} // namespace mct
