#include "ref_emit.hh"

#include <ostream>
#include <string_view>

#include "common/json.hh"

namespace mct::ref
{

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

} // namespace

void
writeEventJsonl(std::ostream &os, const std::vector<TraceEvent> &events)
{
    JsonWriter w(os);
    for (const TraceEvent &e : events) {
        const auto names = traceArgNames(e.type);
        w.beginObject();
        w.kv("ev", toString(e.type));
        w.kv("inst", static_cast<std::uint64_t>(e.inst));
        for (std::size_t a = 0; a < names.size(); ++a)
            w.kv(names[a], e.args[a]);
        w.endObject();
        os << '\n';
    }
}

void
writeEventChrome(std::ostream &os, const std::vector<TraceEvent> &events)
{
    writeChromeDoc(os, [&events](JsonWriter &w) {
        for (const TraceEvent &e : events) {
            const auto names = traceArgNames(e.type);
            w.beginObject();
            const char *ph = "i";
            const char *name = toString(e.type);
            if (e.type == TraceEventType::SamplingRoundStart) {
                ph = "B";
                name = "sampling_round";
            } else if (e.type == TraceEventType::SamplingRoundEnd) {
                ph = "E";
                name = "sampling_round";
            }
            w.kv("name", name);
            w.kv("ph", ph);
            w.kv("ts", static_cast<std::uint64_t>(e.inst));
            w.kv("pid", 0);
            w.kv("tid", 0);
            if (ph[0] == 'i')
                w.kv("s", "g");
            w.key("args").beginObject();
            for (std::size_t a = 0; a < names.size(); ++a)
                w.kv(names[a], e.args[a]);
            w.endObject();
            w.endObject();
        }
    });
}

void
writeSpanJsonl(std::ostream &os, const std::vector<SpanRecord> &spans)
{
    JsonWriter w(os);
    for (const SpanRecord &r : spans) {
        w.beginObject();
        w.kv("id", r.id);
        w.kv("addr", static_cast<std::uint64_t>(r.addr));
        w.kv("write", static_cast<std::uint64_t>(r.isWrite ? 1 : 0));
        w.kv("hit_level", static_cast<std::uint64_t>(r.hitLevel));
        w.kv("inst", static_cast<std::uint64_t>(r.inst));
        w.kv("begin_ps", static_cast<std::uint64_t>(r.begin));
        w.kv("end_ps", static_cast<std::uint64_t>(r.end));
        w.key("stages").beginObject();
        for (std::size_t s = 0; s < numSpanStages; ++s) {
            if (!((r.present >> s) & 1u))
                continue;
            w.key(toString(static_cast<SpanStage>(s)))
                .beginArray()
                .value(static_cast<std::uint64_t>(r.enter[s]))
                .value(static_cast<std::uint64_t>(r.exit[s]))
                .endArray();
        }
        w.endObject();
        w.endObject();
        os << '\n';
    }
}

void
writeSpanChrome(std::ostream &os, const std::vector<SpanRecord> &spans)
{
    writeChromeDoc(os, [&spans](JsonWriter &w) {
        for (std::size_t s = 0; s < numSpanStages; ++s)
            chromeName(w, 1, static_cast<int>(s + 1),
                       spanStageTrack(static_cast<SpanStage>(s)));
        for (const SpanRecord &r : spans) {
            for (std::size_t s = 0; s < numSpanStages; ++s) {
                if (!((r.present >> s) & 1u))
                    continue;
                w.beginObject();
                w.kv("name", toString(static_cast<SpanStage>(s)));
                w.kv("ph", "X");
                w.kv("ts", static_cast<std::uint64_t>(r.enter[s]));
                w.kv("dur",
                     static_cast<std::uint64_t>(r.exit[s] - r.enter[s]));
                w.kv("pid", 1);
                w.kv("tid", static_cast<std::uint64_t>(s + 1));
                w.key("args").beginObject();
                w.kv("id", r.id);
                w.kv("addr", static_cast<std::uint64_t>(r.addr));
                w.kv("hit_level",
                     static_cast<std::uint64_t>(r.hitLevel));
                w.endObject();
                w.endObject();
            }
        }
    });
}

} // namespace mct::ref
