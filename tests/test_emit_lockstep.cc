/**
 * @file
 * Lockstep differential test of the event-trace and span-trace
 * writers. The production writers and the frozen JsonWriter copies in
 * tests/ref write the same rings, and every document must hold the
 * same bytes and advance the non-finite counter by the same count.
 * The rings cover every event type (the sampling round's B/E pair
 * included), arguments at the number formatter's edges (signed zero,
 * 2^53 and 1e15 on both sides, subnormals, 17-digit values, NaN and
 * both infinities), span records with every stage mask, hit level and
 * write flag and u64-extreme ids, addresses and ticks (a stage whose
 * exit precedes its enter among them), rings that are empty, partly
 * full, full and wrapped, and the rings of an armed lbm run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/instrument.hh"
#include "common/json.hh"
#include "memctrl/mellow_config.hh"
#include "ref/ref_emit.hh"
#include "sim/system.hh"

namespace mct
{
namespace
{

constexpr std::uint64_t u64Max = std::numeric_limits<std::uint64_t>::max();

/** One written document and the non-finite values it counted. */
struct Emitted
{
    std::string bytes;
    std::uint64_t nonfinite = 0;
};

template <typename Write>
Emitted
emit(Write &&write)
{
    const std::uint64_t before = jsonNonfiniteCount();
    std::ostringstream os;
    write(os);
    return {os.str(), jsonNonfiniteCount() - before};
}

/** Empty when both documents agree, else where they first differ. */
std::string
docDiff(const Emitted &got, const Emitted &want)
{
    std::ostringstream os;
    if (got.nonfinite != want.nonfinite)
        os << "non-finite count: production " << got.nonfinite
           << ", reference " << want.nonfinite << "; ";
    if (got.bytes != want.bytes) {
        std::size_t at = 0;
        while (at < got.bytes.size() && at < want.bytes.size() &&
               got.bytes[at] == want.bytes[at])
            ++at;
        const std::size_t from = at < 40 ? 0 : at - 40;
        os << "bytes differ at " << at << " (sizes " << got.bytes.size()
           << " and " << want.bytes.size() << "): production '"
           << got.bytes.substr(from, 80) << "', reference '"
           << want.bytes.substr(from, 80) << "'";
    }
    return os.str();
}

void
expectSameEvents(const EventTrace &trace)
{
    const std::vector<TraceEvent> items = trace.items();
    EXPECT_EQ(docDiff(emit([&](std::ostream &os) { trace.writeJsonl(os); }),
                      emit([&](std::ostream &os) {
                          ref::writeEventJsonl(os, items);
                      })),
              "")
        << "trace jsonl, " << items.size() << " events";
    EXPECT_EQ(docDiff(emit([&](std::ostream &os) {
                          trace.writeChromeTrace(os);
                      }),
                      emit([&](std::ostream &os) {
                          ref::writeEventChrome(os, items);
                      })),
              "")
        << "trace chrome, " << items.size() << " events";
}

void
expectSameSpans(const SpanTrace &spans)
{
    const std::vector<SpanRecord> items = spans.items();
    EXPECT_EQ(docDiff(emit([&](std::ostream &os) { spans.writeJsonl(os); }),
                      emit([&](std::ostream &os) {
                          ref::writeSpanJsonl(os, items);
                      })),
              "")
        << "spans jsonl, " << items.size() << " spans";
    EXPECT_EQ(docDiff(emit([&](std::ostream &os) {
                          spans.writeChromeTrace(os);
                      }),
                      emit([&](std::ostream &os) {
                          ref::writeSpanChrome(os, items);
                      })),
              "")
        << "spans chrome, " << items.size() << " spans";
}

/** Arguments at the edges of the number formatter. */
std::vector<double>
edgeArgs()
{
    const double inf = std::numeric_limits<double>::infinity();
    return {0.0,
            -0.0,
            1.0,
            -1.0,
            9007199254740991.0,  // 2^53 - 1
            9007199254740992.0,  // 2^53
            9007199254740994.0,  // the double after 2^53
            -9007199254740991.0,
            999999999999999.0,   // 1e15 - 1
            1e15,
            1000000000000001.0,  // 1e15 + 1
            -1e15,
            1e-310,              // subnormal
            -1e-310,
            0.1,
            1.0 / 3.0,
            0.30000000000000004, // needs 17 digits
            1.0000000000000002,
            2.2250738585072014e-308,
            4.9406564584124654e-324,
            std::numeric_limits<double>::max(),
            -std::numeric_limits<double>::max(),
            123456.789,
            1e21,
            1e-7,
            std::numeric_limits<double>::quiet_NaN(),
            inf,
            -inf};
}

TEST(EmitLockstep, NamesWrittenUnescapedNeedNoEscaping)
{
    const auto plain = [](std::string_view s) {
        for (const char c : s) {
            const auto u = static_cast<unsigned char>(c);
            if (u < 0x20 || c == '"' || c == '\\')
                return false;
        }
        return !s.empty();
    };
    EXPECT_TRUE(plain("sampling_round"));
    for (std::size_t t = 0; t < numTraceEventTypes; ++t) {
        const auto type = static_cast<TraceEventType>(t);
        EXPECT_TRUE(plain(toString(type))) << t;
        for (const char *name : traceArgNames(type))
            EXPECT_TRUE(plain(name)) << toString(type);
    }
    for (std::size_t s = 0; s < numSpanStages; ++s) {
        const auto stage = static_cast<SpanStage>(s);
        EXPECT_TRUE(plain(toString(stage))) << s;
        EXPECT_TRUE(plain(spanStageTrack(stage))) << s;
    }
}

TEST(EmitLockstep, EveryEventTypeAndEdgeArgument)
{
    const std::vector<double> args = edgeArgs();
    InstCount clock = 0;
    EventTrace trace;
    trace.setClock(&clock);
    trace.enable(numTraceEventTypes * args.size() + 8);
    const std::uint64_t insts[] = {0, 1, 999, 1ull << 53, u64Max};
    for (std::size_t t = 0; t < numTraceEventTypes; ++t) {
        for (std::size_t a = 0; a < args.size(); ++a) {
            clock = insts[(t + a) % std::size(insts)];
            trace.record(static_cast<TraceEventType>(t), args[a],
                         args[(a + 7) % args.size()],
                         args[(a + 13) % args.size()]);
        }
    }
    ASSERT_EQ(trace.size(), numTraceEventTypes * args.size());
    expectSameEvents(trace);
}

TEST(EmitLockstep, EventRingsEmptyPartFullAndWrapped)
{
    EventTrace disabled;
    expectSameEvents(disabled);

    InstCount clock = 0;
    const auto fill = [&clock](EventTrace &t, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            clock = 1000 * i + 7;
            t.record(static_cast<TraceEventType>(i % numTraceEventTypes),
                     static_cast<double>(i) * 0.25, -static_cast<double>(i),
                     1.0 / static_cast<double>(i + 1));
        }
    };
    for (const std::size_t n : {0u, 3u, 8u, 13u, 29u}) {
        EventTrace t;
        t.setClock(&clock);
        t.enable(8);
        fill(t, n);
        expectSameEvents(t);
    }
}

/** Close one span with @p mask's stages marked on ring @p spans. */
void
pushSpan(SpanTrace &spans, std::uint64_t id, Addr addr, bool isWrite,
         int hitLevel, unsigned mask, Tick base)
{
    spans.begin(id, addr, isWrite, base);
    for (std::size_t s = 0; s < numSpanStages; ++s) {
        if (!((mask >> s) & 1u))
            continue;
        const auto stage = static_cast<SpanStage>(s);
        switch ((s + mask) % 4) {
          case 0: // ordinary interval
            spans.stageMark(id, stage, base + 10 * s, base + 10 * s + 7);
            break;
          case 1: // exit before enter: the Chrome dur wraps
            spans.stageMark(id, stage, base + 500, base + 3);
            break;
          case 2: // u64 extremes
            spans.stageMark(id, stage, u64Max, 0);
            break;
          default: // open until end()
            spans.stageEnter(id, stage, base + s);
        }
    }
    spans.end(id, base + 1000, hitLevel);
}

TEST(EmitLockstep, EverySpanMaskHitLevelAndWriteFlag)
{
    InstCount clock = 0;
    SpanTrace spans;
    spans.setClock(&clock);
    spans.enable(1, 4096);
    const std::uint64_t ids[] = {0, 1, 1ull << 63, u64Max, 123456789};
    const Addr addrs[] = {0, 64, u64Max, 0xdeadbeefc0ull};
    const Tick bases[] = {0, 1, 1ull << 40, u64Max - 2000};
    std::size_t n = 0;
    for (unsigned mask = 0; mask < 128; ++mask) {
        for (int hit = -1; hit <= 3; ++hit) {
            for (const bool isWrite : {false, true}) {
                clock = n * 3;
                pushSpan(spans, ids[n % std::size(ids)],
                         addrs[n % std::size(addrs)], isWrite, hit, mask,
                         bases[n % std::size(bases)]);
                ++n;
            }
        }
    }
    ASSERT_EQ(spans.size(), 128u * 5u * 2u);
    expectSameSpans(spans);
}

TEST(EmitLockstep, SpanRingsEmptyPartFullAndWrapped)
{
    SpanTrace disabled;
    expectSameSpans(disabled);

    for (const std::size_t n : {0u, 2u, 6u, 11u, 40u}) {
        SpanTrace spans;
        spans.enable(1, 6);
        for (std::size_t i = 0; i < n; ++i)
            pushSpan(spans, i, 64 * i, i % 3 == 0,
                     static_cast<int>(i % 5) - 1,
                     static_cast<unsigned>((i * 37) % 128), 100 * i);
        expectSameSpans(spans);
    }
}

TEST(EmitLockstep, ArmedLbmRings)
{
    System sys("lbm", SystemParams{}, defaultConfig());
    sys.eventTrace().enable(64 * 1024);
    sys.enableSpans(1, 16 * 1024);
    sys.provenanceTrace().enable(4 * 1024);
    sys.enableTimeline({"*"}, 512);
    sys.run(1200 * 1000);
    ASSERT_GT(sys.eventTrace().size(), 0u);
    ASSERT_GT(sys.spanTrace().size(), 0u);
    expectSameEvents(sys.eventTrace());
    expectSameSpans(sys.spanTrace());
}

} // namespace
} // namespace mct
