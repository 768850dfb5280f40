/**
 * @file
 * Crash-safe checkpoint/restore tests: the binary codec and its FNV
 * checksum, atomic file publication, the double-buffered
 * CheckpointStore (sequence continuation, corrupt-slot quarantine,
 * version skew), per-component state round-trips, and end-to-end
 * resume equivalence — a run restored mid-flight must re-produce the
 * uninterrupted run's state byte for byte.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/alerts.hh"
#include "common/atomic_file.hh"
#include "common/instrument.hh"
#include "common/serialize.hh"
#include "mct/controller.hh"
#include "mct/cyclic_sampler.hh"
#include "memctrl/mellow_config.hh"
#include "nvm/bank.hh"
#include "nvm/nvm_params.hh"
#include "sim/checkpoint.hh"
#include "sim/fault_injector.hh"
#include "sim/system.hh"

namespace mct
{
namespace
{

/**
 * A fresh per-test path inside the gtest temp dir. The path and the
 * files a checkpoint store derives from it (slots and quarantined
 * slots) are removed when it is made and again when it goes out of
 * scope, so no test leaves a file behind.
 */
class TmpPath
{
  public:
    explicit TmpPath(const std::string &name)
        : path_(std::string(::testing::TempDir()) + "mct_ckpt_" + name)
    {
        clear();
    }
    ~TmpPath() { clear(); }
    TmpPath(const TmpPath &) = delete;
    TmpPath &operator=(const TmpPath &) = delete;

    const std::string &path() const { return path_; }

  private:
    void
    clear() const
    {
        for (const char *suffix :
             {"", ".0", ".1", ".0.corrupt", ".1.corrupt"})
            std::remove((path_ + suffix).c_str());
    }

    std::string path_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

bool
exists(const std::string &path)
{
    return static_cast<bool>(std::ifstream(path));
}

TEST(Fnv1a, ReferenceVectors)
{
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ULL);
}

TEST(SerializeCodec, RoundTripAllTypes)
{
    Serializer s;
    s.putU8(0xab);
    s.putBool(true);
    s.putBool(false);
    s.putU32(0xdeadbeefU);
    s.putU64(0x0123456789abcdefULL);
    s.putI64(-42);
    s.putF64(-1234.5678);
    const std::string nul("hello\0world", 11);
    s.putStr(nul); // embedded NUL must survive
    s.putStr("");

    Deserializer d(s.data().data(), s.size());
    EXPECT_EQ(d.getU8(), 0xab);
    EXPECT_TRUE(d.getBool());
    EXPECT_FALSE(d.getBool());
    EXPECT_EQ(d.getU32(), 0xdeadbeefU);
    EXPECT_EQ(d.getU64(), 0x0123456789abcdefULL);
    EXPECT_EQ(d.getI64(), -42);
    EXPECT_EQ(d.getF64(), -1234.5678);
    EXPECT_EQ(d.getStr(), nul);
    EXPECT_EQ(d.getStr(), "");
    EXPECT_TRUE(d.atEnd());
}

TEST(SerializeCodec, UnderrunFailsCleanly)
{
    Serializer s;
    s.putU32(7);
    Deserializer d(s.data().data(), s.size());
    EXPECT_EQ(d.getU64(), 0u); // 4 bytes short
    EXPECT_FALSE(d.ok());
    EXPECT_FALSE(d.atEnd());
}

TEST(SerializeCodec, HostileCountFailsWithoutAllocating)
{
    // A count larger than the bytes left fails the stream before the
    // container is resized, at either count width.
    Serializer s;
    s.putU64(1ULL << 40);
    s.putU64(7);
    Deserializer d(s.data());
    std::vector<std::uint64_t> items{1, 2, 3};
    d.seq(items, [&d](std::uint64_t &x) { d.u64(x); });
    EXPECT_FALSE(d.ok());
    EXPECT_EQ(items.size(), 3u);
    // Once failed, every check is a no-op: the first failure reaches
    // the caller instead of a misleading geometry panic.
    d.check(std::uint64_t{99}, "checkpoint must not panic");

    Serializer s32;
    s32.putU32(0xFFFFFFFFU);
    s32.putU64(7);
    Deserializer d32(s32.data());
    std::vector<std::uint64_t> none;
    d32.seq32(none, [&d32](std::uint64_t &x) { d32.u64(x); });
    EXPECT_FALSE(d32.ok());
    EXPECT_TRUE(none.empty());
}

TEST(AtomicFileTest, CommitPublishesContent)
{
    const TmpPath tmp("atomic.txt");
    const std::string &path = tmp.path();
    AtomicFile f(path);
    f.stream() << "line one\n";
    ASSERT_TRUE(f.commit());
    EXPECT_EQ(slurp(path), "line one\n");
    EXPECT_FALSE(exists(path + ".tmp"));
}

TEST(AtomicFileTest, NoCommitLeavesTargetUntouched)
{
    const TmpPath tmp("atomic_keep.txt");
    const std::string &path = tmp.path();
    ASSERT_TRUE(writeFileAtomic(path, "original"));
    {
        AtomicFile f(path);
        f.stream() << "discarded";
    }
    EXPECT_EQ(slurp(path), "original");
}

TEST(CheckpointStoreTest, SaveLoadRoundTrip)
{
    const TmpPath tmp("rt");
    CheckpointStore store(tmp.path());
    ASSERT_TRUE(store.save("fp-1", "payload-bytes"));
    const CheckpointLoadResult r = store.load();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.payload, "payload-bytes");
    EXPECT_EQ(r.fingerprint, "fp-1");
    EXPECT_EQ(r.sequence, 1u);
    EXPECT_FALSE(r.corruptRejected);
    EXPECT_EQ(store.writes(), 1u);
}

TEST(CheckpointStoreTest, DoubleBufferKeepsPreviousSlot)
{
    const TmpPath tmp("db");
    const std::string &base = tmp.path();
    CheckpointStore store(base);
    ASSERT_TRUE(store.save("fp", "first"));
    ASSERT_TRUE(store.save("fp", "second"));
    ASSERT_TRUE(store.save("fp", "third"));
    // Slots alternate; both files must exist and load() must pick the
    // highest sequence.
    EXPECT_TRUE(exists(base + ".0"));
    EXPECT_TRUE(exists(base + ".1"));
    const CheckpointLoadResult r = store.load();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.payload, "third");
    EXPECT_EQ(r.sequence, 3u);
}

TEST(CheckpointStoreTest, SequenceContinuesAcrossRestart)
{
    const TmpPath tmp("seq");
    const std::string &base = tmp.path();
    {
        CheckpointStore store(base);
        ASSERT_TRUE(store.save("fp", "one"));
        ASSERT_TRUE(store.save("fp", "two"));
    }
    // A new store over the same base (a resumed process) must not
    // reuse sequence numbers or clobber the newest slot first.
    CheckpointStore store(base);
    ASSERT_TRUE(store.save("fp", "three"));
    const CheckpointLoadResult r = store.load();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.sequence, 3u);
    EXPECT_EQ(r.payload, "three");
}

TEST(CheckpointStoreTest, TruncatedSlotQuarantinedWithFallback)
{
    const TmpPath tmp("trunc");
    const std::string &base = tmp.path();
    CheckpointStore store(base);
    ASSERT_TRUE(store.save("fp", "good-old"));
    ASSERT_TRUE(store.save("fp", "newest"));
    const std::string newest = store.newestSlot();
    const std::string body = slurp(newest);
    {
        std::ofstream out(newest,
                          std::ios::binary | std::ios::trunc);
        out << body.substr(0, body.size() / 2);
    }
    const CheckpointLoadResult r = store.load();
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.corruptRejected);
    EXPECT_EQ(r.payload, "good-old");
    EXPECT_EQ(r.sequence, 1u);
    EXPECT_EQ(store.corruptLoads(), 1u);
    EXPECT_TRUE(exists(newest + ".corrupt"));
    EXPECT_FALSE(exists(newest));
}

TEST(CheckpointStoreTest, BitFlipRejectedByChecksum)
{
    const TmpPath tmp("flip");
    const std::string &base = tmp.path();
    CheckpointStore store(base);
    ASSERT_TRUE(store.save("fp", "older"));
    ASSERT_TRUE(store.save("fp", "newer"));
    const std::string newest = store.newestSlot();
    std::string body = slurp(newest);
    body[body.size() / 3] ^= 0x04;
    {
        std::ofstream out(newest,
                          std::ios::binary | std::ios::trunc);
        out << body;
    }
    const CheckpointLoadResult r = store.load();
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.corruptRejected);
    EXPECT_EQ(r.payload, "older");
    EXPECT_EQ(store.corruptLoads(), 1u);
}

TEST(CheckpointStoreTest, FaultInjectorCorruptionIsRejected)
{
    const TmpPath tmp("inj");
    const std::string &base = tmp.path();
    CheckpointStore store(base);
    ASSERT_TRUE(store.save("fp", "older"));
    ASSERT_TRUE(store.save("fp", "newer"));

    const FaultPlanParse plan = parseFaultPlan("corrupt-ckpt");
    ASSERT_TRUE(plan.ok) << plan.error;
    FaultInjector inj(plan.plan, 7);
    EXPECT_TRUE(inj.wantsCkptCorruption());
    EXPECT_TRUE(inj.corruptCheckpointFile(store.newestSlot()));
    EXPECT_EQ(inj.injected(FaultKind::CkptCorrupt), 1u);

    const CheckpointLoadResult r = store.load();
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.corruptRejected);
    EXPECT_EQ(r.payload, "older");
}

/** Build a checkpoint file with an arbitrary format version. */
void
writeVersionSkewed(const std::string &file, std::uint32_t version)
{
    static constexpr char magic[8] = {'M', 'C', 'T', 'C',
                                      'K', 'P', 'T', '\0'};
    Serializer s;
    for (const char c : magic)
        s.putU8(static_cast<std::uint8_t>(c));
    s.putU32(version);
    s.putU64(1);
    s.putStr("fp");
    s.putStr("payload");
    s.putU64(fnv1a(s.data().data(), s.size()));
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << s.data();
}

TEST(CheckpointStoreTest, FutureFormatVersionRejected)
{
    const TmpPath tmp("ver");
    const std::string &base = tmp.path();
    writeVersionSkewed(base + ".0",
                       checkpointFormatVersion + 1);
    CheckpointStore store(base);
    const CheckpointLoadResult r = store.load();
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("format version"), std::string::npos)
        << r.error;
    EXPECT_EQ(store.corruptLoads(), 1u);
    EXPECT_TRUE(exists(base + ".0.corrupt"));
}

TEST(CheckpointStoreTest, MissingCheckpointReportsError)
{
    const TmpPath tmp("missing");
    CheckpointStore store(tmp.path());
    const CheckpointLoadResult r = store.load();
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(store.corruptLoads(), 0u); // missing is not corrupt
}

TEST(CheckpointStoreTest, HostScopedStats)
{
    const TmpPath tmp("stats");
    CheckpointStore store(tmp.path());
    ASSERT_TRUE(store.save("fp", "x"));
    store.noteResume();
    StatRegistry reg;
    store.registerStats(reg);
    const StatSnapshot sim = reg.snapshot(StatScope::Sim);
    EXPECT_EQ(sim.count("ckpt.writes"), 0u)
        << "ckpt stats must not leak into deterministic snapshots";
    const StatSnapshot host = reg.snapshot(StatScope::Host);
    ASSERT_EQ(host.count("ckpt.writes"), 1u);
    EXPECT_EQ(host.at("ckpt.writes").num, 1.0);
    EXPECT_EQ(host.at("ckpt.resumes").num, 1.0);
}

/** Serialize the full deterministic state of @p sys. */
std::string
stateBytes(const System &sys)
{
    Serializer s;
    sys.serialize(s);
    return s.data();
}

/** FNV-1a of the checkpoint bytes of @p x. */
template <class T>
std::uint64_t
digest(T &x)
{
    Serializer s;
    if constexpr (requires { x.serialize(s); })
        x.serialize(s);
    else
        x.io(s);
    return fnv1a(s.data().data(), s.size());
}

// The on-disk format, pinned. Every other checkpoint test compares a
// build with itself, so a change that moves both halves of the codec
// together passes them all; these constants were recorded from the
// format-version-2 codec and change only with checkpointFormatVersion.
// The states are scripted, never simulated: a run's bytes depend on
// the host's libm (std::log, std::pow).
TEST(CheckpointFormat, FreshSystemBytesArePinned)
{
    SystemParams sp;
    sp.nvm.wearLevelMode = WearLevelMode::StartGap;
    System sys("lbm", sp, staticBaselineConfig());
    sys.eventTrace().enable(16);
    sys.enableSpans(8, 16);
    sys.provenanceTrace().enable(4);
    sys.enableTimeline({"sim.*"}, 4);
    AlertRule rule;
    rule.name = "hot";
    rule.glob = "sim.*";
    rule.threshold = 2.0;
    rule.windows = 2;
    sys.enableAlerts({rule});
    EXPECT_EQ(digest(sys), 0x51a8fdb4d6994aecULL);
}

TEST(CheckpointFormat, PayloadStructBytesArePinned)
{
    MellowConfig cfg{true, 3, true, 17, true, 7.5, 1.25, 3.5,
                     true, true, true, true, true};
    EXPECT_EQ(digest(cfg), 0x171feaaefd3db568ULL);

    Bank bank{11, -5, true, 13, 1.5, 2.25, 17, 19, 23, 29, 1.125, 1.75};
    EXPECT_EQ(digest(bank), 0x0431abf3dafe2c45ULL);

    CtrlStats ctrl{101, 102, 103, 104, 105, 106, 107, 108, 109,
                   110, 111, 112, 113, 114, 115.5, 116.25, 117};
    EXPECT_EQ(digest(ctrl), 0x1201a2e72070df7eULL);

    CoreStats core{201, 202, 203, 204, 205, 206, 207, 208, 209, 210};
    EXPECT_EQ(digest(core), 0xbf88824aa490617eULL);

    Metrics m{1.5, 8.25, 0.375};
    EXPECT_EQ(digest(m), 0x78d1f33033915495ULL);

    SysSnapshot snap{core, ctrl, 301, 302, {0.5, 1.5, 2.5}};
    EXPECT_EQ(digest(snap), 0x5149ce6ff04584adULL);

    WindowAccum acc{401, 402, 403, 404.5, {4.25, 5.75}};
    EXPECT_EQ(digest(acc), 0xddd50740ccaeb26bULL);

    ProvenanceRecord rec;
    rec.seq = 501;
    rec.phase = 502;
    rec.inst = 503;
    rec.closeInst = 504;
    rec.model = "gbt";
    rec.configKey = "ba3+ew17";
    rec.chosen = -6;
    rec.fallback = true;
    rec.sampledConfigs = 505;
    rec.minLifetimeYears = 8.5;
    rec.ipcFraction = 0.875;
    rec.safetyMargin = 0.0625;
    rec.objectives = {{{1.5, 0.25, 1.75, 0.125, true},
                       {9.5, 0.5, 9.25, 0.03125, true},
                       {2.5, 0.75, 2.0, 0.25, true}}};
    rec.runnerUps = {{506, 1.25, 7.5, 3.25, true},
                     {507, 1.125, 6.5, 3.5, true}};
    rec.bestSampledIpc = 1.625;
    rec.regret = 0.375;
    rec.cumRegret = 1.375;
    rec.attribution = {{{0.5, 0.25}, {0.75}, {1.5, 2.5, 3.5}}};
    rec.closed = true;
    EXPECT_EQ(digest(rec), 0x9591c203a2b0d580ULL);
}

TEST(CheckpointFormat, ScriptedObserverBytesArePinned)
{
    // The states the EventTrace, MetricTimeline and AlertEngine
    // golden tests script, and a wrapped ProvenanceTrace.
    EventTrace trace;
    trace.enable(8);
    InstCount now = 500;
    trace.setClock(&now);
    trace.record(TraceEventType::QuotaThrottle, 1.0, 3.0, 0.25);
    now = 900;
    trace.record(TraceEventType::HealthCheckPass, 0.5, 0.4, 0.0);
    EXPECT_EQ(digest(trace), 0x552a7d6226dadad0ULL);

    MetricTimeline tl;
    tl.enable({"sim.*"}, 4);
    for (int i = 1; i <= 6; ++i) {
        StatSnapshot w;
        w["sim.objective.ipc"].num = 1.0 + i;
        w["sim.objective.lifetime_years"].num = 2.0 * i;
        w["memctrl.reads_completed"].num = 999.0;
        tl.observe(static_cast<InstCount>(i * 1000), w);
    }
    EXPECT_EQ(digest(tl), 0x1e119636dc3ce24fULL);

    AlertRule rule;
    rule.name = "r";
    rule.glob = "m.*";
    rule.threshold = 10.0;
    rule.windows = 3;
    AlertEngine alerts;
    alerts.enable({rule}, 8);
    for (int i = 1; i <= 4; ++i) {
        StatSnapshot w;
        w["m.value"].num = i == 4 ? 5.0 : 20.0;
        alerts.observe(static_cast<InstCount>(i * 1000), w);
    }
    EXPECT_EQ(digest(alerts), 0x577f5976b093aeceULL);

    // Three closed records through a two-slot ring: the first is
    // overwritten, so the slots hold the third before the second.
    ProvenanceTrace prov;
    prov.enable(2);
    for (std::uint64_t i = 0; i < 3; ++i) {
        ProvenanceRecord rec;
        rec.seq = i;
        rec.inst = 1000 * (i + 1);
        rec.model = "gbt";
        rec.configKey = "cfg" + std::to_string(i);
        rec.runnerUps.resize(i);
        closeProvenanceRecord(rec, 0.5 + static_cast<double>(i), 8.0,
                              0.25, 1000 * (i + 2));
        prov.record(rec);
    }
    EXPECT_EQ(digest(prov), 0xb71e86bd77acc77fULL);
}

/**
 * Spans from two cores, closed out of the order they opened in, wrap
 * the four-slot ring and leave three open, one of them re-begun while
 * open. @p now is the trace's instruction clock.
 */
void
scriptInFlightSpans(SpanTrace &spans, InstCount &now)
{
    spans.enable(2, 4);
    spans.setClock(&now);
    const std::uint64_t core1 = 1ULL << 56;
    const auto open = [&](std::uint64_t id, Tick at, bool l1Hit) {
        spans.begin(id, 0x1000 + 64 * (id & 0xff), id % 3 == 0, at);
        spans.probe(SpanStage::L1, l1Hit);
        if (!l1Hit) {
            spans.probe(SpanStage::L2, false);
            spans.probe(SpanStage::Llc, false);
            spans.stageEnter(id, SpanStage::Mshr, at + 5);
        }
        now += 7;
    };
    open(0, 1000, false);
    open(1, 1010, false); // off the sampling grid: ignored
    open(2, 1020, true);
    open(core1 | 2, 1030, false);
    open(4, 1040, false);
    spans.stageMark(4, SpanStage::CtrlQueue, 1100, 1180);
    spans.stageMark(0, SpanStage::CtrlQueue, 1060, 1090);
    spans.stageMark(0, SpanStage::Bank, 1090, 1150);
    spans.stageMark(0, SpanStage::Device, 1095, 1140);
    spans.end(2, 1200, 1);
    spans.end(4, 1260, 0);
    open(6, 1270, false);
    open(core1 | 4, 1280, true);
    spans.end(core1 | 2, 1300, 0);
    spans.end(0, 1310, 0);
    open(8, 1320, false);
    spans.stageMark(8, SpanStage::Bank, 1330, 1400);
    spans.end(core1 | 4, 1410, 2);
    spans.end(8, 1420, 0);
    spans.end(3, 1430, 0); // never opened: ignored
    open(10, 1440, false);
    spans.stageMark(6, SpanStage::CtrlQueue, 1450, 1470);
    open(6, 1480, true); // re-begun while open: starts over
    open(core1 | 6, 1490, false);
}

TEST(CheckpointFormat, InFlightSpanBytesArePinned)
{
    // The open-span table's bytes are pinned.
    SpanTrace spans;
    InstCount now = 100;
    scriptInFlightSpans(spans, now);
    ASSERT_EQ(spans.recorded(), 6u);
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_EQ(digest(spans), 0xc84a3458f5c040bcULL);
}

TEST(SpanWriters, WrappedRingBytesArePinned)
{
    // Both writers walk the wrapped ring oldest first.
    SpanTrace spans;
    InstCount now = 100;
    scriptInFlightSpans(spans, now);
    std::ostringstream jsonl, chrome;
    spans.writeJsonl(jsonl);
    spans.writeChromeTrace(chrome);
    EXPECT_EQ(jsonl.str(),
              "{\"id\":72057594037927938,\"addr\":4224,\"write\":1,"
              "\"hit_level\":0,\"inst\":121,\"begin_ps\":1030,"
              "\"end_ps\":1300,\"stages\":{\"l1\":[1030,1030],"
              "\"l2\":[1030,1030],\"llc\":[1030,1030],\"mshr\":[1035,"
              "1300]}}\n"
              "{\"id\":0,\"addr\":4096,\"write\":1,\"hit_level\":0,"
              "\"inst\":100,\"begin_ps\":1000,\"end_ps\":1310,"
              "\"stages\":{\"l1\":[1000,1000],\"l2\":[1000,1000],"
              "\"llc\":[1000,1000],\"mshr\":[1005,1310],"
              "\"queue\":[1060,1090],\"bank\":[1090,1150],"
              "\"device\":[1095,1140]}}\n"
              "{\"id\":72057594037927940,\"addr\":4352,\"write\":0,"
              "\"hit_level\":2,\"inst\":142,\"begin_ps\":1280,"
              "\"end_ps\":1410,\"stages\":{\"l1\":[1280,1410]}}\n"
              "{\"id\":8,\"addr\":4608,\"write\":0,\"hit_level\":0,"
              "\"inst\":149,\"begin_ps\":1320,\"end_ps\":1420,"
              "\"stages\":{\"l1\":[1320,1320],\"l2\":[1320,1320],"
              "\"llc\":[1320,1320],\"mshr\":[1325,1420],"
              "\"bank\":[1330,1400]}}\n");
    EXPECT_EQ(chrome.str(),
              "{\"displayTimeUnit\":\"ms\","
              "\"traceEvents\":[{\"name\":\"thread_name\","
              "\"ph\":\"M\",\"pid\":1,\"tid\":1,"
              "\"args\":{\"name\":\"cache.l1\"}},"
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":2,\"args\":{\"name\":\"cache.l2\"}},"
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":3,\"args\":{\"name\":\"cache.llc\"}},"
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":4,\"args\":{\"name\":\"cpu.mshr\"}},"
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":5,\"args\":{\"name\":\"memctrl.queue\"}},"
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":6,\"args\":{\"name\":\"memctrl.bank\"}},"
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":7,\"args\":{\"name\":\"nvm.device\"}},"
              "{\"name\":\"l1\",\"ph\":\"X\",\"ts\":1030,\"dur\":0,"
              "\"pid\":1,\"tid\":1,"
              "\"args\":{\"id\":72057594037927938,\"addr\":4224,"
              "\"hit_level\":0}},{\"name\":\"l2\",\"ph\":\"X\","
              "\"ts\":1030,\"dur\":0,\"pid\":1,\"tid\":2,"
              "\"args\":{\"id\":72057594037927938,\"addr\":4224,"
              "\"hit_level\":0}},{\"name\":\"llc\",\"ph\":\"X\","
              "\"ts\":1030,\"dur\":0,\"pid\":1,\"tid\":3,"
              "\"args\":{\"id\":72057594037927938,\"addr\":4224,"
              "\"hit_level\":0}},{\"name\":\"mshr\",\"ph\":\"X\","
              "\"ts\":1035,\"dur\":265,\"pid\":1,\"tid\":4,"
              "\"args\":{\"id\":72057594037927938,\"addr\":4224,"
              "\"hit_level\":0}},{\"name\":\"l1\",\"ph\":\"X\","
              "\"ts\":1000,\"dur\":0,\"pid\":1,\"tid\":1,"
              "\"args\":{\"id\":0,\"addr\":4096,\"hit_level\":0}},"
              "{\"name\":\"l2\",\"ph\":\"X\",\"ts\":1000,\"dur\":0,"
              "\"pid\":1,\"tid\":2,\"args\":{\"id\":0,\"addr\":4096,"
              "\"hit_level\":0}},{\"name\":\"llc\",\"ph\":\"X\","
              "\"ts\":1000,\"dur\":0,\"pid\":1,\"tid\":3,"
              "\"args\":{\"id\":0,\"addr\":4096,\"hit_level\":0}},"
              "{\"name\":\"mshr\",\"ph\":\"X\",\"ts\":1005,"
              "\"dur\":305,\"pid\":1,\"tid\":4,\"args\":{\"id\":0,"
              "\"addr\":4096,\"hit_level\":0}},{\"name\":\"queue\","
              "\"ph\":\"X\",\"ts\":1060,\"dur\":30,\"pid\":1,"
              "\"tid\":5,\"args\":{\"id\":0,\"addr\":4096,"
              "\"hit_level\":0}},{\"name\":\"bank\",\"ph\":\"X\","
              "\"ts\":1090,\"dur\":60,\"pid\":1,\"tid\":6,"
              "\"args\":{\"id\":0,\"addr\":4096,\"hit_level\":0}},"
              "{\"name\":\"device\",\"ph\":\"X\",\"ts\":1095,"
              "\"dur\":45,\"pid\":1,\"tid\":7,\"args\":{\"id\":0,"
              "\"addr\":4096,\"hit_level\":0}},{\"name\":\"l1\","
              "\"ph\":\"X\",\"ts\":1280,\"dur\":130,\"pid\":1,"
              "\"tid\":1,\"args\":{\"id\":72057594037927940,"
              "\"addr\":4352,\"hit_level\":2}},{\"name\":\"l1\","
              "\"ph\":\"X\",\"ts\":1320,\"dur\":0,\"pid\":1,"
              "\"tid\":1,\"args\":{\"id\":8,\"addr\":4608,"
              "\"hit_level\":0}},{\"name\":\"l2\",\"ph\":\"X\","
              "\"ts\":1320,\"dur\":0,\"pid\":1,\"tid\":2,"
              "\"args\":{\"id\":8,\"addr\":4608,\"hit_level\":0}},"
              "{\"name\":\"llc\",\"ph\":\"X\",\"ts\":1320,\"dur\":0,"
              "\"pid\":1,\"tid\":3,\"args\":{\"id\":8,\"addr\":4608,"
              "\"hit_level\":0}},{\"name\":\"mshr\",\"ph\":\"X\","
              "\"ts\":1325,\"dur\":95,\"pid\":1,\"tid\":4,"
              "\"args\":{\"id\":8,\"addr\":4608,\"hit_level\":0}},"
              "{\"name\":\"bank\",\"ph\":\"X\",\"ts\":1330,"
              "\"dur\":70,\"pid\":1,\"tid\":6,\"args\":{\"id\":8,"
              "\"addr\":4608,\"hit_level\":0}}]}\n");
}

TEST(SystemRoundTrip, HostileStreamCountFailsTheStream)
{
    SystemParams sp;
    System a("lbm", sp, staticBaselineConfig());
    std::string bytes = stateBytes(a);
    // The workload leads the payload: seed, rng (four words, spare
    // flag, spare), address base, phase, two clocks, then lbm's u32
    // stream count.
    constexpr std::size_t streamCountAt = 81;
    ASSERT_EQ(bytes[streamCountAt], 6);
    bytes.replace(streamCountAt, 4, 4, '\xff');

    System b("lbm", sp, staticBaselineConfig());
    Deserializer d(bytes);
    EXPECT_NO_THROW(b.deserialize(d));
    EXPECT_FALSE(d.ok());
}

/** Overwrite the little-endian u64 at @p at in @p bytes. */
void
patchU64(std::string &bytes, std::size_t at, std::uint64_t v)
{
    for (std::size_t i = 0; i < 8; ++i)
        bytes[at + i] = static_cast<char>(v >> (8 * i));
}

/**
 * Checkpoint @p from, plant @p v at byte @p at, restore into @p to;
 * returns whether the stream survived.
 */
template <class T>
bool
restorePatched(T &from, T &to, std::size_t at, std::uint64_t v)
{
    Serializer s;
    from.io(s);
    std::string bytes = s.data();
    patchU64(bytes, at, v);
    Deserializer d(bytes);
    to.io(d);
    return d.ok();
}

TEST(CheckpointHostile, RingCursorsAreBoundedOnRestore)
{
    // Each ring gets a cursor planted outside it; the restore must
    // fail the stream and the next record land inside the ring.
    EventTrace ta, tb;
    ta.enable(4);
    tb.enable(4);
    EXPECT_FALSE(restorePatched(ta, tb, 8, 1000)); // cap, head
    tb.record(TraceEventType::PhaseChange);
    EXPECT_EQ(tb.size(), 1u);

    SpanTrace sa, sb;
    sa.enable(1, 4);
    sb.enable(1, 4);
    EXPECT_FALSE(restorePatched(sa, sb, 16, 1000)); // every, cap, head
    sb.begin(1, 0x40, false, 10);
    sb.end(1, 20, 0);
    EXPECT_EQ(sb.size(), 1u);

    ProvenanceTrace pa, pb;
    pa.enable(4);
    pb.enable(4);
    EXPECT_FALSE(restorePatched(pa, pb, 8, 1000)); // cap, head
    pb.record(ProvenanceRecord{});
    EXPECT_EQ(pb.size(), 1u);

    StatSnapshot hot;
    hot["m.value"].num = 20.0;
    MetricTimeline ma, mb;
    ma.enable({"m.*"}, 4);
    mb.enable({"m.*"}, 4);
    EXPECT_FALSE(restorePatched(ma, mb, 16, 5)); // cap, head, held > cap
    mb.observe(1000, hot);
    EXPECT_EQ(mb.size(), 1u);

    AlertRule rule;
    rule.name = "r";
    rule.glob = "m.*";
    rule.threshold = 10.0;
    AlertEngine aa, ab;
    aa.enable({rule}, 4);
    ab.enable({rule}, 4);
    // armed, rule count, log capacity, bound, three counters, three
    // per-severity counts, an empty instance list, then the log head.
    EXPECT_FALSE(restorePatched(aa, ab, 74, 1000));
    ab.observe(1000, hot);
    EXPECT_EQ(ab.log().size(), 1u);
}

TEST(CheckpointHostile, OpenSpanTableIsSortedOnRestore)
{
    // A stream that lists open span ids out of order, one of them
    // twice, restores to ascending ids with the first copy kept.
    const auto bytesAt = [](std::size_t cap) {
        SpanTrace t;
        t.enable(1, cap);
        Serializer s;
        t.io(s);
        return s.size();
    };
    const std::size_t recordBytes = bytesAt(2) - bytesAt(1);
    SpanTrace a, b;
    a.enable(1, 2);
    b.enable(1, 2);
    a.begin(5, 0x50, false, 10);
    a.begin(9, 0x90, false, 20);
    a.begin(12, 0xc0, false, 30);
    // every, cap, head, held, total, curId, curValid, the ring, then
    // the open count and the first open id.
    constexpr std::size_t word = sizeof(std::uint64_t);
    const std::size_t firstId = 6 * word + 1 + 2 * recordBytes + word;
    ASSERT_TRUE(restorePatched(a, b, firstId, 12)); // ids 12, 9, 12
    b.end(5, 100, 0); // the id is gone from the table
    b.end(9, 100, 0);
    b.end(12, 100, 0);
    const std::vector<SpanRecord> closed = b.items();
    ASSERT_EQ(closed.size(), 2u);
    EXPECT_EQ(closed[0].addr, 0x90u);
    EXPECT_EQ(closed[1].addr, 0x50u); // the first record listed as 12
}

TEST(SystemRoundTrip, RestoreReproducesStateBytes)
{
    SystemParams sp;
    const MellowConfig cfg = staticBaselineConfig();
    System a("lbm", sp, cfg);
    a.eventTrace().enable(1024);
    a.enableSpans(64, 512);
    a.run(120 * 1000);

    const std::string bytes = stateBytes(a);
    System b("lbm", sp, cfg);
    b.eventTrace().enable(1024);
    b.enableSpans(64, 512);
    Deserializer d(bytes);
    b.deserialize(d);
    EXPECT_TRUE(d.atEnd());
    EXPECT_EQ(stateBytes(b), bytes);
    EXPECT_EQ(b.retired(), a.retired());
    EXPECT_EQ(b.now(), a.now());
    Serializer snapA;
    Serializer snapB;
    StatSnapshot statsA = a.statRegistry().snapshot();
    StatSnapshot statsB = b.statRegistry().snapshot();
    ioSnapshot(snapA, statsA);
    ioSnapshot(snapB, statsB);
    EXPECT_EQ(snapB.data(), snapA.data());
}

TEST(SystemRoundTrip, RestoredRunMatchesUninterrupted)
{
    SystemParams sp;
    const MellowConfig cfg = staticBaselineConfig();

    // Uninterrupted reference: 100k then 150k more.
    System a("lbm", sp, cfg);
    a.eventTrace().enable(512);
    a.run(100 * 1000);
    const std::string mid = stateBytes(a);
    a.run(150 * 1000);

    // "Crashed" at 100k, restored into a fresh system, run forward.
    System b("lbm", sp, cfg);
    b.eventTrace().enable(512);
    Deserializer d(mid);
    b.deserialize(d);
    ASSERT_TRUE(d.atEnd());
    b.run(150 * 1000);

    EXPECT_EQ(stateBytes(b), stateBytes(a));
    EXPECT_EQ(b.retired(), a.retired());
}

/** Scaled-down runtime parameters so controller tests stay quick. */
MctParams
fastParams()
{
    MctParams p;
    p.sampling.unitInsts = 2000;
    p.sampling.settleInsts = 1000;
    p.sampling.rounds = 2;
    p.healthCheckPeriod = 300 * 1000;
    return p;
}

/** Serialize system + controller exactly as the driver does. */
std::string
fullStateBytes(const System &sys, const MctController &ctl)
{
    Serializer s;
    sys.serialize(s);
    ctl.serialize(s);
    return s.data();
}

TEST(ControllerRoundTrip, RestoredRunMatchesUninterrupted)
{
    SystemParams sp;
    const MctParams mp = fastParams();

    System sysA("lbm", sp, staticBaselineConfig());
    sysA.eventTrace().enable(1024);
    sysA.provenanceTrace().enable(256);
    sysA.run(50 * 1000);
    MctController ctlA(sysA, mp);
    ctlA.runFor(300 * 1000);
    const std::string mid = fullStateBytes(sysA, ctlA);
    ctlA.runFor(200 * 1000);

    // Restore order mirrors the driver: construct, overlay system,
    // overlay controller, then continue.
    System sysB("lbm", sp, staticBaselineConfig());
    sysB.eventTrace().enable(1024);
    sysB.provenanceTrace().enable(256);
    MctController ctlB(sysB, mp);
    Deserializer d(mid);
    sysB.deserialize(d);
    ctlB.deserialize(d);
    ASSERT_TRUE(d.atEnd());
    ctlB.runFor(200 * 1000);

    EXPECT_EQ(fullStateBytes(sysB, ctlB),
              fullStateBytes(sysA, ctlA));
    EXPECT_EQ(ctlB.decisions().size(), ctlA.decisions().size());
    EXPECT_EQ(toString(ctlB.currentConfig()),
              toString(ctlA.currentConfig()));
}

TEST(ControllerRoundTrip, KillAtEveryChunkBoundaryResumesIdentically)
{
    SystemParams sp;
    const MctParams mp = fastParams();
    constexpr InstCount chunk = 100 * 1000;
    constexpr int chunks = 4;

    // The uninterrupted run, checkpointing at every chunk boundary.
    System sysA("lbm", sp, staticBaselineConfig());
    sysA.run(50 * 1000);
    MctController ctlA(sysA, mp);
    std::vector<std::string> snaps;
    for (int k = 0; k < chunks; ++k) {
        ctlA.runFor(chunk);
        snaps.push_back(fullStateBytes(sysA, ctlA));
    }

    // Kill after chunk K, restore, run the remainder: the final state
    // must match the uninterrupted run's for every K.
    for (int k = 0; k < chunks - 1; ++k) {
        System sysB("lbm", sp, staticBaselineConfig());
        MctController ctlB(sysB, mp);
        Deserializer d(snaps[static_cast<std::size_t>(k)]);
        sysB.deserialize(d);
        ctlB.deserialize(d);
        ASSERT_TRUE(d.atEnd());
        for (int r = k + 1; r < chunks; ++r)
            ctlB.runFor(chunk);
        EXPECT_EQ(fullStateBytes(sysB, ctlB), snaps.back())
            << "kill after chunk " << k;
    }
}

/** The alert rule set for resume-identity tests: guaranteed to raise
 *  (instructions always flow) so the log ring, streaks, and counters
 *  all carry nontrivial state across the checkpoint. */
std::vector<AlertRule>
smokeAlertRules()
{
    AlertRule r;
    r.name = "insts-flowing";
    r.glob = "sim.instructions";
    r.cond = AlertCondition::Above;
    r.threshold = 0.0;
    r.windows = 2;
    return {r};
}

void
armObservability(System &sys)
{
    // Capacity 3 < the 4 windows observed, so the resume also has to
    // reproduce ring wraparound and dropped-window accounting.
    sys.enableTimeline({"sim.objective.*", "sim.instructions"}, 3);
    sys.enableAlerts(smokeAlertRules());
}

/** The two telemetry surfaces a resumed run must reproduce
 *  byte-for-byte: the timeline document and the alert log. */
std::string
observabilityBytes(const System &sys)
{
    std::ostringstream os;
    std::map<std::string, double> fin;
    sys.alerts().appendFinal(fin);
    sys.timeline().writeJson(os, "mct", "lbm", "cfg", fin);
    sys.alerts().writeJsonl(os);
    return os.str();
}

TEST(ControllerRoundTrip, KillAtEveryChunkBoundaryKeepsTimelineAlerts)
{
    SystemParams sp;
    const MctParams mp = fastParams();
    constexpr InstCount chunk = 100 * 1000;
    constexpr int chunks = 4;

    // The uninterrupted run, observing a timeline/alert window at
    // every chunk boundary exactly as the driver does, checkpointing
    // the full payload plus the driver's previous-snapshot cursor.
    System sysA("lbm", sp, staticBaselineConfig());
    armObservability(sysA);
    sysA.run(50 * 1000);
    MctController ctlA(sysA, mp);
    StatSnapshot prevA = sysA.statRegistry().snapshot();
    std::vector<std::string> snaps;
    for (int k = 0; k < chunks; ++k) {
        ctlA.runFor(chunk);
        StatSnapshot cur = sysA.statRegistry().snapshot();
        sysA.observeWindow(sysA.retired(),
                           StatRegistry::delta(prevA, cur));
        prevA = std::move(cur);
        Serializer s;
        sysA.serialize(s);
        ctlA.serialize(s);
        ioSnapshot(s, prevA);
        snaps.push_back(s.data());
    }
    ASSERT_GT(sysA.alerts().raised(), 0u);
    ASSERT_GT(sysA.timeline().dropped(), 0u);
    const std::string want = observabilityBytes(sysA);

    // Kill after chunk K, restore into a freshly armed system, run
    // the remainder with the same window cadence: both telemetry
    // surfaces must be byte-identical for every K.
    for (int k = 0; k < chunks - 1; ++k) {
        System sysB("lbm", sp, staticBaselineConfig());
        armObservability(sysB);
        MctController ctlB(sysB, mp);
        Deserializer d(snaps[static_cast<std::size_t>(k)]);
        sysB.deserialize(d);
        ctlB.deserialize(d);
        StatSnapshot prevB;
        ioSnapshot(d, prevB);
        ASSERT_TRUE(d.atEnd());
        for (int r = k + 1; r < chunks; ++r) {
            ctlB.runFor(chunk);
            StatSnapshot cur = sysB.statRegistry().snapshot();
            sysB.observeWindow(sysB.retired(),
                               StatRegistry::delta(prevB, cur));
            prevB = std::move(cur);
        }
        EXPECT_EQ(observabilityBytes(sysB), want)
            << "kill after chunk " << k;
    }
}

TEST(ControllerRoundTrip, DriverPayloadThroughStore)
{
    // Full payload through the store, exactly one process hand-off.
    SystemParams sp;
    const MctParams mp = fastParams();
    System sysA("lbm", sp, staticBaselineConfig());
    sysA.run(50 * 1000);
    MctController ctlA(sysA, mp);
    ctlA.runFor(150 * 1000);

    const TmpPath tmp("driver");
    const std::string &base = tmp.path();
    {
        CheckpointStore store(base);
        ASSERT_TRUE(
            store.save("fp-driver", fullStateBytes(sysA, ctlA)));
    }
    CheckpointStore reopened(base);
    const CheckpointLoadResult r = reopened.load();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.fingerprint, "fp-driver");

    System sysB("lbm", sp, staticBaselineConfig());
    MctController ctlB(sysB, mp);
    Deserializer d(r.payload);
    sysB.deserialize(d);
    ctlB.deserialize(d);
    ASSERT_TRUE(d.atEnd());

    ctlA.runFor(100 * 1000);
    ctlB.runFor(100 * 1000);
    EXPECT_EQ(fullStateBytes(sysB, ctlB),
              fullStateBytes(sysA, ctlA));
}

TEST(FaultRoundTrip, InjectorStateSurvivesRestore)
{
    const FaultPlanParse plan =
        parseFaultPlan("latency_drift@20k+60k:mag=3");
    ASSERT_TRUE(plan.ok);

    SystemParams sp;
    const MellowConfig cfg = staticBaselineConfig();
    System a("lbm", sp, cfg);
    FaultInjector injA(plan.plan, 11);
    a.attachFaultInjector(&injA);
    // Land inside the fault window so armed state is checkpointed.
    for (int i = 0; i < 8; ++i)
        a.run(5 * 1000);

    Serializer s;
    a.serialize(s);
    injA.serialize(s);

    System b("lbm", sp, cfg);
    FaultInjector injB(plan.plan, 11);
    b.attachFaultInjector(&injB);
    Deserializer d(s.data());
    b.deserialize(d);
    injB.deserialize(d);
    ASSERT_TRUE(d.atEnd());
    EXPECT_EQ(injB.injected(FaultKind::LatencyDrift),
              injA.injected(FaultKind::LatencyDrift));

    // Both continue through the window close identically.
    for (int i = 0; i < 16; ++i) {
        a.run(5 * 1000);
        b.run(5 * 1000);
    }
    EXPECT_EQ(stateBytes(b), stateBytes(a));
}

} // namespace
} // namespace mct
