#include "suite.hh"

#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/serialize.hh"
#include "mct/controller.hh"
#include "sim/checkpoint.hh"
#include "sim/evaluator.hh"
#include "sim/sweep_cache.hh"

namespace mct::perf
{

std::uint64_t
monoNs()
{
    // The host profiler's clock: steady_clock, which is CLOCK_MONOTONIC
    // on Linux and so shares its epoch across processes.
    static const HostClock clock;
    return clock.wallNs();
}

int
SpanLog::begin(const std::string &name)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = monoNs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void
SpanLog::end(int idx, std::uint64_t count)
{
    Span &s = spans_[static_cast<std::size_t>(idx)];
    s.end = monoNs();
    s.count = count;
    open_.pop_back();
}

std::vector<std::uint64_t>
SpanLog::selfNs() const
{
    std::vector<std::uint64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    // Children nest strictly inside their parent and never overlap
    // each other (one thread), so the covered time is their sum.
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    return self;
}

void
SpanLog::writeChrome(std::ostream &os) const
{
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    JsonWriter w(os);
    w.beginObject();
    w.key("traceEvents").beginArray();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        w.beginObject();
        w.kv("name", s.name);
        w.kv("ph", "X");
        w.kv("pid", 1);
        w.kv("tid", 1);
        w.kv("ts", static_cast<double>(s.start - t0) / 1e3);
        w.kv("dur", static_cast<double>(s.end - s.start) / 1e3);
        w.key("args").beginObject();
        w.kv("id", static_cast<std::uint64_t>(i));
        w.kv("parent", s.parent);
        w.kv("count", s.count);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.kv("displayTimeUnit", "ns");
    w.endObject();
    os << '\n';
}

namespace
{

/** warm-up and measured lengths of every eval (evaluateConfig's). */
const EvalParams evalLengths{};

constexpr InstCount armedWindowInsts = 100 * 1000;
constexpr InstCount armedCkptEvery = 250 * 1000;
constexpr std::size_t armedTraceCap = 64 * 1024;
constexpr std::size_t armedSpanCap = 16 * 1024;
constexpr std::size_t armedProvCap = 4 * 1024;
constexpr std::size_t armedTimelineCap = 512;

constexpr InstCount mctWarmupInsts = 200 * 1000;
constexpr InstCount mctRunInsts = 1500 * 1000;

constexpr std::size_t sweepConfigsPerOp = 4;

/** evaluateConfig's steps, keeping the System so its stats digest. */
OpResult
evalOp(const std::string &app, std::uint64_t k, SpanLog *log)
{
    auto sys = timed(log, "sim.construct", [&] {
        return std::make_unique<System>(app, paramsFor(k), defaultConfig());
    });
    timed(log, "sim.run", [&] { sys->run(evalLengths.warmupInsts); },
          evalLengths.warmupInsts);
    const SysSnapshot s0 =
        timed(log, "sim.snapshot", [&] { return sys->snapshot(); });
    OpResult u;
    u.from = timed(log, "common.stat_snapshot", [&] {
        return sys->statRegistry().snapshot();
    });
    timed(log, "sim.run", [&] { sys->run(evalLengths.measureInsts); },
          evalLengths.measureInsts);
    u.rows.push_back(sys->metricsSince(s0));
    u.to = timed(log, "common.stat_snapshot", [&] {
        return sys->statRegistry().snapshot();
    });
    u.insts = sys->retired();
    return u;
}

OpResult
evalLbm(const Setup &, std::uint64_t k, SpanLog *log)
{
    return evalOp("lbm", k, log);
}

OpResult
evalZeusmp(const Setup &, std::uint64_t k, SpanLog *log)
{
    return evalOp("zeusmp", k, log);
}

OpResult
evalGups(const Setup &, std::uint64_t k, SpanLog *log)
{
    return evalOp("gups", k, log);
}

bool
prepareNothing(Setup &, std::string &)
{
    return true;
}

bool
prepareSweep(Setup &s, std::string &)
{
    s.space = enumerateNoQuotaSpace();
    return true;
}

OpResult
sweepNoQuota(const Setup &s, std::uint64_t k, SpanLog *log)
{
    EvalParams ep;
    ep.sys = paramsFor(k);
    SweepCache cache(ep); // in memory: never the on-disk CSV
    const std::vector<MellowConfig> cfgs = sweepConfigs(s.space, k);
    OpResult u;
    u.rows = timed(
        log, "sim.sweep_get_all",
        [&] { return cache.getAll("lbm", cfgs); }, cfgs.size());
    // getAll hides the retired count; each eval runs at least this.
    u.insts = u.rows.size() * (ep.warmupInsts + ep.measureInsts);
    return u;
}

OpResult
mctLbm(const Setup &, std::uint64_t k, SpanLog *log)
{
    return mctOp("lbm", k, log);
}

bool
prepareArmed(Setup &s, std::string &err)
{
    return loadAlerts(dataDir() + "/alerts.txt", s.alertRules, err);
}

/**
 * One lbm eval with every observation surface armed. Every 100k-inst
 * measured window ends with a stats snapshot, delta and observeWindow;
 * a checkpoint is taken at every absolute multiple of 250k
 * instructions, as mct_sim does; every surface is written at the end.
 */
OpResult
armedLbm(const Setup &s, std::uint64_t k, SpanLog *log)
{
    auto sys = timed(log, "sim.construct", [&] {
        return std::make_unique<System>("lbm", paramsFor(k),
                                        defaultConfig());
    });
    sys->eventTrace().enable(armedTraceCap);
    sys->enableSpans(1, armedSpanCap);
    sys->provenanceTrace().enable(armedProvCap);
    sys->enableTimeline({"*"}, armedTimelineCap);
    sys->enableAlerts(s.alertRules);
    CheckpointStore store(s.scratchDir + "/ckpt");
    OpResult u;

    InstCount nextCkpt = armedCkptEvery;
    const auto runTo = [&](InstCount target) {
        while (sys->retired() < target) {
            const InstCount n = std::min(target, nextCkpt) - sys->retired();
            timed(log, "sim.run", [&] { sys->run(n); }, n);
            if (sys->retired() < nextCkpt)
                continue;
            nextCkpt += armedCkptEvery;
            Serializer ser;
            timed(log, "common.ckpt_serialize",
                  [&] { sys->serialize(ser); });
            u.writesOk = timed(log, "common.ckpt_save", [&] {
                return store.save("bench-perf-armed", ser.data());
            }) && u.writesOk;
        }
    };

    runTo(evalLengths.warmupInsts);
    const SysSnapshot s0 = sys->snapshot();
    u.from = sys->statRegistry().snapshot();
    StatSnapshot prev = u.from;
    const InstCount end = sys->retired() + evalLengths.measureInsts;
    for (InstCount w = sys->retired(); w < end;) {
        w = std::min(end, w + armedWindowInsts);
        runTo(w);
        StatSnapshot cur = timed(log, "common.stat_snapshot", [&] {
            return sys->statRegistry().snapshot();
        });
        const StatSnapshot delta = timed(log, "common.stat_delta", [&] {
            return StatRegistry::delta(prev, cur);
        });
        timed(log, "common.observe_window",
              [&] { sys->observeWindow(sys->retired(), delta); });
        prev = std::move(cur);
    }
    u.rows.push_back(sys->metricsSince(s0));
    u.to = sys->statRegistry().snapshot();
    u.insts = sys->retired();

    const System &cs = *sys;
    using Writer = std::function<void(std::ostream &)>;
    const std::pair<const char *, Writer> surfaces[] = {
        {"trace.jsonl", [&](auto &os) { cs.eventTrace().writeJsonl(os); }},
        {"trace.chrome.json",
         [&](auto &os) { cs.eventTrace().writeChromeTrace(os); }},
        {"spans.jsonl", [&](auto &os) { cs.spanTrace().writeJsonl(os); }},
        {"spans.chrome.json",
         [&](auto &os) { cs.spanTrace().writeChromeTrace(os); }},
        {"provenance.jsonl",
         [&](auto &os) { cs.provenanceTrace().writeJsonl(os); }},
        {"provenance.chrome.json",
         [&](auto &os) { cs.provenanceTrace().writeChromeTrace(os); }},
        {"timeline.json",
         [&](auto &os) {
             std::map<std::string, double> extra;
             cs.alerts().appendFinal(extra);
             cs.timeline().writeJson(os, "eval", "lbm",
                                     configKey(cs.config()), extra);
         }},
        {"alerts.jsonl", [&](auto &os) { cs.alerts().writeJsonl(os); }},
        {"stats.json", [&](auto &os) { writeSnapshotJson(os, u.to); }},
    };
    timed(log, "common.write_surfaces", [&] {
        for (const auto &[file, write] : surfaces) {
            AtomicFile f(s.scratchDir + "/" + file);
            write(f.stream());
            u.writesOk = f.commit() && u.writesOk;
        }
    });
    return u;
}

} // namespace

SystemParams
paramsFor(std::uint64_t k)
{
    SystemParams sp;
    sp.seed = k;
    return sp;
}

OpResult
mctOp(const std::string &app, std::uint64_t k, SpanLog *log,
      HostProfiler *hp)
{
    auto sys = timed(log, "sim.construct", [&] {
        return std::make_unique<System>(app, paramsFor(k),
                                        staticBaselineConfig());
    });
    sys->attachHostProfiler(hp);
    timed(log, "sim.run", [&] { sys->run(mctWarmupInsts); },
          mctWarmupInsts);
    const SysSnapshot s0 = sys->snapshot();
    OpResult u;
    u.from = timed(log, "common.stat_snapshot", [&] {
        return sys->statRegistry().snapshot();
    });
    MctParams mp;
    mp.predictor = PredictorKind::GradientBoosting;
    auto ctl = timed(log, "mct.construct", [&] {
        return std::make_unique<MctController>(*sys, mp);
    });
    timed(log, "mct.run_for", [&] { ctl->runFor(mctRunInsts); },
          mctRunInsts);
    ctl->finalizeAudit();
    u.rows.push_back(sys->metricsSince(s0));
    u.to = timed(log, "common.stat_snapshot", [&] {
        return sys->statRegistry().snapshot();
    });
    u.chosen = configKey(ctl->currentConfig());
    u.insts = sys->retired();
    return u;
}

const std::vector<BenchWorkload> &
workloads()
{
    static const std::vector<BenchWorkload> all = {
        {"eval-lbm", "lbm", prepareNothing, evalLbm},
        {"eval-zeusmp", "zeusmp", prepareNothing, evalZeusmp},
        {"eval-gups", "gups", prepareNothing, evalGups},
        {"armed-lbm", "lbm", prepareArmed, armedLbm},
        {"sweep-noquota", "lbm", prepareSweep, sweepNoQuota},
        {"mct-lbm", "lbm", prepareNothing, mctLbm},
    };
    return all;
}

const BenchWorkload *
findWorkload(const std::string &name)
{
    for (const BenchWorkload &w : workloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

std::string
exeDir()
{
    std::error_code ec;
    const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
    return ec ? std::string(".") : exe.parent_path().string();
}

bool
prepareSetup(const BenchWorkload &w, Setup &s, std::string &err)
{
    s.scratchDir = exeDir() + "/scratch." + std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::create_directories(s.scratchDir, ec);
    if (ec) {
        err = "cannot create " + s.scratchDir;
        return false;
    }
    return w.prepare(s, err);
}

std::vector<MellowConfig>
sweepConfigs(const std::vector<MellowConfig> &space, std::uint64_t k)
{
    // Every 8th config from a start that moves 33 per key, so the ops
    // of one run walk across technique, latency and cancellation mixes.
    std::vector<MellowConfig> out;
    for (std::uint64_t j = 0; j < sweepConfigsPerOp; ++j)
        out.push_back(space[(33 * k + 8 * j) % space.size()]);
    return out;
}

std::string
dataDir()
{
    return MCT_PERF_DIR;
}

std::string
expectedPath(const BenchWorkload &w)
{
    return dataDir() + "/expected/" + w.name + ".txt";
}

bool
loadExpected(const std::string &path,
             std::map<std::uint64_t, std::uint64_t> &out, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot read " + path;
        return false;
    }
    std::string line;
    for (int lineNo = 1; std::getline(in, line); ++lineNo) {
        if (line.empty() || line[0] == '#')
            continue;
        std::uint64_t key = 0, digest = 0;
        char tail = 0;
        if (std::sscanf(line.c_str(), "%" SCNu64 " %16" SCNx64 " %c", &key,
                        &digest, &tail) != 2) {
            err = path + ":" + std::to_string(lineNo) + ": malformed line";
            return false;
        }
        out[key] = digest;
    }
    return true;
}

std::uint64_t
digest(const OpResult &u)
{
    std::ostringstream os;
    if (!u.to.empty())
        writeSnapshotJson(os, StatRegistry::delta(u.from, u.to));
    for (const Metrics &m : u.rows) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%.17g %.17g %.17g\n", m.ipc,
                      m.lifetimeYears, m.energyJ);
        os << buf;
    }
    os << u.chosen;
    const std::string text = os.str();
    return fnv1a(text.data(), text.size());
}

Verdict
judge(const Setup &s, std::uint64_t k, const OpResult &u)
{
    const SystemParams sp;
    const auto inRange = [](double v, double lo, double hi) {
        return std::isfinite(v) && v > lo && v <= hi;
    };
    Verdict v;
    v.digest = digest(u);
    v.ok = u.writesOk && !u.rows.empty();
    for (const Metrics &m : u.rows) {
        v.ok = v.ok && inRange(m.ipc, 0.0, sp.core.issueWidth) &&
               inRange(m.lifetimeYears, 0.0, sp.nvm.maxLifetimeYears) &&
               inRange(m.energyJ, 0.0, std::numeric_limits<double>::max());
    }
    const auto it = s.expected.find(k);
    v.checked = it != s.expected.end();
    v.ok = v.ok && (!v.checked || it->second == v.digest);
    return v;
}

void
removeTree(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

} // namespace mct::perf
