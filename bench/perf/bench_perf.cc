/**
 * @file
 * bench_perf: the simulator's end-to-end and per-layer benchmark. It
 * times calls into the public API of every module from outside; see
 * README.md beside this file for the workloads and every metric.
 *
 *   bench_perf [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
 *       every workload, each in its own child process, one at a time
 *   bench_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *              [--out FILE] [--trace-dir DIR]
 *       one workload; the last line of stdout is its result object
 *       {"correct","attempted","failed","metrics"}
 *   bench_perf --compare BASE[,BASE...] NEW[,NEW...]
 *       per workload and end-to-end metric: each side's median and
 *       quartiles against the BENCHMARK.json bound
 *   bench_perf --record-expected [--workload NAME] [--seed N]
 *       rewrite expected/<workload>.txt: 512 keys from the seed on
 *   bench_perf --verify
 *       digests of the first two ops of every workload, the replay-
 *       fidelity check and the metric tables against BENCHMARK.json
 *
 * With --trace 0 (the default) each workload's ops run closed loop,
 * one client, untraced, for --seconds; --trace 1 runs the per-layer
 * suite instead and writes its spans as a Chrome trace to
 * DIR/trace.<workload>.json (DIR defaults to the binary's directory).
 *
 * Exit status: 0 ok; 1 wrong output, a failed op or a regression;
 * 2 usage error; 3 unreadable or malformed input.
 */

#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/instrument.hh"
#include "common/json.hh"
#include "common/manifest.hh"
#include "layers.hh"
#include "report.hh"
#include "suite.hh"

extern char **environ;

namespace
{

using namespace mct;
using namespace mct::perf;
using report::JsonValue;

constexpr int exitBad = 1;
constexpr int exitUsage = 2;
constexpr int exitInput = 3;

/** Setup-only child processes per workload; with the measured child
 *  they give setup_s as a median of this many plus one. */
constexpr int setupRuns = 15;

/** A child that hangs is killed by SIGALRM after this long. */
constexpr unsigned childTimeoutS = 170;

constexpr std::uint64_t defaultSeed = 1;

/** Keys [seed, seed + recordCount) written by --record-expected: more
 *  than any run at the default seed reaches in BENCHMARK.json's time. */
constexpr std::uint64_t recordCount = 512;

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> all = {
        {"ops_per_s", "1/s", "higher"},
        {"sim_mips", "inst/us", "higher"},
        {"op_ms.p50", "ms", "lower"},
        {"setup_s", "s", "lower"},
        {"peak_rss_mb", "MB", "lower"},
    };
    return all;
}

struct Options
{
    std::string workload; ///< "" runs every workload
    std::uint64_t seed = defaultSeed;
    double seconds = 15.0; ///< BENCHMARK.json's run_seconds
    bool trace = false;
    std::string out;
    std::string traceDir;
    std::vector<std::string> compare; ///< two comma-separated lists
    bool recordExpected = false;
    bool verify = false;
    bool child = false;     ///< internal: run one workload in-process
    bool setupOnly = false; ///< internal: exit right after setup
};

/** Print the usage (after @p why, unless null); returns exit code 2. */
int
usage(const char *why)
{
    if (why)
        std::fprintf(stderr, "bench_perf: %s\n", why);
    std::fprintf(stderr,
                 "usage: bench_perf [--workload NAME] [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out FILE] "
                 "[--trace-dir DIR]\n"
                 "       bench_perf --compare BASE[,BASE...] "
                 "NEW[,NEW...]\n"
                 "       bench_perf --record-expected [--workload NAME] "
                 "[--seed N]\n"
                 "       bench_perf --verify\n");
    return exitUsage;
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    const char *end = s.data() + s.size();
    const auto r = std::from_chars(s.data(), end, out);
    return !s.empty() && r.ec == std::errc() && r.ptr == end;
}

/** Parse argv; returns an exit status, or -1 to proceed. */
int
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&](std::string &out) {
            if (i + 1 >= argc)
                return false;
            out = argv[++i];
            return true;
        };
        std::string v;
        if (a == "--verify") {
            o.verify = true;
        } else if (a == "--record-expected") {
            o.recordExpected = true;
        } else if (a == "--setup-only") {
            o.setupOnly = true;
        } else if (a == "--help" || a == "-h") {
            usage(nullptr);
            return 0;
        } else if (!value(v)) {
            return usage(("missing value or unknown flag " + a).c_str());
        } else if (a == "--workload" || a == "--child") {
            o.workload = v;
            o.child = a == "--child";
        } else if (a == "--seed") {
            if (!parseU64(v, o.seed))
                return usage("--seed needs a non-negative integer");
        } else if (a == "--seconds") {
            char *end = nullptr;
            o.seconds = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end || !(o.seconds > 0.0) ||
                o.seconds > 150.0)
                return usage("--seconds needs a number in (0, 150]");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--out") {
            o.out = v;
        } else if (a == "--trace-dir") {
            o.traceDir = v;
        } else if (a == "--compare") {
            o.compare.push_back(v);
            if (!value(v))
                return usage("--compare needs BASE and NEW");
            o.compare.push_back(v);
        } else {
            return usage(("unknown flag " + a).c_str());
        }
    }
    if (!o.workload.empty() && !findWorkload(o.workload))
        return usage(("unknown workload " + o.workload).c_str());
    return -1;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** Parse a JSON file; false with @p err set on failure. */
bool
loadJson(const std::string &path, JsonValue &out, std::string &err)
{
    std::string text;
    if (!readFile(path, text)) {
        err = "cannot read " + path;
        return false;
    }
    report::JsonParse p = report::parseJson(text);
    if (!p.ok) {
        err = path + ": " + p.error;
        return false;
    }
    out = std::move(p.value);
    return true;
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/** Linear interpolation between closest ranks (q in [0, 1]). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/** Quartiles as Python's statistics.quantiles(v, n=4) computes them
 *  (the "exclusive" method), so --compare agrees with that tool. */
std::array<double, 3>
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const long n = static_cast<long>(v.size());
    if (n < 2)
        return {n ? v[0] : 0.0, n ? v[0] : 0.0, n ? v[0] : 0.0};
    std::array<double, 3> q{};
    for (long i = 1; i <= 3; ++i) {
        const long m = n + 1;
        const long j = std::clamp(i * m / 4, 1L, n - 1);
        const long delta = i * m - j * 4;
        q[static_cast<std::size_t>(i - 1)] =
            (v[static_cast<std::size_t>(j - 1)] *
                 static_cast<double>(4 - delta) +
             v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
            4.0;
    }
    return q;
}

// ---------------------------------------------------------------------
// Child side: one workload in this process
// ---------------------------------------------------------------------

/** Loads the committed digests too; counted in setup_s like the rest. */
bool
childSetup(const BenchWorkload &w, Setup &s)
{
    std::string err;
    if (loadExpected(expectedPath(w), s.expected, err) &&
        prepareSetup(w, s, err))
        return true;
    std::fprintf(stderr, "bench_perf: %s\n", err.c_str());
    return false;
}

/**
 * The closed loop: op i runs key seed + i as soon as op i-1 returns,
 * until --seconds have passed. The first op runs once more afterwards
 * and must reproduce its digest. Prints one JSON line for the parent.
 */
int
childTimed(const BenchWorkload &w, const Setup &s, const Options &o,
           std::uint64_t ready)
{
    const auto budget = static_cast<std::uint64_t>(o.seconds * 1e9);
    std::vector<std::uint64_t> opNs;
    std::uint64_t failed = 0, checked = 0, firstDigest = 0;
    InstCount insts = 0;
    for (std::uint64_t k = o.seed;; ++k) {
        resetJsonNonfiniteCount();
        const std::uint64_t t0 = monoNs();
        const OpResult u = w.run(s, k, nullptr);
        opNs.push_back(monoNs() - t0);
        insts += u.insts;
        const Verdict v = judge(s, k, u);
        if (k == o.seed)
            firstDigest = v.digest;
        checked += v.checked ? 1 : 0;
        failed += v.ok ? 0 : 1;
        if (monoNs() - ready >= budget)
            break;
    }
    // VmHWM of this process alone: a spawned child's ru_maxrss would
    // also carry the spawning parent's footprint across exec.
    const double peakRssKb = parseHostStatus(HostClock().procStatus()).hwmKb;
    resetJsonNonfiniteCount();
    const bool repeatable =
        digest(w.run(s, o.seed, nullptr)) == firstDigest;

    JsonWriter j(std::cout);
    j.beginObject();
    j.kv("ready_ns", ready);
    j.kv("insts", static_cast<std::uint64_t>(insts));
    j.kv("failed", failed);
    j.kv("checked", checked);
    j.kv("repeatable", repeatable);
    j.kv("peak_rss_kb", peakRssKb);
    j.key("op_ns").beginArray();
    for (const std::uint64_t ns : opNs)
        j.value(ns);
    j.endArray();
    j.endObject();
    std::cout << std::endl;
    return 0;
}

/** The traced run: per-layer metrics plus the Chrome trace file. */
int
childTraced(const BenchWorkload &w, const Setup &s, const Options &o,
            std::uint64_t ready)
{
    SpanLog log;
    LayerRun lr =
        runLayers(w, s, o.seed, ready,
                  static_cast<std::uint64_t>(o.seconds * 1e9), log);
    const std::string dir = o.traceDir.empty() ? exeDir() : o.traceDir;
    AtomicFile f(dir + "/trace." + w.name + ".json");
    log.writeChrome(f.stream());
    if (!f.commit())
        lr.problem += "cannot write " + f.path() + "; ";

    JsonWriter j(std::cout);
    j.beginObject();
    j.kv("ready_ns", ready);
    j.kv("attempted", lr.attempted);
    j.kv("failed", lr.failed);
    j.kv("problem", lr.problem);
    j.kv("trace_file", f.path());
    j.key("metrics").beginObject();
    for (const auto &[name, value] : lr.values)
        j.kv(name, value);
    j.endObject();
    j.endObject();
    std::cout << std::endl;
    return 0;
}

int
runChild(const Options &o)
{
    ::alarm(childTimeoutS);
    // A fixed threshold turns off glibc's adaptive one, under which
    // freed large blocks (cache arrays) stay in the heap and peak RSS
    // varies more between runs of nearly the same ops (spread across
    // ten seeds: 4-5% adaptive, about 3% fixed, on sweep-noquota and
    // mct-lbm).
    ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    const BenchWorkload &w = *findWorkload(o.workload);
    Setup s;
    if (!childSetup(w, s)) {
        removeTree(s.scratchDir);
        return exitInput;
    }
    const std::uint64_t ready = monoNs();
    int rc = 0;
    if (o.setupOnly) {
        std::cout << "{\"ready_ns\":" << ready << "}" << std::endl;
    } else {
        rc = o.trace ? childTraced(w, s, o, ready)
                     : childTimed(w, s, o, ready);
    }
    removeTree(s.scratchDir);
    return rc;
}

// ---------------------------------------------------------------------
// Parent side: child processes and their results
// ---------------------------------------------------------------------

/** What one child process reported. */
struct ChildRun
{
    bool exited0 = false;
    std::uint64_t spawnNs = 0; ///< monoNs just before the spawn
    JsonValue result;          ///< its last stdout line, parsed
    bool parsed = false;
};

/** Spawn this binary with @p args, collect its stdout and wait. */
ChildRun
spawnChild(const std::vector<std::string> &args)
{
    ChildRun c;
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        return c;
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    std::vector<char *> argv;
    std::string name = "bench_perf";
    argv.push_back(name.data());
    std::vector<std::string> copy = args;
    for (std::string &a : copy)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    std::fflush(stdout);
    c.spawnNs = monoNs();
    const int rc = ::posix_spawn(&pid, "/proc/self/exe", &fa, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    std::string out;
    char buf[65536];
    for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) != 0;) {
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    if (rc != 0)
        return c;
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    c.exited0 = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    while (!out.empty() && out.back() == '\n')
        out.pop_back();
    const std::size_t nl = out.rfind('\n');
    report::JsonParse p =
        report::parseJson(nl == std::string::npos ? out : out.substr(nl));
    c.parsed = p.ok && p.value.kind == JsonValue::Kind::Object;
    c.result = std::move(p.value);
    return c;
}

/** One workload's outcome, as printed and as written by --out. */
struct Result
{
    std::string workload;
    bool correct = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<MetricDef, double>> metrics;
    std::string note; ///< why it is not correct
};

std::vector<std::string>
childArgs(const BenchWorkload &w, const Options &o)
{
    char secs[32];
    std::snprintf(secs, sizeof(secs), "%.17g", o.seconds);
    std::vector<std::string> a = {"--child", w.name, "--seed",
                                  std::to_string(o.seed), "--seconds", secs};
    if (!o.traceDir.empty()) {
        a.push_back("--trace-dir");
        a.push_back(o.traceDir);
    }
    return a;
}

Result
runTimed(const BenchWorkload &w, const Options &o)
{
    Result r;
    r.workload = w.name;
    std::vector<double> setup;
    std::vector<std::string> args = childArgs(w, o);
    const auto readySeconds = [&](const ChildRun &c) {
        return (c.result.num("ready_ns", 0.0) -
                static_cast<double>(c.spawnNs)) / 1e9;
    };
    args.push_back("--setup-only");
    for (int i = 0; i < setupRuns; ++i) {
        const ChildRun c = spawnChild(args);
        if (!c.exited0 || !c.parsed) {
            r.note = "setup-only child failed";
            return r;
        }
        setup.push_back(readySeconds(c));
    }
    args.pop_back();
    const ChildRun c = spawnChild(args);
    if (!c.exited0 || !c.parsed) {
        r.note = "child failed";
        return r;
    }
    setup.push_back(readySeconds(c));
    const JsonValue &res = c.result;
    std::vector<double> opMs;
    double busyMs = 0.0;
    if (const JsonValue *a = res.find("op_ns")) {
        for (const JsonValue &x : a->arr) {
            opMs.push_back(x.number / 1e6);
            busyMs += opMs.back();
        }
    }
    r.attempted = opMs.size();
    r.failed = static_cast<std::uint64_t>(res.num("failed", 0.0));
    const JsonValue *rep = res.find("repeatable");
    const bool repeatable = rep && rep->boolean;
    r.correct = r.failed == 0 && r.attempted > 0 && repeatable;
    if (!repeatable)
        r.note = "first op did not reproduce its digest";
    else if (r.failed)
        r.note = "ops failed their digest or range check";
    const double values[] = {
        static_cast<double>(opMs.size()) / (busyMs / 1e3),
        res.num("insts", 0.0) / (busyMs * 1e3),
        percentile(opMs, 0.50),
        percentile(setup, 0.50),
        res.num("peak_rss_kb", 0.0) / 1024.0,
    };
    for (std::size_t i = 0; i < endToEndMetrics().size(); ++i)
        r.metrics.emplace_back(endToEndMetrics()[i], values[i]);
    // The tail is reported but not a bounded metric: on a shared host
    // it moves with other tenants' load far more than the median does.
    std::fprintf(stderr,
                 "%-14s %zu ops (%.0f with committed digests), "
                 "op_ms.p90 %.6g ms\n",
                 w.name, opMs.size(), res.num("checked", 0.0),
                 percentile(opMs, 0.90));
    return r;
}

Result
runTraced(const BenchWorkload &w, const Options &o)
{
    Result r;
    r.workload = w.name;
    std::vector<std::string> args = childArgs(w, o);
    args.push_back("--trace");
    args.push_back("1");
    const ChildRun c = spawnChild(args);
    if (!c.exited0 || !c.parsed) {
        r.note = "traced child failed";
        return r;
    }
    const JsonValue &res = c.result;
    r.attempted = static_cast<std::uint64_t>(res.num("attempted", 0.0));
    r.failed = static_cast<std::uint64_t>(res.num("failed", 0.0));
    r.note = res.text("problem", "");
    if (r.failed && r.note.empty())
        r.note = "ops failed their digest or range check";
    r.correct = r.failed == 0 && r.attempted > 0 && r.note.empty();
    const JsonValue *m = res.find("metrics");
    for (const MetricDef &d : perLayerMetrics()) {
        const JsonValue *x = m ? m->find(d.name) : nullptr;
        if (!x) {
            r.correct = false;
            r.note = std::string("missing metric ") + d.name;
            continue;
        }
        r.metrics.emplace_back(d, x->number);
    }
    std::fprintf(stderr, "%-14s chrome trace %s\n", w.name,
                 res.text("trace_file", "").c_str());
    return r;
}

void
printResult(const Result &r)
{
    for (const auto &[d, value] : r.metrics) {
        std::printf("%-14s %-36s %14.6g %s\n", r.workload.c_str(), d.name,
                    value, d.unit);
    }
    std::printf("%-14s %-36s %14llu of %llu\n", r.workload.c_str(),
                "failed", static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    if (!r.correct)
        std::printf("%-14s INCORRECT: %s\n", r.workload.c_str(),
                    r.note.c_str());
}

void
writeMetrics(JsonWriter &j, const Result &r)
{
    j.key("metrics").beginObject();
    for (const auto &[d, value] : r.metrics) {
        j.key(d.name).beginObject();
        j.kv("value", value);
        j.kv("unit", d.unit);
        j.endObject();
    }
    j.endObject();
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** The --out document: host facts, settings and every result. */
bool
writeResults(const std::string &path, const Options &o,
             const std::vector<Result> &results)
{
    AtomicFile f(path);
    JsonWriter j(f.stream());
    j.beginObject();
    j.kv("schema", "mct-bench-perf-v1");
    j.key("host").beginObject();
    j.kv("nproc", static_cast<std::uint64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
    j.kv("cpu", cpuModel());
    j.kv("compiler", __VERSION__);
    j.kv("build_type", MCT_PERF_BUILD_TYPE);
    j.endObject();
    j.kv("seed", o.seed);
    j.kv("seconds", o.seconds);
    j.kv("trace", o.trace);
    j.key("workloads").beginObject();
    for (const Result &r : results) {
        j.key(r.workload).beginObject();
        j.kv("correct", r.correct);
        j.kv("attempted", r.attempted);
        j.kv("failed", r.failed);
        writeMetrics(j, r);
        j.endObject();
    }
    j.endObject();
    j.endObject();
    f.stream() << '\n';
    return f.commit();
}

int
runBench(const Options &o)
{
    std::vector<Result> results;
    for (const BenchWorkload &w : workloads()) {
        if (!o.workload.empty() && o.workload != w.name)
            continue;
        results.push_back(o.trace ? runTraced(w, o) : runTimed(w, o));
        printResult(results.back());
        std::fflush(stdout);
    }
    if (!o.out.empty() && !writeResults(o.out, o, results)) {
        std::fprintf(stderr, "bench_perf: cannot write %s\n",
                     o.out.c_str());
        return exitInput;
    }
    bool allCorrect = true;
    for (const Result &r : results)
        allCorrect = allCorrect && r.correct;
    if (!o.workload.empty()) {
        const Result &r = results.front();
        JsonWriter j(std::cout);
        j.beginObject();
        j.kv("correct", r.correct);
        j.kv("attempted", r.attempted);
        j.kv("failed", r.failed);
        writeMetrics(j, r);
        j.endObject();
        std::cout << std::endl;
    }
    return allCorrect ? 0 : exitBad;
}

// ---------------------------------------------------------------------
// --compare
// ---------------------------------------------------------------------

/** workload -> metric -> one value per result file. */
using Samples =
    std::map<std::string, std::map<std::string, std::vector<double>>>;

bool
loadSide(const std::string &list, Samples &out, std::string &err)
{
    std::istringstream is(list);
    for (std::string path; std::getline(is, path, ',');) {
        JsonValue doc;
        if (!loadJson(path, doc, err))
            return false;
        const JsonValue *wls = doc.find("workloads");
        if (doc.text("schema", "") != "mct-bench-perf-v1" || !wls) {
            err = path + ": not an mct-bench-perf-v1 result file";
            return false;
        }
        for (const auto &[wl, body] : wls->members) {
            const JsonValue *m = body.find("metrics");
            if (!m)
                continue;
            for (const auto &[name, cell] : m->members)
                out[wl][name].push_back(cell.num("value", NAN));
        }
    }
    return true;
}

int
runCompare(const Options &o)
{
    std::string err;
    JsonValue bench;
    if (!loadJson(std::string(MCT_PERF_ROOT) + "/BENCHMARK.json", bench,
                  err)) {
        std::fprintf(stderr, "bench_perf: %s\n", err.c_str());
        return exitInput;
    }
    Samples base, next;
    if (!loadSide(o.compare[0], base, err) ||
        !loadSide(o.compare[1], next, err)) {
        std::fprintf(stderr, "bench_perf: %s\n", err.c_str());
        return exitInput;
    }
    const JsonValue *e2e = bench.find("end_to_end");
    if (!e2e) {
        std::fprintf(stderr, "bench_perf: BENCHMARK.json has no "
                             "end_to_end metrics\n");
        return exitInput;
    }
    std::printf("%-14s %-12s %-9s %30s %30s %8s %6s  %s\n", "workload",
                "metric", "unit", "base median [q1, q3]",
                "new median [q1, q3]", "change", "bound", "verdict");
    int worse = 0;
    for (const BenchWorkload &w : workloads()) {
        if (!base.count(w.name) && !next.count(w.name))
            continue;
        for (const JsonValue &m : e2e->arr) {
            const std::string name = m.text("name", "");
            const double bound = m.num("bound", 0.0);
            const bool higher = m.text("better", "") == "higher";
            const std::vector<double> &a = base[w.name][name];
            const std::vector<double> &b = next[w.name][name];
            if (a.empty() || b.empty()) {
                std::printf("%-14s %-12s missing on one side\n", w.name,
                            name.c_str());
                ++worse;
                continue;
            }
            const auto qa = quartiles(a), qb = quartiles(b);
            const double change = (qb[1] - qa[1]) / qa[1];
            const bool isWorse = higher ? change < -bound : change > bound;
            const bool isBetter = higher ? change > bound : change < -bound;
            worse += isWorse ? 1 : 0;
            char sa[64], sb[64];
            std::snprintf(sa, sizeof(sa), "%.4g [%.4g, %.4g]", qa[1], qa[0],
                          qa[2]);
            std::snprintf(sb, sizeof(sb), "%.4g [%.4g, %.4g]", qb[1], qb[0],
                          qb[2]);
            std::printf("%-14s %-12s %-9s %30s %30s %+7.1f%% %5.0f%%  %s\n",
                        w.name, name.c_str(), m.text("unit", "").c_str(), sa,
                        sb, 100.0 * change, 100.0 * bound,
                        isWorse ? "WORSE" : isBetter ? "better" : "ok");
        }
    }
    std::printf("%d metric(s) worse than their bound\n", worse);
    return worse ? exitBad : 0;
}

// ---------------------------------------------------------------------
// --record-expected and --verify
// ---------------------------------------------------------------------

int
runRecord(const Options &o)
{
    for (const BenchWorkload &w : workloads()) {
        if (!o.workload.empty() && o.workload != w.name)
            continue;
        Setup s;
        std::string err;
        if (!prepareSetup(w, s, err)) {
            std::fprintf(stderr, "bench_perf: %s\n", err.c_str());
            removeTree(s.scratchDir);
            return exitInput;
        }
        AtomicFile f(expectedPath(w));
        f.stream() << "# " << w.name << ": FNV-1a digest of op key k's "
                   << "simulated output, k = " << o.seed << ".."
                   << o.seed + recordCount - 1
                   << "\n# regenerate: bench_perf --record-expected\n";
        for (std::uint64_t k = o.seed; k < o.seed + recordCount; ++k) {
            resetJsonNonfiniteCount();
            const Verdict v = judge(s, k, w.run(s, k, nullptr));
            if (!v.ok) {
                std::fprintf(stderr, "bench_perf: %s key %llu: objectives "
                                     "out of range or a write failed\n",
                             w.name, static_cast<unsigned long long>(k));
                removeTree(s.scratchDir);
                return exitBad;
            }
            f.stream() << k << ' ' << checksumHex(v.digest) << '\n';
        }
        removeTree(s.scratchDir);
        if (!f.commit()) {
            std::fprintf(stderr, "bench_perf: cannot write %s\n",
                         f.path().c_str());
            return exitInput;
        }
        std::printf("%-14s %llu digests -> %s\n", w.name,
                    static_cast<unsigned long long>(recordCount),
                    f.path().c_str());
    }
    return 0;
}

/** The metric tables above must be exactly BENCHMARK.json's. */
int
verifyMetricTables()
{
    JsonValue bench;
    std::string err;
    if (!loadJson(std::string(MCT_PERF_ROOT) + "/BENCHMARK.json", bench,
                  err)) {
        std::printf("FAIL %s\n", err.c_str());
        return 1;
    }
    int bad = 0;
    const auto same = [&](const char *key,
                          const std::vector<MetricDef> &defs) {
        const JsonValue *arr = bench.find(key);
        const std::size_t n = arr ? arr->arr.size() : 0;
        bool ok = n == defs.size();
        for (std::size_t i = 0; ok && i < n; ++i) {
            const JsonValue &m = arr->arr[i];
            ok = m.text("name", "") == defs[i].name &&
                 m.text("unit", "") == defs[i].unit &&
                 m.text("better", "") == defs[i].better;
        }
        std::printf("%s BENCHMARK.json %s matches the reported metrics\n",
                    ok ? "ok  " : "FAIL", key);
        bad += ok ? 0 : 1;
    };
    same("end_to_end", endToEndMetrics());
    same("per_layer", perLayerMetrics());
    return bad;
}

int
runVerify()
{
    int bad = verifyMetricTables();
    for (const BenchWorkload &w : workloads()) {
        Setup s;
        if (!childSetup(w, s)) {
            removeTree(s.scratchDir);
            return exitInput;
        }
        for (std::uint64_t k = defaultSeed; k < defaultSeed + 2; ++k) {
            resetJsonNonfiniteCount();
            const Verdict v = judge(s, k, w.run(s, k, nullptr));
            const bool ok = v.ok && v.checked;
            bad += ok ? 0 : 1;
            std::printf("%s %s key %llu digest %s%s\n", ok ? "ok  " : "FAIL",
                        w.name, static_cast<unsigned long long>(k),
                        checksumHex(v.digest).c_str(),
                        v.checked ? "" : " (no committed digest)");
        }
        removeTree(s.scratchDir);
    }
    for (const char *app : {"lbm", "zeusmp", "gups"}) {
        const std::string problem =
            checkReplayFidelity(app, defaultSeed, 10 * 1000);
        bad += problem.empty() ? 0 : 1;
        std::printf("%s replay fidelity %s at 10k memory ops %s\n",
                    problem.empty() ? "ok  " : "FAIL", app, problem.c_str());
    }
    return bad ? exitBad : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (const int rc = parseArgs(argc, argv, o); rc >= 0)
        return rc;
    if (o.child)
        return runChild(o);
    if (o.verify)
        return runVerify();
    if (o.recordExpected)
        return runRecord(o);
    if (!o.compare.empty())
        return runCompare(o);
    return runBench(o);
}
