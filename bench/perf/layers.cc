#include "layers.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "cache/hierarchy.hh"
#include "common/json.hh"
#include "common/serialize.hh"
#include "mct/controller.hh"
#include "mct/cyclic_sampler.hh"
#include "mct/optimizer.hh"
#include "mct/predictors.hh"
#include "mct/samplers.hh"
#include "memctrl/controller.hh"
#include "nvm/device.hh"
#include "sim/checkpoint.hh"
#include "sim/evaluator.hh"
#include "workloads/workload.hh"

namespace mct::perf
{

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> all = {
        {"workloads.next_ns", "ns", "lower"},
        {"workloads.memops_per_kinst", "op/kinst", "lower"},
        {"cache.access_ns", "ns", "lower"},
        {"cache.l1_hit_ratio", "ratio", "higher"},
        {"cache.l2_hit_ratio", "ratio", "higher"},
        {"cache.llc_hit_ratio", "ratio", "higher"},
        {"cache.nvm_reads_per_kaccess", "op/kaccess", "lower"},
        {"cache.writebacks_per_kaccess", "op/kaccess", "lower"},
        {"sim.run_ns_per_inst", "ns", "lower"},
        {"sim.run_ns_per_memop", "ns", "lower"},
        {"cpu.self_ns_per_memop", "ns", "lower"},
        {"cpu.mem_stall_frac", "ratio", "lower"},
        {"memctrl.submit_ns", "ns", "lower"},
        {"memctrl.advance_ns", "ns", "lower"},
        {"memctrl.host_ns_per_request", "ns", "lower"},
        {"memctrl.advances_per_request", "ratio", "lower"},
        {"memctrl.reject_ratio", "ratio", "lower"},
        {"memctrl.row_hit_ratio", "ratio", "higher"},
        {"memctrl.cancel_ratio", "ratio", "lower"},
        {"memctrl.bank_util", "ratio", "lower"},
        {"memctrl.read_latency_ns", "ns", "lower"},
        {"nvm.decode_ns", "ns", "lower"},
        {"nvm.access_read_ns", "ns", "lower"},
        {"nvm.add_wear_ns", "ns", "lower"},
        {"sim.construct_us", "us", "lower"},
        {"sim.snapshot_us", "us", "lower"},
        {"mct.enumerate_space_ms", "ms", "lower"},
        {"mct.encode_space_ms", "ms", "lower"},
        {"mct.samples_ms", "ms", "lower"},
        {"mct.sampler_round_ms", "ms", "lower"},
        {"mct.set_config_us", "us", "lower"},
        {"mct.optimize_us", "us", "lower"},
        {"mct.sampling_frac", "ratio", "lower"},
        {"mct.fit_ms", "ms", "lower"},
        {"ml.fit_predict_ms.linear", "ms", "lower"},
        {"ml.fit_predict_ms.lasso", "ms", "lower"},
        {"ml.fit_predict_ms.quadratic", "ms", "lower"},
        {"ml.fit_predict_ms.qlasso", "ms", "lower"},
        {"ml.fit_predict_ms.gbt", "ms", "lower"},
        {"common.stat_snapshot_us", "us", "lower"},
        {"common.stat_delta_us", "us", "lower"},
        {"common.observe_window_us", "us", "lower"},
        {"common.stats_json_us", "us", "lower"},
        {"common.trace_jsonl_ns_per_record", "ns", "lower"},
        {"common.trace_chrome_ns_per_record", "ns", "lower"},
        {"common.spans_jsonl_ns_per_record", "ns", "lower"},
        {"common.spans_chrome_ns_per_record", "ns", "lower"},
        {"common.span_run_overhead", "ratio", "lower"},
        {"common.telemetry_mb", "MB", "lower"},
        {"common.ckpt_serialize_ms", "ms", "lower"},
        {"common.ckpt_save_ms", "ms", "lower"},
        {"common.ckpt_mb", "MB", "lower"},
    };
    return all;
}

namespace
{

/** Repetitions of each short library call. */
constexpr int reps = 5;

/** Repetitions of each call that costs milliseconds. */
constexpr int slowReps = 3;

const EvalParams evalLengths{};

/** Summed self time and call count of every span of one name. */
struct Agg
{
    std::uint64_t selfNs = 0;
    std::uint64_t count = 0;
};

std::map<std::string, Agg>
aggregate(const SpanLog &log)
{
    std::map<std::string, Agg> out;
    const std::vector<std::uint64_t> self = log.selfNs();
    for (std::size_t i = 0; i < self.size(); ++i) {
        Agg &a = out[log.spans()[i].name];
        a.selfNs += self[i];
        a.count += log.spans()[i].count;
    }
    return out;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** A request the replayed hierarchy sends toward memory. */
struct Request
{
    Addr addr = 0;
    bool write = false;
};

/** What one controller replay saw. */
struct CtrlReplay
{
    std::uint64_t readsDone = 0, writesDone = 0;
    std::uint64_t submits = 0, rejects = 0, advances = 0;
    std::uint64_t submitNs = 0, advanceNs = 0; ///< clocked replay only
};

/**
 * Feed @p reqs to a fresh controller under defaultConfig(), open loop
 * with arrivals evenly spaced over @p simTicks (the in-system request
 * rate), then drain it. With @p clockCalls every submit and advance
 * call is timed too, which adds the clock's own cost to the loop.
 */
CtrlReplay
replayController(const std::vector<Request> &reqs, Tick simTicks,
                 bool clockCalls)
{
    const SystemParams sp;
    NvmDevice dev(sp.nvm);
    MemController ctrl(dev, sp.memctrl, defaultConfig());
    CtrlReplay r;
    const auto clocked = [&](std::uint64_t &ns, auto call) {
        const std::uint64_t t0 = clockCalls ? monoNs() : 0;
        const auto result = call();
        if (clockCalls)
            ns += monoNs() - t0;
        return result;
    };
    const auto advance = [&](Tick to) {
        clocked(r.advanceNs, [&] { ctrl.advance(to); return 0; });
        ++r.advances;
        r.readsDone += ctrl.completedReads().size();
        ctrl.completedReads().clear();
    };
    // The same pump the core uses when it must wait on the controller.
    const auto pump = [&] {
        const Tick next = ctrl.nextEventTick();
        advance(next == ctrl.now() ? next + 1 : next);
    };
    const std::size_t n = reqs.size();
    for (std::size_t j = 0; j < n; ++j) {
        Tick t = std::max(ctrl.now(), simTicks / n * j);
        advance(t);
        const Request &q = reqs[j];
        while (!clocked(r.submitNs, [&] {
            return q.write ? ctrl.submitWrite(q.addr, t)
                           : ctrl.submitRead(q.addr, t, j);
        })) {
            ++r.rejects;
            pump();
            t = std::max(t, ctrl.now());
        }
        ++r.submits;
    }
    while (!ctrl.idle() && ctrl.nextEventTick() != MemController::noEvent)
        pump();
    r.writesDone = ctrl.stats().writesCompleted;
    return r;
}

/** What the layer-by-layer replay saw. */
struct Replay
{
    std::uint64_t l1Hits = 0, l2Hits = 0, l3Hits = 0;
    std::uint64_t reads = 0, writebacks = 0;
    CtrlReplay ctrl;    ///< counts from the unclocked controller replay
    Tick readTicks = 0; ///< keeps the device replay observable
};

/**
 * Replay @p memOps ops of @p app (seed @p k) through each layer in
 * turn, under defaultConfig() and default geometry: generation, the
 * cache hierarchy, the controller fed open loop over @p simTicks, and
 * the device's own calls.
 */
Replay
replayLayers(const std::string &app, std::uint64_t k, std::uint64_t memOps,
             Tick simTicks, SpanLog *log)
{
    const SystemParams sp;
    Replay r;

    auto wl = makeWorkload(app, k);
    std::vector<WorkloadOp> ops(memOps);
    timed(log, "workloads.next", [&] {
        for (WorkloadOp &op : ops)
            wl->next(op);
    }, memOps);

    CacheHierarchy hier(sp.caches);
    std::vector<Request> reqs;
    reqs.reserve(memOps);
    timed(log, "cache.access", [&] {
        AccessOutcome out;
        for (const WorkloadOp &op : ops) {
            hier.access(op.addr, op.isWrite, out);
            // Core::executeMemOp submits writebacks before the read.
            for (const Addr wb : out.writebacks)
                reqs.push_back({wb, true});
            switch (out.hitLevel) {
              case 1: ++r.l1Hits; break;
              case 2: ++r.l2Hits; break;
              case 3: ++r.l3Hits; break;
              default: reqs.push_back({op.addr, false}); break;
            }
        }
    }, memOps);
    for (const Request &q : reqs)
        ++(q.write ? r.writebacks : r.reads);

    r.ctrl = timed(log, "memctrl.replay", [&] {
        return replayController(reqs, simTicks, false);
    }, reqs.size());
    const CtrlReplay clocked = timed(log, "memctrl.replay_clocked", [&] {
        return replayController(reqs, simTicks, true);
    }, reqs.size());
    r.ctrl.submitNs = clocked.submitNs;
    r.ctrl.advanceNs = clocked.advanceNs;

    NvmDevice nvm(sp.nvm);
    std::vector<NvmLocation> locs(reqs.size());
    timed(log, "nvm.decode", [&] {
        for (std::size_t j = 0; j < reqs.size(); ++j)
            locs[j] = nvm.decode(reqs[j].addr);
    }, reqs.size());
    timed(log, "nvm.access_read", [&] {
        for (std::size_t j = 0; j < reqs.size(); ++j) {
            if (reqs[j].write)
                continue;
            const NvmLocation &l = locs[j];
            Bank &b = nvm.bank(l.bank);
            const bool hit = b.openRow == static_cast<std::int64_t>(l.row);
            r.readTicks += nvm.accessRead(l.bank, hit, false, 0, 0);
            b.openRow = static_cast<std::int64_t>(l.row);
        }
    }, r.reads);
    timed(log, "nvm.add_wear", [&] {
        for (std::size_t j = 0; j < reqs.size(); ++j) {
            if (reqs[j].write)
                nvm.addWear(locs[j].bank, locs[j].row, 1.0);
        }
    }, r.writebacks);
    return r;
}

/** "" when the replay saw exactly the in-system counts. */
std::string
compareReplay(const CoreStats &cs, const Replay &r)
{
    std::ostringstream os;
    const auto check = [&](const char *what, std::uint64_t want,
                           std::uint64_t got) {
        if (want != got)
            os << what << ": expected " << want << ", replay " << got
               << "; ";
    };
    check("L1 hits", cs.l1Hits, r.l1Hits);
    check("L2 hits", cs.l2Hits, r.l2Hits);
    check("L3 hits", cs.l3Hits, r.l3Hits);
    check("NVM reads", cs.memReads, r.reads);
    check("writebacks", cs.memWrites, r.writebacks);
    check("memctrl reads completed", r.reads, r.ctrl.readsDone);
    check("memctrl writes completed", r.writebacks, r.ctrl.writesDone);
    return os.str();
}

} // namespace

std::string
checkReplayFidelity(const std::string &app, std::uint64_t k,
                    std::uint64_t memOps)
{
    System sys(app, paramsFor(k), defaultConfig());
    while (sys.core().stats().memOps < memOps)
        sys.run(10 * 1000);
    const CoreStats &cs = sys.core().stats();
    return compareReplay(cs,
                         replayLayers(app, k, cs.memOps, sys.now(), nullptr));
}

LayerRun
runLayers(const BenchWorkload &w, const Setup &s, std::uint64_t seed,
          std::uint64_t startNs, std::uint64_t budgetNs, SpanLog &log)
{
    SpanLog *lg = &log;
    LayerRun out;
    std::map<std::string, double> &v = out.values;
    const std::string app = w.app;
    const SystemParams sp = paramsFor(seed);

    // 1. One eval op's simulated work, spans off, timed around run().
    auto sys = timed(lg, "sim.construct", [&] {
        return std::make_unique<System>(app, sp, defaultConfig());
    });
    std::uint64_t runNs = monoNs();
    timed(lg, "sim.run", [&] { sys->run(evalLengths.warmupInsts); },
          evalLengths.warmupInsts);
    runNs = monoNs() - runNs;
    const SysSnapshot s0 = sys->snapshot();
    const StatSnapshot r0 = sys->statRegistry().snapshot();
    std::uint64_t t = monoNs();
    timed(lg, "sim.run", [&] { sys->run(evalLengths.measureInsts); },
          evalLengths.measureInsts);
    runNs += monoNs() - t;
    const SysSnapshot s1 = sys->snapshot();
    const StatSnapshot r1 = sys->statRegistry().snapshot();
    const CoreStats &cs = sys->core().stats();
    const CoreStats cd = s1.core.delta(s0.core);

    // 2. The same stream, layer by layer; the counts must match.
    const Replay rep = timed(lg, "replay", [&] {
        return replayLayers(app, seed, cs.memOps, sys->now(), lg);
    });
    out.problem = compareReplay(cs, rep);

    // 3. Stat and checkpoint surfaces on that system.
    Serializer ser;
    CheckpointStore store(s.scratchDir + "/layers-ckpt");
    for (int i = 0; i < reps; ++i) {
        timed(lg, "sim.snapshot", [&] { return sys->snapshot(); });
        timed(lg, "common.stat_snapshot",
              [&] { return sys->statRegistry().snapshot(); });
        timed(lg, "common.stat_delta",
              [&] { return StatRegistry::delta(r0, r1); });
        timed(lg, "common.stats_json", [&] {
            std::ostringstream os;
            writeSnapshotJson(os, r1);
            return os.str().size();
        });
        ser = Serializer();
        timed(lg, "common.ckpt_serialize", [&] { sys->serialize(ser); });
        if (!timed(lg, "common.ckpt_save",
                   [&] { return store.save("bench-perf", ser.data()); }))
            out.problem += "checkpoint save failed; ";
    }

    // 4. The same eval with every request spanned and every event
    // recorded: the cost of observation and of emitting it.
    std::vector<AlertRule> rules;
    std::string err;
    if (!loadAlerts(dataDir() + "/alerts.txt", rules, err))
        out.problem += err + "; ";
    auto obs = std::make_unique<System>(app, sp, defaultConfig());
    obs->eventTrace().enable(64 * 1024);
    obs->enableSpans(1, 16 * 1024);
    obs->enableTimeline({"*"}, 512);
    obs->enableAlerts(rules);
    std::uint64_t obsNs = monoNs();
    timed(lg, "sim.run_spans_on",
          [&] { obs->run(evalLengths.warmupInsts); },
          evalLengths.warmupInsts);
    obsNs = monoNs() - obsNs;
    const StatSnapshot o0 = obs->statRegistry().snapshot();
    t = monoNs();
    timed(lg, "sim.run_spans_on",
          [&] { obs->run(evalLengths.measureInsts); },
          evalLengths.measureInsts);
    obsNs += monoNs() - t;
    const StatSnapshot window =
        StatRegistry::delta(o0, obs->statRegistry().snapshot());
    for (int i = 0; i < reps; ++i) {
        timed(lg, "common.observe_window",
              [&] { obs->observeWindow(obs->retired(), window); });
    }
    std::size_t telemetryBytes = 0;
    const auto emit = [&](const char *name, std::size_t records,
                          auto write) {
        std::ostringstream os;
        timed(lg, name, [&] { write(os); }, records);
        telemetryBytes += os.str().size();
    };
    const EventTrace &trace = obs->eventTrace();
    const SpanTrace &spans = obs->spanTrace();
    emit("common.trace_jsonl", trace.size(),
         [&](std::ostream &os) { trace.writeJsonl(os); });
    emit("common.trace_chrome", trace.size(),
         [&](std::ostream &os) { trace.writeChromeTrace(os); });
    emit("common.spans_jsonl", spans.size(),
         [&](std::ostream &os) { spans.writeJsonl(os); });
    emit("common.spans_chrome", spans.size(),
         [&](std::ostream &os) { spans.writeChromeTrace(os); });
    emit("common.stats_json", 1, [&](std::ostream &os) {
        writeSnapshotJson(os, obs->statRegistry().snapshot());
    });

    // 5. MCT and ML layers on the application, under the best static
    // policy (every Mellow-Writes mechanism on).
    std::vector<MellowConfig> space, samples;
    for (int i = 0; i < reps; ++i) {
        space = timed(lg, "mct.enumerate_space",
                      [&] { return enumerateNoQuotaSpace(); });
        timed(lg, "mct.encode_space", [&] { return encodeSpace(space); });
        samples = timed(lg, "mct.samples",
                        [&] { return featureBasedSamples(42); });
    }
    auto st = timed(lg, "sim.construct", [&] {
        return std::make_unique<System>(app, sp, staticBaselineConfig());
    });
    timed(lg, "sim.run", [&] { st->run(evalLengths.warmupInsts); },
          evalLengths.warmupInsts);
    const SysSnapshot b0 = st->snapshot();
    timed(lg, "sim.run", [&] { st->run(evalLengths.measureInsts); },
          evalLengths.measureInsts);
    const SysSnapshot b1 = st->snapshot();
    const CtrlStats bd = b1.ctrl.delta(b0.ctrl);
    CyclicSamplerParams cp;
    cp.rounds = 1;
    CyclicSampler sampler(*st, cp);
    std::vector<Metrics> sampled;
    for (int i = 0; i < slowReps; ++i) {
        sampled = timed(lg, "mct.sampler_round",
                        [&] { return sampler.run(samples); });
    }
    for (int i = 0; i < reps; ++i) {
        const MellowConfig &cfg = samples[static_cast<std::size_t>(i)];
        timed(lg, "mct.set_config", [&] { st->setConfig(cfg); });
    }
    TrainData td;
    td.space = &space;
    td.sampleIdx = indicesInSpace(space, samples);
    const auto objective = [&](double Metrics::*field) {
        ml::Vector y;
        for (const Metrics &m : sampled)
            y.push_back(m.*field);
        return y;
    };
    const std::pair<const char *, PredictorKind> models[] = {
        {"ml.fit_predict.linear", PredictorKind::Linear},
        {"ml.fit_predict.lasso", PredictorKind::LinearLasso},
        {"ml.fit_predict.quadratic", PredictorKind::Quadratic},
        {"ml.fit_predict.qlasso", PredictorKind::QuadraticLasso},
        {"ml.fit_predict.gbt", PredictorKind::GradientBoosting},
    };
    td.sampleY = objective(&Metrics::ipc);
    ml::Vector ipc;
    for (const auto &[name, kind] : models) {
        for (int i = 0; i < slowReps; ++i) {
            ipc = timed(lg, name,
                        [&] { return predictAllConfigs(kind, td); });
        }
    }
    td.sampleY = objective(&Metrics::lifetimeYears);
    const ml::Vector life = predictAllConfigs(PredictorKind::Linear, td);
    td.sampleY = objective(&Metrics::energyJ);
    const ml::Vector energy = predictAllConfigs(PredictorKind::Linear, td);
    std::vector<Metrics> predicted(space.size());
    for (std::size_t i = 0; i < space.size(); ++i)
        predicted[i] = Metrics{ipc[i], life[i], energy[i]};
    const MctParams mp;
    for (int i = 0; i < reps; ++i) {
        timed(lg, "mct.optimize",
              [&] { return chooseOptimal(predicted, mp.objective); });
    }

    // 6. One MCT decision on the application, its stages charged to a
    // host profiler by the controller itself.
    HostProfiler hp;
    hp.enable();
    t = monoNs();
    timed(lg, "mct.probe", [&] { return mctOp(app, seed, lg, &hp); });
    const double probeNs = static_cast<double>(monoNs() - t);
    std::uint64_t fits = 0;
    for (const HostProfiler::Stage &st : hp.stages())
        fits += st.name == "fit" ? st.calls : 0;

    // 7. The workload's own ops, each under an "op" span.
    for (std::uint64_t k = seed;; ++k) {
        resetJsonNonfiniteCount();
        const OpResult u = timed(lg, "op", [&] { return w.run(s, k, lg); });
        ++out.attempted;
        out.failed += judge(s, k, u).ok ? 0 : 1;
        if (out.attempted >= 2 && monoNs() - startNs >= budgetNs)
            break;
    }

    const std::map<std::string, Agg> agg = aggregate(log);
    const auto per = [&](const char *name, double scale) {
        const auto it = agg.find(name);
        return it == agg.end()
                   ? 0.0
                   : ratio(static_cast<double>(it->second.selfNs) / scale,
                           static_cast<double>(it->second.count));
    };
    const double memOps = static_cast<double>(cs.memOps);
    const double insts = static_cast<double>(sys->retired());
    const double requests = static_cast<double>(rep.reads + rep.writebacks);
    const double windowTicks = static_cast<double>(s1.time - s0.time);

    v["workloads.next_ns"] = per("workloads.next", 1);
    v["workloads.memops_per_kinst"] =
        ratio(1e3 * static_cast<double>(cd.memOps),
              static_cast<double>(cd.instructions));
    v["cache.access_ns"] = per("cache.access", 1);
    const double dOps = static_cast<double>(cd.memOps);
    const double l1 = static_cast<double>(cd.l1Hits);
    const double l2 = static_cast<double>(cd.l2Hits);
    v["cache.l1_hit_ratio"] = ratio(l1, dOps);
    v["cache.l2_hit_ratio"] = ratio(l2, dOps - l1);
    v["cache.llc_hit_ratio"] =
        ratio(static_cast<double>(cd.l3Hits), dOps - l1 - l2);
    v["cache.nvm_reads_per_kaccess"] =
        ratio(1e3 * static_cast<double>(cd.memReads), dOps);
    v["cache.writebacks_per_kaccess"] =
        ratio(1e3 * static_cast<double>(cd.memWrites), dOps);
    v["sim.run_ns_per_inst"] = ratio(static_cast<double>(runNs), insts);
    v["sim.run_ns_per_memop"] = ratio(static_cast<double>(runNs), memOps);
    v["memctrl.host_ns_per_request"] = per("memctrl.replay", 1);
    // An estimate: run() time per memory op minus what the replayed
    // layers below the core cost for the same stream.
    v["cpu.self_ns_per_memop"] = std::max(
        0.0, v["sim.run_ns_per_memop"] - v["workloads.next_ns"] -
                 v["cache.access_ns"] -
                 v["memctrl.host_ns_per_request"] * ratio(requests, memOps));
    v["cpu.mem_stall_frac"] =
        ratio(static_cast<double>(cd.memStallTicks), windowTicks);
    v["memctrl.submit_ns"] =
        ratio(static_cast<double>(rep.ctrl.submitNs),
              static_cast<double>(rep.ctrl.submits + rep.ctrl.rejects));
    v["memctrl.advance_ns"] = ratio(static_cast<double>(rep.ctrl.advanceNs),
                                    static_cast<double>(rep.ctrl.advances));
    v["memctrl.advances_per_request"] =
        ratio(static_cast<double>(rep.ctrl.advances), requests);
    v["memctrl.reject_ratio"] =
        ratio(static_cast<double>(rep.ctrl.rejects),
              static_cast<double>(rep.ctrl.submits + rep.ctrl.rejects));
    v["memctrl.row_hit_ratio"] =
        ratio(static_cast<double>(bd.rowHits),
              static_cast<double>(bd.readsCompleted));
    v["memctrl.cancel_ratio"] =
        ratio(static_cast<double>(bd.cancellations),
              static_cast<double>(bd.writesCompleted));
    v["memctrl.bank_util"] =
        ratio(static_cast<double>(bd.bankBusyTicks),
              static_cast<double>(b1.time - b0.time) *
                  static_cast<double>(sp.nvm.numBanks));
    v["memctrl.read_latency_ns"] = bd.avgReadLatency() * nsPerTick;
    v["nvm.decode_ns"] = per("nvm.decode", 1);
    v["nvm.access_read_ns"] = per("nvm.access_read", 1);
    v["nvm.add_wear_ns"] = per("nvm.add_wear", 1);
    v["sim.construct_us"] = per("sim.construct", 1e3);
    v["sim.snapshot_us"] = per("sim.snapshot", 1e3);
    v["mct.enumerate_space_ms"] = per("mct.enumerate_space", 1e6);
    v["mct.encode_space_ms"] = per("mct.encode_space", 1e6);
    v["mct.samples_ms"] = per("mct.samples", 1e6);
    v["mct.sampler_round_ms"] = per("mct.sampler_round", 1e6);
    v["mct.set_config_us"] = per("mct.set_config", 1e3);
    v["mct.optimize_us"] = per("mct.optimize", 1e3);
    v["mct.sampling_frac"] = ratio(hp.wallSeconds("sampling") * 1e9, probeNs);
    v["mct.fit_ms"] =
        ratio(hp.wallSeconds("fit") * 1e3, static_cast<double>(fits));
    v["ml.fit_predict_ms.linear"] = per("ml.fit_predict.linear", 1e6);
    v["ml.fit_predict_ms.lasso"] = per("ml.fit_predict.lasso", 1e6);
    v["ml.fit_predict_ms.quadratic"] = per("ml.fit_predict.quadratic", 1e6);
    v["ml.fit_predict_ms.qlasso"] = per("ml.fit_predict.qlasso", 1e6);
    v["ml.fit_predict_ms.gbt"] = per("ml.fit_predict.gbt", 1e6);
    v["common.stat_snapshot_us"] = per("common.stat_snapshot", 1e3);
    v["common.stat_delta_us"] = per("common.stat_delta", 1e3);
    v["common.observe_window_us"] = per("common.observe_window", 1e3);
    v["common.stats_json_us"] = per("common.stats_json", 1e3);
    v["common.trace_jsonl_ns_per_record"] = per("common.trace_jsonl", 1);
    v["common.trace_chrome_ns_per_record"] = per("common.trace_chrome", 1);
    v["common.spans_jsonl_ns_per_record"] = per("common.spans_jsonl", 1);
    v["common.spans_chrome_ns_per_record"] = per("common.spans_chrome", 1);
    v["common.span_run_overhead"] =
        ratio(static_cast<double>(obsNs) /
                  static_cast<double>(obs->retired()),
              v["sim.run_ns_per_inst"]);
    v["common.telemetry_mb"] = static_cast<double>(telemetryBytes) / 1e6;
    v["common.ckpt_serialize_ms"] = per("common.ckpt_serialize", 1e6);
    v["common.ckpt_save_ms"] = per("common.ckpt_save", 1e6);
    v["common.ckpt_mb"] = static_cast<double>(ser.size()) / 1e6;
    return out;
}

} // namespace mct::perf
