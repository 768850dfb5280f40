#include "sim/system.hh"

#include <algorithm>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "sim/fault_injector.hh"

namespace mct
{

System::System(const std::string &workloadName,
               const SystemParams &params, const MellowConfig &config)
    : System(makeWorkload(workloadName, params.seed), params, config)
{
}

System::System(std::unique_ptr<Workload> workload,
               const SystemParams &params, const MellowConfig &config)
    : p(params), energy_(params.energy), wl_(std::move(workload))
{
    if (!wl_)
        mct_fatal("System: null workload");
    wire(config);
}

void
System::wire(const MellowConfig &config)
{
    dev_ = std::make_unique<NvmDevice>(p.nvm);
    ctrl_ = std::make_unique<MemController>(*dev_, p.memctrl, config);
    hier_ = std::make_unique<CacheHierarchy>(p.caches);
    router_ = std::make_unique<CompletionRouter>(*ctrl_);
    core_ = std::make_unique<Core>(0, p.core, *wl_, *hier_, *ctrl_,
                                   *router_);
    trace_.setClock(&core_->stats().instructions);
    ctrl_->attachTrace(&trace_);
    prov_.attachTrace(&trace_);
    registerAllStats();
}

void
System::registerAllStats()
{
    core_->registerStats(reg_, "cpu.core0");
    hier_->registerStats(reg_, "cache");
    ctrl_->registerStats(reg_, "memctrl");
    dev_->registerStats(reg_, "nvm");
    reg_.addGauge("sim.seconds", [this] {
        return static_cast<double>(now()) * secPerTick;
    });
    reg_.addCounter("sim.instructions", [this] { return retired(); });
    reg_.addGauge("sim.objective.ipc", [this] { return core_->ipc(); });
    reg_.addGauge("sim.objective.lifetime_years",
                  [this] { return dev_->lifetimeYears(now()); });
    reg_.addGauge("sim.trace.recorded", [this] {
        return static_cast<double>(trace_.recorded());
    });
    reg_.addGauge("sim.trace.dropped", [this] {
        return static_cast<double>(trace_.dropped());
    });
    reg_.addGauge("sim.spans.recorded", [this] {
        return static_cast<double>(spans_.recorded());
    });
    reg_.addGauge("sim.spans.dropped", [this] {
        return static_cast<double>(spans_.dropped());
    });
    reg_.addGauge("sim.provenance.recorded", [this] {
        return static_cast<double>(prov_.recorded());
    });
    reg_.addGauge("sim.provenance.dropped", [this] {
        return static_cast<double>(prov_.dropped());
    });
    reg_.addCounter("stats.nonfinite", [] { return jsonNonfiniteCount(); },
                    "NaN/Inf values that reached a JSON emitter");

    // Latency attribution of sampled request-lifecycle spans. The
    // histograms are registry-owned; the span trace records into them
    // whenever a sampled span closes (empty while spans are off).
    const auto addLatStats =
        [this](const std::string &stage) -> LogHistogram & {
        LogHistogram &h = reg_.addHistogram(
            "lat." + stage + ".ns",
            "per-span " + stage + " time of sampled requests (ns)");
        reg_.addGauge("lat." + stage + ".p50_ns",
                      [&h] { return h.percentile(0.50); },
                      "median " + stage + " span time (ns)");
        reg_.addGauge("lat." + stage + ".p90_ns",
                      [&h] { return h.percentile(0.90); },
                      "90th-percentile " + stage + " span time (ns)");
        reg_.addGauge("lat." + stage + ".p99_ns",
                      [&h] { return h.percentile(0.99); },
                      "99th-percentile " + stage + " span time (ns)");
        return h;
    };
    for (std::size_t s = 0; s < numSpanStages; ++s) {
        const auto stage = static_cast<SpanStage>(s);
        spans_.setStageHistogram(stage, &addLatStats(toString(stage)));
    }
    spans_.setTotalHistogram(&addLatStats("total"));
}

void
System::enableSpans(std::uint64_t sampleEvery, std::size_t capacity)
{
    spans_.enable(sampleEvery, capacity);
    spans_.setClock(&core_->stats().instructions);
    spans_.attachTrace(&trace_);
    core_->attachSpans(&spans_);
    hier_->attachSpans(&spans_);
    ctrl_->attachSpans(&spans_);
    dev_->attachSpans(&spans_);
}

void
System::enableTimeline(std::vector<std::string> globs,
                       std::size_t capacity)
{
    timeline_.enable(std::move(globs), capacity);
    // Host-scoped: collection is deterministic, but registering these
    // must not perturb the byte-identical Sim snapshot surfaces, so
    // an armed run's --stats-json matches a disarmed run's.
    reg_.addGauge("sim.timeline.windows", [this] {
        return static_cast<double>(timeline_.size());
    }, "timeline windows currently held in the ring");
    reg_.addGauge("sim.timeline.recorded", [this] {
        return static_cast<double>(timeline_.recorded());
    }, "timeline windows ever observed");
    reg_.addGauge("sim.timeline.dropped", [this] {
        return static_cast<double>(timeline_.dropped());
    }, "timeline windows overwritten by ring wraparound");
    reg_.addGauge("sim.timeline.metrics", [this] {
        return static_cast<double>(timeline_.metrics().size());
    }, "metrics bound to the timeline's tracked set");
    for (const char *path :
         {"sim.timeline.windows", "sim.timeline.recorded",
          "sim.timeline.dropped", "sim.timeline.metrics"})
        reg_.markHost(path);
}

void
System::enableAlerts(std::vector<AlertRule> rules)
{
    alerts_.enable(std::move(rules));
    alerts_.attachTrace(&trace_);
    alerts_.registerStats(reg_);
}

void
System::attachFaultInjector(FaultInjector *f)
{
    faults_ = f;
    if (!faults_)
        return;
    faults_->setClock(&core_->stats().instructions);
    faults_->attachTrace(&trace_);
    faults_->registerStats(reg_);
    faults_->poll(*this); // apply faults armed from instruction 0
}

void
System::attachHostProfiler(HostProfiler *hp)
{
    hostProf_ = hp;
    if (hostProf_)
        hostProf_->registerStats(reg_);
}

void
System::run(InstCount insts)
{
    if (faults_)
        faults_->poll(*this);
    const InstCount before = core_->retired();
    {
        HostProfiler::Scope step(hostProf_, "step");
        core_->run(insts);
        // Let in-flight memory work that already fits inside the
        // elapsed window complete so snapshot deltas line up with
        // CPU time.
        ctrl_->advance(core_->now());
    }
    if (hostProf_)
        hostProf_->addInstructions(
            static_cast<std::uint64_t>(core_->retired() - before));
}

void
System::setConfig(const MellowConfig &config)
{
    trace_.record(TraceEventType::ConfigApplied, config.slowLatency,
                  config.wearQuota ? 1.0 : 0.0,
                  (config.fastCancellation ? 2.0
                   : config.slowCancellation ? 1.0
                                             : 0.0));
    ctrl_->setConfig(config, core_->now());
}

SysSnapshot
System::snapshot() const
{
    SysSnapshot s;
    s.core = core_->stats();
    s.ctrl = ctrl_->stats();
    s.time = core_->now();
    s.instructions = core_->retired();
    s.bankWear.reserve(dev_->numBanks());
    for (unsigned b = 0; b < dev_->numBanks(); ++b)
        s.bankWear.push_back(dev_->bank(b).wear);
    return s;
}

double
windowLifetimeYears(const NvmParams &nvm,
                    const std::vector<double> &wearFrom,
                    const std::vector<double> &wearTo, Tick elapsed)
{
    if (elapsed == 0 || wearTo.size() != wearFrom.size())
        return nvm.maxLifetimeYears;
    double worstRate = 0.0;
    const double sec = static_cast<double>(elapsed) /
                       static_cast<double>(tickSec);
    for (std::size_t b = 0; b < wearTo.size(); ++b) {
        const double dw = wearTo[b] - wearFrom[b];
        worstRate = std::max(worstRate, dw / sec);
    }
    if (worstRate <= 0.0)
        return nvm.maxLifetimeYears;
    const double years =
        nvm.bankWearCapacity() / worstRate / secondsPerYear;
    return std::min(years, nvm.maxLifetimeYears);
}

Metrics
System::metricsBetween(const SysSnapshot &from,
                       const SysSnapshot &to) const
{
    Metrics m;
    const Tick elapsed = to.time - from.time;
    const InstCount insts = to.instructions - from.instructions;
    if (elapsed > 0) {
        const double cycles = static_cast<double>(elapsed) /
                              static_cast<double>(cpuCyclePs);
        m.ipc = static_cast<double>(insts) / cycles;
    }
    m.lifetimeYears =
        windowLifetimeYears(p.nvm, from.bankWear, to.bankWear, elapsed);
    const CtrlStats dc = to.ctrl.delta(from.ctrl);
    const double joules = energy_.energyJ(elapsed, insts,
                                          dc.readsCompleted,
                                          dc.writeEnergyUnits, 1);
    if (insts > 0)
        m.energyJ = joules * 1e6 / static_cast<double>(insts);
    return m;
}

Metrics
System::metricsSince(const SysSnapshot &from) const
{
    return metricsBetween(from, snapshot());
}

template <class Ar>
void
System::io(Ar &ar)
{
    // Parameters and wiring (router, fault injector, host profiler)
    // are rebuilt identically before a restore.
    if constexpr (Ar::reading)
        wl_->deserialize(ar);
    else
        wl_->serialize(ar);
    core_->io(ar);
    hier_->io(ar);
    ctrl_->io(ar);
    dev_->io(ar);
    trace_.io(ar);
    spans_.io(ar);
    prov_.io(ar);
    timeline_.io(ar);
    alerts_.io(ar);
    reg_.ioOwned(ar);
}

void
System::serialize(Serializer &s) const
{
    const_cast<System *>(this)->io(s);
}

void
System::deserialize(Deserializer &d)
{
    io(d);
}

} // namespace mct
