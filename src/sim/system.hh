/**
 * @file
 * The single-core simulated system: one workload-driven core, a
 * three-level cache hierarchy, the Mellow-Writes memory controller,
 * and the NVM device (Tables 8 and 9). Exposes snapshot-based window
 * metrics (IPC, lifetime, energy) and live configuration switching,
 * which is what the MCT runtime needs.
 */

#ifndef MCT_SIM_SYSTEM_HH
#define MCT_SIM_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/alerts.hh"
#include "common/instrument.hh"
#include "common/types.hh"
#include "cpu/core.hh"
#include "memctrl/controller.hh"
#include "memctrl/mellow_config.hh"
#include "nvm/device.hh"
#include "nvm/nvm_params.hh"
#include "sim/energy_model.hh"
#include "workloads/workload.hh"

namespace mct
{

class FaultInjector;

/** All tunables of the simulated machine. */
struct SystemParams
{
    NvmParams nvm;
    MemCtrlParams memctrl;
    HierarchyParams caches;
    CoreParams core;
    EnergyParams energy;
    std::uint64_t seed = 1;
};

/**
 * The three optimization objectives (paper Section 4.1.2). Energy is
 * reported per million instructions (an intensive measure) so windows
 * of different lengths compare meaningfully; for the fixed-length
 * evaluation windows of the benches this is simply total energy
 * rescaled.
 */
struct Metrics
{
    double ipc = 0.0;
    double lifetimeYears = 0.0;
    double energyJ = 0.0; ///< Joules per 1M instructions

    /** Checkpoint the three objectives. */
    template <class Ar>
    void io(Ar &ar) { ar.f64(ipc, lifetimeYears, energyJ); }
};

/** A point-in-time capture used to compute window metrics. */
struct SysSnapshot
{
    CoreStats core;
    CtrlStats ctrl;
    Tick time = 0;
    InstCount instructions = 0;
    std::vector<double> bankWear;

    /** Checkpoint the captured counters. */
    template <class Ar>
    void
    io(Ar &ar)
    {
        core.io(ar);
        ctrl.io(ar);
        ar.u64(time, instructions);
        ar.seq(bankWear, [&ar](double &w) { ar.f64(w); });
    }
};

/**
 * Owns and wires all components of the single-core machine.
 */
class System
{
  public:
    /** Build the system around a named application model. */
    System(const std::string &workloadName, const SystemParams &params,
           const MellowConfig &config);

    /** Build the system around a caller-supplied workload. */
    System(std::unique_ptr<Workload> workload,
           const SystemParams &params, const MellowConfig &config);

    /** Run at least @p insts further instructions. */
    void run(InstCount insts);

    /** Switch the active Mellow-Writes configuration immediately. */
    void setConfig(const MellowConfig &config);

    /** Active configuration. */
    const MellowConfig &config() const { return ctrl_->config(); }

    /** Capture current counters. */
    SysSnapshot snapshot() const;

    /** Objectives over the window between two snapshots. */
    Metrics metricsBetween(const SysSnapshot &from,
                           const SysSnapshot &to) const;

    /** Objectives since a snapshot, at the current instant. */
    Metrics metricsSince(const SysSnapshot &from) const;

    /** Components, exposed for tests and the MCT runtime. */
    Core &core() { return *core_; }
    const Core &core() const { return *core_; }
    MemController &controller() { return *ctrl_; }
    const MemController &controller() const { return *ctrl_; }
    NvmDevice &device() { return *dev_; }
    const NvmDevice &device() const { return *dev_; }
    CacheHierarchy &caches() { return *hier_; }
    const CacheHierarchy &caches() const { return *hier_; }
    Workload &workload() { return *wl_; }
    const SystemParams &params() const { return p; }
    const EnergyModel &energyModel() const { return energy_; }

    /** Total instructions retired. */
    InstCount retired() const { return core_->retired(); }

    /** Current time (core clock). */
    Tick now() const { return core_->now(); }

    /**
     * The system-wide stat registry. Every component's counters are
     * registered under dotted paths (cpu.*, cache.*, memctrl.*,
     * nvm.*, sim.*) at construction; snapshot() may be called at any
     * instruction boundary and snapshots subtract for delta windows.
     */
    StatRegistry &statRegistry() { return reg_; }
    const StatRegistry &statRegistry() const { return reg_; }

    /**
     * The system-wide event trace. Disabled (zero-cost) until
     * eventTrace().enable(capacity); its instruction clock follows
     * this system's core.
     */
    EventTrace &eventTrace() { return trace_; }
    const EventTrace &eventTrace() const { return trace_; }

    /**
     * The request-lifecycle span trace. Disabled until enableSpans();
     * while disabled no component carries a span pointer, so the
     * per-request cost is a single null-pointer branch.
     */
    SpanTrace &spanTrace() { return spans_; }
    const SpanTrace &spanTrace() const { return spans_; }

    /**
     * The decision-provenance trace (closed MCT audit records).
     * Disabled until provenanceTrace().enable(capacity); while
     * disabled each closed record costs one branch. Enabling also
     * echoes DecisionProvenance events into the event trace.
     */
    ProvenanceTrace &provenanceTrace() { return prov_; }
    const ProvenanceTrace &provenanceTrace() const { return prov_; }

    /**
     * The windowed metric timeline. Disabled until enableTimeline();
     * the driver feeds it the delta snapshot of every --stats-every
     * window. Serialized with the rest of the system so a resumed run
     * reproduces the identical timeline.
     */
    MetricTimeline &timeline() { return timeline_; }
    const MetricTimeline &timeline() const { return timeline_; }

    /**
     * The online alert engine. Disabled until enableAlerts(); observes
     * the same windowed deltas as the timeline and escalates critical
     * raises through an attached hook.
     */
    AlertEngine &alerts() { return alerts_; }
    const AlertEngine &alerts() const { return alerts_; }

    /**
     * Start timeline collection over Sim-scoped metrics matching any
     * of @p globs (empty: all), in a ring of @p capacity windows. The
     * sim.timeline.* gauges register host-scoped, keeping the
     * deterministic snapshot surfaces byte-identical.
     */
    void enableTimeline(std::vector<std::string> globs,
                        std::size_t capacity);

    /**
     * Arm the alert engine with @p rules. Wires the engine to the
     * event trace and registers the host-scoped alert.* stats.
     */
    void enableAlerts(std::vector<AlertRule> rules);

    /**
     * Feed one --stats-every window's delta snapshot to the timeline
     * and alert engine (both single branches while disabled).
     */
    void observeWindow(InstCount inst, const StatSnapshot &delta)
    {
        timeline_.observe(inst, delta);
        alerts_.observe(inst, delta);
    }

    /**
     * Start span sampling: every @p sampleEvery-th request id carries
     * a span through cache, core, controller and device into a ring
     * of @p capacity completed spans, feeding the lat.* stats and the
     * SpanComplete event stream.
     */
    void enableSpans(std::uint64_t sampleEvery, std::size_t capacity);

    /**
     * Attach (or detach with null) a fault injector. The injector is
     * wired to this system's instruction clock, event trace, and stat
     * registry, polled once immediately, and then re-polled at every
     * run() boundary. Caller keeps ownership and must outlive the
     * attachment.
     */
    void attachFaultInjector(FaultInjector *f);

    /** The attached injector, or null (the default). */
    FaultInjector *faultInjector() const { return faults_; }

    /**
     * Attach (or detach with null) a host profiler. The profiler must
     * be enabled by the caller; attaching registers the host-scoped
     * sim.mips / sim.host.* gauges and makes run() charge the "step"
     * stage and credit retired instructions. Host stats never appear
     * in default (StatScope::Sim) snapshots, so the deterministic
     * surfaces are unchanged. Caller keeps ownership and must outlive
     * the attachment.
     */
    void attachHostProfiler(HostProfiler *hp);

    /** The attached host profiler, or null (the default). */
    HostProfiler *hostProfiler() const { return hostProf_; }

    /**
     * Checkpoint the full deterministic state of the machine:
     * workload cursor, core, caches, controller, device, all trace
     * rings, and the registry-owned stat cells. The system must be
     * reconstructed with identical parameters before restoring.
     */
    void serialize(Serializer &s) const;

    /** Restore state written by serialize(). */
    void deserialize(Deserializer &d);

  private:
    SystemParams p;
    EnergyModel energy_;
    StatRegistry reg_;
    EventTrace trace_;
    SpanTrace spans_;
    ProvenanceTrace prov_;
    MetricTimeline timeline_;
    AlertEngine alerts_;
    std::unique_ptr<Workload> wl_;
    std::unique_ptr<NvmDevice> dev_;
    std::unique_ptr<MemController> ctrl_;
    std::unique_ptr<CacheHierarchy> hier_;
    std::unique_ptr<CompletionRouter> router_;
    std::unique_ptr<Core> core_;
    FaultInjector *faults_ = nullptr;
    HostProfiler *hostProf_ = nullptr;

    void wire(const MellowConfig &config);

    template <class Ar>
    void io(Ar &ar);

    /** Register every component under its layer's dotted prefix. */
    void registerAllStats();
};

/** Lifetime of a wear window (helper shared with the multicore sim). */
double windowLifetimeYears(const NvmParams &nvm,
                           const std::vector<double> &wearFrom,
                           const std::vector<double> &wearTo,
                           Tick elapsed);

} // namespace mct

#endif // MCT_SIM_SYSTEM_HH
