/**
 * @file
 * The MCT runtime (paper Section 5, Fig 5): phase detection drives
 * cyclic fine-grained sampling; predictions over the quota-free
 * learning space feed the constrained optimizer; the chosen
 * configuration gets a wear-quota fixup guaranteeing the lifetime
 * floor; and periodic health checks re-measure the baseline, refresh
 * the normalization, and fall back to the baseline whenever the
 * chosen configuration underperforms it.
 */

#ifndef MCT_MCT_CONTROLLER_HH
#define MCT_MCT_CONTROLLER_HH

#include <array>
#include <deque>
#include <functional>
#include <vector>

#include "common/instrument.hh"
#include "common/types.hh"
#include "mct/config_space.hh"
#include "mct/cyclic_sampler.hh"
#include "mct/optimizer.hh"
#include "mct/phase_detector.hh"
#include "mct/predictors.hh"
#include "memctrl/mellow_config.hh"
#include "sim/system.hh"

namespace mct
{

/**
 * Graceful-degradation knobs (see docs/robustness.md). The defaults
 * keep the happy path byte-identical: sanitization only rewrites
 * values that are already non-finite or absurd, and the emergency
 * clamp only engages when the measured wear rate genuinely breaks the
 * lifetime floor.
 */
struct RecoveryParams
{
    /** Master switch for sanitization, retries, and the clamp. */
    bool enabled = true;

    /** Sanity bounds on predicted objective *ratios* (a config
     *  predicted <1% or >100x of baseline is garbage, not insight —
     *  legitimate lifetime ratios in this space reach ~16x, and
     *  scaled-down windows add noise on top). */
    double minPredRatio = 0.01;
    double maxPredRatio = 100.0;

    /** Reject the whole prediction round when more than this fraction
     *  of the space fails the sanity bounds. */
    double maxRejectFraction = 0.5;

    /** Rejected rounds are retried at most this many times... */
    unsigned maxSampleRetries = 2;

    /** ...after running the baseline this long between attempts
     *  (backoff: transient corruption gets a chance to clear). */
    InstCount retryBackoffInsts = 20 * 1000;

    /** Baseline cooldown after a fallback before the optimizer is
     *  re-engaged. */
    InstCount cooldownInsts = 400 * 1000;

    /** Trailing wear window for the emergency lifetime projection. */
    InstCount emergencyWindowInsts = 400 * 1000;

    /**
     * Clamp to the safest config when the projected lifetime falls
     * below margin * ref; release above release * ref, where ref is
     * min(lifetime floor, last good baseline lifetime) — scaled-down
     * windows measure lifetimes far below the absolute floor even on
     * healthy runs. The margins leave a wide band between healthy
     * operation (projected ~ baseline) and a cheated quota (projected
     * near zero, e.g. under a skewed quota clock).
     */
    double emergencyMargin = 0.25;
    double emergencyRelease = 0.4;
};

/** The degradation steps recorded as RecoveryAction trace events and
 *  mct.recovery.* counters. */
enum class RecoveryStep
{
    QuarantineSample = 0,   ///< corrupt sample replaced by its anchor
    BaselineRepair = 1,     ///< corrupt baseline replaced by last good
    RoundRetry = 2,         ///< prediction round rejected, re-sampling
    RetryStrike = 3,        ///< ladder 1: bad check, keep and re-check
    ResampleEscalation = 4, ///< ladder 2: bad check, force re-sampling
    Fallback = 5,           ///< ladder 3: back to baseline + cooldown
    Reengage = 6,           ///< cooldown expired, optimizer re-engaged
    EmergencyClampOn = 7,   ///< lifetime floor broken: safest config
    EmergencyClampOff = 8,  ///< wear rate recovered, leaving the clamp
    CkptQuarantine = 9,     ///< corrupt checkpoint rejected on resume
    AlertEscalation = 10,   ///< critical alert climbed the ladder
};

/** Runtime parameters (defaults follow the paper's ratios, scaled). */
struct MctParams
{
    PredictorKind predictor = PredictorKind::GradientBoosting;

    /** Default objective with a 1.15 safety margin: see
     *  LifetimeObjective::safetyMargin. */
    LifetimeObjective objective{8.0, 0.95, 1.15};

    /** Cyclic sampling schedule (t and round count, Section 5.2). */
    CyclicSamplerParams sampling{};

    /** Instructions of the baseline window measured per sampling
     *  period (normalization anchor, Section 4.4). */
    InstCount baselineWindow = 40 * 1000;

    /** Phase-monitor window I (Section 5.1). */
    InstCount phaseWindowInsts = 20 * 1000;
    PhaseDetectorParams phase{};

    /** Instructions between health checks; 0 disables them. */
    InstCount healthCheckPeriod = 500 * 1000;
    InstCount healthCheckLen = 20 * 1000;

    /** Apply the Section 5.3 wear-quota fixup to chosen configs. */
    bool wearQuotaFixup = true;

    /**
     * Instructions run under the chosen configuration (without its
     * fixup quota) before the quota arms. The reconfiguration
     * transient — flushing the sampling period's dirty backlog under
     * the new policy — would otherwise be charged against the fresh
     * quota budget and throttle the configuration unfairly.
     */
    InstCount stabilizeInsts = 100 * 1000;

    /** The baseline (static) configuration used for normalization,
     *  health checks, and fallback. */
    MellowConfig baseline = staticBaselineConfig();

    /** Knob discretization of the learning space. */
    SpaceOptions spaceOpts{};

    /**
     * Optional steady-state measurement source for the sampling
     * stage. The paper's sampling period (1B instructions) is long
     * enough that each sample's measurement approximates its steady
     * state; our scaled-down runs are not, so the bench harnesses
     * supply steady-state evaluations of the same 77 samples here
     * while the live cyclic sampler still runs (and is charged) for
     * overhead accounting. Leave empty for fully-live operation.
     */
    std::function<Metrics(const MellowConfig &)> steadyMeasure;

    /** Run the live cyclic sampler even when steadyMeasure is set,
     *  so the sampling overhead (Fig 9) stays accounted. */
    bool liveSamplingOverhead = true;

    /** Graceful-degradation behavior (see RecoveryParams). */
    RecoveryParams recovery{};

    /**
     * Test hook: replace predictAllConfigs with a stub. Called once
     * per objective ("ipc", "lifetime", "energy") with the trained
     * data; must return one ratio per space configuration. Used to
     * force mispredictions in fallback tests.
     */
    std::function<ml::Vector(const TrainData &, const char *objective)>
        predictOverride;

    /**
     * Decision-audit attribution cadence: every Nth decision
     * snapshots the model's feature attribution into its provenance
     * record and the mct.audit.attr.* gauges. 0 disables attribution
     * snapshots; error calibration and regret accounting always run.
     */
    std::uint64_t auditEvery = 1;

    /** Rejected runner-up candidates kept per provenance record. */
    std::size_t provenanceRunnerUps = 3;

    std::uint64_t seed = 42;
};

/** One prediction/selection round, kept for inspection. */
struct Decision
{
    MellowConfig config;
    Metrics predicted;
    bool feasible = true; // lifetime floor satisfiable per prediction
    InstCount atInstruction = 0;
};

/** One health check's outcome, kept for inspection. */
struct HealthRecord
{
    InstCount atInstruction = 0;
    double chosenIpc = 0.0;
    double baselineIpc = 0.0;
    bool fellBack = false;

    /** Escalation-ladder level after this check (0 = healthy). */
    unsigned ladder = 0;
};

/**
 * Drives a live System through the MCT state machine.
 */
class MctController
{
  public:
    MctController(System &system, const MctParams &params);

    /** Run the managed system for at least @p insts instructions. */
    void runFor(InstCount insts);

    /** Currently applied configuration (baseline until first choice). */
    const MellowConfig &currentConfig() const { return current; }

    /** All selection rounds so far. */
    const std::vector<Decision> &decisions() const { return history; }

    /** All health checks so far (empty under steadyMeasure). */
    const std::vector<HealthRecord> &healthHistory() const
    {
        return healthLog;
    }

    /** Aggregate cost of all sampling periods (Fig 9). */
    const WindowAccum &samplingAccum() const { return samplingAcc; }

    /** Aggregate of all post-selection execution (Fig 9). */
    const WindowAccum &testingAccum() const { return testingAcc; }

    /** Phase-triggered re-samplings. */
    std::uint64_t resamplings() const { return nResamplings; }

    /** Health-check fallbacks to the baseline. */
    std::uint64_t fallbacks() const { return nFallbacks; }

    /** The phase detector (tests/benches). */
    const PhaseDetector &detector() const { return det; }

    /** The learning space (wear quota excluded). */
    const std::vector<MellowConfig> &space() const { return space_; }

    /** The sample configurations. */
    const std::vector<MellowConfig> &samples() const { return samples_; }

    /** Most recent absolute baseline measurements. */
    const Metrics &baselineMetrics() const { return baseMetrics; }

    // --- graceful-degradation observability (tests/benches) ---

    /** Corrupt samples replaced by their paired anchor. */
    std::uint64_t quarantinedSamples() const { return nQuarantined; }

    /** Space configs whose predictions failed the sanity bounds. */
    std::uint64_t rejectedPredictions() const { return nPredRejected; }

    /** Whole prediction rounds rejected and retried. */
    std::uint64_t retryRounds() const { return nRetryRounds; }

    /** Corrupt baseline measurements repaired from the last good one. */
    std::uint64_t baselineRepairs() const { return nBaseRepairs; }

    /** Times the emergency wear clamp engaged. */
    std::uint64_t emergencyClamps() const { return nEmergency; }

    /** Times the optimizer was re-engaged after cooldown/clamp. */
    std::uint64_t reengagements() const { return nReengage; }

    /** True while the emergency clamp holds the safest config. */
    bool emergencyEngaged() const { return emergencyOn; }

    /** True during the post-fallback baseline cooldown. */
    bool inCooldown() const { return cooldownActive; }

    /** Current escalation-ladder level (0 = healthy). */
    unsigned ladderLevel() const { return ladder; }

    /**
     * Feed a critical alert into the escalation ladder: climbs one
     * rung exactly like a failed health check (retry strike ->
     * forced re-sampling -> baseline fallback + cooldown), recording
     * an AlertEscalation RecoveryAction and bumping
     * mct.recovery.alert_escalations. Wired as the AlertEngine's
     * escalation hook by the driver, closing the observe -> react
     * loop. No-op while the emergency clamp or cooldown already has
     * the system pinned to a safe configuration.
     */
    void noteCriticalAlert();

    /** Critical alerts that climbed the escalation ladder. */
    std::uint64_t alertEscalations() const
    {
        return nAlertEscalations;
    }

    /** The clamp target: baseline knobs at the slowest latencies. */
    MellowConfig safestConfig() const;

    // --- decision provenance / prediction-accuracy audit ---

    /**
     * End-of-run audit closeout: a still-open provenance record whose
     * realization window never arrived (the run ended first) is
     * counted under mct.audit.dropped and discarded. Idempotent; call
     * after the final runFor before reading stats or traces.
     */
    void finalizeAudit();

    /** Cumulative positive IPC regret vs the best sampled config. */
    double cumulativeRegret() const { return cumRegret_; }

    /** Provenance records closed with realized objectives. */
    std::uint64_t auditClosed() const { return nAuditClosed_; }

    /** Provenance records dropped before a window realized them. */
    std::uint64_t auditDropped() const { return nAuditDropped_; }

    /**
     * Checkpoint the runtime's decision state: phase detector,
     * applied configuration, decision/health histories, recovery
     * ladder, audit cursors, and the open provenance record. The
     * controller must be reconstructed with identical parameters
     * (and the same managed System) before restoring.
     */
    void serialize(Serializer &s) const;

    /** Restore state written by serialize(). */
    void deserialize(Deserializer &d);

  private:
    template <class Ar>
    void io(Ar &ar);

    System &sys;
    MctParams p;
    std::vector<MellowConfig> space_;
    std::vector<MellowConfig> samples_;
    std::vector<std::size_t> sampleIdx_;
    PhaseDetector det;

    enum class State { NeedSampling, Running };
    State state = State::NeedSampling;
    MellowConfig current;
    Metrics baseMetrics;
    std::vector<Decision> history;
    std::vector<HealthRecord> healthLog;
    WindowAccum samplingAcc;
    WindowAccum testingAcc;
    InstCount sinceHealthCheck = 0;
    std::uint64_t nResamplings = 0;
    std::uint64_t nFallbacks = 0;
    std::uint64_t nHealthChecks = 0;

    // Graceful-degradation state (see docs/robustness.md).
    unsigned ladder = 0;
    bool cooldownActive = false;
    InstCount cooldownUntil = 0;
    bool emergencyOn = false;
    Metrics lastGoodBase;
    bool haveGoodBase = false;
    std::deque<SysSnapshot> wearTrail;
    std::uint64_t nQuarantined = 0;
    std::uint64_t nPredRejected = 0;
    std::uint64_t nPredCorrupted = 0;
    std::uint64_t nRetryRounds = 0;
    std::uint64_t nBaseRepairs = 0;
    std::uint64_t nResampleEscalations = 0;
    std::uint64_t nEmergency = 0;
    std::uint64_t nReengage = 0;
    std::uint64_t nAlertEscalations = 0;

    /** Histogram of instructions consumed per sampling period
     *  (lives in the system's registry as mct.sampling.period_insts). */
    LogHistogram *samplingHist = nullptr;

    // Decision provenance / prediction-accuracy audit state: one
    // record is open between a decision and the next execution
    // window, which closes it with realized objectives.
    ProvenanceRecord openProv_;
    bool openProvValid_ = false;
    std::uint64_t provSeq_ = 0;
    double cumRegret_ = 0.0;
    std::uint64_t nAuditClosed_ = 0;
    std::uint64_t nAuditDropped_ = 0;
    std::uint64_t nErrInvalid_ = 0;
    std::uint64_t nRegretPos_ = 0;
    std::uint64_t nAttrSnapshots_ = 0;
    std::array<ml::Vector, numProvenanceObjectives> lastAttr_{};

    /** Calibration histograms of |pred-real|/real in basis points,
     *  one per objective (registry-owned, model-tagged paths). */
    std::array<LogHistogram *, numProvenanceObjectives> errHist_{};

    /** Register mct.* stats in the managed system's registry. */
    void registerStats();

    /** Measure the baseline configuration for @p insts. */
    Metrics measureBaseline(InstCount insts, WindowAccum &acc);

    /** Full sampling + prediction + selection round (with bounded
     *  reject -> resample retries under RecoveryParams). */
    void sampleAndChoose();

    /**
     * One sampling + prediction attempt. Returns false when the
     * prediction round failed the sanity bounds and should be
     * retried; on success fills @p decision (fixup applied).
     */
    bool samplingRound(Decision &decision);

    /** One monitored execution window of the chosen configuration. */
    void runMonitoredWindow(InstCount insts);

    /** One window under the post-fallback baseline cooldown. */
    void runCooldownWindow(InstCount insts);

    /** One window under the emergency wear clamp. */
    void runEmergencyWindow(InstCount insts);

    /** Health check: re-measure baseline, climb the escalation
     *  ladder (retry -> resample -> fallback + cooldown). */
    void healthCheck();

    /** True when every field of @p m is finite and plausible. */
    static bool saneMetrics(const Metrics &m);

    /** Last known-good baseline, or a conservative synthetic one. */
    Metrics fallbackBaseline() const;

    /** Quarantine corrupt sample/anchor pairs (neutral ratio 1). */
    void sanitizeSamples(std::vector<Metrics> &sampled,
                         std::vector<Metrics> &pairBase);

    /** Run one predictor objective (honoring predictOverride and the
     *  fault injector's garbage hook); carries the model's audit
     *  surface (identity, uncertainty, attribution) along. */
    Prediction predictObjective(TrainData &data, const ml::Vector &y,
                                const char *objective);

    /** Open @p decision's provenance record (constraints, predicted
     *  objectives + uncertainty, runner-ups, regret oracle,
     *  attribution snapshot every auditEvery decisions). */
    void beginProvenance(const Decision &decision, int idx,
                         const std::vector<Metrics> &predicted,
                         const std::vector<bool> &badCfg,
                         const Prediction &pIpc,
                         const Prediction &pLife,
                         const Prediction &pEnergy,
                         const ml::Vector &yIpc);

    /** Minimal record for a decision with no surviving prediction
     *  round (total sampling failure -> baseline fallback). */
    void beginFallbackProvenance(const Decision &decision);

    /** Shared open-record bootstrap for the two begin paths. */
    ProvenanceRecord startProvenance(const Decision &decision);

    /** Close the open record against a window's realized metrics:
     *  relative errors (guarded), regret, calibration histograms. */
    void closeProvenance(const Metrics &realized);

    /** Record a RecoveryAction trace event. */
    void traceRecovery(RecoveryStep step, double detail = 0.0);

    /** Start the post-fallback baseline cooldown. */
    void enterCooldown();

    /** Track the trailing wear window; engage/release the emergency
     *  clamp when the projected lifetime crosses the floor. */
    void noteWearWindow(const SysSnapshot &after);
};

} // namespace mct

#endif // MCT_MCT_CONTROLLER_HH
