#include "mct/controller.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "mct/samplers.hh"
#include "sim/fault_injector.hh"

namespace mct
{

namespace
{

/** Safe ratio for normalization (Section 4.4). */
double
ratio(double value, double base)
{
    return value / std::max(base, 1e-12);
}

} // namespace

MctController::MctController(System &system, const MctParams &params)
    : sys(system), p(params), det(params.phase)
{
    space_ = enumerateNoQuotaSpace(p.spaceOpts);
    samples_ = featureBasedSamples(p.seed, p.spaceOpts);
    sampleIdx_ = indicesInSpace(space_, samples_);
    current = p.baseline;
    registerStats();
    sys.setConfig(current);
}

void
MctController::registerStats()
{
    StatRegistry &reg = sys.statRegistry();
    reg.addCounter("mct.decisions",
                   [this] { return history.size(); },
                   "prediction/selection rounds completed");
    reg.addCounter("mct.resamplings", [this] { return nResamplings; },
                   "phase-triggered re-sampling rounds");
    reg.addCounter("mct.health_checks",
                   [this] { return nHealthChecks; });
    reg.addCounter("mct.fallbacks", [this] { return nFallbacks; },
                   "health-check fallbacks to the baseline");
    reg.addGauge("mct.phase.last_score",
                 [this] { return det.lastScore(); });
    reg.addCounter("mct.phase.phases_detected",
                   [this] { return det.phasesDetected(); });
    reg.addGauge("mct.phase.windows_in_phase", [this] {
        return static_cast<double>(det.windowsInPhase());
    });
    reg.addGauge("mct.phase.history_mean",
                 [this] { return det.historyMean(); });
    reg.addCounter("mct.sampling.insts",
                   [this] { return samplingAcc.insts; },
                   "instructions charged to sampling periods (Fig 9)");
    reg.addCounter("mct.testing.insts",
                   [this] { return testingAcc.insts; },
                   "instructions under chosen configurations (Fig 9)");
    reg.addGauge("mct.baseline.ipc",
                 [this] { return baseMetrics.ipc; });
    reg.addGauge("mct.baseline.lifetime_years",
                 [this] { return baseMetrics.lifetimeYears; });
    reg.addGauge("mct.baseline.energy_j",
                 [this] { return baseMetrics.energyJ; });
    reg.addGauge("mct.current.slow_latency",
                 [this] { return current.slowLatency; });
    reg.addGauge("mct.current.wear_quota",
                 [this] { return current.wearQuota ? 1.0 : 0.0; });
    reg.addGauge("mct.current.is_baseline", [this] {
        return current == p.baseline ? 1.0 : 0.0;
    });
    reg.addGauge("mct.last_decision.feasible", [this] {
        return history.empty() ? 1.0
                               : (history.back().feasible ? 1.0 : 0.0);
    });
    reg.addGauge("mct.last_decision.pred_ipc", [this] {
        return history.empty() ? 0.0 : history.back().predicted.ipc;
    });
    reg.addCounter("mct.recovery.quarantined_samples",
                   [this] { return nQuarantined; },
                   "corrupt sample windows replaced by their anchor");
    reg.addCounter("mct.recovery.rejected_predictions",
                   [this] { return nPredRejected; },
                   "space configs whose predictions failed sanity bounds");
    reg.addCounter("mct.recovery.corrupted_predictions",
                   [this] { return nPredCorrupted; },
                   "prediction values scrambled by the fault injector");
    reg.addCounter("mct.recovery.retry_rounds",
                   [this] { return nRetryRounds; },
                   "prediction rounds rejected and re-sampled");
    reg.addCounter("mct.recovery.baseline_repairs",
                   [this] { return nBaseRepairs; },
                   "corrupt baseline measurements repaired");
    reg.addCounter("mct.recovery.resample_escalations",
                   [this] { return nResampleEscalations; },
                   "health-check ladder level-2 escalations");
    reg.addCounter("mct.recovery.emergency_clamps",
                   [this] { return nEmergency; },
                   "lifetime-floor emergency clamp engagements");
    reg.addCounter("mct.recovery.reengagements",
                   [this] { return nReengage; },
                   "optimizer re-engagements after cooldown/clamp");
    reg.addCounter("mct.recovery.alert_escalations",
                   [this] { return nAlertEscalations; },
                   "critical alerts that climbed the health ladder");
    reg.addGauge("mct.recovery.ladder_level", [this] {
        return static_cast<double>(ladder);
    });
    reg.addGauge("mct.recovery.in_cooldown", [this] {
        return cooldownActive ? 1.0 : 0.0;
    });
    reg.addGauge("mct.recovery.emergency_active", [this] {
        return emergencyOn ? 1.0 : 0.0;
    });
    samplingHist = &reg.addHistogram(
        "mct.sampling.period_insts",
        "instructions consumed by each sampling period");

    // Decision provenance / prediction-accuracy audit.
    reg.addCounter("mct.audit.decisions", [this] { return provSeq_; },
                   "provenance records opened (one per decision)");
    reg.addCounter("mct.audit.closed",
                   [this] { return nAuditClosed_; },
                   "provenance records closed with realized objectives");
    reg.addCounter("mct.audit.dropped",
                   [this] { return nAuditDropped_; },
                   "provenance records never realized (run ended first)");
    reg.addCounter("mct.audit.err_invalid",
                   [this] { return nErrInvalid_; },
                   "objective errors skipped (realized value ~0 or NaN)");
    reg.addCounter("mct.audit.regret.positive",
                   [this] { return nRegretPos_; },
                   "decisions realizing below the best sampled config");
    reg.addCounter("mct.audit.attr.snapshots",
                   [this] { return nAttrSnapshots_; },
                   "feature-attribution snapshots taken");
    reg.addGauge("mct.audit.regret.cum",
                 [this] { return cumRegret_; },
                 "cumulative positive IPC regret vs best sampled");
    const std::string tag = predictorTag(p.predictor);
    for (std::size_t i = 0; i < numProvenanceObjectives; ++i) {
        const std::string obj = provenanceObjectiveName(i);
        errHist_[i] = &reg.addHistogram(
            "mct.audit.err_bp." + tag + "." + obj,
            "calibration: |pred-real|/real in basis points");
        reg.addGauge("mct.audit.attr." + obj + ".nonzero",
                     [this, i] {
                         double n = 0.0;
                         for (double w : lastAttr_[i])
                             if (w != 0.0)
                                 n += 1.0;
                         return n;
                     },
                     "nonzero attributed features, last snapshot");
    }
    // Literal rolling-error paths so thresholds.txt can gate them.
    reg.addGauge("mct.audit.err.ipc.p50", [this] {
        return errHist_[0]->percentile(50.0) / 1e4;
    });
    reg.addGauge("mct.audit.err.ipc.p90", [this] {
        return errHist_[0]->percentile(90.0) / 1e4;
    });
    reg.addGauge("mct.audit.err.lifetime.p50", [this] {
        return errHist_[1]->percentile(50.0) / 1e4;
    });
    reg.addGauge("mct.audit.err.lifetime.p90", [this] {
        return errHist_[1]->percentile(90.0) / 1e4;
    });
    reg.addGauge("mct.audit.err.energy.p50", [this] {
        return errHist_[2]->percentile(50.0) / 1e4;
    });
    reg.addGauge("mct.audit.err.energy.p90", [this] {
        return errHist_[2]->percentile(90.0) / 1e4;
    });
}

Metrics
MctController::measureBaseline(InstCount insts, WindowAccum &acc)
{
    const MellowConfig prev = sys.config();
    sys.setConfig(p.baseline);
    const SysSnapshot before = sys.snapshot();
    sys.run(insts);
    const SysSnapshot after = sys.snapshot();
    acc.add(before, after);
    WindowAccum w;
    w.add(before, after);
    sys.setConfig(prev);
    return w.metrics(sys);
}

bool
MctController::saneMetrics(const Metrics &m)
{
    return std::isfinite(m.ipc) && m.ipc > 0.0 &&
           std::isfinite(m.lifetimeYears) && m.lifetimeYears > 0.0 &&
           std::isfinite(m.energyJ) && m.energyJ >= 0.0;
}

Metrics
MctController::fallbackBaseline() const
{
    if (haveGoodBase)
        return lastGoodBase;
    // No sane measurement has ever been seen (pathological start):
    // synthesize a conservative anchor that keeps every ratio finite.
    Metrics m;
    m.ipc = 1.0;
    m.lifetimeYears = p.objective.minLifetimeYears;
    m.energyJ = 1.0;
    return m;
}

void
MctController::traceRecovery(RecoveryStep step, double detail)
{
    sys.eventTrace().record(TraceEventType::RecoveryAction,
                            static_cast<double>(step),
                            static_cast<double>(ladder), detail);
}

void
MctController::sanitizeSamples(std::vector<Metrics> &sampled,
                               std::vector<Metrics> &pairBase)
{
    for (std::size_t i = 0; i < sampled.size(); ++i) {
        const bool badAnchor = !saneMetrics(pairBase[i]);
        const bool badSample = !saneMetrics(sampled[i]);
        if (!badAnchor && !badSample)
            continue;
        // Quarantine: a corrupt pair contributes the neutral ratio
        // 1.0 instead of feeding NaN/Inf/outliers into the fit.
        if (badAnchor)
            pairBase[i] = fallbackBaseline();
        if (badSample)
            sampled[i] = pairBase[i];
        ++nQuarantined;
        traceRecovery(RecoveryStep::QuarantineSample,
                      static_cast<double>(i));
    }
}

Prediction
MctController::predictObjective(TrainData &data, const ml::Vector &y,
                                const char *objective)
{
    data.sampleY = y;
    Prediction pred;
    if (p.predictOverride) {
        pred.values = p.predictOverride(data, objective);
        pred.model = "override";
    } else {
        pred = predictAllConfigsDetailed(p.predictor, data);
    }
    if (pred.values.size() != space_.size())
        mct_panic("predictor returned ", pred.values.size(),
                  " predictions for a space of ", space_.size());
    if (FaultInjector *inj = sys.faultInjector())
        nPredCorrupted += inj->corruptPredictions(pred.values);
    return pred;
}

ProvenanceRecord
MctController::startProvenance(const Decision &decision)
{
    if (openProvValid_) {
        // The previous decision never saw an execution window, so its
        // record can never be realized.
        ++nAuditDropped_;
        openProvValid_ = false;
    }
    ProvenanceRecord rec;
    rec.seq = provSeq_++;
    rec.phase = nResamplings;
    rec.inst = decision.atInstruction;
    rec.configKey = toString(decision.config);
    rec.sampledConfigs = static_cast<std::uint32_t>(samples_.size());
    rec.minLifetimeYears = p.objective.minLifetimeYears;
    rec.ipcFraction = p.objective.ipcFraction;
    rec.safetyMargin = p.objective.safetyMargin;
    rec.objectives[0].predicted = decision.predicted.ipc;
    rec.objectives[1].predicted = decision.predicted.lifetimeYears;
    rec.objectives[2].predicted = decision.predicted.energyJ;
    return rec;
}

void
MctController::beginProvenance(const Decision &decision, int idx,
                               const std::vector<Metrics> &predicted,
                               const std::vector<bool> &badCfg,
                               const Prediction &pIpc,
                               const Prediction &pLife,
                               const Prediction &pEnergy,
                               const ml::Vector &yIpc)
{
    ProvenanceRecord rec = startProvenance(decision);
    rec.model = pIpc.model;
    rec.chosen = idx;
    rec.fallback = idx < 0;

    // The model's ratio-space 1-sigma for the chosen config,
    // denormalized by the same baseline anchor as the prediction.
    const std::array<const Prediction *, numProvenanceObjectives> ps =
        {&pIpc, &pLife, &pEnergy};
    const std::array<double, numProvenanceObjectives> scale = {
        baseMetrics.ipc, baseMetrics.lifetimeYears,
        baseMetrics.energyJ};
    if (idx >= 0) {
        const auto c = static_cast<std::size_t>(idx);
        for (std::size_t i = 0; i < numProvenanceObjectives; ++i)
            if (c < ps[i]->uncertainty.size())
                rec.objectives[i].uncertainty =
                    ps[i]->uncertainty[c] * scale[i];
    }

    // Regret oracle: the best IPC actually *measured* this round
    // (best paired sample ratio times the baseline anchor).
    double bestRatio = 0.0;
    for (double r : yIpc)
        bestRatio = std::max(bestRatio, r);
    rec.bestSampledIpc = bestRatio * baseMetrics.ipc;

    // Highest-ranked rejected candidates: feasible first, then by
    // predicted IPC (the optimizer's primary objective).
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < predicted.size(); ++i) {
        if (static_cast<int>(i) == idx)
            continue;
        if (!badCfg.empty() && badCfg[i])
            continue;
        order.push_back(i);
    }
    const double floor =
        p.objective.minLifetimeYears * p.objective.safetyMargin;
    const auto feasible = [&](std::size_t i) {
        return predicted[i].lifetimeYears >= floor;
    };
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const bool fa = feasible(a), fb = feasible(b);
                  if (fa != fb)
                      return fa;
                  if (predicted[a].ipc != predicted[b].ipc)
                      return predicted[a].ipc > predicted[b].ipc;
                  return a < b;
              });
    if (order.size() > p.provenanceRunnerUps)
        order.resize(p.provenanceRunnerUps);
    for (std::size_t i : order) {
        ProvenanceCandidate c;
        c.config = static_cast<std::uint32_t>(i);
        c.ipc = predicted[i].ipc;
        c.lifetimeYears = predicted[i].lifetimeYears;
        c.energyJ = predicted[i].energyJ;
        c.feasible = feasible(i);
        rec.runnerUps.push_back(c);
    }

    // Feature-attribution snapshot every auditEvery decisions.
    if (p.auditEvery > 0 && rec.seq % p.auditEvery == 0) {
        bool any = false;
        for (std::size_t i = 0; i < numProvenanceObjectives; ++i) {
            rec.attribution[i] = ps[i]->attribution;
            lastAttr_[i] = ps[i]->attribution;
            any = any || !ps[i]->attribution.empty();
        }
        if (any)
            ++nAttrSnapshots_;
    }

    openProv_ = std::move(rec);
    openProvValid_ = true;
}

void
MctController::beginFallbackProvenance(const Decision &decision)
{
    // Every attempted round failed the sanity bounds: there is no
    // surviving model output, but the decision (run the baseline)
    // still gets audited against what the baseline then realizes.
    ProvenanceRecord rec = startProvenance(decision);
    rec.model = "none (round rejected)";
    rec.chosen = -1;
    rec.fallback = true;
    openProv_ = std::move(rec);
    openProvValid_ = true;
}

void
MctController::closeProvenance(const Metrics &realized)
{
    nErrInvalid_ += closeProvenanceRecord(
        openProv_, realized.ipc, realized.lifetimeYears,
        realized.energyJ, sys.retired());
    // Calibration histograms hold basis points (x1e4): relative
    // errors live almost entirely below 1.0, where the log-bucketed
    // histogram has a single bucket.
    for (std::size_t i = 0; i < numProvenanceObjectives; ++i) {
        const ProvenanceObjective &o = openProv_.objectives[i];
        if (o.errorValid && errHist_[i])
            errHist_[i]->record(o.relError * 1e4);
    }
    if (openProv_.regret > 0.0) {
        ++nRegretPos_;
        cumRegret_ += openProv_.regret;
    }
    openProv_.cumRegret = cumRegret_;
    ++nAuditClosed_;
    sys.provenanceTrace().record(openProv_);
    openProvValid_ = false;
}

void
MctController::finalizeAudit()
{
    if (!openProvValid_)
        return;
    ++nAuditDropped_;
    openProvValid_ = false;
}

MellowConfig
MctController::safestConfig() const
{
    // Baseline techniques at the slowest (least wearing) latencies
    // with the quota pinned to the floor: the configuration of last
    // resort when measured wear outruns the lifetime constraint.
    MellowConfig c = p.baseline;
    c.fastLatency = 4.0;
    c.slowLatency = 4.0;
    c.fastCancellation = false;
    c.slowCancellation = true;
    c.wearQuota = true;
    c.wearQuotaTarget =
        std::clamp(p.objective.minLifetimeYears, 4.0, 10.0);
    return c;
}

void
MctController::enterCooldown()
{
    if (!p.recovery.enabled || p.recovery.cooldownInsts == 0)
        return;
    cooldownActive = true;
    cooldownUntil = sys.retired() + p.recovery.cooldownInsts;
}

void
MctController::sampleAndChoose()
{
    Decision decision;
    bool chose = false;
    const unsigned rounds =
        p.recovery.enabled ? p.recovery.maxSampleRetries + 1 : 1;
    for (unsigned attempt = 0; attempt < rounds; ++attempt) {
        if (attempt > 0) {
            // Backoff under the baseline before re-sampling so a
            // transient corruption source can clear.
            ++nRetryRounds;
            traceRecovery(RecoveryStep::RoundRetry,
                          static_cast<double>(attempt));
            if (p.recovery.retryBackoffInsts > 0)
                measureBaseline(p.recovery.retryBackoffInsts,
                                samplingAcc);
        }
        if (samplingRound(decision)) {
            chose = true;
            break;
        }
    }
    if (!chose) {
        // Every attempt produced garbage predictions: run the
        // baseline (whose quota enforces the floor by construction)
        // and only re-engage the optimizer after a cooldown.
        decision.atInstruction = sys.retired();
        decision.config = p.baseline;
        decision.predicted = baseMetrics;
        decision.feasible = false;
        traceRecovery(RecoveryStep::Fallback, 1.0);
        beginFallbackProvenance(decision);
        enterCooldown();
    } else if (p.stabilizeInsts > 0) {
        // Let the reconfiguration transient pass before the fixup
        // quota arms (see MctParams::stabilizeInsts).
        MellowConfig grace = decision.config;
        grace.wearQuota = false;
        sys.setConfig(grace);
        const SysSnapshot g0 = sys.snapshot();
        sys.run(p.stabilizeInsts);
        samplingAcc.add(g0, sys.snapshot());
    }
    current = decision.config;
    sys.setConfig(current);
    history.push_back(decision);
    det.reset();
    sinceHealthCheck = 0;
    // The sampling period's wear is overhead, not the chosen
    // configuration's doing: restart the emergency projection.
    wearTrail.clear();
    state = State::Running;
}

bool
MctController::samplingRound(Decision &decision)
{
    // Cyclic fine-grained sampling over the 77 feature-based samples
    // with a paired baseline anchor (Section 4.4 normalization): each
    // sample unit is normalized against an adjacent anchor unit that
    // saw the same burst state.
    CyclicSampler sampler(sys, p.sampling);
    EventTrace &trace = sys.eventTrace();
    const double round = static_cast<double>(history.size());
    trace.record(TraceEventType::SamplingRoundStart, round,
                 static_cast<double>(samples_.size()),
                 static_cast<double>(p.sampling.unitInsts));
    const InstCount samplingStart = sys.retired();
    if (HostProfiler *hp = sys.hostProfiler())
        hp->begin("sampling");
    std::vector<Metrics> sampled;
    std::vector<Metrics> pairBase;
    if (!p.steadyMeasure || p.liveSamplingOverhead) {
        const CyclicSampler::PairedResult paired =
            sampler.runPaired(p.baseline, samples_);
        baseMetrics = paired.anchor;
        sampled = paired.sample;
        pairBase = paired.pairedAnchor;
        // Fold the sampler's cost into the sampling aggregate.
        const WindowAccum &pa = sampler.periodAccum();
        samplingAcc.time += pa.time;
        samplingAcc.insts += pa.insts;
        samplingAcc.reads += pa.reads;
        samplingAcc.writeEnergyUnits += pa.writeEnergyUnits;
        if (samplingAcc.wearDelta.empty())
            samplingAcc.wearDelta.assign(pa.wearDelta.size(), 0.0);
        for (std::size_t b = 0; b < pa.wearDelta.size(); ++b)
            samplingAcc.wearDelta[b] += pa.wearDelta[b];
    }
    if (p.steadyMeasure) {
        // Scaled-run substitution (see MctParams::steadyMeasure): the
        // sample objectives come from steady-state measurements of
        // the same configurations.
        baseMetrics = p.steadyMeasure(p.baseline);
        sampled.clear();
        pairBase.assign(samples_.size(), baseMetrics);
        for (const auto &cfg : samples_)
            sampled.push_back(p.steadyMeasure(cfg));
    }
    if (HostProfiler *hp = sys.hostProfiler())
        hp->end("sampling");
    if (samplingHist)
        samplingHist->record(
            static_cast<double>(sys.retired() - samplingStart));
    trace.record(TraceEventType::SamplingRoundEnd, round,
                 static_cast<double>(sys.retired() - samplingStart),
                 baseMetrics.ipc);

    if (p.recovery.enabled) {
        // Corrupt counters must not poison the normalization anchor
        // or the training set (CounterCorrupt survival).
        if (!saneMetrics(baseMetrics)) {
            ++nBaseRepairs;
            baseMetrics = fallbackBaseline();
            traceRecovery(RecoveryStep::BaselineRepair);
        } else {
            lastGoodBase = baseMetrics;
            haveGoodBase = true;
        }
        sanitizeSamples(sampled, pairBase);
    }

    // Train one predictor per objective on baseline-normalized data.
    TrainData data;
    data.space = &space_;
    data.sampleIdx = sampleIdx_;

    ml::Vector yIpc(samples_.size()), yLife(samples_.size()),
        yEnergy(samples_.size());
    for (std::size_t i = 0; i < samples_.size(); ++i) {
        yIpc[i] = ratio(sampled[i].ipc, pairBase[i].ipc);
        yLife[i] = ratio(sampled[i].lifetimeYears,
                         pairBase[i].lifetimeYears);
        yEnergy[i] = ratio(sampled[i].energyJ, pairBase[i].energyJ);
    }

    if (HostProfiler *hp = sys.hostProfiler())
        hp->begin("fit");
    const Prediction pIpc = predictObjective(data, yIpc, "ipc");
    const Prediction pLife = predictObjective(data, yLife, "lifetime");
    const Prediction pEnergy =
        predictObjective(data, yEnergy, "energy");
    if (HostProfiler *hp = sys.hostProfiler())
        hp->end("fit");
    const ml::Vector &predIpc = pIpc.values;
    const ml::Vector &predLife = pLife.values;
    const ml::Vector &predEnergy = pEnergy.values;

    // Prediction sanity bounds: a ratio outside [min, max] (or
    // non-finite) is garbage, not insight. Individually bad configs
    // are excluded from optimization; a mostly-bad round is rejected
    // outright so the caller can retry.
    std::vector<bool> badCfg;
    if (p.recovery.enabled) {
        badCfg.assign(space_.size(), false);
        const auto saneRatio = [this](double r) {
            return std::isfinite(r) && r >= p.recovery.minPredRatio &&
                   r <= p.recovery.maxPredRatio;
        };
        std::size_t nBad = 0;
        for (std::size_t i = 0; i < space_.size(); ++i) {
            if (saneRatio(predIpc[i]) && saneRatio(predLife[i]) &&
                saneRatio(predEnergy[i]))
                continue;
            badCfg[i] = true;
            ++nBad;
        }
        nPredRejected += nBad;
        if (static_cast<double>(nBad) >
            p.recovery.maxRejectFraction *
                static_cast<double>(space_.size())) {
            return false;
        }
    }

    // De-normalize back to absolute objectives (Section 4.4: multiply
    // by the periodically re-measured baseline).
    std::vector<Metrics> predicted(space_.size());
    for (std::size_t i = 0; i < space_.size(); ++i) {
        if (!badCfg.empty() && badCfg[i])
            continue; // zero metrics: never feasible, never chosen
        predicted[i].ipc = predIpc[i] * baseMetrics.ipc;
        predicted[i].lifetimeYears =
            predLife[i] * baseMetrics.lifetimeYears;
        predicted[i].energyJ = predEnergy[i] * baseMetrics.energyJ;
    }
    decision = Decision{};
    decision.atInstruction = sys.retired();
    if (HostProfiler *hp = sys.hostProfiler())
        hp->begin("optimize");
    int idx = chooseOptimal(predicted, p.objective);
    if (HostProfiler *hp = sys.hostProfiler())
        hp->end("optimize");
    if (idx >= 0 && p.steadyMeasure) {
        // With steady measurements available, the Section 5.4
        // never-worse-than-baseline guarantee is enforced at
        // selection time instead of via noisy runtime windows.
        const Metrics chosenSteady =
            p.steadyMeasure(space_[static_cast<std::size_t>(idx)]);
        if (chosenSteady.ipc < baseMetrics.ipc)
            idx = -1;
    }
    if (idx >= 0) {
        decision.config = space_[static_cast<std::size_t>(idx)];
        decision.predicted = predicted[static_cast<std::size_t>(idx)];
        decision.feasible = true;
    } else {
        // Nothing predicted feasible: fall back to the baseline,
        // whose wear quota enforces the floor by construction.
        decision.config = p.baseline;
        decision.predicted = baseMetrics;
        decision.feasible = false;
    }

    // Wear-quota fixup (Section 5.3): guarantee the lifetime floor
    // against lifetime overestimation.
    if (p.wearQuotaFixup) {
        decision.config.wearQuota = true;
        decision.config.wearQuotaTarget = std::clamp(
            p.objective.minLifetimeYears, 4.0, 10.0);
    }
    if (!decision.config.valid())
        mct_panic("MctController selected an invalid configuration");
    trace.record(TraceEventType::PredictionMade, decision.predicted.ipc,
                 decision.predicted.lifetimeYears,
                 decision.feasible ? 1.0 : 0.0);
    beginProvenance(decision, idx, predicted, badCfg, pIpc, pLife,
                    pEnergy, yIpc);
    return true;
}

void
MctController::runMonitoredWindow(InstCount insts)
{
    const SysSnapshot before = sys.snapshot();
    sys.run(insts);
    const SysSnapshot after = sys.snapshot();
    testingAcc.add(before, after);
    if (openProvValid_) {
        WindowAccum w;
        w.add(before, after);
        closeProvenance(w.metrics(sys));
    }
    noteWearWindow(after);
    if (emergencyOn)
        return; // the clamp just engaged; runFor takes over

    // Memory workload for the phase detector: demand reads plus
    // writebacks observed by existing performance counters.
    const CoreStats dc = after.core.delta(before.core);
    const double workload =
        static_cast<double>(dc.memReads + dc.memWrites);
    if (det.push(workload)) {
        ++nResamplings;
        sys.eventTrace().record(
            TraceEventType::PhaseChange, det.lastScore(),
            static_cast<double>(det.windowsInPhase()),
            det.historyMean());
        state = State::NeedSampling;
        ladder = 0; // a new phase starts the ladder over
        return;
    }

    sinceHealthCheck += insts;
    // With a steady measurement source the never-worse guarantee was
    // enforced at selection time; running the check anyway would
    // charge the baseline's (higher) wear rate against the chosen
    // configuration's quota budget and throttle floor-adjacent
    // choices for behavior that is not theirs.
    if (!p.steadyMeasure && p.healthCheckPeriod > 0 &&
        sinceHealthCheck >= p.healthCheckPeriod) {
        sinceHealthCheck = 0;
        healthCheck();
    }
}

void
MctController::healthCheck()
{
    // Alternate short chosen/baseline segments so both sides see the
    // same burst mix (a single window lands wherever the burst cycle
    // happens to be and misfires the comparison).
    const MellowConfig chosenCfg = current;
    WindowAccum chosenW, baseW;
    const InstCount seg = std::max<InstCount>(p.healthCheckLen / 2, 1);
    for (int pair = 0; pair < 3; ++pair) {
        sys.setConfig(chosenCfg);
        const SysSnapshot c0 = sys.snapshot();
        sys.run(seg);
        const SysSnapshot c1 = sys.snapshot();
        chosenW.add(c0, c1);
        testingAcc.add(c0, c1);

        sys.setConfig(p.baseline);
        const SysSnapshot b0 = sys.snapshot();
        sys.run(seg);
        const SysSnapshot b1 = sys.snapshot();
        baseW.add(b0, b1);
        testingAcc.add(b0, b1);
    }
    sys.setConfig(chosenCfg);
    const Metrics chosenNow = chosenW.metrics(sys);
    baseMetrics = baseW.metrics(sys); // refresh the normalization
    ++nHealthChecks;

    HealthRecord rec;
    rec.atInstruction = sys.retired();
    rec.chosenIpc = chosenNow.ipc;
    rec.baselineIpc = baseMetrics.ipc;

    // Never (persistently) worse than the baseline (Section 5.4).
    // The guard band exists because a single check is still
    // burst-window noise at this scale; repeated bad checks climb an
    // explicit escalation ladder: 1 = keep the config and re-check,
    // 2 = force a fresh sampling round, 3 = fall back to the baseline
    // and cool down before the optimizer is re-engaged. With a steady
    // measurement source the guarantee was already enforced at
    // selection time, and window noise could only undo a verified
    // choice.
    if (!p.steadyMeasure &&
        chosenNow.ipc < 0.9 * baseMetrics.ipc &&
        current != p.baseline) {
        ++ladder;
        rec.ladder = ladder;
        if (ladder == 1) {
            traceRecovery(RecoveryStep::RetryStrike, chosenNow.ipc);
        } else if (ladder == 2) {
            ++nResampleEscalations;
            traceRecovery(RecoveryStep::ResampleEscalation,
                          chosenNow.ipc);
            state = State::NeedSampling;
        } else {
            ++nFallbacks;
            rec.fellBack = true;
            current = p.baseline;
            sys.setConfig(current);
            traceRecovery(RecoveryStep::Fallback, chosenNow.ipc);
            enterCooldown();
            ladder = 0;
        }
    } else {
        ladder = 0;
    }
    healthLog.push_back(rec);
    sys.eventTrace().record(
        rec.fellBack ? TraceEventType::HealthCheckFallback
                     : TraceEventType::HealthCheckPass,
        rec.chosenIpc, rec.baselineIpc,
        rec.fellBack ? static_cast<double>(nFallbacks)
                     : static_cast<double>(rec.ladder));
}

void
MctController::noteCriticalAlert()
{
    // A critical alert climbs the same ladder as a failed health
    // check. While the cooldown or emergency clamp already has the
    // system pinned to a safe configuration there is nothing further
    // to degrade to, so the alert is absorbed without a climb.
    if (cooldownActive || emergencyOn)
        return;
    ++nAlertEscalations;
    ++ladder;
    traceRecovery(RecoveryStep::AlertEscalation,
                  static_cast<double>(nAlertEscalations));
    if (ladder == 2) {
        ++nResampleEscalations;
        state = State::NeedSampling;
    } else if (ladder >= 3) {
        ++nFallbacks;
        current = p.baseline;
        sys.setConfig(current);
        enterCooldown();
        ladder = 0;
    }
}

void
MctController::runCooldownWindow(InstCount insts)
{
    // Baseline-only window while the optimizer is benched after a
    // fallback: no phase detection, no health checks, just progress.
    const SysSnapshot before = sys.snapshot();
    sys.run(insts);
    const SysSnapshot after = sys.snapshot();
    testingAcc.add(before, after);
    if (openProvValid_) {
        // A fallback decision's record realizes under the baseline it
        // chose — the audit must cover the bad rounds too.
        WindowAccum w;
        w.add(before, after);
        closeProvenance(w.metrics(sys));
    }
    noteWearWindow(after);
}

void
MctController::runEmergencyWindow(InstCount insts)
{
    // Safest-configuration window while the lifetime clamp holds: the
    // only exit is the wear projection recovering past the release
    // threshold (checked by noteWearWindow).
    const SysSnapshot before = sys.snapshot();
    sys.run(insts);
    const SysSnapshot after = sys.snapshot();
    testingAcc.add(before, after);
    if (openProvValid_) {
        WindowAccum w;
        w.add(before, after);
        closeProvenance(w.metrics(sys));
    }
    noteWearWindow(after);
}

void
MctController::noteWearWindow(const SysSnapshot &after)
{
    if (!p.recovery.enabled || p.recovery.emergencyWindowInsts == 0)
        return;
    wearTrail.push_back(after);
    // Keep just enough trail to span the projection window.
    while (wearTrail.size() > 2 &&
           wearTrail[1].instructions + p.recovery.emergencyWindowInsts <=
               after.instructions) {
        wearTrail.pop_front();
    }
    const SysSnapshot &front = wearTrail.front();
    const InstCount span = after.instructions - front.instructions;
    if (span < p.recovery.emergencyWindowInsts / 2)
        return; // not enough evidence yet
    const double projected = windowLifetimeYears(
        sys.params().nvm, front.bankWear, after.bankWear,
        after.time - front.time);
    // Scaled-down windows measure lifetimes far below the absolute
    // floor even on healthy runs, so the clamp references whichever is
    // lower: the floor, or what the baseline itself achieves here.
    const double floor = haveGoodBase
        ? std::min(p.objective.minLifetimeYears,
                   lastGoodBase.lifetimeYears)
        : p.objective.minLifetimeYears;
    if (!emergencyOn &&
        projected < p.recovery.emergencyMargin * floor) {
        // Measured wear is outrunning the constraint no matter what
        // the quota believes (e.g. its clock is skewed): clamp to the
        // safest configuration until the projection recovers.
        ++nEmergency;
        emergencyOn = true;
        current = safestConfig();
        sys.setConfig(current);
        traceRecovery(RecoveryStep::EmergencyClampOn, projected);
    } else if (emergencyOn &&
               projected > p.recovery.emergencyRelease * floor) {
        emergencyOn = false;
        ++nReengage;
        state = State::NeedSampling;
        wearTrail.clear();
        traceRecovery(RecoveryStep::EmergencyClampOff, projected);
    }
}

void
MctController::runFor(InstCount insts)
{
    const InstCount target = sys.retired() + insts;
    while (sys.retired() < target) {
        const InstCount remaining = target - sys.retired();
        const InstCount window =
            std::min<InstCount>(remaining, p.phaseWindowInsts);
        if (emergencyOn) {
            runEmergencyWindow(window);
            continue;
        }
        if (cooldownActive) {
            if (sys.retired() < cooldownUntil) {
                runCooldownWindow(window);
                continue;
            }
            cooldownActive = false;
            ++nReengage;
            state = State::NeedSampling;
            traceRecovery(RecoveryStep::Reengage);
        }
        if (state == State::NeedSampling) {
            sampleAndChoose();
            continue;
        }
        runMonitoredWindow(window);
    }
}

template <class Ar>
void
MctController::io(Ar &ar)
{
    // space_, samples_ and sampleIdx_ are deterministic derivations of
    // the params that the constructor rebuilds; the histogram sinks
    // are registry-owned and travel with the System.
    det.io(ar);
    ar.u8(state);
    current.io(ar);
    baseMetrics.io(ar);
    ar.seq(history, [&ar](Decision &dec) {
        dec.config.io(ar);
        dec.predicted.io(ar);
        ar.flag(dec.feasible);
        ar.u64(dec.atInstruction);
    });
    ar.seq(healthLog, [&ar](HealthRecord &h) {
        ar.u64(h.atInstruction);
        ar.f64(h.chosenIpc, h.baselineIpc);
        ar.flag(h.fellBack);
        ar.u32(h.ladder);
    });
    samplingAcc.io(ar);
    testingAcc.io(ar);
    ar.u64(sinceHealthCheck, nResamplings, nFallbacks, nHealthChecks);
    ar.u32(ladder);
    ar.flag(cooldownActive);
    ar.u64(cooldownUntil);
    ar.flag(emergencyOn);
    lastGoodBase.io(ar);
    ar.flag(haveGoodBase);
    ar.seq(wearTrail, [&ar](SysSnapshot &snap) { snap.io(ar); });
    ar.u64(nQuarantined, nPredRejected, nPredCorrupted, nRetryRounds,
           nBaseRepairs, nResampleEscalations, nEmergency, nReengage,
           nAlertEscalations);
    openProv_.io(ar);
    ar.flag(openProvValid_);
    ar.u64(provSeq_);
    ar.f64(cumRegret_);
    ar.u64(nAuditClosed_, nAuditDropped_, nErrInvalid_, nRegretPos_,
           nAttrSnapshots_);
    for (ml::Vector &attr : lastAttr_)
        ar.seq(attr, [&ar](double &v) { ar.f64(v); });
}

void
MctController::serialize(Serializer &s) const
{
    const_cast<MctController *>(this)->io(s);
}

void
MctController::deserialize(Deserializer &d)
{
    io(d);
}

} // namespace mct
