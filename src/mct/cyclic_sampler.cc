#include "mct/cyclic_sampler.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/fault_injector.hh"

namespace
{

/**
 * Counter corruption (FaultKind::CounterCorrupt) strikes where raw
 * counters become objectives: the reduced Metrics of each measured
 * window. The controller's sanitization layer is responsible for
 * surviving whatever comes back.
 */
void
maybeCorrupt(mct::System &sys, mct::Metrics &m)
{
    if (mct::FaultInjector *inj = sys.faultInjector())
        inj->corruptMetrics(m);
}

} // namespace

namespace mct
{

void
WindowAccum::add(const SysSnapshot &from, const SysSnapshot &to)
{
    time += to.time - from.time;
    insts += to.instructions - from.instructions;
    const CtrlStats dc = to.ctrl.delta(from.ctrl);
    reads += dc.readsCompleted;
    writeEnergyUnits += dc.writeEnergyUnits;
    if (wearDelta.empty())
        wearDelta.assign(to.bankWear.size(), 0.0);
    for (std::size_t b = 0; b < wearDelta.size(); ++b)
        wearDelta[b] += to.bankWear[b] - from.bankWear[b];
}

Metrics
WindowAccum::metrics(const System &sys) const
{
    Metrics m;
    if (time > 0) {
        m.ipc = static_cast<double>(insts) /
                (static_cast<double>(time) /
                 static_cast<double>(cpuCyclePs));
    }
    const std::vector<double> zero(wearDelta.size(), 0.0);
    m.lifetimeYears =
        windowLifetimeYears(sys.params().nvm, zero, wearDelta, time);
    const double joules = sys.energyModel().energyJ(
        time, insts, reads, writeEnergyUnits, 1);
    if (insts > 0)
        m.energyJ = joules * 1e6 / static_cast<double>(insts);
    return m;
}

std::pair<Metrics, std::vector<Metrics>>
CyclicSampler::runWithAnchor(const MellowConfig &anchor,
                             const std::vector<MellowConfig> &samples)
{
    std::vector<MellowConfig> all;
    all.reserve(samples.size() + 1);
    all.push_back(anchor);
    all.insert(all.end(), samples.begin(), samples.end());
    std::vector<Metrics> metrics = run(all);
    const Metrics anchorMetrics = metrics.front();
    metrics.erase(metrics.begin());
    return {anchorMetrics, std::move(metrics)};
}

CyclicSampler::PairedResult
CyclicSampler::runPaired(const MellowConfig &anchor,
                         const std::vector<MellowConfig> &samples)
{
    if (samples.empty())
        mct_fatal("CyclicSampler: no samples");
    std::vector<WindowAccum> sampleAcc(samples.size());
    std::vector<WindowAccum> anchorAcc(samples.size());
    WindowAccum anchorAll;
    period = WindowAccum{};

    Rng rng(p.shuffleSeed);
    std::vector<std::size_t> order(samples.size());
    std::iota(order.begin(), order.end(), 0);
    auto unit = [&](const MellowConfig &cfg, WindowAccum *accs,
                    std::size_t i) {
        sys.setConfig(cfg);
        const SysSnapshot atSwitch = sys.snapshot();
        settle();
        const SysSnapshot before = sys.snapshot();
        sys.run(p.unitInsts);
        const SysSnapshot after = sys.snapshot();
        if (accs)
            accs[i].add(before, after);
        period.add(atSwitch, after);
        return std::make_pair(before, after);
    };
    for (unsigned round = 0; round < p.rounds; ++round) {
        for (std::size_t i = 0; i + 1 < order.size(); ++i) {
            const std::size_t j =
                i + static_cast<std::size_t>(
                        rng.below(order.size() - i));
            std::swap(order[i], order[j]);
        }
        for (std::size_t i : order) {
            const auto [ab, aa] = unit(anchor, anchorAcc.data(), i);
            anchorAll.add(ab, aa);
            unit(samples[i], sampleAcc.data(), i);
        }
    }

    PairedResult res;
    res.anchor = anchorAll.metrics(sys);
    maybeCorrupt(sys, res.anchor);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        res.sample.push_back(sampleAcc[i].metrics(sys));
        res.pairedAnchor.push_back(anchorAcc[i].metrics(sys));
        maybeCorrupt(sys, res.sample.back());
        maybeCorrupt(sys, res.pairedAnchor.back());
    }
    return res;
}

void
CyclicSampler::settle()
{
    if (p.settleInsts == 0)
        return;
    // Drain the previous configuration's write backlog so its
    // deferred costs are not charged to the next measured window.
    const InstCount chunk = std::max<InstCount>(p.settleInsts / 4, 500);
    InstCount budget = p.settleInsts * p.maxSettleFactor;
    InstCount ran = 0;
    while (ran < p.settleInsts ||
           (ran < budget &&
            sys.controller().writeQSize() > p.settleDrainTarget)) {
        sys.run(chunk);
        ran += chunk;
    }
}

std::vector<Metrics>
CyclicSampler::run(const std::vector<MellowConfig> &samples)
{
    if (samples.empty())
        mct_fatal("CyclicSampler: no samples");
    std::vector<WindowAccum> accums(samples.size());
    period = WindowAccum{};

    Rng rng(p.shuffleSeed);
    std::vector<std::size_t> order(samples.size());
    std::iota(order.begin(), order.end(), 0);
    for (unsigned round = 0; round < p.rounds; ++round) {
        // Fisher-Yates re-shuffle per round (see shuffleSeed doc).
        for (std::size_t i = 0; i + 1 < order.size(); ++i) {
            const std::size_t j =
                i + static_cast<std::size_t>(
                        rng.below(order.size() - i));
            std::swap(order[i], order[j]);
        }
        for (std::size_t i : order) {
            sys.setConfig(samples[i]);
            const SysSnapshot atSwitch = sys.snapshot();
            settle();
            const SysSnapshot before = sys.snapshot();
            sys.run(p.unitInsts);
            const SysSnapshot after = sys.snapshot();
            accums[i].add(before, after);
            period.add(atSwitch, after); // settle cost is overhead
        }
    }

    std::vector<Metrics> out;
    out.reserve(samples.size());
    for (const auto &acc : accums) {
        out.push_back(acc.metrics(sys));
        maybeCorrupt(sys, out.back());
    }
    return out;
}

} // namespace mct
