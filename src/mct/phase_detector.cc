#include "mct/phase_detector.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace mct
{

PhaseDetector::PhaseDetector(const PhaseDetectorParams &params)
    : p(params), history(params.historyWindows)
{
    if (p.recentWindows == 0 || p.recentWindows >= p.historyWindows)
        mct_fatal("PhaseDetector: recentWindows must be in (0, history)");
}

bool
PhaseDetector::push(double workload)
{
    history.push(workload);
    score = 0.0;
    if (history.size() < p.minWindows)
        return false;

    const std::size_t k = p.recentWindows;
    // Welch's t between the last k windows and the older history
    // record (the paper tests the last 100*I against the past
    // 1000*I; excluding the recent windows from the reference keeps
    // a genuine shift from diluting its own baseline).
    const double recentMu = history.recentMean(k);
    const double recentVar = history.recentVariance(k);
    const double histMu = history.olderMean(k);
    const double histVar = history.olderVariance(k);
    score = welchTScore(recentMu, recentVar, k, histMu, histVar,
                        history.size() - k);
    const double relShift =
        std::fabs(recentMu - histMu) /
        std::max(std::fabs(histMu), 1e-12);
    if (score > p.scoreThreshold && relShift > p.minRelativeShift) {
        ++nPhases;
        history.clear();
        return true;
    }
    return false;
}

void
PhaseDetector::reset()
{
    history.clear();
    score = 0.0;
}

template <class Ar>
void
PhaseDetector::io(Ar &ar)
{
    history.io(ar);
    ar.f64(score);
    ar.u64(nPhases);
}

template void PhaseDetector::io(Serializer &);
template void PhaseDetector::io(Deserializer &);

} // namespace mct
