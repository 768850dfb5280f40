/**
 * @file
 * Lightweight phase detector (paper Section 5.1, Fig 6).
 *
 * Memory workload (demand reads + writebacks) is counted per window
 * of I instructions from existing performance counters. A two-sided
 * Student's (Welch's) t-test compares the recent windows against the
 * longer history; when the score exceeds a threshold, a dramatic
 * phase change is declared and the history restarts. Fine-grained
 * bursts are tolerated by the window averaging; only coarse shifts
 * trip the detector.
 */

#ifndef MCT_MCT_PHASE_DETECTOR_HH
#define MCT_MCT_PHASE_DETECTOR_HH

#include <cstdint>

#include "common/stats.hh"

namespace mct
{


/** Detector parameters. The paper uses I = 1M instructions with a
 *  1000-window history and 100-window recency; scaled runs keep the
 *  10:1 history:recent ratio. */
struct PhaseDetectorParams
{
    unsigned historyWindows = 100;
    unsigned recentWindows = 10;
    double scoreThreshold = 15.0;

    /**
     * Additionally require the recent mean to shift by this fraction
     * of the history mean. On near-constant workload series the t
     * statistic is hair-triggered (any drift is "significant"); real
     * phase changes move the level materially.
     */
    double minRelativeShift = 0.10;

    /** Minimum history before scores are meaningful. */
    unsigned minWindows = 30;
};

/**
 * Streaming t-test phase detector.
 */
class PhaseDetector
{
  public:
    explicit PhaseDetector(const PhaseDetectorParams &params = {});

    /**
     * Feed one window's memory-workload count.
     *
     * @return true when a new phase is declared (history restarts).
     */
    bool push(double workload);

    /** t score of the most recent push. */
    double lastScore() const { return score; }

    /** Phases declared so far. */
    std::uint64_t phasesDetected() const { return nPhases; }

    /** Mean workload over the current history (sampling-unit sizing,
     *  Section 5.2). */
    double historyMean() const { return history.mean(); }

    /** Windows observed since the last phase restart. */
    std::size_t windowsInPhase() const { return history.size(); }

    /** Forget everything (uses on configuration change). */
    void reset();

    /** Checkpoint the history window and phase counters. */
    template <class Ar>
    void io(Ar &ar);

  private:
    PhaseDetectorParams p;
    SlidingWindow history;
    double score = 0.0;
    std::uint64_t nPhases = 0;
};

} // namespace mct

#endif // MCT_MCT_PHASE_DETECTOR_HH
