/**
 * @file
 * Small statistics utilities used throughout the simulator and the
 * learning framework: running moments, windowed history for the phase
 * detector, and scalar summaries (geomean etc.).
 */

#ifndef MCT_COMMON_STATS_HH
#define MCT_COMMON_STATS_HH

#include <cstddef>
#include <deque>
#include <vector>

namespace mct
{

/**
 * Streaming mean/variance/min/max accumulator (Welford's algorithm).
 */
class RunningStat
{
  public:
    /** Add one observation. */
    void push(double x);

    /** Remove all observations. */
    void reset();

    /** Number of observations so far. */
    std::size_t count() const { return n; }

    /** Mean of the observations (0 if empty). */
    double mean() const { return n ? mu : 0.0; }

    /** Unbiased sample variance (0 if fewer than two samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Smallest observation (0 if empty). */
    double min() const { return n ? lo : 0.0; }

    /** Largest observation (0 if empty). */
    double max() const { return n ? hi : 0.0; }

    /** Sum of the observations. */
    double sum() const { return total; }

  private:
    std::size_t n = 0;
    double mu = 0.0;
    double m2 = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    double total = 0.0;
};

/**
 * Fixed-capacity sliding window of scalar observations with O(1)
 * mean/variance queries; backs the phase detector's history record.
 */
class SlidingWindow
{
  public:
    /** Construct with the given maximum length (must be > 0). */
    explicit SlidingWindow(std::size_t capacity);

    /** Append one observation, evicting the oldest when full. */
    void push(double x);

    /** Discard all contents. */
    void clear();

    /** Current number of stored observations. */
    std::size_t size() const { return buf.size(); }

    /** True when size() == capacity. */
    bool full() const { return buf.size() == cap; }

    /** Mean over the stored observations (0 if empty). */
    double mean() const;

    /** Unbiased variance over the stored observations. */
    double variance() const;

    /** Mean over only the most recent k observations. */
    double recentMean(std::size_t k) const;

    /** Unbiased variance over only the most recent k observations. */
    double recentVariance(std::size_t k) const;

    /** Mean over everything except the most recent k observations. */
    double olderMean(std::size_t k) const;

    /** Unbiased variance over everything except the most recent k. */
    double olderVariance(std::size_t k) const;

    /** Read-only access to the underlying samples, oldest first. */
    const std::deque<double> &samples() const { return buf; }

    /** Checkpoint contents and running sums (capacity must match on
     *  restore; it is a constructor parameter). */
    template <class Ar>
    void io(Ar &ar);

  private:
    std::size_t cap;
    std::deque<double> buf;
    double sum = 0.0;
    double sumSq = 0.0;
};

/** Geometric mean of strictly positive values (0 if empty). */
double geomean(const std::vector<double> &xs);

/** Arithmetic mean (0 if empty). */
double mean(const std::vector<double> &xs);

/**
 * Welch's two-sided t statistic for the difference in means of two
 * samples summarized by (mean, variance, count). Returns the absolute
 * t score; degenerate inputs (zero variance or tiny counts) yield 0
 * when the means agree and a large score when they do not.
 */
double welchTScore(double mean1, double var1, std::size_t n1,
                   double mean2, double var2, std::size_t n2);

} // namespace mct

#endif // MCT_COMMON_STATS_HH
