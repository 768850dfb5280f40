#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace mct
{

void
RunningStat::push(double x)
{
    if (n == 0) {
        lo = hi = x;
    } else {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
    }
    ++n;
    total += x;
    const double delta = x - mu;
    mu += delta / static_cast<double>(n);
    m2 += delta * (x - mu);
}

void
RunningStat::reset()
{
    n = 0;
    mu = m2 = lo = hi = total = 0.0;
}

double
RunningStat::variance() const
{
    if (n < 2)
        return 0.0;
    return m2 / static_cast<double>(n - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

SlidingWindow::SlidingWindow(std::size_t capacity)
    : cap(capacity)
{
    if (cap == 0)
        mct_panic("SlidingWindow capacity must be positive");
}

void
SlidingWindow::push(double x)
{
    if (buf.size() == cap) {
        const double old = buf.front();
        buf.pop_front();
        sum -= old;
        sumSq -= old * old;
    }
    buf.push_back(x);
    sum += x;
    sumSq += x * x;
}

void
SlidingWindow::clear()
{
    buf.clear();
    sum = sumSq = 0.0;
}

template <class Ar>
void
SlidingWindow::io(Ar &ar)
{
    ar.check(cap, "checkpoint SlidingWindow capacity mismatch");
    ar.seq(buf, [&ar](double &x) { ar.f64(x); });
    ar.f64(sum, sumSq);
}

template void SlidingWindow::io(Serializer &);
template void SlidingWindow::io(Deserializer &);

double
SlidingWindow::mean() const
{
    if (buf.empty())
        return 0.0;
    return sum / static_cast<double>(buf.size());
}

double
SlidingWindow::variance() const
{
    const std::size_t n = buf.size();
    if (n < 2)
        return 0.0;
    const double mu = mean();
    // Numerically this is fine for our bounded workload counters.
    const double ss = sumSq - static_cast<double>(n) * mu * mu;
    return std::max(0.0, ss / static_cast<double>(n - 1));
}

double
SlidingWindow::recentMean(std::size_t k) const
{
    k = std::min(k, buf.size());
    if (k == 0)
        return 0.0;
    double s = 0.0;
    for (std::size_t i = buf.size() - k; i < buf.size(); ++i)
        s += buf[i];
    return s / static_cast<double>(k);
}

double
SlidingWindow::recentVariance(std::size_t k) const
{
    k = std::min(k, buf.size());
    if (k < 2)
        return 0.0;
    const double mu = recentMean(k);
    double ss = 0.0;
    for (std::size_t i = buf.size() - k; i < buf.size(); ++i)
        ss += (buf[i] - mu) * (buf[i] - mu);
    return ss / static_cast<double>(k - 1);
}

double
SlidingWindow::olderMean(std::size_t k) const
{
    if (buf.size() <= k)
        return 0.0;
    const std::size_t n = buf.size() - k;
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        s += buf[i];
    return s / static_cast<double>(n);
}

double
SlidingWindow::olderVariance(std::size_t k) const
{
    if (buf.size() < k + 2)
        return 0.0;
    const std::size_t n = buf.size() - k;
    const double mu = olderMean(k);
    double ss = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        ss += (buf[i] - mu) * (buf[i] - mu);
    return ss / static_cast<double>(n - 1);
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            mct_panic("geomean requires positive values");
        acc += std::log(x);
    }
    return std::exp(acc / static_cast<double>(xs.size()));
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
welchTScore(double mean1, double var1, std::size_t n1,
            double mean2, double var2, std::size_t n2)
{
    if (n1 == 0 || n2 == 0)
        return 0.0;
    const double se2 = var1 / static_cast<double>(n1) +
                       var2 / static_cast<double>(n2);
    const double diff = std::fabs(mean1 - mean2);
    if (se2 <= 0.0) {
        // Both windows are constant: any difference in means is
        // infinitely significant; report a saturating score.
        return diff > 0.0 ? 1e9 : 0.0;
    }
    return diff / std::sqrt(se2);
}

} // namespace mct
