/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the simulator (workload generators,
 * random samplers) draw from an explicitly-seeded Rng so that every
 * experiment is reproducible bit-for-bit. The engine is xoshiro256**,
 * which is fast and has no observable bias for our purposes.
 */

#ifndef MCT_COMMON_RNG_HH
#define MCT_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace mct
{

/**
 * Seedable xoshiro256** generator with convenience distributions.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded with splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        std::uint64_t x = seed;
        for (auto &word : state) {
            // splitmix64 seeding as recommended by the xoshiro authors.
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        auto rotl = [](std::uint64_t v, int k) {
            return (v << k) | (v >> (64 - k));
        };
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t
    below(std::uint64_t n)
    {
        if (n == 0)
            mct_panic("Rng::below(0)");
        // Rejection-free modulo is fine at our scales. A power of two
        // takes the same low bits by a mask.
        const std::uint64_t r = next();
        return (n & (n - 1)) == 0 ? r & (n - 1) : r % n;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        if (hi < lo)
            mct_panic("Rng::range: hi < lo");
        return lo + static_cast<std::int64_t>(
            below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Bernoulli draw with probability p of true. */
    bool
    flip(double p)
    {
        return uniform() < p;
    }

    /** Standard normal via Box-Muller (one value per call). */
    double
    gaussian()
    {
        if (haveSpare) {
            haveSpare = false;
            return spare;
        }
        double u1 = 0.0;
        while (u1 <= 1e-300)
            u1 = uniform();
        const double u2 = uniform();
        const double r = std::sqrt(-2.0 * std::log(u1));
        const double theta = 6.283185307179586 * u2;
        spare = r * std::sin(theta);
        haveSpare = true;
        return r * std::cos(theta);
    }

    /** Exponential with the given mean. */
    double
    exponential(double mean)
    {
        double u = uniform();
        while (u <= 1e-300)
            u = uniform();
        return -mean * std::log(u);
    }

    /** Checkpoint the full stream position (xoshiro state plus the
     *  buffered Box-Muller spare). */
    template <class Ar>
    void
    io(Ar &ar)
    {
        for (std::uint64_t &word : state)
            ar.u64(word);
        ar.flag(haveSpare);
        ar.f64(spare);
    }

  private:
    std::uint64_t state[4];
    bool haveSpare = false;
    double spare = 0.0;
};

} // namespace mct

#endif // MCT_COMMON_RNG_HH
