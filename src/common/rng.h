/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the library (fault-model synthesis, PARA
 * coin flips, workload generation) flows through Rng so that every
 * experiment is exactly reproducible from a seed. The generator is
 * xoshiro256** seeded via splitmix64, which gives high-quality streams
 * that are cheap to fork per (module, bank, row).
 */
#ifndef SVARD_COMMON_RNG_H
#define SVARD_COMMON_RNG_H

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace svard {

/** splitmix64 step; used for seeding and cheap hashing of coordinates. */
inline uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Hash an arbitrary list of 64-bit coordinates into one seed. */
inline uint64_t
hashSeed(std::initializer_list<uint64_t> parts)
{
    uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (uint64_t p : parts) {
        state ^= p + 0x9e3779b97f4a7c15ULL + (state << 6) + (state >> 2);
        state = splitmix64(state);
    }
    return state;
}

/**
 * Incremental variant of hashSeed for heterogeneous data: fold any
 * sequence of integers, doubles, and strings into one 64-bit value.
 * The experiment engine fingerprints a sweep cell's *resolved* inputs
 * (geometry, defense name, threshold, provider, workload, parameter
 * bag) this way, so the result cache can tell an unchanged cell from
 * an edited one regardless of its position in the grid.
 */
class HashStream
{
  public:
    explicit HashStream(uint64_t salt = 0x9e3779b97f4a7c15ULL)
        : state_(salt)
    {}

    template <typename T,
              std::enable_if_t<std::is_integral_v<T>, int> = 0>
    HashStream &
    mix(T v)
    {
        return mixWord(static_cast<uint64_t>(v));
    }

    /** Doubles are folded by bit pattern: -0.0 != +0.0, exact. */
    HashStream &
    mix(double v)
    {
        uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        return mixWord(bits);
    }

    /** Length-prefixed, so {"ab","c"} and {"a","bc"} differ. Each
     *  8-byte chunk folds in as one big-endian word (the first byte
     *  most significant); a short last chunk keeps its bytes in the
     *  low end of the word. */
    HashStream &
    mix(std::string_view s)
    {
        mixWord(s.size());
        size_t i = 0;
        for (; i + 8 <= s.size(); i += 8) {
            uint64_t word = 0;
            std::memcpy(&word, s.data() + i, sizeof(word));
            if constexpr (std::endian::native == std::endian::little)
                word = __builtin_bswap64(word);
            mixWord(word);
        }
        if (i < s.size()) {
            uint64_t word = 0;
            for (; i < s.size(); ++i)
                word = (word << 8) | static_cast<unsigned char>(s[i]);
            mixWord(word);
        }
        return *this;
    }

    uint64_t value() const { return state_; }

  private:
    HashStream &
    mixWord(uint64_t v)
    {
        state_ ^= v + 0x9e3779b97f4a7c15ULL + (state_ << 6) +
                  (state_ >> 2);
        state_ = splitmix64(state_);
        return *this;
    }

    uint64_t state_;
};

/**
 * xoshiro256** PRNG. Small, fast, and forkable: constructing a new Rng
 * from hashSeed({...}) yields an independent stream per coordinate.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL)
    {
        uint64_t sm = seed;
        for (auto &word : state_)
            word = splitmix64(sm);
    }

    /** Uniform 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    uint64_t
    below(uint64_t bound)
    {
        // Multiply-shift rejection-free mapping (Lemire); bias is
        // negligible for the bounds used in this library.
        return static_cast<uint64_t>(
            (static_cast<__uint128_t>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(below(hi - lo + 1));
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

    /** Bernoulli trial with probability p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Standard normal via Box-Muller (no cached spare; keeps state simple). */
    double
    normal()
    {
        double u1 = uniform();
        double u2 = uniform();
        if (u1 < 1e-300)
            u1 = 1e-300;
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * M_PI * u2);
    }

    /** Normal with given mean and standard deviation. */
    double
    normal(double mean, double stdev)
    {
        return mean + stdev * normal();
    }

    /**
     * Binomial(n, p) sample. Exact summation for small n, normal
     * approximation for large n (fine for BER bit-count draws where
     * n is tens of thousands).
     */
    uint64_t
    binomial(uint64_t n, double p)
    {
        if (p <= 0.0 || n == 0)
            return 0;
        if (p >= 1.0)
            return n;
        const double mean = n * p;
        if (n <= 64) {
            uint64_t k = 0;
            for (uint64_t i = 0; i < n; ++i)
                k += chance(p) ? 1 : 0;
            return k;
        }
        const double sd = std::sqrt(n * p * (1.0 - p));
        double draw = std::round(normal(mean, sd));
        if (draw < 0.0)
            draw = 0.0;
        if (draw > static_cast<double>(n))
            draw = static_cast<double>(n);
        return static_cast<uint64_t>(draw);
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<uint64_t, 4> state_;
};

} // namespace svard

#endif // SVARD_COMMON_RNG_H
