/**
 * @file
 * Deterministic random number generation. Every stochastic component of
 * the simulator (timer-query noise, texture pattern generation, corpus
 * parameter jitter) draws from an explicitly seeded Rng so that complete
 * experiment runs are bit-reproducible.
 */
#ifndef GSOPT_SUPPORT_RNG_H
#define GSOPT_SUPPORT_RNG_H

#include <cstdint>
#include <string_view>

namespace gsopt {

/** 64-bit FNV-1a hash, used for seeding, for source dedup keys and
 * (at compile time too) for the front end's keyword and name tables. */
constexpr uint64_t
fnv1a(std::string_view data)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (char c : data)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    return h;
}

/** Mix an extra word into a hash/seed (splitmix64 finalizer). */
uint64_t hashCombine(uint64_t seed, uint64_t value);

/**
 * xoshiro256** PRNG. Small, fast, and good enough for noise modelling;
 * seeded deterministically from strings or integers.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Seed derived from a string label (e.g. "ARM/shader_x/rep3"). */
    explicit Rng(std::string_view label);

    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    uint64_t below(uint64_t n);

    /** Standard normal via Box-Muller. */
    double gaussian();

    /** Normal with given mean and standard deviation. */
    double gaussian(double mean, double sigma);

  private:
    uint64_t s_[4];
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

} // namespace gsopt

#endif // GSOPT_SUPPORT_RNG_H
