#include "support/rng.h"

#include <cmath>

namespace gsopt {

static uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
hashCombine(uint64_t seed, uint64_t value)
{
    uint64_t s = seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) +
                         (seed >> 2));
    return splitmix64(s);
}

Rng::Rng(uint64_t seed)
{
    // Expand the single seed word into the four xoshiro state words.
    for (auto &word : s_)
        word = splitmix64(seed);
}

Rng::Rng(std::string_view label) : Rng(fnv1a(label)) {}

static inline uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::below(uint64_t n)
{
    return next() % n;
}

double
Rng::gaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spare_ = mag * std::sin(2.0 * M_PI * u2);
    haveSpare_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::gaussian(double mean, double sigma)
{
    return mean + sigma * gaussian();
}

} // namespace gsopt
