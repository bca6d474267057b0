#include "support/retry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <thread>

#include "support/env.h"
#include "support/rng.h"

namespace gsopt {

namespace {
std::atomic<uint64_t> gBackoffs{0};
} // namespace

RetryPolicy
defaultRetryPolicy()
{
    static const RetryPolicy policy = [] {
        RetryPolicy p;
        p.maxAttempts = static_cast<int>(std::min<uint64_t>(
            envInteger("GSOPT_RETRY_ATTEMPTS",
                       static_cast<uint64_t>(p.maxAttempts)),
            INT_MAX));
        return p;
    }();
    return policy;
}

bool
strictMode()
{
    return envInteger("GSOPT_STRICT", 0, 0) != 0;
}

uint64_t
retryBackoffCount()
{
    return gBackoffs.load(std::memory_order_relaxed);
}

namespace detail {

void
backoff(const RetryPolicy &policy, std::string_view label, int attempt)
{
    gBackoffs.fetch_add(1, std::memory_order_relaxed);
    double delay = policy.baseDelayUs;
    for (int a = 1; a < attempt; ++a)
        delay *= 2.0;
    delay = std::min(delay, policy.maxDelayUs);
    // Full jitter in [delay/2, delay): decorrelates workers retrying
    // the same burst without sacrificing determinism — the draw is a
    // pure function of (label, seed, attempt).
    Rng rng(hashCombine(hashCombine(fnv1a(label), policy.seed),
                        static_cast<uint64_t>(attempt)));
    const double jittered = delay * (0.5 + 0.5 * rng.uniform());
    std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
        jittered));
}

} // namespace detail

} // namespace gsopt
