/**
 * @file
 * Bounded retry with exponential backoff and deterministic jitter.
 *
 * Wraps the call sites that can fail transiently (driver compiles,
 * shader measurements, campaign work items): a fault::TransientError
 * is retried up to RetryPolicy::maxAttempts times with an
 * exponentially growing, deterministically jittered backoff (seeded
 * from the call label via support/rng, so a retried campaign behaves
 * identically run to run). Any other exception propagates immediately
 * — retrying a real compile error would only hide it.
 */
#ifndef GSOPT_SUPPORT_RETRY_H
#define GSOPT_SUPPORT_RETRY_H

#include <cstdint>
#include <string_view>
#include <utility>

#include "support/fault.h"

namespace gsopt {

/** Retry bounds and backoff shape for one call site. */
struct RetryPolicy
{
    int maxAttempts = 4;       ///< total attempts including the first
    double baseDelayUs = 50;   ///< first backoff, doubled per attempt
    double maxDelayUs = 5000;  ///< backoff cap
    uint64_t seed = 0;         ///< extra jitter seed (0 = label only)
};

/** The process default: RetryPolicy{} with maxAttempts overridable via
 * GSOPT_RETRY_ATTEMPTS (a positive integer; 1 disables retries
 * entirely; malformed values abort, see support/env.h). Read once. */
RetryPolicy defaultRetryPolicy();

/** GSOPT_STRICT: a non-negative integer, default 0; non-zero makes
 * both campaign schedulers fail fast — no item retry, and the first
 * failure aborts the run instead of being quarantined. Malformed
 * values ("false", "yes", "-1") abort, see support/env.h. Read on
 * every call, so a scoped override takes effect at once. */
bool strictMode();

namespace detail {
/** Sleep the deterministic backoff for @p attempt (1-based) of the
 * call labelled @p label. */
void backoff(const RetryPolicy &policy, std::string_view label,
             int attempt);
} // namespace detail

/**
 * Invoke @p fn, retrying on fault::TransientError per @p policy.
 * Returns fn's result; rethrows the last TransientError once attempts
 * are exhausted; propagates every other exception unretried. When
 * @p attemptsOut is non-null it receives the number of attempts made
 * (also on the throwing path).
 */
template <typename F>
auto
retryTransient(const RetryPolicy &policy, std::string_view label,
               F &&fn, int *attemptsOut = nullptr) -> decltype(fn())
{
    const int max_attempts = policy.maxAttempts > 0 ? policy.maxAttempts
                                                    : 1;
    for (int attempt = 1;; ++attempt) {
        if (attemptsOut)
            *attemptsOut = attempt;
        try {
            return fn();
        } catch (const fault::TransientError &) {
            if (attempt >= max_attempts)
                throw;
            detail::backoff(policy, label, attempt);
        }
    }
}

} // namespace gsopt

#endif // GSOPT_SUPPORT_RETRY_H
