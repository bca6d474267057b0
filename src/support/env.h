/**
 * @file
 * Integer knobs read from the environment (GSOPT_THREADS,
 * GSOPT_RETRY_ATTEMPTS, GSOPT_DISTRIB_WORKERS, GSOPT_LEASE_MS,
 * GSOPT_BUDGET_*, ...). An unset or empty variable means "use the
 * default". Any other value must be a plain decimal integer in range;
 * anything else ("4x", "-1", "abc", " 4") prints the variable and its
 * value to stderr and aborts: a knob that is silently ignored would
 * let a CI leg prove nothing.
 *
 * defaultThreadCount() is GSOPT_THREADS resolved against the hardware:
 * the worker count of ExperimentEngine's campaign, which runs as a
 * CampaignCoordinator over in-process worker threads
 * (tuner/distrib.h).
 */
#ifndef GSOPT_SUPPORT_ENV_H
#define GSOPT_SUPPORT_ENV_H

#include <cstdint>

namespace gsopt {

/**
 * The value of env var @p name, or @p fallback when it is unset or
 * empty. The value must be a decimal integer of at least @p min (1:
 * "a positive integer"; 0: "a non-negative integer") that fits in 64
 * bits; otherwise the process aborts with a message naming @p name.
 */
uint64_t envInteger(const char *name, uint64_t fallback,
                    uint64_t min = 1);

/**
 * Campaign worker count: GSOPT_THREADS if set, otherwise
 * std::thread::hardware_concurrency() (minimum 1). A value that is not
 * a positive integer aborts.
 */
unsigned defaultThreadCount();

} // namespace gsopt

#endif // GSOPT_SUPPORT_ENV_H
