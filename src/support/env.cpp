#include "support/env.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace gsopt {

uint64_t
envInteger(const char *name, uint64_t fallback, uint64_t min)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return fallback;
    // strtoull alone would accept leading blanks and signs ("-1"
    // wraps to 2^64-1), so require a digit first and nothing after.
    char *end = nullptr;
    errno = 0;
    const unsigned long long v =
        *env >= '0' && *env <= '9' ? std::strtoull(env, &end, 10) : 0;
    if (end == nullptr || *end != '\0' || errno == ERANGE || v < min) {
        std::fprintf(stderr, "%s: '%s' is not a %s integer\n", name, env,
                     min == 0 ? "non-negative" : "positive");
        std::abort();
    }
    return static_cast<uint64_t>(v);
}

unsigned
defaultThreadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<unsigned>(
        envInteger("GSOPT_THREADS", hw > 0 ? hw : 1));
}

} // namespace gsopt
