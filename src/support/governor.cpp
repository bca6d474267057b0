#include "support/governor.h"

#include <cinttypes>
#include <cstdio>
#include <mutex>

#include "support/env.h"
#include "support/time.h"

namespace gsopt::governor {

namespace {

struct DimInfo
{
    const char *name;   ///< stable name used in ResourceExhausted
    const char *envVar; ///< GSOPT_BUDGET_* suffix owner
};

constexpr DimInfo kDims[kDimCount] = {
    {"preproc-bytes", "GSOPT_BUDGET_PREPROC_BYTES"},
    {"tokens", "GSOPT_BUDGET_TOKENS"},
    {"parse-depth", "GSOPT_BUDGET_PARSE_DEPTH"},
    {"sema-depth", "GSOPT_BUDGET_SEMA_DEPTH"},
    {"ir-instrs", "GSOPT_BUDGET_IR_INSTRS"},
    {"arena-bytes", "GSOPT_BUDGET_ARENA_BYTES"},
    {"pass-steps", "GSOPT_BUDGET_PASS_STEPS"},
    {"interp-steps", "GSOPT_BUDGET_INTERP_STEPS"},
};

std::string
exhaustedMessage(const char *dimension, const char *stage, uint64_t limit,
                 uint64_t used)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "resource exhausted: %s cap %" PRIu64
                  " exceeded at %s (used %" PRIu64 ")",
                  dimension, limit, stage, used);
    return buf;
}

/** The ambient request caps: env values, overridable by
 * ScopedAmbientCaps (install-before-spawn, so reads never race). */
const Caps *gAmbientOverride = nullptr;
std::mutex gAmbientMutex;

const Caps &
envCaps()
{
    static const Caps caps = Caps::fromEnv();
    return caps;
}

} // namespace

const char *
dimName(Dim d)
{
    return kDims[static_cast<int>(d)].name;
}

bool
Caps::any() const
{
    if (deadlineMs != 0)
        return true;
    for (uint64_t cap : dim)
        if (cap != 0)
            return true;
    return false;
}

Caps
Caps::fromEnv()
{
    Caps caps;
    // Unset = 0 = no cap; malformed values abort (support/env.h).
    caps.deadlineMs = envInteger("GSOPT_DEADLINE_MS", 0, 0);
    for (int i = 0; i < kDimCount; ++i)
        caps.dim[i] = envInteger(kDims[i].envVar, 0, 0);
    return caps;
}

ResourceExhausted::ResourceExhausted(const char *dimension,
                                     const char *stage, uint64_t limit,
                                     uint64_t used)
    : std::runtime_error(exhaustedMessage(dimension, stage, limit, used)),
      dimension_(dimension), stage_(stage), limit_(limit), used_(used)
{
}

Budget::Budget(const Caps &caps) : caps_(caps)
{
    if (caps_.deadlineMs != 0)
        deadlineNs_ = nowNs() + caps_.deadlineMs * 1'000'000ull;
}

void
Budget::exhausted(Dim d, const char *stage, uint64_t used)
{
    throw ResourceExhausted(dimName(d), stage,
                            caps_[static_cast<Dim>(d)], used);
}

void
Budget::charge(Dim d, uint64_t n, const char *stage)
{
    const int i = static_cast<int>(d);
    const uint64_t total =
        used_[i].fetch_add(n, std::memory_order_relaxed) + n;
    if (caps_.dim[i] != 0 && total > caps_.dim[i])
        exhausted(d, stage, total);
    // Charge-only call sites (lexer tokens, arena chunks) must not
    // outrun the deadline unboundedly; re-check it every ~1k charges.
    if (deadlineNs_ != 0 &&
        sinceDeadlineCheck_.fetch_add(1, std::memory_order_relaxed) >=
            1024) {
        sinceDeadlineCheck_.store(0, std::memory_order_relaxed);
        checkDeadline(stage);
    }
}

void
Budget::chargeNoThrow(Dim d, uint64_t n) noexcept
{
    used_[static_cast<int>(d)].fetch_add(n, std::memory_order_relaxed);
}

void
Budget::checkDepth(Dim d, uint64_t depth, const char *stage)
{
    const int i = static_cast<int>(d);
    // High-water mark, so used() reports the deepest level reached.
    uint64_t seen = used_[i].load(std::memory_order_relaxed);
    while (depth > seen &&
           !used_[i].compare_exchange_weak(seen, depth,
                                           std::memory_order_relaxed)) {
    }
    if (caps_.dim[i] != 0 && depth > caps_.dim[i])
        exhausted(d, stage, depth);
}

void
Budget::checkDeadline(const char *stage)
{
    if (deadlineNs_ == 0)
        return;
    const uint64_t now = nowNs();
    if (now <= deadlineNs_)
        return;
    const uint64_t elapsedMs =
        caps_.deadlineMs + (now - deadlineNs_) / 1'000'000ull;
    throw ResourceExhausted("deadline", stage, caps_.deadlineMs,
                            elapsedMs);
}

ScopedBudget::ScopedBudget(const Caps &caps)
    : budget_(caps), prev_(detail::tlBudget)
{
    detail::tlBudget = &budget_;
}

ScopedBudget::~ScopedBudget()
{
    detail::tlBudget = prev_;
}

Caps
ambientCaps()
{
    if (const Caps *o = gAmbientOverride)
        return *o;
    return envCaps();
}

ScopedAmbientCaps::ScopedAmbientCaps(const Caps &caps)
{
    std::lock_guard lock(gAmbientMutex);
    prev_ = gAmbientOverride;
    gAmbientOverride = new Caps(caps);
}

ScopedAmbientCaps::~ScopedAmbientCaps()
{
    std::lock_guard lock(gAmbientMutex);
    delete gAmbientOverride;
    gAmbientOverride = static_cast<const Caps *>(prev_);
}

ScopedRequestBudget::ScopedRequestBudget()
{
    if (detail::tlBudget != nullptr)
        return; // the outer request's budget keeps authority
    const Caps caps = ambientCaps();
    if (!caps.any())
        return; // ungoverned: keep the fast path fast
    owned_.emplace(caps);
    detail::tlBudget = &*owned_;
}

ScopedRequestBudget::~ScopedRequestBudget()
{
    if (owned_)
        detail::tlBudget = nullptr;
}

} // namespace gsopt::governor
