/**
 * @file
 * Cooperative resource governance: deadlines and per-dimension budgets
 * for every stage that consumes untrusted input or unbounded work.
 *
 * A Budget is a token carrying a wall-clock deadline plus caps for each
 * metered dimension (macro-expansion bytes, tokens, nesting depths, IR
 * instructions, arena bytes, pass-pipeline steps, interpreter steps).
 * Stages charge the ambient thread-local budget as they work; crossing
 * a cap or the deadline raises ResourceExhausted naming the exhausted
 * dimension and the stage, which unwinds cooperatively (no signals, no
 * thread cancellation) to the nearest admission point. The campaign
 * engine quarantines exhausted items with the structured reason; a
 * daemon request would map it to a 4xx.
 *
 * Defaults are unlimited: with no deadline and all caps zero, no budget
 * is ever installed and every metering probe is one thread-local load
 * and a predicted-not-taken branch — goldens stay byte-identical.
 *
 * Installation layers, outermost first:
 *  - GSOPT_DEADLINE_MS / GSOPT_BUDGET_* parsed once at start-up into
 *    the ambient request caps (ScopedAmbientCaps overrides them in
 *    tests, install-before-spawn like ScopedFaultPlan);
 *  - ScopedRequestBudget at each admission point (compile, explore,
 *    measure, campaign item) installs a fresh Budget from the ambient
 *    caps — per unit of work, not per process — unless an outer budget
 *    already governs the thread;
 *  - ScopedBudget installs an explicit Budget (tests, harnesses).
 */
#ifndef GSOPT_SUPPORT_GOVERNOR_H
#define GSOPT_SUPPORT_GOVERNOR_H

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace gsopt::governor {

/** The metered dimensions. Each has a cap in Caps::dim[] (0 = off). */
enum class Dim : int {
    PreprocBytes = 0, ///< total macro-expansion output bytes
    Tokens,           ///< tokens produced by the lexer
    ParseDepth,       ///< parser recursion depth (statements + exprs)
    SemaDepth,        ///< sema recursion depth
    IrInstrs,         ///< IR instructions created
    ArenaBytes,       ///< arena chunk bytes allocated
    PassSteps,        ///< pass-pipeline steps walked (runs + memo hits)
    InterpSteps,      ///< interpreter instructions executed
};

inline constexpr int kDimCount = 8;

/** Stable human-readable name ("tokens", "arena-bytes", ...). */
const char *dimName(Dim d);

/** A budget configuration. Zero anywhere means unlimited. */
struct Caps
{
    uint64_t deadlineMs = 0;        ///< wall-clock, from installation
    uint64_t dim[kDimCount] = {};   ///< per-dimension caps, 0 = off

    uint64_t &operator[](Dim d) { return dim[static_cast<int>(d)]; }
    uint64_t operator[](Dim d) const { return dim[static_cast<int>(d)]; }

    bool any() const;

    /** The process environment configuration: GSOPT_DEADLINE_MS plus
     * GSOPT_BUDGET_{PREPROC_BYTES,TOKENS,PARSE_DEPTH,SEMA_DEPTH,
     * IR_INSTRS,ARENA_BYTES,PASS_STEPS,INTERP_STEPS}. Malformed values
     * abort loudly (same policy as GSOPT_FAULTS). */
    static Caps fromEnv();
};

/**
 * Raised when a budget dimension or the deadline is exhausted. Carries
 * the structured reason: which dimension, at which stage, the limit and
 * the amount consumed when it tripped. Deliberately NOT a
 * fault::TransientError — retrying an exhausted input wastes another
 * budget, so retryTransient propagates this immediately and the
 * campaign quarantines the item with this message as the reason.
 */
class ResourceExhausted : public std::runtime_error
{
  public:
    ResourceExhausted(const char *dimension, const char *stage,
                      uint64_t limit, uint64_t used);

    /** dimName() of the tripped dimension, or "deadline". */
    const char *dimension() const { return dimension_; }
    /** The stage label passed by the tripping probe. */
    const char *stage() const { return stage_; }
    uint64_t limit() const { return limit_; }
    uint64_t used() const { return used_; }

  private:
    const char *dimension_;
    const char *stage_;
    uint64_t limit_;
    uint64_t used_;
};

/**
 * A live budget: counters against Caps plus an absolute monotonic
 * deadline stamped at construction. Counters are relaxed atomics so a
 * budget may be observed from helper threads, though the normal shape
 * is one budget per worker thread (thread-local installation).
 */
class Budget
{
  public:
    explicit Budget(const Caps &caps);

    /** Count @p n units of @p d; throws ResourceExhausted when the cap
     * is crossed. Also re-checks the deadline every ~1k charges so
     * charge-only call sites cannot outrun a deadline unboundedly. */
    void charge(Dim d, uint64_t n, const char *stage);

    /** Count without enforcement (error paths, destructors). */
    void chargeNoThrow(Dim d, uint64_t n) noexcept;

    /** Enforce a recursion-depth dimension: @p depth is a level, not a
     * cumulative count. Records the high-water mark in used(). */
    void checkDepth(Dim d, uint64_t depth, const char *stage);

    /** Throw ResourceExhausted("deadline", ...) once past the deadline. */
    void checkDeadline(const char *stage);

    bool hasDeadline() const { return deadlineNs_ != 0; }
    /** Absolute support::nowNs() deadline (0 = none). */
    uint64_t deadlineNs() const { return deadlineNs_; }

    uint64_t used(Dim d) const
    {
        return used_[static_cast<int>(d)].load(std::memory_order_relaxed);
    }
    const Caps &caps() const { return caps_; }

  private:
    [[noreturn]] void exhausted(Dim d, const char *stage, uint64_t used);

    Caps caps_;
    uint64_t deadlineNs_ = 0;
    std::atomic<uint64_t> used_[kDimCount] = {};
    std::atomic<uint64_t> sinceDeadlineCheck_{0};
};

namespace detail {
/** Defined inline so every TU sees the initialiser: no TLS wrapper
 * call, which UBSan flags as a null load when a budget is absent. */
inline thread_local Budget *tlBudget = nullptr;
} // namespace detail

/** The budget governing this thread, or nullptr (the common case). */
inline Budget *
current()
{
    return detail::tlBudget;
}

/** Charge the ambient budget; no-op when none is installed. */
inline void
charge(Dim d, uint64_t n, const char *stage)
{
    if (Budget *b = current())
        b->charge(d, n, stage);
}

/** Enforce a depth level against the ambient budget; no-op when none. */
inline void
checkDepth(Dim d, uint64_t depth, const char *stage)
{
    if (Budget *b = current())
        b->checkDepth(d, depth, stage);
}

/** Check the ambient deadline; no-op when no budget is installed. */
inline void
checkDeadline(const char *stage)
{
    if (Budget *b = current())
        b->checkDeadline(stage);
}

/**
 * Amortised hot-loop metering (interpreter instructions). Caches the
 * ambient budget once, accumulates ticks locally, and flushes a charge
 * + deadline check every ~4096 units, so the per-instruction cost is
 * one add and a compare even when governed. Call flush() at natural
 * boundaries (loop back-edges, run end) for prompt enforcement; the
 * destructor settles the remainder without throwing so counters stay
 * exact across error unwinds.
 */
class StepMeter
{
  public:
    StepMeter(Dim d, const char *stage)
        : budget_(current()), dim_(d), stage_(stage)
    {
    }
    ~StepMeter() { settle(); }
    StepMeter(const StepMeter &) = delete;
    StepMeter &operator=(const StepMeter &) = delete;

    void tick(uint64_t n = 1)
    {
        if (!budget_)
            return;
        pending_ += n;
        if (pending_ >= kFlushEvery)
            flush();
    }

    /** Charge the pending units and check the deadline. May throw. */
    void flush()
    {
        if (!budget_ || pending_ == 0)
            return;
        const uint64_t n = pending_;
        pending_ = 0; // counted even if the charge below throws
        budget_->charge(dim_, n, stage_);
        budget_->checkDeadline(stage_);
    }

    /** Fold the remainder into the counters without enforcement. */
    void settle() noexcept
    {
        if (budget_ && pending_ != 0) {
            budget_->chargeNoThrow(dim_, pending_);
            pending_ = 0;
        }
    }

    bool active() const { return budget_ != nullptr; }

  private:
    static constexpr uint64_t kFlushEvery = 4096;
    Budget *budget_;
    Dim dim_;
    const char *stage_;
    uint64_t pending_ = 0;
};

/**
 * RAII installation of an explicit budget (tests, harnesses). Nest in
 * LIFO order; the previous budget is restored on destruction.
 */
class ScopedBudget
{
  public:
    explicit ScopedBudget(const Caps &caps);
    ~ScopedBudget();
    ScopedBudget(const ScopedBudget &) = delete;
    ScopedBudget &operator=(const ScopedBudget &) = delete;

    Budget &budget() { return budget_; }

  private:
    Budget budget_;
    Budget *prev_;
};

/** The caps ScopedRequestBudget installs per request: the env
 * configuration, unless a ScopedAmbientCaps override is active. */
Caps ambientCaps();

/**
 * Test override of the ambient request caps (the programmatic
 * equivalent of setting GSOPT_DEADLINE_MS / GSOPT_BUDGET_* for a
 * scope). Install before spawning worker threads, like ScopedFaultPlan.
 */
class ScopedAmbientCaps
{
  public:
    explicit ScopedAmbientCaps(const Caps &caps);
    ~ScopedAmbientCaps();
    ScopedAmbientCaps(const ScopedAmbientCaps &) = delete;
    ScopedAmbientCaps &operator=(const ScopedAmbientCaps &) = delete;

  private:
    const void *prev_;
};

/**
 * Admission control at a request entry point (compileShader,
 * exploreShader, measureShader, a campaign work item): installs a
 * fresh Budget from ambientCaps() — so an ambient GSOPT_DEADLINE_MS
 * bounds each unit of work, not the whole process — unless the thread
 * is already governed (the outer request's budget keeps authority) or
 * the ambient caps are all unlimited (no budget, zero overhead).
 */
class ScopedRequestBudget
{
  public:
    ScopedRequestBudget();
    ~ScopedRequestBudget();
    ScopedRequestBudget(const ScopedRequestBudget &) = delete;
    ScopedRequestBudget &operator=(const ScopedRequestBudget &) = delete;

    /** The budget this scope installed, or nullptr if it deferred. */
    Budget *installed() { return owned_ ? &*owned_ : nullptr; }

  private:
    std::optional<Budget> owned_;
};

} // namespace gsopt::governor

#endif // GSOPT_SUPPORT_GOVERNOR_H
