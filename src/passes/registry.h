/**
 * @file
 * The pass registry: the single source of truth for which gated
 * (flag-toggleable) passes exist, the flag bit each one owns, and the
 * order the pipeline applies them in.
 *
 * The paper's eight LunarGlass flags are registered as built-ins at
 * start-up with their historical bit positions and pipeline order, so
 * every 256-combination semantic (bit encodings, display names,
 * variant partitions) is bit-compatible with the fixed-table code this
 * replaces. New passes register on top — `optimize()`, `FlagSet`,
 * the flag lattice (`forEachLatticePlan()`), exploration, the search
 * strategies, and the experiment engine all size themselves from the
 * registry, so a ninth pass needs no changes anywhere else.
 */
#ifndef GSOPT_PASSES_REGISTRY_H
#define GSOPT_PASSES_REGISTRY_H

#include <functional>
#include <string>
#include <vector>

#include "ir/ir.h"

namespace gsopt::passes {

/** One gated pass: what it is called and what it does. */
struct PassDescriptor
{
    std::string id;   ///< stable slug used in keys, e.g. "fp_reassoc"
    std::string name; ///< display name, e.g. "FP Reassociate"

    /**
     * Apply the pass to a module. The function must include whatever
     * trailing canonicalisation the linear pipeline performs after the
     * pass (the built-ins all follow passes::canonicalizeIfChanged:
     * canonicalize only if the pass reported a change), because the
     * plan walk (PlanApplier) replays these stage functions verbatim
     * to stay bit-identical with optimize().
     */
    std::function<void(ir::Module &)> apply;

    /** Flag bit this pass owns (its FlagSet bit position). Assigned
     * by the registry in registration order. */
    int bit = -1;

    /** Position in the pipeline application order. The pipeline order
     * is independent of the bit order (the paper's flag-bit layout
     * predates its pipeline layout). */
    int position = 0;
};

/**
 * Registry of gated passes. Reads are lock-free; registration is
 * expected at start-up or from test set-up (guarded by a mutex, but
 * must not race active explorations).
 */
class PassRegistry
{
  public:
    /** The process-wide registry, pre-loaded with the paper's eight. */
    static PassRegistry &instance();

    /** Number of registered gated passes (N of the N-bit flag space). */
    size_t count() const { return passes_.size(); }

    /** 2^count(): the size of the flag-combination space. */
    uint64_t comboCount() const { return 1ull << passes_.size(); }

    /** Descriptor owning @p bit. Aborts on out-of-range bits. */
    const PassDescriptor &pass(int bit) const;

    /** Bit owned by pass @p id, or -1 if no such pass. */
    int bitOf(const std::string &id) const;

    /** Descriptors in pipeline application order. */
    const std::vector<const PassDescriptor *> &pipeline() const
    {
        return pipeline_;
    }

    /**
     * Register a gated pass and return its assigned bit. @p position
     * orders it within the pipeline (built-ins occupy 0..7); passes
     * registered with equal positions apply in registration order;
     * omit it to append at the end of the pipeline.
     */
    int add(std::string id, std::string name,
            std::function<void(ir::Module &)> apply, int position = -1);

    /** Remove the most recently added pass (stack discipline: bits are
     * dense, so only the top of the stack can be retired). Aborts if
     * @p bit is not the highest live bit. */
    void remove(int bit);

    /**
     * Fingerprint of the registered pass set (ids, bit order, pipeline
     * order). Campaign cache keys include it so registering a pass
     * invalidates cached results.
     */
    uint64_t signature() const;

  private:
    PassRegistry();
    void rebuildPipeline();

    std::vector<PassDescriptor> passes_; ///< indexed by bit
    std::vector<const PassDescriptor *> pipeline_;
};

/**
 * An ordered sequence of registered pass ids — the unit of
 * phase-ordering exploration. A flag subset is the canonical-order
 * special case: `PassPlan::canonicalOf(mask)` lists the selected
 * passes in registry pipeline order, and applying that plan is
 * bit-identical to `optimize()` with the same flags. Non-canonical
 * plans open the ordering dimension the flag lattice cannot express
 * (e.g. licm *before* unroll can shrink a loop body under unroll's
 * budget, unlocking a full unroll no flag subset reaches).
 *
 * Stable string form (shard annotations, logs, dedup keys): pass ids
 * joined by '>' in application order — "unroll>licm>gvn"; the empty
 * plan prints as "-". parse() inverts str() against the live registry.
 */
struct PassPlan
{
    /** Registry flag bits in application order. No duplicates. */
    std::vector<int> bits;

    PassPlan() = default;
    explicit PassPlan(std::vector<int> b) : bits(std::move(b)) {}

    size_t length() const { return bits.size(); }
    bool empty() const { return bits.empty(); }

    /** Selection mask of the member passes (order erased). */
    uint64_t mask() const;

    /** The canonical plan of @p mask: selected passes in registry
     * pipeline order. Applying it reproduces optimize() with the same
     * flags bit-for-bit. */
    static PassPlan canonicalOf(uint64_t mask);

    /** Is this exactly the canonical (pipeline-order) plan of its own
     * mask? Canonical plans are flag subsets; only non-canonical ones
     * carry ordering information. */
    bool isCanonical() const;

    /** Every bit registered and no bit repeated? On failure @p why
     * (when non-null) names the offending bit. */
    bool valid(std::string *why = nullptr) const;

    /** Stable spelling: ids joined by '>' ("unroll>licm"); "-" when
     * empty. */
    std::string str() const;

    /** Inverse of str() against the live registry. Returns false —
     * leaving @p out untouched — on unknown ids, duplicates, or
     * malformed input. */
    static bool parse(const std::string &text, PassPlan &out);

    bool operator==(const PassPlan &o) const { return bits == o.bits; }
    bool operator!=(const PassPlan &o) const { return bits != o.bits; }
};

/**
 * Visit the 2^N canonical plans of the registered passes — the flag
 * lattice, one plan per FlagSet(plan.mask()) — in the prefix tree's
 * skip-first DFS order: the empty plan first, then, stage by stage in
 * pipeline order, every plan without the stage before every plan with
 * it. Consecutive plans differ only after their common prefix, so
 * walking them in this order through one PlanApplier takes exactly the
 * tree's 2^N - 1 apply edges. One plan is updated in place; the
 * reference is valid only during @p visit.
 */
void forEachLatticePlan(
    const std::function<void(const PassPlan &)> &visit);

/** The same 2^N canonical plans as a list, in the same order (for
 * forEachPlan). */
std::vector<PassPlan> latticePlans();

/**
 * The catalog of shippable passes beyond the built-in eight: licm,
 * strength_reduce, tex_batch (ISSUE 5 / ROADMAP "New registered
 * passes"). Catalogued, not registered — the default space stays the
 * paper's 256 combinations and every golden campaign byte holds.
 * Register them with ScopedExtraPasses (tests, benches), by id via
 * registerExtraPass (applications), or process-wide with the
 * GSOPT_EXTRA_PASSES environment variable ("licm,tex_batch" or "all"),
 * which the registry reads once at start-up — the knob the CI
 * examples-smoke job uses to run the shipped examples in a widened
 * space without code changes.
 */
const std::vector<PassDescriptor> &extraPassCatalog();

/** Register catalog pass @p id (appended to the pipeline, stage
 * contract included). Returns its bit, or -1 if @p id is not in the
 * catalog. Aborts on duplicate registration like PassRegistry::add. */
int registerExtraPass(const std::string &id);

/**
 * RAII registration for tests and experiments: registers a pass on
 * construction, retires it on destruction. Nest in LIFO order.
 */
class ScopedPass
{
  public:
    ScopedPass(std::string id, std::string name,
               std::function<void(ir::Module &)> apply,
               int position = -1)
        : bit_(PassRegistry::instance().add(
              std::move(id), std::move(name), std::move(apply),
              position))
    {
    }
    ~ScopedPass() { PassRegistry::instance().remove(bit_); }
    ScopedPass(const ScopedPass &) = delete;
    ScopedPass &operator=(const ScopedPass &) = delete;

    int bit() const { return bit_; }

  private:
    int bit_;
};

/**
 * RAII registration of every catalog pass not already registered (the
 * GSOPT_EXTRA_PASSES env knob may have claimed some at start-up);
 * removes its own registrations in LIFO order on destruction. The
 * one-liner that takes a test or bench from the paper's 8-pass space
 * to the full 11-pass space.
 */
class ScopedExtraPasses
{
  public:
    ScopedExtraPasses();
    ~ScopedExtraPasses();
    ScopedExtraPasses(const ScopedExtraPasses &) = delete;
    ScopedExtraPasses &operator=(const ScopedExtraPasses &) = delete;

    /** Bits this scope registered (catalog passes already present at
     * construction are not re-registered and not listed). */
    const std::vector<int> &bits() const { return bits_; }

  private:
    std::vector<int> bits_;
};

} // namespace gsopt::passes

#endif // GSOPT_PASSES_REGISTRY_H
