/**
 * @file
 * The optimization pass set. This is the reproduction of LunarGlass's
 * toggleable pass flags (paper Section III) plus the always-on
 * canonicalisation (constant folding, local CSE, store/load forwarding,
 * trivial DCE) that LunarGlass inherits from LLVM and does not expose as
 * flags.
 *
 * Each flag pass is a standalone function Module -> changed?. A
 * `FlagSet` (declared here, one bit per registered pass) is the one
 * type that says which passes run, from `optimize` to the tuner's
 * search space. `optimize` applies one in LunarGlass's fixed pass
 * order with canonicalisation after each pass that changed something.
 */
#ifndef GSOPT_PASSES_PASSES_H
#define GSOPT_PASSES_PASSES_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/ir.h"

namespace gsopt::passes {

// -- always-on canonicalisation ----------------------------------------

/**
 * Run constant folding, extract/construct simplification, store->load
 * forwarding, dead-store elimination, block-local CSE, trivial DCE, and
 * structural simplification to a fixpoint. Returns true if anything
 * changed.
 */
bool canonicalize(ir::Module &module);

/**
 * The step rule every pass step follows (registry stages, hence
 * optimize() and the plan walk, and the driver's vendor steps):
 * the trailing canonicalize runs only if the pass reported a change.
 * Use as `canonicalizeIfChanged(m, pass(m))`; returns @p changed.
 *
 * Premise: the pass's input is a canonicalize fixpoint. Then a pass
 * that reports no change has left the module as it found it, and
 * canonicalize would change nothing either, so skipping it is exact.
 * Every step's input is such a fixpoint: roots and the driver's
 * front-end modules end in canonicalize, as does every step that
 * changed something, and canonicalize iterates until a round changes
 * nothing — unless it stops at its 32-round cap, which no corpus
 * module reaches.
 */
inline bool
canonicalizeIfChanged(ir::Module &module, bool changed)
{
    if (changed)
        canonicalize(module);
    return changed;
}

// -- the eight toggleable flags ------------------------------------------

/** Aggressive dead code elimination (never beats the trivial-DCE
 * fixpoint in practice, exactly as the paper observes for LunarGlass). */
bool adce(ir::Module &module);

/** Flatten conditionals: if-blocks of pure code + var assignments become
 * straight-line code with select instructions. The offline tool
 * flattens unconditionally; driver JITs pass an arm-size budget
 * (real drivers only if-convert small blocks). */
bool hoist(ir::Module &module,
           size_t maxArmInstrs = static_cast<size_t>(-1));

/** Fully unroll canonical constant-trip-count loops. The offline tool
 * uses generous caps; driver JITs pass their own heuristics' budgets. */
bool unroll(ir::Module &module, long maxTrips = 64,
            size_t maxUnrolledInstrs = 8192);

/** Turn chains of per-component vector inserts into single swizzled
 * construct assignments. */
bool coalesce(ir::Module &module);

/** Global value numbering across the structured dominance tree. */
bool gvn(ir::Module &module);

/** Integer reassociation (plus the float x+0 / f*0 cases LunarGlass's
 * pass handles). */
bool reassociate(ir::Module &module);

/** The paper's custom unsafe floating-point reassociation: factorisation
 * ab+ac -> a(b+c), a+b-a -> b, a+a+a -> 3a, constant/scalar grouping
 * f1(f2 v) -> (f1 f2)v, identity removal, canonical operand order. */
bool fpReassociate(ir::Module &module);

/** Replace division by a compile-time constant with multiplication by
 * its reciprocal (unsafe). */
bool divToMul(ir::Module &module);

// -- registered extras beyond the paper's eight --------------------------
// These ship in the extra-pass catalog (passes/registry.h): not part of
// the default registration, so the paper's 256-combination space — and
// every golden campaign byte — stays intact until a caller opts in.

/**
 * Loop-invariant code motion: move whole invariant expression trees
 * out of canonical constant-trip loops (trip count >= 1, so this is
 * motion, never speculation — texture fetches qualify) into a
 * preheader block. Fires exactly where `unroll` declines: over-budget
 * trip counts or body sizes.
 */
bool licm(ir::Module &module);

/** Instructions licm would hoist, without mutating (analysis only;
 * the profitability feature hook in tuner/features.cpp). */
size_t licmHoistableCount(const ir::Module &module);

/**
 * Integer/index strength reduction: pow(x, small const int) becomes a
 * multiply chain, integer multiplies by 2/4/8 become doubling add
 * chains (the IR's shift-equivalent lane ops), and integer
 * x*c1 + x*c2 / x*c + x index arithmetic refolds into one multiply.
 */
bool strengthReduce(ir::Module &module);

/**
 * Texture-fetch batching: fetches of the same sampler at the same
 * coordinates — and read-only varying/uniform/const-array loads —
 * collapse onto the first fetch on a dominating path, leaving one
 * fetch whose consumers extract the lanes they need.
 *
 * The always-on canonicalisation already does this *within* a block;
 * full GVN does it across blocks but drags every other op class along
 * and is a flag the mobile drivers in the paper's device set do not
 * run. tex_batch is the targeted middle ground: GVN's dominance walk
 * (gvn.cpp) admitting only the fetch class — the memory-bandwidth win
 * that matters on the tile-based mobile parts (ARM, Qualcomm), whose
 * JIT models run no GVN of their own.
 *
 * Every participating op is read-only (samplers, inputs, uniforms,
 * const arrays; the verifier rejects stores to them), so its memory
 * version never moves; the walk's scopes alone enforce dominance (an
 * if-arm fetch never serves the other arm or the code after the join,
 * and loop cond-region values never serve the body, mirroring the
 * GVN/back-end contract).
 */
bool texBatch(ir::Module &module);

/** tex_batch's fetch class: ops whose value is a pure function of
 * read-only state and their operands (texture ops + read-only loads).
 * Shared with the tuner's dupFetches feature so the profitability
 * signal and the pass agree on what a fetch is. */
bool isFetchOp(const ir::Instr &instr);

// -- driver-side scheduling ----------------------------------------------

/**
 * Pressure-reducing scheduler: sink pure single-use values defined more
 * than @p minSpan instructions before their only user down to the use
 * site. Not one of the eight flags — the *driver* models run it before
 * register accounting, because every production compiler list-schedules
 * for pressure (see src/passes/schedule.cpp).
 */
bool scheduleForPressure(ir::Module &module, size_t minSpan = 48);

// -- pipeline -------------------------------------------------------------

/** Flag-bit positions of the built-in passes: the paper's eight, in
 * the historical order the registry assigns them at start-up. Passes
 * registered beyond them take bits 8, 9, ... */
enum BuiltinPassBit : int {
    kAdce = 0,
    kCoalesce = 1,
    kGvn = 2,
    kReassociate = 3,
    kUnroll = 4,
    kHoist = 5,
    kFpReassociate = 6,
    kDivToMul = 7,
    kBuiltinPassCount = 8,
};

/**
 * One selection of gated passes: bit b selects the registered pass
 * owning flag bit b. It is the one pass-selection type, from optimize()
 * and the driver models' JIT sets to the tuner's 2^N combinations.
 * With the default registration it is the paper's 8-bit encoding of
 * the exhaustive 256-combination search (paper Section III-A), bit
 * for bit; registering more passes widens the space transparently.
 */
struct FlagSet
{
    uint64_t bits = 0;

    constexpr FlagSet() = default;
    constexpr explicit FlagSet(uint64_t b) : bits(b) {}

    bool has(int bit) const { return (bits >> bit) & 1; }
    FlagSet with(int bit) const
    {
        return FlagSet(bits | (1ull << bit));
    }
    FlagSet without(int bit) const
    {
        return FlagSet(bits & ~(1ull << bit));
    }

    /** Number of set flags. */
    int count() const { return __builtin_popcountll(bits); }

    bool operator==(const FlagSet &o) const { return bits == o.bits; }
    bool operator!=(const FlagSet &o) const { return bits != o.bits; }

    /** The passes LunarGlass enables by default (paper Table I text):
     * the custom unsafe passes stay off. */
    static FlagSet lunarGlassDefaults()
    {
        return none()
            .with(kAdce)
            .with(kCoalesce)
            .with(kGvn)
            .with(kReassociate)
            .with(kUnroll)
            .with(kHoist);
    }
    /** Every registered pass on. */
    static FlagSet all();
    /** Everything off (the LunarGlass passthrough baseline of Fig 9). */
    static FlagSet none() { return FlagSet(0); }

    /** Compact spelling from the registry's display names, like
     * "{Unroll,Div to Mul}"; "{none}" when empty. */
    std::string str() const;
};

/**
 * Apply the optimizer with the given flags. Canonicalisation runs
 * first and after every flagged pass that changed the module
 * (canonicalizeIfChanged), mirroring the paper's note that
 * folding/CSE/load-store elimination "were necessary passes to
 * canonicalize instructions".
 */
void optimize(ir::Module &module, FlagSet flags);

/**
 * Work accounting of a PlanApplier (cumulative since construction).
 * The caller folds it into its own counters (tuner::ExploreCounters
 * for the exploration path).
 */
struct FlagTreeStats
{
    uint64_t passRuns = 0;     ///< pass applications actually executed
    uint64_t passMemoHits = 0; ///< apply edges served from the memo
    uint64_t fingerprintRuns = 0; ///< module fingerprints computed
    uint64_t fingerprintNs = 0;   ///< time spent fingerprinting
    uint64_t arenaBytes = 0; ///< IR arena bytes of all applier modules
};

struct PassPlan; // registry.h — an ordered sequence of pass bits

/**
 * The one walk over pass sequences: every exploration — the 2^N flag
 * lattice (as its canonical plans, forEachLatticePlan), ordered plans
 * (forEachPlan) and on-demand plans (tuner::PlanExplorer) — walks its
 * plans through a PlanApplier.
 *
 * Two mechanisms keep the walk cheap. First, prefix reuse: the
 * applier keeps the node path of its previous walk and resumes from
 * the longest prefix the next plan shares with it, so plans visited in
 * the lattice's skip-first DFS order take exactly the prefix tree's
 * 2^N - 1 apply edges, not N * 2^(N-1). Second, the memo: every apply
 * edge is content-addressed by (incoming structural fingerprint,
 * incoming id labelling, pass id), and each distinct key runs the pass
 * (and pays its clone) once per applier — sound because a
 * deterministic pass given content-identical input produces
 * content-identical output. Plans that converge to identical
 * intermediate IR through different orders — the common case: most
 * passes fire on nothing (paper Fig 4c) — therefore share one pass
 * run per *distinct* (module, pass) edge across the applier's whole
 * lifetime. Each module is fingerprinted exactly once, when it is
 * created.
 *
 * Every module is immutable once built and owned by the applier, so
 * Node handles stay valid for the applier's lifetime, and a canonical
 * plan's module is content-identical — structure, ids, and therefore
 * emitted text — to optimize(base.clone(), flags); only object
 * identity is NOT guaranteed (the memo can hand several plans the
 * same module instance). Not thread-safe; one applier per
 * exploration thread.
 */
class PlanApplier
{
  public:
    /** A module in the plan tree plus the hashes its outgoing apply
     * edges are keyed by. */
    struct Node
    {
        const ir::Module *module = nullptr;
        uint64_t fingerprint = 0; ///< ir::fingerprint (structural)
        uint64_t idHash = 0;      ///< instruction-id labelling hash
    };

    PlanApplier();
    ~PlanApplier();
    PlanApplier(const PlanApplier &) = delete;
    PlanApplier &operator=(const PlanApplier &) = delete;

    /** Clone @p base, canonicalize, verify, fingerprint — the root
     * every later walk() starts from (identical to what optimize()
     * does before the first gated pass). */
    Node root(const ir::Module &base);

    /**
     * The final node of @p plan, walked from the root: the steps
     * shared with the previous walk's prefix are reused, and only the
     * remaining steps are applied through the memo. Each applied step
     * is charged to the governor (PassSteps) and checks its deadline;
     * reused steps are not taken again. @p plan must be valid
     * (PassPlan::valid); call root() first.
     */
    Node walk(const PassPlan &plan);

    /** Cumulative work accounting since construction (callers diff
     * before/after to attribute work to one walk). */
    const FlagTreeStats &stats() const;

  private:
    /** Apply registered pass @p passBit to @p from, memoized. */
    Node apply(const Node &from, int passBit);

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Run every ordered plan in @p plans against @p base through one
 * PlanApplier, invoking @p sink with the plan, its final module (valid
 * until the call returns), and that module's structural fingerprint.
 * A canonical plan (PassPlan::canonicalOf) delivers a module
 * bit-identical to optimize() with the same flag set; latticePlans()
 * lists the whole flag lattice in the order that shares the most
 * prefix. Plans are processed in the given order; invalid plans abort
 * (validate first with PassPlan::valid).
 */
void forEachPlan(
    const ir::Module &base, const std::vector<PassPlan> &plans,
    const std::function<void(const PassPlan &, const ir::Module &,
                             uint64_t fingerprint)> &sink,
    FlagTreeStats *stats = nullptr);

} // namespace gsopt::passes

#endif // GSOPT_PASSES_PASSES_H
