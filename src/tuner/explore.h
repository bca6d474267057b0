/**
 * @file
 * Exhaustive variant exploration: compile one shader under all 256 flag
 * combinations and dedup the outputs by source text (paper Fig 4c —
 * most combinations produce identical code, so every shader has only a
 * handful of unique variants; the maximum the paper observed was 48).
 */
#ifndef GSOPT_TUNER_EXPLORE_H
#define GSOPT_TUNER_EXPLORE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "corpus/corpus.h"
#include "passes/passes.h"
#include "passes/registry.h"
#include "tuner/flags.h"

namespace gsopt::tuner {

struct ShaderFeatures; // tuner/features.h

/**
 * Process-wide phase accounting for exploreShader. The compile-once
 * pipeline promises exactly one front-end (preprocess/lex/parse/sema)
 * and one lowering per shader regardless of the 256 flag combinations;
 * these counters make that verifiable and give the perf benches their
 * per-phase breakdown. Thread-safe (the experiment engine explores
 * shaders from a worker pool); times are cumulative nanoseconds.
 */
struct ExploreCounters
{
    std::atomic<uint64_t> frontEndRuns{0};  ///< compileShader calls
    std::atomic<uint64_t> lowerRuns{0};     ///< lowerShader calls
    std::atomic<uint64_t> pipelineRuns{0};  ///< combos delivered
    std::atomic<uint64_t> passRuns{0};      ///< passes actually executed
    std::atomic<uint64_t> passMemoHits{0};  ///< apply edges memo-shared
    std::atomic<uint64_t> printRuns{0};     ///< emitGlsl calls
    std::atomic<uint64_t> fingerprintRuns{0}; ///< fingerprints computed
    std::atomic<uint64_t> fingerprintHits{0}; ///< combos deduped pre-print
    std::atomic<uint64_t> arenaBytes{0}; ///< IR arena bytes, all tree modules
    std::atomic<uint64_t> plansWalked{0}; ///< ordered plans explored

    std::atomic<uint64_t> frontEndNs{0};
    std::atomic<uint64_t> lowerNs{0};
    std::atomic<uint64_t> pipelineNs{0};   ///< clone + pass pipeline
    std::atomic<uint64_t> fingerprintNs{0};
    std::atomic<uint64_t> printNs{0};      ///< emitGlsl + text hash

    void reset();
};

/** The process-wide counters (never reset implicitly). */
ExploreCounters &exploreCounters();

/** One unique optimised shader text plus the flag sets producing it. */
struct Variant
{
    std::string source;
    uint64_t sourceHash = 0;
    std::vector<FlagSet> producers; ///< every combo mapping here

    /** Does at least half of the producing combos set this flag?
     * False when no producers are recorded (nothing to vote). */
    bool mostlyHasFlag(int bit) const;
};

/** The full exploration of one shader. */
struct Exploration
{
    std::string shaderName;
    std::string family;               ///< übershader family id
    std::string preprocessedOriginal; ///< for the LoC metric
    std::string originalSource;       ///< what the app would ship
    std::vector<Variant> variants;    ///< unique outputs
    /** Combination bits -> variant index. Strategy-agnostic: an
     * exhaustive exploration maps every combination; a sparse
     * explorer (ROADMAP follow-on) would map only the combinations it
     * compiled. */
    std::unordered_map<uint64_t, int> variantOfCombo;
    /** Ordered-plan annotations: stable plan string (PassPlan::str)
     * -> variant index, for the *non-canonical* plans a PlanExplorer
     * walked (canonical plans are flag subsets and live in
     * variantOfCombo). Ordered map so shard serialization is
     * deterministic. Plan-only variants may have no producers — no
     * flag combination reaches their text. */
    std::map<std::string, int> variantOfPlan;
    size_t exploredFlagCount = 0; ///< N at exploration time
    int passthroughVariant = 0;   ///< index of flags-none output

    size_t uniqueCount() const { return variants.size(); }

    /** Variant index for a flag combination. Throws std::out_of_range
     * (naming the shader and combination) if it was never explored. */
    int variantOf(FlagSet flags) const;

    /** Variant index for an ordered plan (canonical plans route
     * through variantOfCombo). Throws std::out_of_range if the plan
     * was never explored — use PlanExplorer::ensure to explore. */
    int variantOf(const passes::PassPlan &plan) const;

    /** Does toggling @p bit ever change the output text? (Fig 8 red) */
    bool flagChangesOutput(int bit) const;

    /** A best flag set and the speed-up of the variant it reaches. */
    struct BestFlags
    {
        FlagSet flags;
        double speedup;
    };

    /** Among variants with producers, the one with the highest
     * @p speedupOf(variant index), and its producer with the fewest
     * flags; ties keep the first of each. Plan-only variants have no
     * producer, so no flag set reaches them. ShaderResult::bestFlags
     * and ExhaustiveSearch answer with this rule. */
    BestFlags bestFlags(const std::function<double(size_t)> &speedupOf) const;

    /** Static features, filled lazily by tuner::featuresOf (at most
     * one computation per exploration; copies made afterwards share
     * it). Opaque here so explore.h does not depend on features.h. */
    mutable std::shared_ptr<const ShaderFeatures> featureCache;
};

/** Run the exhaustive 2^N-combination exploration for one corpus
 * shader (N from the pass registry; the paper's 256 by default): a
 * PlanExplorer walks the lattice's canonical plans
 * (passes::forEachLatticePlan). */
Exploration exploreShader(const corpus::CorpusShader &shader);

/**
 * Plan exploration over one shader: front end, lowering and the
 * applier root run once, at construction, and every plan walks through
 * one persistent passes::PlanApplier (prefix reuse plus the
 * content-addressed (fingerprint, pass) memo), with its time and work
 * added to exploreCounters(). exploreShader walks the whole flag
 * lattice through one; on its own, a PlanExplorer explores plans on
 * demand over an existing Exploration: `ensure(plan)` returns the
 * plan's variant index, walking the pass sequence only the first time
 * (canonical plans resolve straight from variantOfCombo with no pass
 * work, and repeated or text-converging plans dedup against the
 * existing variants). Executed pass runs stay far below walked-plan
 * count (ExploreCounters::plansWalked vs passRuns). New variants are
 * appended to the Exploration with the plan recorded in
 * variantOfPlan. Not thread-safe; confine to one search thread.
 */
class PlanExplorer
{
  public:
    /** @p shader must be the shader @p ex was explored from. Sets
     * ex.preprocessedOriginal. */
    PlanExplorer(const corpus::CorpusShader &shader, Exploration &ex);
    ~PlanExplorer();
    PlanExplorer(const PlanExplorer &) = delete;
    PlanExplorer &operator=(const PlanExplorer &) = delete;

    /** Variant index of @p plan, exploring it first if needed. Throws
     * std::invalid_argument on invalid plans. */
    int ensure(const passes::PassPlan &plan);

    Exploration &exploration() { return ex_; }

    /** Plans this explorer actually walked (cache-missing ensures). */
    uint64_t plansWalked() const { return plansWalked_; }

  private:
    friend Exploration exploreShader(const corpus::CorpusShader &shader);

    /** Add one stretch of walking to exploreCounters(): @p ns of wall
     * time, less the applier's fingerprinting since @p before, as
     * pipeline time, and the applier's work since @p before. */
    void account(const passes::FlagTreeStats &before, uint64_t ns);

    Exploration &ex_;
    passes::PlanApplier applier_;
    std::unordered_map<uint64_t, int> byTextHash_;
    uint64_t plansWalked_ = 0;
};

} // namespace gsopt::tuner

#endif // GSOPT_TUNER_EXPLORE_H
