#include "tuner/explore.h"

#include <stdexcept>
#include <unordered_map>

#include "emit/emit.h"
#include "glsl/frontend.h"
#include "ir/ir.h"
#include "lower/lower.h"
#include "passes/passes.h"
#include "support/governor.h"
#include "support/rng.h"
#include "support/time.h"

namespace gsopt::tuner {

void
ExploreCounters::reset()
{
    frontEndRuns = 0;
    lowerRuns = 0;
    pipelineRuns = 0;
    passRuns = 0;
    passMemoHits = 0;
    printRuns = 0;
    fingerprintRuns = 0;
    fingerprintHits = 0;
    arenaBytes = 0;
    plansWalked = 0;
    frontEndNs = 0;
    lowerNs = 0;
    pipelineNs = 0;
    fingerprintNs = 0;
    printNs = 0;
}

ExploreCounters &
exploreCounters()
{
    static ExploreCounters counters;
    return counters;
}

bool
Variant::mostlyHasFlag(int bit) const
{
    // An unpopulated variant (no producers recorded yet) holds no
    // evidence either way; without this guard the 0 >= 0 comparison
    // answered "yes" for every bit.
    if (producers.empty())
        return false;
    size_t with = 0;
    for (const FlagSet &f : producers)
        with += f.has(bit);
    return with * 2 >= producers.size();
}

int
Exploration::variantOf(FlagSet flags) const
{
    auto it = variantOfCombo.find(flags.bits);
    if (it == variantOfCombo.end()) {
        throw std::out_of_range(
            "combination " + flags.str() + " was not explored for " +
            shaderName);
    }
    return it->second;
}

int
Exploration::variantOf(const passes::PassPlan &plan) const
{
    if (plan.isCanonical()) {
        auto it = variantOfCombo.find(plan.mask());
        if (it != variantOfCombo.end())
            return it->second;
    } else {
        auto it = variantOfPlan.find(plan.str());
        if (it != variantOfPlan.end())
            return it->second;
    }
    throw std::out_of_range("plan " + plan.str() +
                            " was not explored for " + shaderName);
}

bool
Exploration::flagChangesOutput(int bit) const
{
    const uint64_t mask = 1ull << bit;
    for (const auto &[combo, variant] : variantOfCombo) {
        if (combo & mask)
            continue;
        auto with = variantOfCombo.find(combo | mask);
        if (with != variantOfCombo.end() && with->second != variant)
            return true;
    }
    return false;
}

Exploration::BestFlags
Exploration::bestFlags(const std::function<double(size_t)> &speedupOf) const
{
    size_t best_variant = 0;
    double best = -1e30;
    for (size_t v = 0; v < variants.size(); ++v) {
        if (variants[v].producers.empty())
            continue;
        const double s = speedupOf(v);
        if (s > best) {
            best = s;
            best_variant = v;
        }
    }
    FlagSet minimal = variants[best_variant].producers.front();
    for (const FlagSet &f : variants[best_variant].producers) {
        if (f.count() < minimal.count())
            minimal = f;
    }
    return {minimal, best};
}

namespace {

/** A printed variant text and its fnv1a hash. */
struct Printed
{
    std::string text;
    uint64_t hash;
};

/** emitGlsl and the text's hash, counted in exploreCounters(); also
 * adds its time to @p ns when given. */
Printed
printCounted(const ir::Module &module, uint64_t *ns = nullptr)
{
    const uint64_t t0 = nowNs();
    std::string text = emit::emitGlsl(module);
    const uint64_t hash = fnv1a(text);
    const uint64_t dt = nowNs() - t0;
    if (ns)
        *ns += dt;
    ExploreCounters &counters = exploreCounters();
    counters.printRuns.fetch_add(1, std::memory_order_relaxed);
    counters.printNs.fetch_add(dt, std::memory_order_relaxed);
    return {std::move(text), hash};
}

} // namespace

Exploration
exploreShader(const corpus::CorpusShader &shader)
{
    // Admission control: exploring one shader (front end + full
    // lattice walk + printing) is a unit of work under ambient caps.
    governor::ScopedRequestBudget admission;
    ExploreCounters &counters = exploreCounters();
    Exploration ex;
    ex.shaderName = shader.name;
    ex.family = shader.family;
    ex.originalSource = shader.source;
    ex.exploredFlagCount = flagCount();
    checkExhaustiveFeasible("exploreShader");

    // Phase A — walk all 2^N canonical plans in the prefix tree's
    // order, so the applier's prefix reuse takes each of the tree's
    // 2^N - 1 apply edges once, and edges whose incoming IR
    // fingerprints identically share one pass run + one clone. Each
    // module is fingerprinted exactly once, at creation; only
    // fingerprint-unique modules reach the printer (most of the
    // combos are structurally identical — Fig 4c), and each printed
    // text is hashed once, there. The explorer, and with it every
    // module, ends with this phase.
    std::vector<uint64_t> combo_fp(comboCount(), 0);
    std::unordered_map<uint64_t, Printed> text_of_fp;
    {
        PlanExplorer explorer(shader, ex);
        uint64_t print_ns = 0;
        const passes::FlagTreeStats before = explorer.applier_.stats();
        const uint64_t t0 = nowNs();
        passes::forEachLatticePlan([&](const passes::PassPlan &plan) {
            const passes::PlanApplier::Node node =
                explorer.applier_.walk(plan);
            counters.pipelineRuns.fetch_add(1,
                                            std::memory_order_relaxed);
            combo_fp[plan.mask()] = node.fingerprint;
            if (!text_of_fp.count(node.fingerprint)) {
                text_of_fp.emplace(node.fingerprint,
                                   printCounted(*node.module, &print_ns));
            } else {
                counters.fingerprintHits.fetch_add(
                    1, std::memory_order_relaxed);
            }
        });
        explorer.account(before, nowNs() - t0 - print_ns);
    }

    // Phase B — assign variant indices in numeric combo order with the
    // text-hash dedup the seed used, so the variant partition and
    // ordering stay exactly what per-combo text dedup would produce
    // (fingerprints only decide who pays for printing).
    std::unordered_map<uint64_t, int> by_text_hash;
    for (const FlagSet &flags : allFlagSets()) {
        const Printed &printed = text_of_fp.at(combo_fp[flags.bits]);
        auto it = by_text_hash.find(printed.hash);
        int index;
        if (it == by_text_hash.end()) {
            index = static_cast<int>(ex.variants.size());
            by_text_hash.emplace(printed.hash, index);
            Variant v;
            v.source = printed.text;
            v.sourceHash = printed.hash;
            ex.variants.push_back(std::move(v));
        } else {
            index = it->second;
        }
        ex.variants[static_cast<size_t>(index)].producers.push_back(
            flags);
        ex.variantOfCombo.emplace(flags.bits, index);
    }
    ex.passthroughVariant = ex.variantOf(FlagSet::none());
    return ex;
}

PlanExplorer::PlanExplorer(const corpus::CorpusShader &shader,
                           Exploration &ex)
    : ex_(ex)
{
    governor::ScopedRequestBudget admission;
    ExploreCounters &counters = exploreCounters();
    // Front end once: preprocess/lex/parse/sema run a single time per
    // explorer; every plan reuses the result. (The preprocessed text
    // also feeds the Fig 4a LoC metric.)
    uint64_t t0 = nowNs();
    glsl::CompiledShader cs =
        glsl::compileShader(shader.source, shader.defines);
    counters.frontEndRuns.fetch_add(1, std::memory_order_relaxed);
    counters.frontEndNs.fetch_add(nowNs() - t0,
                                  std::memory_order_relaxed);
    ex_.preprocessedOriginal = cs.preprocessedText;

    // Lower once: every plan walks from the applier's clone of this
    // module, which is behaviourally identical to re-lowering (clone
    // preserves structure and ids exactly).
    t0 = nowNs();
    auto base = lower::lowerShader(cs);
    counters.lowerRuns.fetch_add(1, std::memory_order_relaxed);
    counters.lowerNs.fetch_add(nowNs() - t0, std::memory_order_relaxed);
    t0 = nowNs();
    applier_.root(*base);
    account(passes::FlagTreeStats{}, nowNs() - t0);
    for (size_t i = 0; i < ex_.variants.size(); ++i)
        byTextHash_.emplace(ex_.variants[i].sourceHash,
                            static_cast<int>(i));
}

PlanExplorer::~PlanExplorer() = default;

void
PlanExplorer::account(const passes::FlagTreeStats &before, uint64_t ns)
{
    const passes::FlagTreeStats &now = applier_.stats();
    ExploreCounters &counters = exploreCounters();
    counters.pipelineNs.fetch_add(
        ns - (now.fingerprintNs - before.fingerprintNs),
        std::memory_order_relaxed);
    counters.passRuns.fetch_add(now.passRuns - before.passRuns,
                                std::memory_order_relaxed);
    counters.passMemoHits.fetch_add(
        now.passMemoHits - before.passMemoHits,
        std::memory_order_relaxed);
    counters.fingerprintRuns.fetch_add(
        now.fingerprintRuns - before.fingerprintRuns,
        std::memory_order_relaxed);
    counters.fingerprintNs.fetch_add(
        now.fingerprintNs - before.fingerprintNs,
        std::memory_order_relaxed);
    counters.arenaBytes.fetch_add(now.arenaBytes - before.arenaBytes,
                                  std::memory_order_relaxed);
}

int
PlanExplorer::ensure(const passes::PassPlan &plan)
{
    // Canonical plans are flag subsets; the lattice exploration
    // already owns their variants.
    if (plan.isCanonical()) {
        auto it = ex_.variantOfCombo.find(plan.mask());
        if (it != ex_.variantOfCombo.end())
            return it->second;
    }
    const std::string key = plan.str();
    auto pit = ex_.variantOfPlan.find(key);
    if (pit != ex_.variantOfPlan.end())
        return pit->second;
    std::string why;
    if (!plan.valid(&why)) {
        throw std::invalid_argument("PlanExplorer: invalid plan '" +
                                    key + "': " + why);
    }

    ExploreCounters &counters = exploreCounters();
    const passes::FlagTreeStats before = applier_.stats();
    const uint64_t t0 = nowNs();
    const passes::PlanApplier::Node node = applier_.walk(plan);
    account(before, nowNs() - t0);
    ++plansWalked_;
    counters.plansWalked.fetch_add(1, std::memory_order_relaxed);

    // Dedup against every variant seen so far: plans converging to an
    // existing text (canonical or plan-born) share its index.
    Printed printed = printCounted(*node.module);
    auto hit = byTextHash_.find(printed.hash);
    int index;
    if (hit == byTextHash_.end()) {
        index = static_cast<int>(ex_.variants.size());
        byTextHash_.emplace(printed.hash, index);
        Variant v;
        // A copy, not a move: it leaves emitGlsl's spare capacity
        // behind instead of keeping it for the exploration's lifetime.
        v.source = printed.text;
        v.sourceHash = printed.hash;
        ex_.variants.push_back(std::move(v));
    } else {
        index = hit->second;
        counters.fingerprintHits.fetch_add(1,
                                           std::memory_order_relaxed);
    }
    if (plan.isCanonical())
        ex_.variantOfCombo.emplace(plan.mask(), index);
    else
        ex_.variantOfPlan.emplace(key, index);
    return index;
}

} // namespace gsopt::tuner
