/**
 * @file
 * Ordered-plan tests: PassPlan's canonical/string/parse algebra, the
 * forEachPlan walk delivering bit-identical modules to the linear
 * pipeline for canonical plans, the PlanApplier's prefix reuse taking
 * the lattice's 2^N - 1 tree edges and its memo collapsing
 * permutations onto distinct (module, pass) edges, and PlanExplorer
 * layering on-demand plan exploration over an Exploration without
 * disturbing the flag-lattice contract.
 */
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>

#include "corpus/corpus.h"
#include "emit/emit.h"
#include "emit/offline.h"
#include "ir/dump.h"
#include "passes/passes.h"
#include "passes/registry.h"
#include "tuner/explore.h"

namespace gsopt {
namespace {

using passes::PassPlan;
using passes::PassRegistry;

TEST(PassPlan, CanonicalOfListsSelectionInPipelineOrder)
{
    PassRegistry &reg = PassRegistry::instance();
    if (reg.count() != 8)
        GTEST_SKIP() << "string pins cover the built-in eight; "
                        "GSOPT_EXTRA_PASSES widens the registry";

    // The empty plan: mask 0, canonical, prints as "-".
    const PassPlan none = PassPlan::canonicalOf(0);
    EXPECT_TRUE(none.empty());
    EXPECT_TRUE(none.isCanonical());
    EXPECT_EQ(none.str(), "-");

    // Every mask round-trips through canonicalOf, and the member bits
    // come out in registry pipeline order, not bit order.
    for (uint64_t mask : {0x13ull, 0xffull, 0x80ull, 0x05ull}) {
        const PassPlan plan = PassPlan::canonicalOf(mask);
        EXPECT_EQ(plan.mask(), mask);
        EXPECT_TRUE(plan.isCanonical());
        EXPECT_TRUE(plan.valid());
        int prev_position = -1;
        for (int bit : plan.bits) {
            EXPECT_GT(reg.pass(bit).position, prev_position);
            prev_position = reg.pass(bit).position;
        }
    }

    // The full canonical plan spells the historical pipeline order.
    EXPECT_EQ(PassPlan::canonicalOf(0xff).str(),
              "unroll>hoist>coalesce>reassociate>fp_reassociate"
              ">div_to_mul>gvn>adce");
}

TEST(PassPlan, StrParseRoundTripAndRejection)
{
    // Round trip for canonical and non-canonical plans alike.
    for (const PassPlan &plan :
         {PassPlan::canonicalOf(0xff), PassPlan::canonicalOf(0),
          PassPlan{{passes::kGvn, passes::kUnroll}},
          PassPlan{{passes::kAdce}}}) {
        PassPlan parsed;
        ASSERT_TRUE(PassPlan::parse(plan.str(), parsed))
            << plan.str();
        EXPECT_EQ(parsed, plan) << plan.str();
    }

    // Whitespace around ids is tolerated.
    PassPlan spaced;
    ASSERT_TRUE(PassPlan::parse(" unroll > gvn ", spaced));
    EXPECT_EQ(spaced.str(), "unroll>gvn");

    // Unknown ids, duplicates, and empty segments are rejected and
    // leave the output untouched.
    PassPlan out{{passes::kAdce}};
    const PassPlan before = out;
    EXPECT_FALSE(PassPlan::parse("unroll>nosuchpass", out));
    EXPECT_FALSE(PassPlan::parse("unroll>unroll", out));
    EXPECT_FALSE(PassPlan::parse("unroll>>gvn", out));
    EXPECT_EQ(out, before);
}

TEST(PassPlan, ValidNamesTheOffendingBit)
{
    // Duplicate bit.
    std::string why;
    const PassPlan dup{{passes::kGvn, passes::kGvn}};
    EXPECT_FALSE(dup.valid(&why));
    EXPECT_NE(why.find("gvn"), std::string::npos) << why;

    // Unregistered bit (beyond the live registry).
    const int dead_bit =
        static_cast<int>(PassRegistry::instance().count());
    why.clear();
    EXPECT_FALSE(PassPlan{{dead_bit}}.valid(&why));
    EXPECT_FALSE(why.empty());

    // Ordering alone never invalidates: any permutation of
    // registered bits is a valid plan.
    const PassPlan reversed{
        {passes::kAdce, passes::kUnroll}};
    EXPECT_TRUE(reversed.valid());
}

/** Apply edges a prefix-reusing walk of @p plans takes: each plan's
 * length less the prefix it shares with the plan before it. */
uint64_t
stepsWithPrefixReuse(const std::vector<PassPlan> &plans)
{
    uint64_t steps = 0;
    const PassPlan *prev = nullptr;
    for (const PassPlan &plan : plans) {
        size_t shared = 0;
        while (prev && shared < prev->length() &&
               shared < plan.length() &&
               prev->bits[shared] == plan.bits[shared])
            ++shared;
        steps += plan.length() - shared;
        prev = &plan;
    }
    return steps;
}

TEST(PlanWalk, CanonicalPlansMatchLinearPipelineByteForByte)
{
    // forEachPlan over every canonical plan, in numeric mask order,
    // must reproduce optimize() exactly — the flag lattice really is
    // the canonical-order special case of the plan space.
    const corpus::CorpusShader &shader =
        *corpus::findShader("toon/bands3");
    auto base = emit::compileToIr(shader.source, shader.defines);

    std::vector<PassPlan> plans;
    const uint64_t combos = PassRegistry::instance().comboCount();
    for (uint64_t mask = 0; mask < combos; ++mask)
        plans.push_back(PassPlan::canonicalOf(mask));

    std::map<uint64_t, std::string> plan_text;
    passes::FlagTreeStats stats;
    passes::forEachPlan(
        *base, plans,
        [&](const PassPlan &plan, const ir::Module &module, uint64_t) {
            plan_text[plan.mask()] = emit::emitGlsl(module);
        },
        &stats);
    ASSERT_EQ(plan_text.size(), combos);

    for (uint64_t mask = 0; mask < combos; ++mask) {
        auto linear = base->clone();
        passes::optimize(*linear, passes::FlagSet(mask));
        EXPECT_EQ(emit::emitGlsl(*linear), plan_text.at(mask))
            << PassPlan::canonicalOf(mask).str();
    }

    // Every step the walk takes beyond the prefix it reuses is one
    // apply edge, and the memo must hold executed pass runs far below
    // that total.
    EXPECT_EQ(stats.passRuns + stats.passMemoHits,
              stepsWithPrefixReuse(plans));
    EXPECT_LT(stats.passRuns, combos);
    EXPECT_GT(stats.passMemoHits, stats.passRuns);
}

TEST(PlanWalk, LatticeTakesTheTreesEdgesAndMatchesOptimize)
{
    // The lattice in its enumeration order: every mask once, each as
    // its canonical plan, and a prefix-reusing walk takes exactly the
    // prefix tree's 2^N - 1 apply edges — at any registry width.
    const std::vector<PassPlan> plans = passes::latticePlans();
    const uint64_t combos = PassRegistry::instance().comboCount();
    ASSERT_EQ(plans.size(), combos);
    std::set<uint64_t> masks;
    for (const PassPlan &plan : plans) {
        EXPECT_TRUE(plan.isCanonical()) << plan.str();
        masks.insert(plan.mask());
    }
    EXPECT_EQ(masks.size(), combos);
    EXPECT_TRUE(plans.front().empty());

    const corpus::CorpusShader &shader =
        *corpus::findShader("simple/grayscale");
    auto base = emit::compileToIr(shader.source, shader.defines);
    uint64_t delivered = 0;
    passes::FlagTreeStats stats;
    passes::forEachPlan(
        *base, plans,
        [&](const PassPlan &plan, const ir::Module &module, uint64_t) {
            ++delivered;
            auto linear = base->clone();
            passes::optimize(*linear, passes::FlagSet(plan.mask()));
            ASSERT_EQ(ir::dump(*linear), ir::dump(module)) << plan.str();
        },
        &stats);
    EXPECT_EQ(delivered, combos);
    EXPECT_EQ(stats.passRuns + stats.passMemoHits, combos - 1);
    EXPECT_EQ(stepsWithPrefixReuse(plans), combos - 1);
}

TEST(PlanWalk, PermutationsShareDistinctEdgesThroughTheMemo)
{
    const corpus::CorpusShader &shader =
        *corpus::findShader("blur/weighted9");
    auto base = emit::compileToIr(shader.source, shader.defines);

    // All 6 orderings of {unroll, gvn, fp_reassociate}.
    const int u = passes::kUnroll;
    const int g = passes::kGvn;
    const int f = passes::kFpReassociate;
    std::vector<PassPlan> plans = {
        PassPlan{{u, g, f}}, PassPlan{{u, f, g}}, PassPlan{{g, u, f}},
        PassPlan{{g, f, u}}, PassPlan{{f, u, g}}, PassPlan{{f, g, u}},
    };

    size_t delivered = 0;
    passes::FlagTreeStats stats;
    passes::forEachPlan(
        *base, plans,
        [&](const PassPlan &, const ir::Module &, uint64_t) {
            ++delivered;
        },
        &stats);
    EXPECT_EQ(delivered, plans.size());

    // Prefix reuse walks 3 + 2 steps per first pass: 15 apply edges,
    // every one accounted as exactly one of run/hit. No two of them
    // share a plan prefix and pass, so each memo hit is convergence:
    // orders that reach content-identical IR share the edges out of
    // it (on this shader some passes fire on nothing).
    const uint64_t steps = stepsWithPrefixReuse(plans);
    EXPECT_EQ(steps, 15u);
    EXPECT_EQ(stats.passRuns + stats.passMemoHits, steps);
    EXPECT_GE(stats.passMemoHits, 3u);
    EXPECT_LT(stats.passRuns, steps);
}

TEST(PlanExplorer, CanonicalPlansResolveWithoutPassWork)
{
    tuner::Exploration ex =
        tuner::exploreShader(*corpus::findShader("blur/weighted9"));
    const size_t unique_before = ex.uniqueCount();

    tuner::PlanExplorer planner(*corpus::findShader("blur/weighted9"),
                                ex);
    // Canonical plans are flag subsets: resolved from variantOfCombo,
    // no walk, no new variants, no plan annotation.
    const PassPlan canon = PassPlan::canonicalOf(0x13);
    EXPECT_EQ(planner.ensure(canon),
              ex.variantOf(tuner::FlagSet(0x13)));
    EXPECT_EQ(planner.plansWalked(), 0u);
    EXPECT_EQ(ex.uniqueCount(), unique_before);
    EXPECT_TRUE(ex.variantOfPlan.empty());
}

TEST(PlanExplorer, NonCanonicalPlansDedupAnnotateAndCache)
{
    const corpus::CorpusShader &shader =
        *corpus::findShader("simple/grayscale");
    tuner::Exploration ex = tuner::exploreShader(shader);
    const size_t unique_before = ex.uniqueCount();

    tuner::PlanExplorer planner(shader, ex);

    // adce>gvn is non-canonical (pipeline order is gvn before adce);
    // on grayscale both fire on nothing, so the walk converges to the
    // canonical {adce, gvn} text and dedups against it — a plan
    // annotation, not a new variant.
    const PassPlan plan{{passes::kAdce, passes::kGvn}};
    ASSERT_FALSE(plan.isCanonical());
    const int v = planner.ensure(plan);
    EXPECT_EQ(v, ex.variantOf(tuner::FlagSet(plan.mask())));
    EXPECT_EQ(ex.uniqueCount(), unique_before);
    EXPECT_EQ(planner.plansWalked(), 1u);
    ASSERT_EQ(ex.variantOfPlan.count(plan.str()), 1u);
    EXPECT_EQ(ex.variantOfPlan.at(plan.str()), v);

    // Exploration::variantOf(plan) now resolves it; the repeat
    // ensure is a cache hit (no second walk).
    EXPECT_EQ(ex.variantOf(plan), v);
    EXPECT_EQ(planner.ensure(plan), v);
    EXPECT_EQ(planner.plansWalked(), 1u);

    // Unknown plans still throw from the bare Exploration.
    const PassPlan unknown{
        {passes::kDivToMul, passes::kUnroll}};
    EXPECT_THROW(ex.variantOf(unknown), std::out_of_range);

    // Invalid plans are rejected up front.
    EXPECT_THROW(
        planner.ensure(PassPlan{
            {passes::kGvn, passes::kGvn}}),
        std::invalid_argument);
}

TEST(PlanExplorer, PrefixReuseDoesNotShowInVariants)
{
    // One explorer walks plans that share prefixes (resuming each from
    // the previous walk); a fresh explorer per plan walks each from
    // the root. Both must assign the same variant indices and texts.
    const corpus::CorpusShader &shader =
        *corpus::findShader("blur/weighted9");
    const int u = passes::kUnroll;
    const int g = passes::kGvn;
    const int f = passes::kFpReassociate;
    const int c = passes::kCoalesce;
    const int d = passes::kDivToMul;
    const std::vector<PassPlan> plans = {
        PassPlan{{g, u, f}}, PassPlan{{g, u, c}}, PassPlan{{g, u}},
        PassPlan{{g, f, u, c}}, PassPlan{{f, g, u}},
        PassPlan{{f, g, d, u}}, PassPlan{{f, u, g}},
    };

    tuner::Exploration shared_ex = tuner::exploreShader(shader);
    tuner::Exploration fresh_ex = shared_ex;
    const size_t unique_before = shared_ex.uniqueCount();
    tuner::PlanExplorer shared(shader, shared_ex);
    for (const PassPlan &plan : plans) {
        tuner::PlanExplorer fresh(shader, fresh_ex);
        const int v = shared.ensure(plan);
        EXPECT_EQ(v, fresh.ensure(plan)) << plan.str();
        EXPECT_EQ(shared_ex.variants[v].source,
                  fresh_ex.variants[v].source)
            << plan.str();
    }
    EXPECT_EQ(shared.plansWalked(), plans.size());
    // Some plan reaches a text no flag subset does, so indices were
    // assigned, not only looked up.
    EXPECT_GT(shared_ex.uniqueCount(), unique_before);
    EXPECT_EQ(shared_ex.uniqueCount(), fresh_ex.uniqueCount());
    EXPECT_EQ(shared_ex.variantOfPlan, fresh_ex.variantOfPlan);
}

TEST(PlanExplorer, OrderingCanReachTextNoFlagSubsetProduces)
{
    // The mechanistic ordering win (N=11): licm *before* unroll
    // shrinks godrays/march64_spectral's over-budget loop body below
    // unroll's instruction budget, so the loop unrolls fully — in the
    // canonical order unroll runs first and declines. The resulting
    // text differs from every flag subset: a plan-only variant with
    // no producers, valid precisely because variantOfPlan references
    // it.
    passes::ScopedExtraPasses extras;
    const int licm = PassRegistry::instance().bitOf("licm");
    ASSERT_GE(licm, 0);

    const corpus::CorpusShader &shader =
        *corpus::findShader("godrays/march64_spectral");
    tuner::Exploration ex = tuner::exploreShader(shader);
    const size_t unique_before = ex.uniqueCount();

    tuner::PlanExplorer planner(shader, ex);
    const PassPlan plan{{licm, passes::kUnroll}};
    ASSERT_FALSE(plan.isCanonical());
    const int v = planner.ensure(plan);
    ASSERT_GE(v, 0);
    ASSERT_LT(static_cast<size_t>(v), ex.uniqueCount());
    EXPECT_EQ(ex.variantOfPlan.at(plan.str()), v);

    // A genuinely new text, reachable by no flag subset: the variant
    // was appended producerless, and it differs from the canonical
    // order of the same member set (where the loop stays rolled).
    ASSERT_GE(static_cast<size_t>(v), unique_before);
    EXPECT_TRUE(ex.variants[v].producers.empty());
    EXPECT_NE(
        ex.variants[v].source,
        ex.variants[ex.variantOf(tuner::FlagSet(plan.mask()))].source);
}

} // namespace
} // namespace gsopt
