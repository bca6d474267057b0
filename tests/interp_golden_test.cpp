/**
 * @file
 * Golden equivalence between the two interpreters: across corpus
 * shaders and a sample of pass combinations, the one-shot
 * `ir::interpret` (one batched lane) must produce *bit-identical*
 * results to the map-based reference engine (same outputs, same
 * discard behaviour, same dynamic instruction count) — and the batched
 * SIMT engine must produce bit-identical per-lane results to the
 * reference on every corpus shader under every combination of the full
 * pass registry.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "corpus/corpus.h"
#include "glsl/frontend.h"
#include "ir/interp.h"
#include "ir/interp_batch.h"
#include "lower/lower.h"
#include "passes/passes.h"
#include "passes/registry.h"
#include "runtime/framework.h"
#include "tuner/flags.h"

namespace gsopt {
namespace {

/** Shaders spanning the corpus families: loops + const arrays,
 * branches, textures, übershader specialisation, generic loops. */
const char *kShaders[] = {
    "blur/weighted9", "simple/grayscale", "tonemap/aces",
    "toon/bands3",    "deferred/lights4", "pbr/full",
    "fxaa/high",      "uber/car_chase",
};

/** Pass combinations sampling the flag space: none, defaults, all,
 * each flag alone, and a few mixed sets. */
std::vector<tuner::FlagSet>
sampleFlagSets()
{
    std::vector<tuner::FlagSet> out = {
        tuner::FlagSet::none(),
        tuner::FlagSet::lunarGlassDefaults(),
        tuner::FlagSet::all(),
    };
    for (int bit = 0; bit < passes::kBuiltinPassCount; ++bit)
        out.push_back(tuner::FlagSet::none().with(bit));
    out.push_back(tuner::FlagSet(0b01010101));
    out.push_back(tuner::FlagSet(0b10101010));
    out.push_back(tuner::FlagSet(0b11000011));
    return out;
}

void
expectBitIdentical(const ir::InterpResult &got,
                   const ir::InterpResult &want, const char *what)
{
    ASSERT_EQ(got.discarded, want.discarded) << what;
    ASSERT_EQ(got.executedInstructions, want.executedInstructions)
        << what;
    ASSERT_EQ(got.outputs.size(), want.outputs.size()) << what;
    for (const auto &[name, lanes] : want.outputs) {
        const auto &g = got.outputs.at(name);
        ASSERT_EQ(g.size(), lanes.size()) << what << " " << name;
        for (size_t k = 0; k < lanes.size(); ++k) {
            // EXPECT_EQ on doubles is exact — bit-identity, not
            // tolerance.
            EXPECT_EQ(g[k], lanes[k])
                << what << " " << name << "[" << k << "]";
        }
    }
}

TEST(InterpGolden, InterpretMatchesMapReferenceAcrossCorpus)
{
    for (const char *name : kShaders) {
        const corpus::CorpusShader *shader = corpus::findShader(name);
        ASSERT_NE(shader, nullptr) << name;
        glsl::CompiledShader cs =
            glsl::compileShader(shader->source, shader->defines);

        // A handful of probe environments: the framework default plus
        // perturbed fragment positions.
        std::vector<ir::InterpEnv> envs;
        envs.push_back(runtime::defaultEnvironmentCached(cs.interface));
        for (double p : {0.15, 0.85}) {
            ir::InterpEnv env = envs.front();
            for (auto &[k, v] : env.inputs) {
                for (size_t c = 0; c < v.size(); ++c)
                    v[c] = p + 0.1 * static_cast<double>(c);
            }
            envs.push_back(std::move(env));
        }

        for (const tuner::FlagSet &flags : sampleFlagSets()) {
            auto module = lower::lowerShader(cs);
            passes::optimize(*module, flags);
            for (const ir::InterpEnv &env : envs) {
                auto fast = ir::interpret(*module, env);
                auto gold = ir::interpretReference(*module, env);
                expectBitIdentical(
                    fast, gold,
                    (std::string(name) + " " + flags.str()).c_str());
            }
        }
    }
}

TEST(InterpGolden, BatchedMatchesScalarOnEveryCorpusShaderAllCombos)
{
    // The acceptance pin for the batched engine: EVERY corpus shader,
    // EVERY combination of the FULL pass registry (walked as lattice
    // plans through the memoized applier, so each distinct module is
    // checked once), with 4 probe lanes spanning the default
    // environment and perturbed inputs. Each distinct module gets one
    // batched run; a lane chosen by the module's fingerprint is then
    // re-run on the map reference engine and compared bit-for-bit —
    // outputs, discard flag, and dynamic instruction count. Across the
    // corpus the rotation covers all lanes many times over.
    passes::ScopedExtraPasses extras;
    constexpr size_t kLanes = 4;

    size_t modulesChecked = 0;
    for (const auto &shader : corpus::corpus()) {
        glsl::CompiledShader cs =
            glsl::compileShader(shader.source, shader.defines);
        auto base = lower::lowerShader(cs);

        ir::BatchEnv benv = ir::BatchEnv::broadcast(
            runtime::defaultEnvironmentCached(cs.interface), kLanes);
        const double perturb[kLanes] = {0.0, 0.15, 0.5, 0.85};
        for (size_t l = 1; l < kLanes; ++l) {
            for (auto &[name, in] : benv.inputs) {
                ir::LaneVector v(in.comps);
                for (size_t c = 0; c < in.comps; ++c)
                    v[c] = perturb[l] +
                           0.1 * static_cast<double>(c);
                benv.setLaneInput(name, l, v);
            }
        }
        std::vector<ir::InterpEnv> envs;
        for (size_t l = 0; l < kLanes; ++l)
            envs.push_back(benv.laneEnv(l));

        std::unordered_set<uint64_t> seen;
        passes::forEachPlan(
            *base, passes::latticePlans(),
            [&](const passes::PassPlan &, const ir::Module &m,
                uint64_t fp) {
                if (!seen.insert(fp).second)
                    return; // distinct modules only
                const ir::BatchResult batch =
                    ir::interpretBatch(m, benv);
                const size_t lane = static_cast<size_t>(fp % kLanes);
                expectBitIdentical(
                    batch.laneResult(lane),
                    ir::interpretReference(m, envs[lane]),
                    (shader.name + " lane " + std::to_string(lane))
                        .c_str());
                ++modulesChecked;
            });
    }
    // The walk must have produced a meaningful number of distinct
    // optimised modules across the corpus, or the pin is vacuous.
    EXPECT_GE(modulesChecked, 500u);
}

TEST(InterpGolden, ExploredVariantsMatchOnClonedModules)
{
    // The compile-once pipeline interprets clones; pin that a cloned
    // module's execution matches the original's reference run.
    const corpus::CorpusShader &shader = corpus::motivatingExample();
    glsl::CompiledShader cs =
        glsl::compileShader(shader.source, shader.defines);
    auto base = lower::lowerShader(cs);
    const ir::InterpEnv &env =
        runtime::defaultEnvironmentCached(cs.interface);

    auto want = ir::interpretReference(*base, env);
    for (const tuner::FlagSet &flags : sampleFlagSets()) {
        auto clone = base->clone();
        passes::optimize(*clone, flags);
        auto got = ir::interpret(*clone, env);
        // Optimised clones keep semantics up to FP reassociation;
        // the *unsafe* flags may legitimately change bits, so compare
        // only the safe sets bit-exactly.
        if (flags.has(tuner::kFpReassociate) ||
            flags.has(tuner::kDivToMul))
            continue;
        ASSERT_EQ(got.discarded, want.discarded);
        for (const auto &[name, lanes] : want.outputs) {
            const auto &g = got.outputs.at(name);
            ASSERT_EQ(g.size(), lanes.size());
            for (size_t k = 0; k < lanes.size(); ++k)
                EXPECT_NEAR(g[k], lanes[k],
                            1e-9 * (1.0 + std::fabs(lanes[k])))
                    << name << "[" << k << "] " << flags.str();
        }
    }
}

} // namespace
} // namespace gsopt
