/**
 * @file
 * Unit tests for the catalog passes (licm, strength_reduce, tex_batch)
 * plus the N=11 pipeline property: with all three registered, the
 * lattice plan walk stays byte-identical to the linear optimize()
 * pipeline over the whole 2048-combination space.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "corpus/corpus.h"
#include "emit/emit.h"
#include "emit/offline.h"
#include "ir/interp.h"
#include "ir/verifier.h"
#include "ir/walk.h"
#include "passes/registry.h"
#include "support/rng.h"
#include "tuner/flags.h"

namespace gsopt {
namespace {

using ir::InterpEnv;
using passes::PassRegistry;
using tuner::FlagSet;

std::unique_ptr<ir::Module>
build(const std::string &src)
{
    auto m = emit::compileToIr(src);
    passes::canonicalize(*m);
    return m;
}

size_t
countOps(const ir::Module &m, ir::Opcode op)
{
    size_t n = 0;
    ir::forEachInstr(m.body,
                     [&](const ir::Instr &i) { n += i.op == op; });
    return n;
}

/** Instructions living inside loop bodies (any nesting). */
size_t
instrsInLoops(const ir::Module &m)
{
    size_t n = 0;
    ir::forEachNode(const_cast<ir::Module &>(m).body,
                    [&](ir::Node &node) {
                        if (auto *l = ir::dyn_cast<ir::LoopNode>(&node))
                            n += l->body.instructionCount();
                    });
    return n;
}

/** Ops of one kind inside loop bodies. */
size_t
opsInLoops(const ir::Module &m, ir::Opcode op)
{
    size_t n = 0;
    ir::forEachNode(const_cast<ir::Module &>(m).body,
                    [&](ir::Node &node) {
                        auto *l = ir::dyn_cast<ir::LoopNode>(&node);
                        if (!l)
                            return;
                        ir::forEachInstr(
                            l->body,
                            [&](const ir::Instr &i) { n += i.op == op; });
                    });
    return n;
}

InterpEnv
env1()
{
    InterpEnv env;
    env.inputs["uv"] = {0.3, 0.7};
    env.inputs["tone"] = {0.6};
    env.uniforms["gain"] = {1.5};
    return env;
}

void
expectSameOutputs(const ir::Module &before, const ir::Module &after)
{
    const InterpEnv env = env1();
    const auto want = ir::interpretReference(before, env);
    const auto got = ir::interpret(after, env);
    ASSERT_EQ(want.outputs.size(), got.outputs.size());
    for (const auto &[name, lanes] : want.outputs) {
        const auto &g = got.outputs.at(name);
        ASSERT_EQ(g.size(), lanes.size()) << name;
        for (size_t k = 0; k < lanes.size(); ++k)
            EXPECT_NEAR(g[k], lanes[k],
                        1e-9 * (1.0 + std::fabs(lanes[k])))
                << name << "[" << k << "]";
    }
}

/** Run a catalog stage (pass + trailing canonicalize) by id. */
void
applyStage(const char *id, ir::Module &m)
{
    for (const passes::PassDescriptor &d : passes::extraPassCatalog()) {
        if (d.id == id) {
            d.apply(m);
            return;
        }
    }
    FAIL() << "no catalog pass " << id;
}

/** Idempotence after canonicalize: a second stage run is a no-op. */
void
expectStageIdempotent(const char *id, const std::string &src)
{
    auto m = build(src);
    applyStage(id, *m);
    const std::string once = emit::emitGlsl(*m);
    applyStage(id, *m);
    EXPECT_EQ(emit::emitGlsl(*m), once) << id;
}

// ------------------------------------------------------------- licm

const char *kBigLoopSrc = R"(#version 450
in vec2 uv;
in float tone;
out vec4 c;
void main() {
    float acc = 0.0;
    for (int i = 0; i < 100; i++) {
        float inv = sin(uv.x) * 3.0 + cos(uv.y);
        acc += inv * float(i) + tone;
    }
    c = vec4(acc);
}
)";

TEST(Licm, HoistsInvariantTreeOutOfUnrollDeclinedLoop)
{
    auto m = build(kBigLoopSrc);
    auto before = m->clone();
    // 100 trips: unroll's default cap (64) declines this loop.
    ASSERT_EQ(opsInLoops(*m, ir::Opcode::Sin), 1u);

    EXPECT_TRUE(passes::licm(*m));
    passes::canonicalize(*m);
    ir::verifyOrDie(*m, "after licm");

    // The whole sin/cos/mul/add tree moved to the preheader; the
    // counter-dependent accumulation stayed.
    EXPECT_EQ(opsInLoops(*m, ir::Opcode::Sin), 0u);
    EXPECT_EQ(opsInLoops(*m, ir::Opcode::Cos), 0u);
    EXPECT_EQ(countOps(*m, ir::Opcode::Sin), 1u);
    EXPECT_GT(instrsInLoops(*m), 0u);
    expectSameOutputs(*before, *m);
}

TEST(Licm, HoistsLoopConstantTextureFetch)
{
    // Motion, not speculation: trips >= 1 means the fetch ran anyway.
    auto m = build(R"(#version 450
in vec2 uv;
uniform sampler2D tex;
out vec4 c;
void main() {
    float acc = 0.0;
    for (int i = 0; i < 80; i++) {
        acc += texture(tex, uv).x * float(i);
    }
    c = vec4(acc);
}
)");
    auto before = m->clone();
    ASSERT_EQ(opsInLoops(*m, ir::Opcode::Texture), 1u);
    EXPECT_TRUE(passes::licm(*m));
    passes::canonicalize(*m);
    ir::verifyOrDie(*m, "after licm");
    EXPECT_EQ(opsInLoops(*m, ir::Opcode::Texture), 0u);
    EXPECT_EQ(countOps(*m, ir::Opcode::Texture), 1u);
    expectSameOutputs(*before, *m);
}

TEST(Licm, BubblesInvariantsOutOfANest)
{
    auto m = build(R"(#version 450
in vec2 uv;
out vec4 c;
void main() {
    float acc = 0.0;
    for (int i = 0; i < 70; i++) {
        for (int j = 0; j < 70; j++) {
            acc += sqrt(uv.x + 2.0) * float(i + j);
        }
    }
    c = vec4(acc);
}
)");
    auto before = m->clone();
    EXPECT_TRUE(passes::licm(*m));
    passes::canonicalize(*m);
    ir::verifyOrDie(*m, "after licm");
    // sqrt(uv.x + 2.0) depends on neither counter: it must leave both
    // loops, not just the inner one.
    EXPECT_EQ(opsInLoops(*m, ir::Opcode::Sqrt), 0u);
    expectSameOutputs(*before, *m);
}

TEST(Licm, DoesNotFire)
{
    // Everything depends on the counter: nothing to hoist.
    auto counter_dep = build(R"(#version 450
out vec4 c;
void main() {
    float acc = 0.0;
    for (int i = 0; i < 100; i++) {
        acc += sin(float(i));
    }
    c = vec4(acc);
}
)");
    EXPECT_FALSE(passes::licm(*counter_dep));

    // Generic (non-canonical) loop: the body may never execute, so
    // moving code out would be speculation.
    auto generic = build(R"(#version 450
in float tone;
out vec4 c;
void main() {
    float acc = 0.0;
    int i = 0;
    while (acc < tone) {
        acc += sin(tone) * 0.25 + 0.1;
        i = i + 1;
    }
    c = vec4(acc);
}
)");
    const std::string before = emit::emitGlsl(*generic);
    EXPECT_FALSE(passes::licm(*generic));
    EXPECT_EQ(emit::emitGlsl(*generic), before);

    // Loads of a variable the loop stores stay put.
    auto stored = build(R"(#version 450
in float tone;
out vec4 c;
void main() {
    float acc = tone;
    for (int i = 0; i < 100; i++) {
        acc = acc * 0.5 + 0.25;
    }
    c = vec4(acc);
}
)");
    EXPECT_FALSE(passes::licm(*stored));
}

TEST(Licm, IdempotentAfterCanonicalize)
{
    expectStageIdempotent("licm", kBigLoopSrc);
}

// -------------------------------------------------- strength_reduce

TEST(StrengthReduce, PowSmallIntBecomesMultiplyChain)
{
    auto m = build(R"(#version 450
in float tone;
out vec4 c;
void main() {
    float a = pow(tone + 1.5, 2.0);
    float b = pow(tone + 1.5, 3.0);
    vec3 v = pow(vec3(tone + 2.0), vec3(4.0));
    c = vec4(a + b + v.x, v.yz, pow(tone + 1.2, 2.5));
}
)");
    auto before = m->clone();
    ASSERT_EQ(countOps(*m, ir::Opcode::Pow), 4u);
    EXPECT_TRUE(passes::strengthReduce(*m));
    passes::canonicalize(*m);
    ir::verifyOrDie(*m, "after strength_reduce");
    // The fractional exponent stays; the integer ones are mul chains.
    EXPECT_EQ(countOps(*m, ir::Opcode::Pow), 1u);
    expectSameOutputs(*before, *m);
}

TEST(StrengthReduce, IntMulByPowerOfTwoBecomesAddChain)
{
    auto m = build(R"(#version 450
in float tone;
out vec4 c;
void main() {
    int x = int(tone * 10.0);
    int j = x * 4;
    c = vec4(float(j));
}
)");
    auto before = m->clone();
    ASSERT_EQ(countOps(*m, ir::Opcode::Mul), 2u); // tone*10, x*4
    EXPECT_TRUE(passes::strengthReduce(*m));
    passes::canonicalize(*m);
    ir::verifyOrDie(*m, "after strength_reduce");
    // x*4 became two doublings; the float multiply is untouched.
    EXPECT_EQ(countOps(*m, ir::Opcode::Mul), 1u);
    EXPECT_GE(countOps(*m, ir::Opcode::Add), 2u);
    expectSameOutputs(*before, *m);
}

TEST(StrengthReduce, RefoldsIndexRecompute)
{
    // x*3 + x*5 -> x*8 -> three doublings: the index-arithmetic
    // refold feeding the power-of-two rule at the fixpoint.
    auto m = build(R"(#version 450
in float tone;
out vec4 c;
void main() {
    int x = int(tone * 9.0);
    int j = x * 3 + x * 5;
    c = vec4(float(j));
}
)");
    auto before = m->clone();
    EXPECT_TRUE(passes::strengthReduce(*m));
    passes::canonicalize(*m);
    ir::verifyOrDie(*m, "after strength_reduce");
    size_t int_muls = 0;
    ir::forEachInstr(m->body, [&](const ir::Instr &i) {
        int_muls += i.op == ir::Opcode::Mul && i.type.isInt();
    });
    EXPECT_EQ(int_muls, 0u);
    expectSameOutputs(*before, *m);
}

TEST(StrengthReduce, DoesNotFire)
{
    // Non-constant exponent, non-power-of-two factor, float multiply,
    // plain x+x: all outside the rules.
    auto m = build(R"(#version 450
in float tone;
in vec2 uv;
out vec4 c;
void main() {
    int x = int(tone * 7.0);
    int j = x * 3;
    int k = x + x;
    c = vec4(pow(uv.x + 1.5, uv.y), float(j + k), uv);
}
)");
    const std::string before = emit::emitGlsl(*m);
    EXPECT_FALSE(passes::strengthReduce(*m));
    EXPECT_EQ(emit::emitGlsl(*m), before);
}

TEST(StrengthReduce, IdempotentAfterCanonicalize)
{
    expectStageIdempotent("strength_reduce", R"(#version 450
in float tone;
out vec4 c;
void main() {
    int x = int(tone * 10.0);
    int j = x * 3 + x * 5;
    c = vec4(pow(tone + 1.5, 3.0) + float(j));
}
)");
}

// -------------------------------------------------------- tex_batch

const char *kDupFetchSrc = R"(#version 450
in vec2 uv;
in float tone;
uniform sampler2D tex;
out vec4 c;
void main() {
    vec4 a = texture(tex, uv);
    vec4 b = vec4(0.25);
    if (tone > 0.5) {
        b = texture(tex, uv) * 2.0;
    }
    c = a + b;
}
)";

TEST(TexBatch, BatchesCrossBlockDuplicateFetch)
{
    auto m = build(kDupFetchSrc);
    auto before = m->clone();
    // The arm's fetch is a duplicate of the dominating one, but lives
    // in another block: local CSE cannot see it.
    ASSERT_EQ(countOps(*m, ir::Opcode::Texture), 2u);
    EXPECT_TRUE(passes::texBatch(*m));
    passes::canonicalize(*m);
    ir::verifyOrDie(*m, "after tex_batch");
    EXPECT_EQ(countOps(*m, ir::Opcode::Texture), 1u);
    expectSameOutputs(*before, *m);
}

TEST(TexBatch, LoopConstantFetchCollapsesOntoDominatingFetch)
{
    auto m = build(R"(#version 450
in vec2 uv;
uniform sampler2D tex;
out vec4 c;
void main() {
    vec4 base = texture(tex, uv);
    float acc = 0.0;
    for (int i = 0; i < 72; i++) {
        acc += texture(tex, uv).y * float(i);
    }
    c = base + vec4(acc);
}
)");
    auto before = m->clone();
    ASSERT_EQ(countOps(*m, ir::Opcode::Texture), 2u);
    EXPECT_TRUE(passes::texBatch(*m));
    passes::canonicalize(*m);
    ir::verifyOrDie(*m, "after tex_batch");
    // One issue total: the body fetch reuses the pre-loop lanes.
    EXPECT_EQ(countOps(*m, ir::Opcode::Texture), 1u);
    EXPECT_EQ(opsInLoops(*m, ir::Opcode::Texture), 0u);
    expectSameOutputs(*before, *m);
}

TEST(TexBatch, DoesNotFire)
{
    // Different coordinates, different samplers, and sibling if-arms
    // (neither dominates the other) must all keep their fetches.
    auto m = build(R"(#version 450
in vec2 uv;
in float tone;
uniform sampler2D tex;
uniform sampler2D tex2;
out vec4 c;
void main() {
    vec4 a = texture(tex, uv);
    vec4 b = texture(tex, uv * 2.0);
    vec4 d = texture(tex2, uv);
    vec4 e = vec4(0.0);
    if (tone > 0.5) {
        e = texture(tex, uv + 0.25);
    } else {
        e = texture(tex, uv + 0.25) * 0.5;
    }
    c = a + b + d + e;
}
)");
    ASSERT_EQ(countOps(*m, ir::Opcode::Texture), 5u);
    passes::texBatch(*m);
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Texture), 5u);
}

TEST(TexBatch, IdempotentAfterCanonicalize)
{
    expectStageIdempotent("tex_batch", kDupFetchSrc);
}

// ------------------------------------------- N=11 pipeline property

TEST(ElevenPassSpace, TreeMatchesLinearOnEveryCorpusShader)
{
    // Whole-corpus coverage at N=11: the full 2048-combination cross
    // product lives in the test below on three representatives; here
    // every corpus shader checks the structured combinations plus a
    // seeded random sample against the linear pipeline.
    passes::ScopedExtraPasses extras;
    const passes::PassRegistry &reg = PassRegistry::instance();
    ASSERT_EQ(reg.count(), 11u);

    std::vector<uint64_t> probes = {0, reg.comboCount() - 1,
                                    FlagSet::lunarGlassDefaults().bits};
    for (const passes::PassDescriptor &d : passes::extraPassCatalog())
        probes.push_back(1ull << reg.bitOf(d.id));

    for (const corpus::CorpusShader &shader : corpus::corpus()) {
        auto base = emit::compileToIr(shader.source, shader.defines);

        std::set<uint64_t> combos(probes.begin(), probes.end());
        Rng rng(fnv1a(shader.name));
        for (int draw = 0; draw < 8; ++draw)
            combos.insert(rng.below(reg.comboCount()));

        // One walk; text rendered only for the sampled combinations
        // (printing all 2048 leaves per shader would dominate the
        // suite's runtime for no extra coverage).
        uint64_t walked = 0;
        std::map<uint64_t, std::string> tree_text;
        passes::forEachPlan(
            *base, passes::latticePlans(),
            [&](const passes::PassPlan &plan, const ir::Module &module,
                uint64_t) {
                ++walked;
                if (combos.count(plan.mask()))
                    tree_text[plan.mask()] = emit::emitGlsl(module);
            });
        ASSERT_EQ(walked, reg.comboCount()) << shader.name;
        ASSERT_EQ(tree_text.size(), combos.size()) << shader.name;

        for (uint64_t bits : combos) {
            auto linear = base->clone();
            passes::optimize(*linear, FlagSet(bits));
            ASSERT_EQ(emit::emitGlsl(*linear), tree_text.at(bits))
                << shader.name << " " << FlagSet(bits).str();
        }
    }
}

TEST(ElevenPassSpace, TreeMatchesLinearOverTheFullRegistry)
{
    passes::ScopedExtraPasses extras;
    ASSERT_EQ(tuner::flagCount(), 11u);
    ASSERT_EQ(tuner::comboCount(), 2048u);

    for (const char *name :
         {"simple/grayscale", "toon/bands3", "tonemap/aces"}) {
        const corpus::CorpusShader &shader =
            *corpus::findShader(name);
        auto base = emit::compileToIr(shader.source, shader.defines);

        std::map<uint64_t, std::string> tree_text;
        passes::forEachPlan(
            *base, passes::latticePlans(),
            [&](const passes::PassPlan &plan, const ir::Module &module,
                uint64_t) {
                tree_text[plan.mask()] = emit::emitGlsl(module);
            });
        ASSERT_EQ(tree_text.size(), 2048u) << name;

        for (const tuner::FlagSet &flags : tuner::allFlagSets()) {
            auto linear = base->clone();
            passes::optimize(*linear, flags);
            ASSERT_EQ(emit::emitGlsl(*linear), tree_text.at(flags.bits))
                << name << " " << flags.str();
        }
    }
}

} // namespace
} // namespace gsopt
