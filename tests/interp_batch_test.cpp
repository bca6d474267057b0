/**
 * @file
 * Batched SIMT interpreter tests: per-lane bit-identity against the
 * map reference engine under heavy divergence (nested ifs, discards at
 * different mask depths, non-uniform loop trip counts), the per-lane
 * executed-instruction semantics, width rounding and fallback paths,
 * the tile entry point, and the cached default-environment regression.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "emit/offline.h"
#include "glsl/frontend.h"
#include "ir/builder.h"
#include "ir/interp.h"
#include "ir/interp_batch.h"
#include "lower/lower.h"
#include "runtime/framework.h"

namespace gsopt {
namespace {

/** Straight-line shader: no divergence possible. */
const char *kStraightLine = R"(#version 450
in vec2 uv;
in float tone;
uniform float gain;
uniform sampler2D tex;
out vec4 fragColor;
void main() {
    vec4 t = texture(tex, uv);
    float s = sin(uv.x * 6.0) * 0.5 + cos(uv.y * 3.0) * 0.25;
    vec3 mixed = mix(t.rgb, vec3(s, tone, gain), 0.375);
    fragColor = vec4(normalize(mixed + vec3(0.01)), length(mixed));
}
)";

/** Divergence torture: a generic loop whose trip count differs per
 * lane, nested ifs inside the loop, and discards at two different
 * nesting depths after it. Every mask-stack unwind path is exercised
 * when lanes are spread across uv/tone. */
const char *kTorture = R"(#version 450
in vec2 uv;
in float tone;
uniform sampler2D tex;
out vec4 fragColor;
void main() {
    float acc = 0.0;
    int n = int(uv.x * 7.0);
    for (int i = 0; i < n; i++) {
        acc += float(i) * 0.25 + texture(tex, vec2(uv.x, acc)).y;
        if (acc > 1.5) {
            acc -= 0.5;
            if (uv.y > 0.6) {
                acc += 0.125;
            }
        }
    }
    if (uv.y < 0.15) {
        discard;
    }
    if (acc > 2.0) {
        if (tone > 0.5) {
            discard;
        }
        acc *= 0.5;
    }
    fragColor = vec4(acc, uv.x, uv.y, 1.0);
}
)";

/** A batch whose lanes spread over the torture shader's branch space:
 * trip counts 0..6, both discard sites hit and missed. */
ir::BatchEnv
spreadEnv(size_t width)
{
    ir::BatchEnv env;
    env.width = width;
    for (size_t l = 0; l < width; ++l) {
        const double f =
            static_cast<double>(l) /
            static_cast<double>(width > 1 ? width - 1 : 1);
        env.setLaneInput("uv", l, {0.05 + 0.9 * f, 1.0 - f});
        env.setLaneInput("tone", l, {0.2 + 0.7 * f});
    }
    env.uniforms["gain"] = {1.25};
    return env;
}

void
expectLaneIdentical(const ir::BatchResult &batch,
                    const ir::Module &module, const ir::BatchEnv &env)
{
    for (size_t l = 0; l < env.width; ++l) {
        SCOPED_TRACE("lane " + std::to_string(l));
        const ir::InterpResult want =
            ir::interpretReference(module, env.laneEnv(l));
        const ir::InterpResult got = batch.laneResult(l);
        ASSERT_EQ(got.discarded, want.discarded);
        ASSERT_EQ(got.executedInstructions, want.executedInstructions);
        ASSERT_EQ(got.outputs.size(), want.outputs.size());
        for (const auto &[name, lanes] : want.outputs) {
            const auto &g = got.outputs.at(name);
            ASSERT_EQ(g.size(), lanes.size()) << name;
            for (size_t c = 0; c < lanes.size(); ++c) {
                // EXPECT_EQ on doubles is exact: bit-identity, not
                // tolerance.
                EXPECT_EQ(g[c], lanes[c])
                    << name << "[" << c << "]";
            }
        }
    }
}

TEST(InterpBatch, StraightLineMatchesScalarPerLane)
{
    auto module = emit::compileToIr(kStraightLine);
    const ir::BatchEnv env = spreadEnv(8);
    ir::BatchRunner runner(*module, 8);
    EXPECT_TRUE(runner.batched());
    expectLaneIdentical(runner.run(env), *module, env);
}

TEST(InterpBatch, DivergenceTortureMatchesScalarPerLane)
{
    auto module = emit::compileToIr(kTorture);
    const ir::BatchEnv env = spreadEnv(16);
    const ir::BatchResult batch = ir::interpretBatch(*module, env);

    // The spread must actually diverge: some lanes discarded, some
    // not, and at least three distinct dynamic instruction counts
    // (different trip counts / branch paths), or the torture test
    // tests nothing.
    size_t discards = 0;
    std::set<size_t> counts;
    for (size_t l = 0; l < env.width; ++l) {
        discards += batch.discarded[l];
        counts.insert(batch.laneExecuted[l]);
    }
    EXPECT_GT(discards, 0u);
    EXPECT_LT(discards, env.width);
    EXPECT_GE(counts.size(), 3u);

    expectLaneIdentical(batch, *module, env);
}

TEST(InterpBatch, ExecutedCountIsPerLaneSummed)
{
    // Satellite: on a divergence-free shader every lane executes the
    // identical instruction stream, so the batch total is exactly
    // width x the scalar count.
    auto module = emit::compileToIr(kStraightLine);
    const ir::BatchEnv env = spreadEnv(8);
    const ir::BatchResult batch = ir::interpretBatch(*module, env);

    const size_t scalar =
        ir::interpretReference(*module, env.laneEnv(0)).executedInstructions;
    EXPECT_EQ(batch.executedInstructions, 8 * scalar);
    size_t sum = 0;
    for (size_t l = 0; l < 8; ++l) {
        EXPECT_EQ(batch.laneExecuted[l], scalar);
        sum += batch.laneExecuted[l];
    }
    EXPECT_EQ(batch.executedInstructions, sum);
}

TEST(InterpBatch, MaskedLanesDoNotCount)
{
    // A lane that discards early stops counting exactly where the
    // scalar engine stops executing; live lanes are unaffected.
    auto module = emit::compileToIr(R"(#version 450
in float x;
out vec4 c;
void main() {
    if (x < 0.5) {
        discard;
    }
    float a = sin(x) + cos(x) + exp(x) + sqrt(x);
    c = vec4(a, a * 0.5, a * 0.25, 1.0);
}
)");
    ir::BatchEnv env;
    env.width = 4;
    env.setLaneInput("x", 0, {0.1}); // discards
    env.setLaneInput("x", 1, {0.9});
    env.setLaneInput("x", 2, {0.2}); // discards
    env.setLaneInput("x", 3, {0.7});
    const ir::BatchResult batch = ir::interpretBatch(*module, env);

    EXPECT_TRUE(batch.discarded[0]);
    EXPECT_FALSE(batch.discarded[1]);
    EXPECT_TRUE(batch.discarded[2]);
    EXPECT_FALSE(batch.discarded[3]);
    EXPECT_LT(batch.laneExecuted[0], batch.laneExecuted[1]);
    EXPECT_EQ(batch.laneExecuted[0], batch.laneExecuted[2]);
    EXPECT_EQ(batch.laneExecuted[1], batch.laneExecuted[3]);
    EXPECT_EQ(batch.executedInstructions,
              batch.laneExecuted[0] + batch.laneExecuted[1] +
                  batch.laneExecuted[2] + batch.laneExecuted[3]);
    expectLaneIdentical(batch, *module, env);
}

TEST(InterpBatch, EverySupportedWidthMatches)
{
    auto module = emit::compileToIr(kTorture);
    for (size_t w : {1u, 2u, 3u, 4u, 5u, 8u, 11u, 16u}) {
        SCOPED_TRACE("width " + std::to_string(w));
        const ir::BatchEnv env = spreadEnv(w);
        expectLaneIdentical(ir::interpretBatch(*module, env), *module,
                            env);
    }
}

TEST(InterpBatch, NonDenseIdsFallBackToScalar)
{
    // Hand-assembled module whose ids are deliberately not dense: the
    // runner must report fallback and still match the reference engine.
    ir::Module m;
    ir::Var *in = m.newVar("x", glsl::Type::floatTy(),
                           ir::VarKind::Input);
    ir::Var *out = m.newVar("o", glsl::Type::floatTy(),
                            ir::VarKind::Output);
    ir::IrBuilder b(m);
    ir::Instr *v = b.load(in);
    b.store(out, b.binary(ir::Opcode::Mul, v, b.constFloat(3.0)));
    v->id += 100; // break density

    ir::BatchRunner runner(m, 4);
    EXPECT_FALSE(runner.batched());
    ir::BatchEnv env;
    env.width = 4;
    for (size_t l = 0; l < 4; ++l)
        env.setLaneInput("x", l, {0.25 * static_cast<double>(l + 1)});
    expectLaneIdentical(runner.run(env), m, env);
}

TEST(InterpBatch, BroadcastAndLaneEnvRoundTrip)
{
    ir::InterpEnv scalar;
    scalar.inputs["uv"] = {0.25, 0.75};
    scalar.uniforms["gain"] = {2.0};
    scalar.maxLoopIterations = 99;

    ir::BatchEnv env = ir::BatchEnv::broadcast(scalar, 8);
    EXPECT_EQ(env.width, 8u);
    EXPECT_EQ(env.maxLoopIterations, 99);
    for (size_t l = 0; l < 8; ++l) {
        const ir::InterpEnv lane = env.laneEnv(l);
        EXPECT_EQ(lane.inputs.at("uv"), scalar.inputs.at("uv"));
        EXPECT_EQ(lane.uniforms.at("gain"),
                  scalar.uniforms.at("gain"));
        EXPECT_EQ(lane.maxLoopIterations, 99);
    }
    env.setLaneInput("uv", 3, {0.5, 0.5});
    EXPECT_EQ(env.laneEnv(3).inputs.at("uv"),
              (ir::LaneVector{0.5, 0.5}));
    EXPECT_EQ(env.laneEnv(2).inputs.at("uv"),
              (ir::LaneVector{0.25, 0.75}));
    // Lane/component mismatches are rejected, not silently resized.
    EXPECT_THROW(env.setLaneInput("uv", 1, {1.0}),
                 std::invalid_argument);
    EXPECT_THROW(env.setLaneInput("uv", 8, {1.0, 1.0}),
                 std::invalid_argument);
}

TEST(InterpBatch, RunnerIsReusableAcrossBatches)
{
    // The tile paths call run() thousands of times on one runner; the
    // register file must come out of each run without state leaking
    // into the next (epoch bump, not wholesale clearing).
    auto module = emit::compileToIr(kTorture);
    ir::BatchRunner runner(*module, 8);
    for (int round = 0; round < 5; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        ir::BatchEnv env = spreadEnv(8);
        // Shift the spread each round so stale registers would show.
        for (size_t l = 0; l < 8; ++l) {
            const double f = static_cast<double>(
                                 (l + static_cast<size_t>(round)) % 8) /
                             7.0;
            env.setLaneInput("uv", l, {0.05 + 0.9 * f, 1.0 - f});
        }
        expectLaneIdentical(runner.run(env), *module, env);
    }
}

TEST(InterpBatch, TileBatchedMatchesScalarTile)
{
    glsl::CompiledShader cs = glsl::compileShader(kTorture, {});
    auto module = lower::lowerShader(cs);

    runtime::TileOptions scalarOpts;
    scalarOpts.width = 12;
    scalarOpts.height = 9;
    scalarOpts.batchWidth = 0; // scalar reference path
    const runtime::TileResult want =
        runtime::interpretTile(*module, cs.interface, scalarOpts);

    for (size_t w : {1u, 8u, 16u}) {
        SCOPED_TRACE("batchWidth " + std::to_string(w));
        runtime::TileOptions opts = scalarOpts;
        opts.batchWidth = w;
        const runtime::TileResult got =
            runtime::interpretTile(*module, cs.interface, opts);
        EXPECT_EQ(got.fragments, want.fragments);
        EXPECT_EQ(got.discardedFragments, want.discardedFragments);
        EXPECT_EQ(got.executedInstructions,
                  want.executedInstructions);
        EXPECT_EQ(got.allFinite, want.allFinite);
        ASSERT_EQ(got.outputSums.size(), want.outputSums.size());
        for (const auto &[name, sums] : want.outputSums) {
            const auto &g = got.outputSums.at(name);
            ASSERT_EQ(g.size(), sums.size()) << name;
            for (size_t c = 0; c < sums.size(); ++c)
                EXPECT_EQ(g[c], sums[c]) << name << "[" << c << "]";
        }
    }
    EXPECT_EQ(want.fragments, 12u * 9u);
    EXPECT_GT(want.discardedFragments, 0u);
    EXPECT_TRUE(want.allFinite);
}

TEST(InterpBatch, DefaultEnvironmentCachedIsStableAndDeterministic)
{
    // Satellite regression: the cached environment is built once per
    // interface signature, returns a stable reference, and matches a
    // fresh defaultEnvironment() build exactly on every call.
    glsl::CompiledShader cs = glsl::compileShader(kStraightLine, {});
    const ir::InterpEnv &a =
        runtime::defaultEnvironmentCached(cs.interface);
    const ir::InterpEnv &b =
        runtime::defaultEnvironmentCached(cs.interface);
    EXPECT_EQ(&a, &b) << "same interface must hit the cache";

    const ir::InterpEnv fresh =
        runtime::defaultEnvironment(cs.interface);
    EXPECT_EQ(a.inputs, fresh.inputs);
    EXPECT_EQ(a.uniforms, fresh.uniforms);

    // A second compile of the same source produces an equal (not
    // identical) interface object; the signature still hits the cache.
    glsl::CompiledShader cs2 = glsl::compileShader(kStraightLine, {});
    EXPECT_EQ(&runtime::defaultEnvironmentCached(cs2.interface), &a);

    // Callers perturb copies; the cache itself must stay pristine.
    ir::InterpEnv copy = a;
    copy.inputs["uv"] = {9.0, 9.0};
    EXPECT_EQ(runtime::defaultEnvironmentCached(cs.interface)
                  .inputs.at("uv"),
              fresh.inputs.at("uv"));
}

} // namespace
} // namespace gsopt
