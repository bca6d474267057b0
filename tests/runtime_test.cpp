/**
 * @file
 * Tests for the measurement framework: protocol shape (100 frames x 5
 * reps), deterministic noise, vertex shader generation, and the
 * interface-driven auto-initialisation.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "corpus/corpus.h"
#include "glsl/frontend.h"
#include "support/stats.h"
#include "support/strings.h"
#include "runtime/framework.h"

namespace gsopt::runtime {
namespace {

const char *kShader = R"(#version 450
in vec2 uv;
in vec3 normal;
uniform sampler2D tex;
uniform vec4 tint;
uniform mat4 transform;
uniform int mode;
out vec4 color;
void main() {
    color = texture(tex, uv) * tint * vec4(normal, float(mode)) +
            transform * vec4(uv, 0.0, 1.0);
}
)";

TEST(Framework, ProtocolSampleCounts)
{
    auto r = measureShader(kShader,
                           gpu::deviceModel(gpu::DeviceId::Intel),
                           "proto");
    EXPECT_EQ(r.frameTimesNs.size(),
              static_cast<size_t>(kFramesPerRun * kRepetitions));
    EXPECT_GT(r.meanNs, 0.0);
    EXPECT_GT(summarize(r.frameTimesNs).median, 0.0);
}

TEST(Framework, DeterministicGivenLabel)
{
    const auto &dev = gpu::deviceModel(gpu::DeviceId::Arm);
    auto a = measureShader(kShader, dev, "same-label");
    auto b = measureShader(kShader, dev, "same-label");
    EXPECT_EQ(a.frameTimesNs, b.frameTimesNs);
    auto c = measureShader(kShader, dev, "other-label");
    EXPECT_NE(a.frameTimesNs, c.frameTimesNs);
    // Different labels perturb noise, not the mean signal.
    EXPECT_NEAR(a.meanNs, c.meanNs, a.meanNs * 0.05);
}

TEST(Framework, NoiseMatchesDeviceSigma)
{
    const auto &intel = gpu::deviceModel(gpu::DeviceId::Intel);
    const auto &qc = gpu::deviceModel(gpu::DeviceId::Qualcomm);
    auto ri = measureShader(kShader, intel, "noise");
    auto rq = measureShader(kShader, qc, "noise");
    // Relative spread tracks the configured sigma (Intel quietest).
    EXPECT_LT(summarize(ri.frameTimesNs).stddev / ri.meanNs,
              summarize(rq.frameTimesNs).stddev / rq.meanNs);
}

TEST(Framework, MeanIsExactSampleMean)
{
    // measureShader sums the samples in the order it draws them. With
    // whole-nanosecond quanta every partial sum is an exact integer,
    // so that mean is the sorted one of summarize(), bit for bit (both
    // are positive and finite, so == compares the bits).
    for (gpu::DeviceId id : gpu::allDevices()) {
        const double q = gpu::deviceModel(id).timerQuantumNs;
        EXPECT_GT(q, 0.0);
        EXPECT_EQ(q, std::trunc(q));
    }
    for (const corpus::CorpusShader &shader : corpus::corpus()) {
        const std::string text =
            glsl::compileShader(shader.source, shader.defines)
                .preprocessedText;
        for (gpu::DeviceId id : gpu::allDevices()) {
            const TimingResult r = measureShader(
                text, gpu::deviceModel(id), shader.name + "/original");
            EXPECT_EQ(r.meanNs, summarize(r.frameTimesNs).mean)
                << shader.name << " on " << gpu::deviceModel(id).name;
        }
    }
}

TEST(Framework, MobileUsesFewerTriangles)
{
    const auto &arm = gpu::deviceModel(gpu::DeviceId::Arm);
    EXPECT_EQ(arm.trianglesPerFrame, 100);
}

TEST(Framework, SpeedupSign)
{
    const auto &dev = gpu::deviceModel(gpu::DeviceId::Amd);
    auto slow = measureShader(R"(#version 450
in vec2 uv; out vec4 c;
void main() {
    vec4 acc = vec4(0.0);
    acc += vec4(sin(uv.x), cos(uv.y), sin(uv.x * 2.0), 1.0);
    acc += vec4(sin(uv.x * 3.0), cos(uv.y * 4.0), exp(uv.x), 1.0);
    c = acc;
}
)",
                              dev, "slow");
    auto fast = measureShader(
        "#version 450\nout vec4 c;\nvoid main() { c = vec4(0.5); }",
        dev, "fast");
    EXPECT_GT(speedupPercent(slow, fast), 0.0);
    EXPECT_LT(speedupPercent(fast, slow), 0.0);
}

TEST(VertexGen, MatchesFragmentInputs)
{
    glsl::CompiledShader cs = glsl::compileShader(kShader);
    std::string vs = generateVertexShader(cs.interface);
    EXPECT_NE(vs.find("out vec2 uv;"), std::string::npos);
    EXPECT_NE(vs.find("out vec3 normal;"), std::string::npos);
    EXPECT_NE(vs.find("uniform float quad_depth;"), std::string::npos);
    EXPECT_NE(vs.find("gl_Position"), std::string::npos);
    // The generated vertex shader must pass our front end once the
    // vertex-stage builtin (which the fragment-only subset does not
    // declare) is renamed to a plain output.
    std::string checkable = vs;
    size_t pos = checkable.find("void main()");
    ASSERT_NE(pos, std::string::npos);
    checkable.insert(pos, "out vec4 vs_position;\n");
    checkable = replaceAll(checkable, "gl_Position", "vs_position");
    EXPECT_NO_THROW(glsl::compileShader(checkable));
}

TEST(AutoInit, DefaultsMatchPaperRules)
{
    glsl::CompiledShader cs = glsl::compileShader(kShader);
    ir::InterpEnv env = defaultEnvironment(cs.interface);
    // floats 0.5
    ASSERT_TRUE(env.uniforms.count("tint"));
    EXPECT_DOUBLE_EQ(env.uniforms["tint"][0], 0.5);
    // ints 1
    ASSERT_TRUE(env.uniforms.count("mode"));
    EXPECT_DOUBLE_EQ(env.uniforms["mode"][0], 1.0);
    // matrices identity
    ASSERT_TRUE(env.uniforms.count("transform"));
    EXPECT_DOUBLE_EQ(env.uniforms["transform"][0], 1.0);
    EXPECT_DOUBLE_EQ(env.uniforms["transform"][1], 0.0);
    EXPECT_DOUBLE_EQ(env.uniforms["transform"][5], 1.0);
    // inputs 0.5
    ASSERT_TRUE(env.inputs.count("uv"));
    EXPECT_DOUBLE_EQ(env.inputs["uv"][1], 0.5);
    // samplers: not in the uniform map (procedural default applies)
    EXPECT_FALSE(env.uniforms.count("tex"));
}

} // namespace
} // namespace gsopt::runtime
