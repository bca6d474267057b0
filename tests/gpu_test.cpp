/**
 * @file
 * Tests for the GPU device models, codegen cost model, and driver
 * compiler: ISA-shape differences, register pressure/occupancy/spill
 * behaviour, JIT heuristics, and the Mali static analyser.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "campaign_texts.h"
#include "corpus/corpus.h"
#include "emit/offline.h"
#include "glsl/frontend.h"
#include "gpu/codegen.h"
#include "gpu/device.h"
#include "gpu/driver.h"
#include "ir/dump.h"
#include "lower/lower.h"
#include "passes/passes.h"
#include "runtime/framework.h"

namespace gsopt::gpu {
namespace {

const DeviceModel &
dev(DeviceId id)
{
    return deviceModel(id);
}

TEST(Device, AllFiveConfigured)
{
    auto all = allDevices();
    ASSERT_EQ(all.size(), 5u);
    for (DeviceId id : all) {
        const DeviceModel &d = dev(id);
        EXPECT_FALSE(d.name.empty());
        EXPECT_GT(d.clockGhz, 0.0);
        EXPECT_GT(d.shaderUnits, 0);
        EXPECT_GT(d.noiseSigma, 0.0);
    }
}

TEST(Device, PaperPlatformProperties)
{
    // Mobile platforms use 100 triangles per frame (paper IV-B).
    EXPECT_EQ(dev(DeviceId::Arm).trianglesPerFrame, 100);
    EXPECT_EQ(dev(DeviceId::Qualcomm).trianglesPerFrame, 100);
    EXPECT_EQ(dev(DeviceId::Nvidia).trianglesPerFrame, 1000);
    // Intel is the least noisy platform (paper VI-D7).
    for (DeviceId id : allDevices()) {
        if (id != DeviceId::Intel) {
            EXPECT_LT(dev(DeviceId::Intel).noiseSigma,
                      dev(id).noiseSigma);
        }
    }
    // Mali is the only vec4 machine.
    EXPECT_EQ(dev(DeviceId::Arm).isa, IsaKind::Vec4);
    EXPECT_EQ(dev(DeviceId::Nvidia).isa, IsaKind::Scalar);
}

// ---------------------------------------------- reference compilers

/** driverCompile without its caches: parse, lower and canonicalize this
 * text, then the vendor steps under the step rule and the back end. */
ShaderBinary
uncachedCompile(const std::string &text, const DeviceModel &d)
{
    auto m = emit::compileToIr(text);
    passes::canonicalize(*m);
    for (const VendorStep &step : vendorSteps()) {
        if (step.enabled(d))
            passes::canonicalizeIfChanged(*m, step.run(*m, d));
    }
    return driverBackEnd(*m, d);
}

/** The vendor pipeline as it ran before the step rule: a canonicalize
 * after every vendor step, whether or not the step changed anything.
 * The reference driverCompile must match bit for bit. */
ShaderBinary
alwaysCanonicalizeCompile(const std::string &text, const DeviceModel &d)
{
    auto m = emit::compileToIr(text);
    passes::canonicalize(*m);
    for (const VendorStep &step : vendorSteps()) {
        if (!step.enabled(d))
            continue;
        step.run(*m, d);
        passes::canonicalize(*m);
    }
    return driverBackEnd(*m, d);
}

TEST(Driver, CompileCacheHitsOnRepeatedTextDevicePairs)
{
    const std::string src =
        "in vec2 uv; out vec4 c; void main() { c = vec4(uv, 0.5, 1.0); "
        "}";
    const DeviceModel &nv = dev(DeviceId::Nvidia);

    DriverCacheStats before = driverCacheStats();
    ShaderBinary a = driverCompile(src, nv);
    ShaderBinary b = driverCompile(src, nv);
    DriverCacheStats after = driverCacheStats();

    // Second compile of the same (text, device) pair is a hit and
    // returns the identical binary.
    EXPECT_GE(after.hits, before.hits + 1);
    EXPECT_DOUBLE_EQ(a.cyclesPerFragment, b.cyclesPerFragment);
    EXPECT_DOUBLE_EQ(a.occupancyWaves, b.occupancyWaves);

    // A different device misses; a tweaked copy of the same device
    // (ablation-style) must also miss — the key covers configuration,
    // not just DeviceId.
    DriverCacheStats s0 = driverCacheStats();
    driverCompile(src, dev(DeviceId::Arm));
    DeviceModel tweaked = nv;
    tweaked.jitFlags = passes::FlagSet::none();
    tweaked.jitUnrollTrips = 0;
    ShaderBinary t = driverCompile(src, tweaked);
    DriverCacheStats s1 = driverCacheStats();
    EXPECT_GE(s1.misses, s0.misses + 2);
    (void)t;

    // The uncached path always agrees with the cached result.
    ShaderBinary fresh = uncachedCompile(src, nv);
    EXPECT_DOUBLE_EQ(fresh.cyclesPerFragment, a.cyclesPerFragment);
}

TEST(Driver, FrontEndRunsOncePerTextAcrossDevices)
{
    const std::string src =
        "in vec2 uv; out vec4 c; void main() { c = vec4(uv.yx, 0.25, "
        "1.0); }";
    clearDriverCache();
    for (DeviceId d : allDevices())
        driverCompile(src, dev(d));
    // Five binaries, one parse + lower + first canonicalize.
    EXPECT_EQ(driverCacheStats().misses, allDevices().size());
    EXPECT_EQ(driverCacheStats().frontEndRuns, 1u);
    driverCompile(src + "\n", dev(DeviceId::Arm));
    EXPECT_EQ(driverCacheStats().frontEndRuns, 2u);
    clearDriverCache();
    EXPECT_EQ(driverCacheStats().frontEndRuns, 0u);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectSameBinary(const ShaderBinary &a, const ShaderBinary &b,
                 const std::string &where)
{
    SCOPED_TRACE(where);
    EXPECT_TRUE(sameBits(a.cost.aluCycles, b.cost.aluCycles));
    EXPECT_TRUE(sameBits(a.cost.movCycles, b.cost.movCycles));
    EXPECT_TRUE(sameBits(a.cost.loadStoreCycles, b.cost.loadStoreCycles));
    EXPECT_TRUE(sameBits(a.cost.branchCycles, b.cost.branchCycles));
    EXPECT_TRUE(sameBits(a.cost.texIssueCycles, b.cost.texIssueCycles));
    EXPECT_EQ(a.cost.textureCount, b.cost.textureCount);
    EXPECT_EQ(a.cost.instructionCount, b.cost.instructionCount);
    EXPECT_TRUE(sameBits(a.cost.maxLiveRegs, b.cost.maxLiveRegs));
    EXPECT_TRUE(sameBits(a.spilledRegs, b.spilledRegs));
    EXPECT_TRUE(sameBits(a.occupancyWaves, b.occupancyWaves));
    EXPECT_TRUE(sameBits(a.texStallCycles, b.texStallCycles));
    EXPECT_TRUE(sameBits(a.icacheStallCycles, b.icacheStallCycles));
    EXPECT_TRUE(sameBits(a.cyclesPerFragment, b.cyclesPerFragment));
}

TEST(Driver, CachedCompileEqualsUncachedOnWholeCorpus)
{
    // The IR cache holds each text's canonicalized module; every device
    // after the first starts from a clone of it. That must equal the
    // uncached parse + canonicalize on every corpus original x device.
    clearDriverCache();
    for (const auto &shader : corpus::corpus()) {
        const std::string text =
            glsl::compileShader(shader.source, shader.defines)
                .preprocessedText;
        for (DeviceId id : allDevices()) {
            const ShaderBinary cached = driverCompile(text, dev(id));
            expectSameBinary(cached, uncachedCompile(text, dev(id)),
                             shader.name + " on " + dev(id).name);
        }
    }
    clearDriverCache();
}

// -------------------------------------------------------- the step rule
// compileIr canonicalizes after a vendor step only if the step changed
// the module (passes::canonicalizeIfChanged); passes_test checks the
// rule's premises for the registered passes.

TEST(DriverStepRule, VendorStepReportingNoChangeLeavesModuleUnchanged)
{
    // Every vendor step, with each device's parameters that runs it,
    // applied to every front-end module of a campaign.
    for (const VendorStep &step : vendorSteps()) {
        bool runs = false;
        for (DeviceId id : allDevices())
            runs = runs || step.enabled(dev(id));
        EXPECT_TRUE(runs) << step.name << " runs on no device";
    }
    size_t unchanged = 0;
    for (const auto &[where, text] : testutil::campaignTexts()) {
        auto base = emit::compileToIr(text);
        passes::canonicalize(*base);
        const std::string before = ir::dump(*base);
        for (DeviceId id : allDevices()) {
            for (const VendorStep &step : vendorSteps()) {
                if (!step.enabled(dev(id)))
                    continue;
                auto m = base->clone();
                if (step.run(*m, dev(id)))
                    continue;
                ++unchanged;
                EXPECT_TRUE(ir::dump(*m) == before)
                    << step.name << " (" << dev(id).name << ") on "
                    << where;
            }
        }
    }
    EXPECT_GT(unchanged, 0u);
}

TEST(DriverStepRule, CompileMatchesAlwaysCanonicalizeReference)
{
    clearDriverCache();
    const auto &texts = testutil::campaignTexts();
    ASSERT_GE(texts.size(), 708u);
    for (const auto &[where, text] : texts) {
        for (DeviceId id : allDevices()) {
            expectSameBinary(driverCompile(text, dev(id)),
                             alwaysCanonicalizeCompile(text, dev(id)),
                             where + " on " + dev(id).name);
        }
    }
    clearDriverCache();
}

// ------------------------------------------------ vendor-step semantics

TEST(DriverVendorSteps, ComputeTheOriginalsOutputs)
{
    // Each corpus original's canonicalized front-end module, through
    // each device's vendor steps and pressure scheduler, must shade a
    // 4x4 tile as the original does: the same fragment and discard
    // counts, and every output sum within the fuzz harness's
    // tolerance. Two NaN sums agree: tonemap/aces_dither and
    // tonemap/filmic_dither yield NaN in fragColor[2] on every device.
    runtime::TileOptions tile;
    tile.width = 4;
    tile.height = 4;
    size_t compared = 0;
    for (const corpus::CorpusShader &shader : corpus::corpus()) {
        const glsl::CompiledShader cs =
            glsl::compileShader(shader.source, shader.defines);
        const runtime::TileResult want = runtime::interpretTile(
            *lower::lowerShader(cs), cs.interface, tile);
        auto base = lower::lowerShader(cs);
        passes::canonicalize(*base);
        for (DeviceId id : allDevices()) {
            const DeviceModel &d = dev(id);
            auto m = base->clone();
            for (const VendorStep &step : vendorSteps()) {
                if (step.enabled(d))
                    passes::canonicalizeIfChanged(*m, step.run(*m, d));
            }
            passes::scheduleForPressure(*m, d.schedulerWindow);
            const runtime::TileResult got =
                runtime::interpretTile(*m, cs.interface, tile);
            const std::string where = shader.name + " on " + d.name;
            EXPECT_EQ(got.fragments, want.fragments) << where;
            EXPECT_EQ(got.discardedFragments, want.discardedFragments)
                << where;
            ASSERT_EQ(got.outputSums.size(), want.outputSums.size())
                << where;
            for (const auto &[name, sums] : want.outputSums) {
                const ir::LaneVector &g = got.outputSums.at(name);
                ASSERT_EQ(g.size(), sums.size()) << where << " " << name;
                for (size_t c = 0; c < sums.size(); ++c) {
                    if (std::isnan(g[c]) && std::isnan(sums[c]))
                        continue;
                    EXPECT_NEAR(g[c], sums[c],
                                1e-6 * (1.0 + std::fabs(sums[c])))
                        << where << " " << name << "[" << c << "]";
                }
            }
            ++compared;
        }
    }
    EXPECT_EQ(compared, corpus::corpus().size() * allDevices().size());
}

TEST(Codegen, ScalarIsaPaysPerLane)
{
    auto m = emit::compileToIr(
        "in vec4 a; in vec4 b; out vec4 c; void main() { c = a * b; }");
    CostSummary scalar = analyzeModule(*m, dev(DeviceId::Nvidia));
    CostSummary vec4 = analyzeModule(*m, dev(DeviceId::Arm));
    // One vec4 multiply: 4 scalar slots vs ~1 vec4 slot.
    EXPECT_GE(scalar.aluCycles, 4.0);
    EXPECT_LE(vec4.aluCycles, 1.5);
}

TEST(Codegen, TexturesCounted)
{
    auto m = emit::compileToIr(R"(
        uniform sampler2D t;
        in vec2 uv;
        out vec4 c;
        void main() {
            c = texture(t, uv) + texture(t, uv * 2.0) +
                texture(t, uv * 3.0);
        }
    )");
    CostSummary cost = analyzeModule(*m, dev(DeviceId::Intel));
    EXPECT_EQ(cost.textureCount, 3);
    EXPECT_GT(cost.texIssueCycles, 0.0);
}

TEST(Codegen, LoopsMultiplyCost)
{
    auto one = emit::compileToIr(R"(
        in float x; out float c;
        void main() {
            float s = 0.0;
            for (int i = 0; i < 2; i++) { s += sin(x + float(i)); }
            c = s;
        }
    )");
    auto big = emit::compileToIr(R"(
        in float x; out float c;
        void main() {
            float s = 0.0;
            for (int i = 0; i < 16; i++) { s += sin(x + float(i)); }
            c = s;
        }
    )");
    CostSummary a = analyzeModule(*one, dev(DeviceId::Amd));
    CostSummary b = analyzeModule(*big, dev(DeviceId::Amd));
    EXPECT_GT(b.aluCycles, a.aluCycles * 4.0);
}

TEST(Codegen, BranchesUseLongestPathPlusDivergence)
{
    auto m = emit::compileToIr(R"(
        in float x; out float c;
        void main() {
            float r = 0.0;
            if (x > 0.5) {
                r = sin(x) + cos(x) + exp(x);
            } else {
                r = x * 2.0;
            }
            c = r;
        }
    )");
    const DeviceModel &d = dev(DeviceId::Nvidia);
    CostSummary cost = analyzeModule(*m, d);
    // At least the expensive arm, plus some of the cheap one.
    EXPECT_GE(cost.aluCycles, 3 * d.costTranscendental);
    EXPECT_GT(cost.branchCycles, 0.0);
}

TEST(Codegen, RegisterPressureGrowsWithLiveValues)
{
    auto small = emit::compileToIr(
        "in vec4 a; out vec4 c; void main() { c = a * 2.0; }");
    auto wide = emit::compileToIr(R"(
        uniform sampler2D t;
        in vec2 uv;
        out vec4 c;
        void main() {
            vec4 s0 = texture(t, uv);
            vec4 s1 = texture(t, uv + 0.01);
            vec4 s2 = texture(t, uv + 0.02);
            vec4 s3 = texture(t, uv + 0.03);
            vec4 s4 = texture(t, uv + 0.04);
            vec4 s5 = texture(t, uv + 0.05);
            vec4 s6 = texture(t, uv + 0.06);
            vec4 s7 = texture(t, uv + 0.07);
            c = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
        }
    )");
    const DeviceModel &d = dev(DeviceId::Nvidia);
    EXPECT_GT(analyzeModule(*wide, d).maxLiveRegs,
              analyzeModule(*small, d).maxLiveRegs + 8.0);
}

TEST(Codegen, IfArmsOverlapNotSum)
{
    // Liveness of two branch arms is a max, not a sum: values of the
    // then-arm and else-arm never coexist.
    auto m = emit::compileToIr(R"(
        in float x; out vec4 c;
        void main() {
            vec4 r = vec4(0.0);
            if (x > 0.5) {
                vec4 a0 = vec4(x); vec4 a1 = a0 * 2.0;
                vec4 a2 = a1 + a0; vec4 a3 = a2 * a1;
                r = a3 + a2 + a1 + a0;
            } else {
                vec4 b0 = vec4(x); vec4 b1 = b0 * 3.0;
                vec4 b2 = b1 + b0; vec4 b3 = b2 * b1;
                r = b3 + b2 + b1 + b0;
            }
            c = r;
        }
    )");
    // Disable forwarding effects by analyzing the raw lowered module.
    const DeviceModel &d = dev(DeviceId::Nvidia);
    CostSummary cost = analyzeModule(*m, d);
    // Each arm holds ~4 vec4 temps (16 lanes); sum would be >32.
    EXPECT_LT(cost.maxLiveRegs, 30.0);
}

TEST(Driver, CompilesAndCosts)
{
    ShaderBinary bin = driverCompile(
        "#version 450\nin vec2 uv;\nuniform sampler2D t;\nout vec4 "
        "c;\nvoid main() { c = texture(t, uv); }",
        dev(DeviceId::Intel));
    EXPECT_GT(bin.cyclesPerFragment, 0.0);
    EXPECT_EQ(bin.cost.textureCount, 1);
    EXPECT_EQ(bin.spilledRegs, 0.0);
    EXPECT_GT(bin.occupancyWaves, 1.0);
}

TEST(Driver, JitUnrollConvergesWithOfflineUnroll)
{
    // On a platform whose JIT unrolls within budget, the offline
    // unrolled shader compiles to (nearly) the same cost as the
    // original: the paper's "JIT already catches it" effect.
    const char *src = R"(#version 450
in float x; out float c;
void main() {
    float s = 0.0;
    for (int i = 0; i < 8; i++) { s += x * float(i); }
    c = s;
}
)";
    std::string unrolled = emit::optimizeShaderSource(
        src, passes::FlagSet::none().with(passes::kUnroll));

    const DeviceModel &nv = dev(DeviceId::Nvidia);
    double t_orig = driverCompile(src, nv).cyclesPerFragment;
    double t_unrolled = driverCompile(unrolled, nv).cyclesPerFragment;
    EXPECT_NEAR(t_orig, t_unrolled, t_orig * 0.02);

    // AMD's Mesa-era JIT does not unroll: the offline version wins.
    const DeviceModel &amd = dev(DeviceId::Amd);
    double a_orig = driverCompile(src, amd).cyclesPerFragment;
    double a_unrolled = driverCompile(unrolled, amd).cyclesPerFragment;
    EXPECT_LT(a_unrolled, a_orig * 0.97);
}

TEST(Driver, SpillsPastThreshold)
{
    // Construct a shader with absurd register pressure via many live
    // texture results on the pressure-sensitive Mali model.
    std::string src = "#version 450\nin vec2 uv;\nuniform sampler2D "
                      "t;\nout vec4 c;\nvoid main() {\n";
    for (int i = 0; i < 40; ++i)
        src += "    vec4 s" + std::to_string(i) + " = texture(t, uv + " +
               std::to_string(0.001 * i) + ");\n";
    src += "    vec4 acc = vec4(0.0);\n";
    // Sum in reverse so every sample stays live to the end.
    for (int i = 39; i >= 0; --i)
        src += "    acc = acc + s" + std::to_string(i) + ";\n";
    src += "    c = acc;\n}\n";
    ShaderBinary bin = driverCompile(src, dev(DeviceId::Arm));
    EXPECT_GT(bin.spilledRegs, 0.0);
    // The allocator spills to preserve occupancy, so occupancy stays
    // bounded below by the spill threshold's implied wave count.
    EXPECT_GE(bin.occupancyWaves, 1.0);
    EXPECT_GT(bin.cyclesPerFragment,
              bin.cost.issueCycles()); // spill traffic is charged
}

TEST(Driver, IcachePenaltyOnAdreno)
{
    std::string big = "#version 450\nin float x;\nout float c;\nvoid "
                      "main() {\n    float s = x;\n";
    for (int i = 0; i < 400; ++i)
        big += "    s = s * 1.0001 + " + std::to_string(i % 7) + ".0;\n";
    big += "    c = s;\n}\n";
    ShaderBinary bin = driverCompile(big, dev(DeviceId::Qualcomm));
    EXPECT_GT(bin.icacheStallCycles, 0.0);
    ShaderBinary nv = driverCompile(big, dev(DeviceId::Nvidia));
    EXPECT_EQ(nv.icacheStallCycles, 0.0);
}

TEST(Driver, DrawTimeScalesWithFragments)
{
    ShaderBinary bin = driverCompile(
        "#version 450\nout vec4 c;\nvoid main() { c = vec4(0.5); }",
        dev(DeviceId::Intel));
    double t1 = drawTimeNs(bin, dev(DeviceId::Intel), 250000);
    double t2 = drawTimeNs(bin, dev(DeviceId::Intel), 500000);
    EXPECT_NEAR(t2, 2.0 * t1, 1e-9 * t2);
}

TEST(MaliAnalysis, ReportsThreeCategories)
{
    auto m = emit::compileToIr(R"(
        uniform sampler2D t;
        in vec2 uv;
        out vec4 c;
        void main() {
            vec4 a = texture(t, uv);
            c = a * 2.0 + vec4(uv, 0.0, 1.0);
        }
    )");
    MaliStaticCycles cycles = maliStaticAnalysis(*m);
    EXPECT_GT(cycles.arithmetic, 0.0);
    EXPECT_GT(cycles.loadStore, 0.0);
    EXPECT_GT(cycles.texture, 0.0);
    EXPECT_DOUBLE_EQ(cycles.total(), cycles.arithmetic +
                                         cycles.loadStore +
                                         cycles.texture);
}

TEST(MaliAnalysis, LongestPathDominates)
{
    auto branchy = emit::compileToIr(R"(
        in float x; out float c;
        void main() {
            float r;
            if (x > 0.5) { r = sin(x) + cos(x); } else { r = x; }
            c = r;
        }
    )");
    auto straight = emit::compileToIr(R"(
        in float x; out float c;
        void main() { c = sin(x) + cos(x); }
    )");
    // The branchy version's longest path includes the transcendental
    // arm, so it can't be cheaper than the straight-line version.
    EXPECT_GE(maliStaticAnalysis(*branchy).total(),
              maliStaticAnalysis(*straight).total());
}

} // namespace
} // namespace gsopt::gpu
