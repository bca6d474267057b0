/**
 * @file
 * Tests for the tuner: flag sets, exhaustive exploration with dedup,
 * and the experiment engine analyses (on a reduced corpus to stay
 * fast; the full-campaign shape checks live in experiments_test.cpp).
 */
#include <gtest/gtest.h>

#include <unordered_map>

#include "corpus/corpus.h"
#include "emit/emit.h"
#include "emit/offline.h"
#include "passes/registry.h"
#include "support/rng.h"
#include "tuner/experiment.h"
#include "tuner/explore.h"
#include "tuner/flags.h"

namespace gsopt::tuner {
namespace {

TEST(FlagSet, DefaultsMatchPaper)
{
    // LunarGlass defaults: the six stock passes on, the two custom
    // unsafe FP passes off (paper Section III-A/B).
    FlagSet d = FlagSet::lunarGlassDefaults();
    EXPECT_TRUE(d.has(kAdce));
    EXPECT_TRUE(d.has(kCoalesce));
    EXPECT_TRUE(d.has(kGvn));
    EXPECT_TRUE(d.has(kReassociate));
    EXPECT_TRUE(d.has(kUnroll));
    EXPECT_TRUE(d.has(kHoist));
    EXPECT_FALSE(d.has(kFpReassociate));
    EXPECT_FALSE(d.has(kDivToMul));
}

TEST(FlagSet, Spelling)
{
    if (flagCount() != 8)
        GTEST_SKIP() << "spellings pinned to the built-in eight; "
                        "GSOPT_EXTRA_PASSES widens the registry";
    EXPECT_EQ(FlagSet::none().str(), "{none}");
    FlagSet f = FlagSet::none().with(kUnroll).with(kDivToMul);
    EXPECT_EQ(f.str(), "{Unroll,Div to Mul}");
    EXPECT_EQ(allFlagSets().size(), 256u);
}

TEST(Explore, MotivatingExampleHasMultipleVariants)
{
    if (flagCount() != 8)
        GTEST_SKIP() << "variant counts pinned to the 8-pass lattice; "
                        "GSOPT_EXTRA_PASSES widens it";
    Exploration ex = exploreShader(corpus::motivatingExample());
    // 256 combos collapse to a handful of unique variants (Fig 4c).
    EXPECT_GE(ex.uniqueCount(), 4u);
    EXPECT_LE(ex.uniqueCount(), 48u);
    // Every combo maps to a valid variant.
    for (uint64_t c = 0; c < comboCount(); ++c) {
        const int v = ex.variantOf(FlagSet(c));
        ASSERT_GE(v, 0);
        ASSERT_LT(v, static_cast<int>(ex.uniqueCount()));
    }
    // Producer lists partition the 256 combos.
    size_t total = 0;
    for (const auto &v : ex.variants)
        total += v.producers.size();
    EXPECT_EQ(total, 256u);
}

TEST(Explore, FrontEndAndLoweringRunOncePerShader)
{
    if (flagCount() != 8)
        GTEST_SKIP() << "counter arithmetic pinned to 256 combos; "
                        "GSOPT_EXTRA_PASSES widens the lattice";
    ExploreCounters &c = exploreCounters();
    const uint64_t fe0 = c.frontEndRuns, lo0 = c.lowerRuns;
    const uint64_t pi0 = c.pipelineRuns, pr0 = c.printRuns;
    const uint64_t fh0 = c.fingerprintHits;

    Exploration ex = exploreShader(corpus::motivatingExample());

    // Exactly one preprocess/parse/sema and one lowering for all 256
    // combinations; the pass pipeline runs per combo; the printer runs
    // only for fingerprint-unique modules (at least one per variant,
    // far fewer than 256).
    EXPECT_EQ(c.frontEndRuns - fe0, 1u);
    EXPECT_EQ(c.lowerRuns - lo0, 1u);
    EXPECT_EQ(c.pipelineRuns - pi0, 256u);
    const uint64_t prints = c.printRuns - pr0;
    EXPECT_GE(prints, ex.uniqueCount());
    EXPECT_LT(prints, 256u);
    // Every combo either deduped on fingerprint or went to the printer.
    EXPECT_EQ((c.fingerprintHits - fh0) + prints, 256u);
}

TEST(Explore, TrivialShaderHasOneVariant)
{
    corpus::CorpusShader s;
    s.name = "test/trivial";
    s.family = "test";
    s.source = "#version 450\nout vec4 c;\nvoid main() { c = "
               "vec4(0.25); }\n";
    Exploration ex = exploreShader(s);
    EXPECT_EQ(ex.uniqueCount(), 1u);
    // No flag changes the output of a constant shader — a property of
    // every registered pass, not just the built-in eight.
    for (int b = 0; b < static_cast<int>(flagCount()); ++b)
        EXPECT_FALSE(ex.flagChangesOutput(b)) << flagName(b);
}

TEST(Explore, AdceNeverChangesOutput)
{
    // The paper's VI-D1 observation, verified on real corpus entries.
    for (const char *name :
         {"blur/weighted9", "pbr/full", "fxaa/high", "toon/bands3"}) {
        Exploration ex = exploreShader(*corpus::findShader(name));
        EXPECT_FALSE(ex.flagChangesOutput(kAdce)) << name;
    }
}

TEST(Explore, UnrollChangesLoopShaders)
{
    Exploration ex = exploreShader(corpus::motivatingExample());
    EXPECT_TRUE(ex.flagChangesOutput(kUnroll));
    EXPECT_TRUE(ex.flagChangesOutput(kFpReassociate));
    EXPECT_TRUE(ex.flagChangesOutput(kDivToMul));
}

TEST(Explore, MostlyHasFlagSemantics)
{
    Variant v;
    v.producers = {FlagSet(0b00000001), FlagSet(0b00000011),
                   FlagSet(0b00000010)};
    EXPECT_TRUE(v.mostlyHasFlag(0));  // 2 of 3
    EXPECT_TRUE(v.mostlyHasFlag(1));  // 2 of 3
    EXPECT_FALSE(v.mostlyHasFlag(2)); // 0 of 3
}

/** Every variant's hash is its text's, and variantOfCombo is the
 * partition that printing and hashing every combination's linear
 * pipeline gives, with variants numbered in the same order. */
void
expectVariantsMatchPerComboHash(const corpus::CorpusShader &shader)
{
    const Exploration ex = exploreShader(shader);
    for (const Variant &v : ex.variants)
        EXPECT_EQ(v.sourceHash, fnv1a(v.source)) << shader.name;
    const auto base = emit::compileToIr(shader.source, shader.defines);
    std::unordered_map<uint64_t, int> by_hash;
    for (const FlagSet &flags : allFlagSets()) {
        auto linear = base->clone();
        passes::optimize(*linear, flags);
        const std::string text = emit::emitGlsl(*linear);
        const int want =
            by_hash.emplace(fnv1a(text), static_cast<int>(by_hash.size()))
                .first->second;
        ASSERT_EQ(ex.variantOf(flags), want)
            << shader.name << " " << flags.str();
        EXPECT_EQ(ex.variants[static_cast<size_t>(want)].source, text)
            << shader.name << " " << flags.str();
    }
    EXPECT_EQ(by_hash.size(), ex.variants.size()) << shader.name;
}

TEST(Explore, VariantHashIsTextHash)
{
    // bilateral7 and heatmap print some text twice, from modules with
    // different fingerprints: only the text hash may merge those.
    for (const char *name :
         {"simple/grayscale", "blur/bilateral7", "tier/heatmap"})
        expectVariantsMatchPerComboHash(*corpus::findShader(name));
    passes::ScopedExtraPasses extras;
    ASSERT_EQ(flagCount(), 11u);
    for (const char *name : {"blur/bilateral7", "tier/heatmap"})
        expectVariantsMatchPerComboHash(*corpus::findShader(name));
}

/** Reduced corpus keeps engine tests fast. */
std::vector<corpus::CorpusShader>
miniCorpus()
{
    std::vector<corpus::CorpusShader> out;
    for (const char *name :
         {"blur/weighted9", "simple/grayscale", "tonemap/aces",
          "toon/bands3", "deferred/lights4"}) {
        out.push_back(*corpus::findShader(name));
    }
    return out;
}

TEST(Engine, MeasuresEveryShaderOnEveryDevice)
{
    ExperimentEngine engine(miniCorpus());
    ASSERT_EQ(engine.results().size(), 5u);
    for (const auto &r : engine.results()) {
        EXPECT_EQ(r.byDevice.size(), gpu::allDevices().size());
        for (const auto &[dev, m] : r.byDevice) {
            EXPECT_GT(m.originalMeanNs, 0.0);
            EXPECT_EQ(m.variantMeanNs.size(),
                      r.exploration.uniqueCount());
        }
    }
}

TEST(Engine, BestNeverWorseThanFixedFlags)
{
    ExperimentEngine engine(miniCorpus());
    for (const auto &r : engine.results()) {
        for (gpu::DeviceId dev : gpu::allDevices()) {
            double best = r.bestSpeedup(dev);
            EXPECT_GE(best + 1e-9,
                      r.speedupFor(dev, FlagSet::lunarGlassDefaults()));
            EXPECT_GE(best + 1e-9, r.speedupFor(dev, FlagSet::all()));
            EXPECT_GE(best + 1e-9, r.speedupFor(dev, FlagSet::none()));
        }
    }
}

TEST(Engine, BestStaticIsArgmaxOfMean)
{
    ExperimentEngine engine(miniCorpus());
    for (gpu::DeviceId dev :
         {gpu::DeviceId::Amd, gpu::DeviceId::Arm}) {
        FlagSet best = engine.bestStaticFlags(dev);
        double best_mean = engine.meanSpeedup(dev, best);
        for (const FlagSet &f :
             {FlagSet::none(), FlagSet::all(),
              FlagSet::lunarGlassDefaults()}) {
            EXPECT_GE(best_mean + 1e-9, engine.meanSpeedup(dev, f));
        }
    }
}

TEST(Engine, PerShaderSeriesShapes)
{
    ExperimentEngine engine(miniCorpus());
    auto best = engine.perShaderBestSpeedups(gpu::DeviceId::Amd);
    auto defs = engine.perShaderSpeedups(gpu::DeviceId::Amd,
                                         FlagSet::lunarGlassDefaults());
    ASSERT_EQ(best.size(), 5u);
    ASSERT_EQ(defs.size(), 5u);
    for (size_t i = 0; i < best.size(); ++i)
        EXPECT_GE(best[i] + 1e-9, defs[i]);
}

TEST(Engine, MinimalBestFlagsPreferred)
{
    // bestFlags returns the smallest flag set among producers of the
    // winning variant: ADCE (a no-op) never appears in it.
    ExperimentEngine engine(miniCorpus());
    for (const auto &r : engine.results()) {
        FlagSet f = r.bestFlags(gpu::DeviceId::Intel);
        EXPECT_FALSE(f.has(kAdce))
            << r.exploration.shaderName << " " << f.str();
    }
}

TEST(Variant, MostlyHasFlagWithoutProducersIsFalse)
{
    // A variant with no recorded producers has no evidence about any
    // flag; the old `0 >= 0` comparison answered true for every bit.
    Variant v;
    for (int bit = 0; bit < static_cast<int>(flagCount()); ++bit)
        EXPECT_FALSE(v.mostlyHasFlag(bit)) << bit;
}

TEST(Variant, MostlyHasFlagMajorityVote)
{
    Variant v;
    v.producers = {FlagSet(0b001), FlagSet(0b011), FlagSet(0b100)};
    EXPECT_TRUE(v.mostlyHasFlag(0));  // 2 of 3
    EXPECT_FALSE(v.mostlyHasFlag(1)); // 1 of 3
    EXPECT_FALSE(v.mostlyHasFlag(2)); // 1 of 3
    // Exactly half counts as "mostly" (ties keep the seed behaviour).
    v.producers = {FlagSet(0b10), FlagSet(0b00)};
    EXPECT_TRUE(v.mostlyHasFlag(1));
}

} // namespace
} // namespace gsopt::tuner
