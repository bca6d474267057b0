/**
 * @file
 * Pass-registry tests: built-in registration stays bit-compatible with
 * the paper's fixed table, the lattice plan walk stays byte-identical
 * to the linear pipeline for every registered combination, cache keys hash
 * exact bit patterns, and — the headline decoupling property — a ninth
 * registered pass flows through pipeline, exploration, and the
 * experiment engine with no changes to any of them.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "corpus/corpus.h"
#include "emit/emit.h"
#include "emit/offline.h"
#include "passes/registry.h"
#include "tuner/experiment.h"
#include "tuner/explore.h"

namespace gsopt {
namespace {

using passes::PassRegistry;
using tuner::FlagSet;

TEST(Registry, BuiltinsMatchPaperBitOrder)
{
    PassRegistry &reg = PassRegistry::instance();
    if (reg.count() != 8)
        GTEST_SKIP() << "pinned to the paper's 8-pass registry; "
                        "GSOPT_EXTRA_PASSES widens it";
    ASSERT_EQ(reg.count(), 8u);
    EXPECT_EQ(reg.comboCount(), 256u);
    const char *ids_by_bit[] = {"adce",   "coalesce",
                                "gvn",    "reassociate",
                                "unroll", "hoist",
                                "fp_reassociate", "div_to_mul"};
    for (int bit = 0; bit < 8; ++bit) {
        EXPECT_EQ(reg.pass(bit).id, ids_by_bit[bit]) << bit;
        EXPECT_EQ(reg.bitOf(ids_by_bit[bit]), bit);
    }
    EXPECT_EQ(reg.bitOf("no_such_pass"), -1);
    // Display names match the historical FlagSet spellings.
    EXPECT_STREQ(tuner::flagName(tuner::kFpReassociate),
                 "FP Reassociate");
    EXPECT_STREQ(tuner::flagName(tuner::kDivToMul), "Div to Mul");
}

TEST(Registry, PipelineOrderIsHistorical)
{
    if (PassRegistry::instance().count() != 8)
        GTEST_SKIP() << "pinned to the paper's 8-pass registry; "
                        "GSOPT_EXTRA_PASSES widens it";
    // Application order (not bit order): Unroll, Hoist, Coalesce,
    // Reassociate, FP Reassociate, Div to Mul, GVN, ADCE.
    const char *expect[] = {"unroll",         "hoist",
                            "coalesce",       "reassociate",
                            "fp_reassociate", "div_to_mul",
                            "gvn",            "adce"};
    const auto &pipeline = PassRegistry::instance().pipeline();
    ASSERT_EQ(pipeline.size(), 8u);
    for (size_t i = 0; i < pipeline.size(); ++i)
        EXPECT_EQ(pipeline[i]->id, expect[i]) << i;
}

TEST(Registry, SignatureChangesWithRegistration)
{
    const uint64_t before = PassRegistry::instance().signature();
    {
        passes::ScopedPass extra(
            "registry_test/sig", "SigProbe",
            [](ir::Module &m) { passes::canonicalize(m); });
        EXPECT_NE(PassRegistry::instance().signature(), before);
    }
    EXPECT_EQ(PassRegistry::instance().signature(), before);
}

// ---- satellite: tree walk byte-identical to the linear pipeline ------

TEST(PipelineEquivalence, TreeMatchesLinearOnCorpusShaders)
{
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
        ASSERT_EQ(tree_text.size(),
                  PassRegistry::instance().comboCount())
            << name;

        for (const FlagSet &flags : tuner::allFlagSets()) {
            auto linear = base->clone();
            passes::optimize(*linear, flags);
            EXPECT_EQ(emit::emitGlsl(*linear),
                      tree_text.at(flags.bits))
                << name << " " << flags.str();
        }
    }
}

// ---- satellite: exact-bit cache keys ---------------------------------

TEST(CampaignKey, OneUlpDeviceChangeChangesKey)
{
    const gpu::DeviceModel &base =
        gpu::deviceModel(gpu::DeviceId::Arm);
    EXPECT_EQ(gpu::deviceModelKey(base),
              gpu::deviceModelKey(base));

    gpu::DeviceModel tweaked = base;
    tweaked.clockGhz = std::nextafter(tweaked.clockGhz, 2e9);
    EXPECT_NE(gpu::deviceModelKey(base),
              gpu::deviceModelKey(tweaked));

    // The old ostringstream path (6 significant digits) collided
    // exactly this class of change: past-the-6th-digit noise models.
    gpu::DeviceModel noise = base;
    noise.noiseSigma = base.noiseSigma * (1.0 + 1e-12);
    EXPECT_NE(gpu::deviceModelKey(base),
              gpu::deviceModelKey(noise));
}

TEST(CampaignKey, ShardKeyIsolatesShaders)
{
    const uint64_t set_key = tuner::deviceSetKey();
    corpus::CorpusShader a = *corpus::findShader("simple/grayscale");
    corpus::CorpusShader b = a;
    EXPECT_EQ(tuner::shardKey(a, set_key),
              tuner::shardKey(b, set_key));
    b.source += "\n// edited\n";
    EXPECT_NE(tuner::shardKey(a, set_key),
              tuner::shardKey(b, set_key));
    // Defines participate too (übershader specialisations).
    corpus::CorpusShader c = a;
    c.defines["REGISTRY_TEST"] = "1";
    EXPECT_NE(tuner::shardKey(a, set_key),
              tuner::shardKey(c, set_key));
}

// ---- satellite: bounds checking and error reporting ------------------

TEST(Bounds, SpeedupOfRejectsBadVariantIndex)
{
    tuner::DeviceMeasurement m;
    m.originalMeanNs = 100.0;
    m.variantMeanNs = {80.0, 90.0};
    EXPECT_DOUBLE_EQ(m.speedupOf(0), 20.0);
    EXPECT_THROW(m.speedupOf(-1), std::out_of_range);
    EXPECT_THROW(m.speedupOf(2), std::out_of_range);
}

TEST(Bounds, VariantOfRejectsUnexploredCombo)
{
    tuner::Exploration ex;
    ex.shaderName = "test/sparse";
    ex.variantOfCombo.emplace(0, 0);
    EXPECT_EQ(ex.variantOf(FlagSet::none()), 0);
    try {
        ex.variantOf(FlagSet(3));
        FAIL() << "expected out_of_range";
    } catch (const std::out_of_range &e) {
        EXPECT_NE(std::string(e.what()).find("test/sparse"),
                  std::string::npos);
    }
}

TEST(Bounds, EngineResultMissListsKnownShaders)
{
    std::vector<corpus::CorpusShader> mini = {
        *corpus::findShader("simple/grayscale")};
    tuner::ExperimentEngine engine(mini, 1);
    try {
        engine.result("no/such_shader");
        FAIL() << "expected out_of_range";
    } catch (const std::out_of_range &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("no/such_shader"), std::string::npos);
        EXPECT_NE(what.find("simple/grayscale"), std::string::npos);
    }
}

// ---- the decoupling headline: a ninth pass, end to end ---------------

TEST(Registry, NinthPassEndToEndWithoutTouchingOtherLayers)
{
    if (PassRegistry::instance().count() != 8)
        GTEST_SKIP() << "counts assume the 9th bit is free; "
                        "GSOPT_EXTRA_PASSES occupies it";
    // A real transformation the registry has never seen: aggressive
    // use-site sinking. Registered at the end of the pipeline with the
    // stage contract (trailing canonicalisation) honoured.
    passes::ScopedPass ninth(
        "registry_test/sink", "Sink",
        [](ir::Module &m) {
            passes::scheduleForPressure(m, 1);
            passes::canonicalize(m);
        });
    ASSERT_EQ(ninth.bit(), 8);
    EXPECT_EQ(tuner::flagCount(), 9u);
    EXPECT_EQ(tuner::comboCount(), 512u);
    EXPECT_EQ(tuner::allFlagSets().size(), 512u);
    EXPECT_TRUE(FlagSet::all().has(8));
    EXPECT_FALSE(FlagSet::lunarGlassDefaults().has(8));
    EXPECT_EQ(FlagSet::none().with(8).str(), "{Sink}");

    // Exploration sizes itself from the registry: 512 combinations,
    // every one mapped (exploreShader code untouched).
    corpus::CorpusShader s;
    s.name = "test/ninth";
    s.family = "test";
    s.source = "#version 450\n"
               "in vec2 uv;\n"
               "out vec4 c;\n"
               "void main() {\n"
               "  float a = uv.x * 3.0 + 1.0;\n"
               "  float b = uv.y / 4.0;\n"
               "  vec3 t = vec3(a, b, a * b);\n"
               "  if (uv.x > 0.5) { t = t * 2.0; }\n"
               "  c = vec4(t, a + b);\n"
               "}\n";
    tuner::Exploration ex = tuner::exploreShader(s);
    EXPECT_EQ(ex.exploredFlagCount, 9u);
    EXPECT_EQ(ex.variantOfCombo.size(), 512u);
    size_t producer_total = 0;
    for (const auto &v : ex.variants)
        producer_total += v.producers.size();
    EXPECT_EQ(producer_total, 512u);

    // The tree walk still equals the linear pipeline with the ninth
    // pass gated in (pipeline/explore code untouched).
    auto base = emit::compileToIr(s.source);
    for (uint64_t bits : {1ull << 8, (1ull << 9) - 1, 0x155ull}) {
        auto linear = base->clone();
        passes::optimize(*linear, FlagSet(bits));
        const int variant = ex.variantOf(FlagSet(bits));
        EXPECT_EQ(emit::emitGlsl(*linear),
                  ex.variants[static_cast<size_t>(variant)].source)
            << bits;
    }

    // And the campaign engine runs the widened space end to end
    // (engine code untouched).
    tuner::ExperimentEngine engine({s}, 2);
    const tuner::ShaderResult &r = engine.result("test/ninth");
    EXPECT_EQ(r.byDevice.size(), gpu::allDevices().size());
    for (const auto &[dev, m] : r.byDevice) {
        EXPECT_GT(m.originalMeanNs, 0.0);
        EXPECT_EQ(m.variantMeanNs.size(), r.exploration.uniqueCount());
    }
    const double best = r.bestSpeedup(gpu::DeviceId::Arm);
    EXPECT_GE(best + 1e-9,
              r.speedupFor(gpu::DeviceId::Arm, FlagSet::none().with(8)));
}

// ---- the extra-pass catalog: licm / strength_reduce / tex_batch ------

TEST(Catalog, ListsTheThreeShippedPasses)
{
    if (PassRegistry::instance().count() != 8)
        GTEST_SKIP() << "needs the catalog unregistered; "
                        "GSOPT_EXTRA_PASSES pre-registers it";
    const auto &catalog = passes::extraPassCatalog();
    ASSERT_EQ(catalog.size(), 3u);
    EXPECT_EQ(catalog[0].id, "licm");
    EXPECT_EQ(catalog[0].name, "LICM");
    EXPECT_EQ(catalog[1].id, "strength_reduce");
    EXPECT_EQ(catalog[1].name, "Strength Reduce");
    EXPECT_EQ(catalog[2].id, "tex_batch");
    EXPECT_EQ(catalog[2].name, "Tex Batch");
    // Catalogued, not registered: the default space stays the paper's.
    for (const auto &d : catalog)
        EXPECT_EQ(PassRegistry::instance().bitOf(d.id), -1) << d.id;
    EXPECT_EQ(passes::registerExtraPass("no/such_pass"), -1);
}

TEST(Catalog, ScopedRegistrationWidensAndRestoresTheSpace)
{
    PassRegistry &reg = PassRegistry::instance();
    if (reg.count() != 8)
        GTEST_SKIP() << "needs the catalog unregistered; "
                        "GSOPT_EXTRA_PASSES pre-registers it";
    const uint64_t sig_before = reg.signature();
    const size_t count_before = reg.count();
    {
        passes::ScopedExtraPasses extras;
        ASSERT_EQ(extras.bits().size(), 3u);
        EXPECT_EQ(reg.count(), count_before + 3);
        EXPECT_EQ(tuner::comboCount(), 1ull << (count_before + 3));
        EXPECT_EQ(reg.bitOf("licm"), static_cast<int>(count_before));
        EXPECT_EQ(reg.bitOf("tex_batch"),
                  static_cast<int>(count_before) + 2);
        EXPECT_NE(reg.signature(), sig_before);
        // Appended to the end of the pipeline, catalog order.
        const auto &pipeline = reg.pipeline();
        EXPECT_EQ(pipeline[pipeline.size() - 3]->id, "licm");
        EXPECT_EQ(pipeline[pipeline.size() - 2]->id,
                  "strength_reduce");
        EXPECT_EQ(pipeline[pipeline.size() - 1]->id, "tex_batch");
        // A second scope is a no-op (everything already registered).
        passes::ScopedExtraPasses again;
        EXPECT_TRUE(again.bits().empty());
        EXPECT_EQ(reg.count(), count_before + 3);
    }
    EXPECT_EQ(reg.count(), count_before);
    EXPECT_EQ(reg.signature(), sig_before);
}

TEST(Catalog, FlagSetPlumbingCarriesCatalogBits)
{
    passes::ScopedExtraPasses extras;
    const int tb = PassRegistry::instance().bitOf("tex_batch");
    ASSERT_GE(tb, 8);
    const FlagSet set = FlagSet::none().with(tb);
    EXPECT_EQ(set.str(), "{Tex Batch}");
    EXPECT_TRUE(FlagSet::all().has(tb));
    EXPECT_FALSE(FlagSet::lunarGlassDefaults().has(tb));
}

// ---- satellite: the parallel engine reproduces the serial engine -----

TEST(Engine, ParallelBitIdenticalToSerial)
{
    std::vector<corpus::CorpusShader> mini;
    for (const char *name :
         {"simple/grayscale", "toon/bands3", "tonemap/aces"})
        mini.push_back(*corpus::findShader(name));

    tuner::ExperimentEngine serial(mini, 1);
    tuner::ExperimentEngine parallel(mini, 4);

    ASSERT_EQ(serial.results().size(), parallel.results().size());
    for (size_t i = 0; i < serial.results().size(); ++i) {
        const tuner::ShaderResult &a = serial.results()[i];
        const tuner::ShaderResult &b = parallel.results()[i];
        EXPECT_EQ(a.exploration.shaderName, b.exploration.shaderName);
        ASSERT_EQ(a.exploration.variants.size(),
                  b.exploration.variants.size());
        for (size_t v = 0; v < a.exploration.variants.size(); ++v) {
            EXPECT_EQ(a.exploration.variants[v].source,
                      b.exploration.variants[v].source);
            EXPECT_EQ(a.exploration.variants[v].producers.size(),
                      b.exploration.variants[v].producers.size());
        }
        EXPECT_EQ(a.exploration.variantOfCombo,
                  b.exploration.variantOfCombo);
        EXPECT_EQ(a.exploration.passthroughVariant,
                  b.exploration.passthroughVariant);
        ASSERT_EQ(a.byDevice.size(), b.byDevice.size());
        for (const auto &[dev, m] : a.byDevice) {
            // Bit-identical: exact double equality, no tolerance.
            EXPECT_TRUE(m == b.byDevice.at(dev))
                << a.exploration.shaderName;
        }
    }
}

} // namespace
} // namespace gsopt
