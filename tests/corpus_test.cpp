/**
 * @file
 * Corpus population tests: every shader compiles, lowers, executes, and
 * round-trips; the population matches the properties the paper reports
 * for GFXBench 4.0 (Section V): power-law sizes, max ~300 lines,
 * majority small, loops uncommon, übershader families.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>

#include "analysis/loc.h"
#include "corpus/corpus.h"
#include "emit/offline.h"
#include "glsl/frontend.h"
#include "ir/interp.h"
#include "ir/walk.h"
#include "lower/lower.h"
#include "runtime/framework.h"

namespace gsopt::corpus {
namespace {

TEST(Corpus, SizeAndUniqueNames)
{
    const auto &all = corpus();
    EXPECT_GE(all.size(), 90u);
    std::set<std::string> names;
    for (const auto &s : all)
        EXPECT_TRUE(names.insert(s.name).second)
            << "duplicate " << s.name;
}

TEST(Corpus, MotivatingExamplePresent)
{
    const CorpusShader &m = motivatingExample();
    EXPECT_EQ(m.name, "blur/weighted9");
    EXPECT_NE(m.source.find("weightTotal"), std::string::npos);
    EXPECT_NE(m.source.find("3.0"), std::string::npos);
    EXPECT_NE(m.source.find("ambient"), std::string::npos);
}

class CorpusEach : public ::testing::TestWithParam<size_t>
{
};

/** Bit pattern of a double — lets the tile checks assert true
 * bit-identity even when a sum is NaN (NaN != NaN under operator==,
 * but the engines must still agree on the exact bits). */
uint64_t
bits(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

TEST_P(CorpusEach, CompilesLowersExecutes)
{
    const CorpusShader &s = corpus()[GetParam()];
    glsl::CompiledShader cs = glsl::compileShader(s.source, s.defines);
    ASSERT_FALSE(cs.interface.outputs.empty()) << s.name;
    auto module = lower::lowerShader(cs);
    const ir::InterpEnv &env =
        runtime::defaultEnvironmentCached(cs.interface);
    auto result = ir::interpret(*module, env);
    // Outputs must be finite (shader executes meaningfully with the
    // framework's auto-initialised inputs), unless discarded.
    if (!result.discarded) {
        for (const auto &[name, lanes] : result.outputs) {
            for (double v : lanes)
                EXPECT_TRUE(std::isfinite(v)) << s.name << "/" << name;
        }
    }
}

TEST_P(CorpusEach, TileExecutionBatchedMatchesScalar)
{
    // The bulk functional check: an 8x6 tile sweeps the shader's
    // varyings across the unit square, once per fragment on the scalar
    // engine and once through the batched SIMT engine. Everything the
    // tile aggregates — fragment/discard counts, the dynamic
    // instruction total, and row-major per-component output sums —
    // must match bit-for-bit.
    const CorpusShader &s = corpus()[GetParam()];
    glsl::CompiledShader cs = glsl::compileShader(s.source, s.defines);
    auto module = lower::lowerShader(cs);

    runtime::TileOptions scalarOpts;
    scalarOpts.width = 8;
    scalarOpts.height = 6;
    scalarOpts.batchWidth = 0; // scalar reference path
    const runtime::TileResult want =
        runtime::interpretTile(*module, cs.interface, scalarOpts);
    EXPECT_EQ(want.fragments, 48u) << s.name;

    for (size_t w : {size_t{8}, size_t{16}}) {
        runtime::TileOptions opts = scalarOpts;
        opts.batchWidth = w;
        const runtime::TileResult got =
            runtime::interpretTile(*module, cs.interface, opts);
        EXPECT_EQ(got.fragments, want.fragments) << s.name;
        EXPECT_EQ(got.discardedFragments, want.discardedFragments)
            << s.name;
        EXPECT_EQ(got.executedInstructions, want.executedInstructions)
            << s.name;
        EXPECT_EQ(got.allFinite, want.allFinite) << s.name;
        ASSERT_EQ(got.outputSums.size(), want.outputSums.size())
            << s.name;
        for (const auto &[name, sums] : want.outputSums) {
            const auto &g = got.outputSums.at(name);
            ASSERT_EQ(g.size(), sums.size()) << s.name << "/" << name;
            for (size_t c = 0; c < sums.size(); ++c)
                EXPECT_EQ(bits(g[c]), bits(sums[c]))
                    << s.name << "/" << name << "[" << c << "] W=" << w
                    << " got " << g[c] << " want " << sums[c];
        }
    }
}

TEST_P(CorpusEach, SurvivesFullOptimizationPipeline)
{
    const CorpusShader &s = corpus()[GetParam()];
    std::string text = emit::optimizeShaderSource(
        s.source, passes::FlagSet::all(), s.defines);
    // Driver path must accept the optimized output.
    auto module = emit::compileToIr(text);
    EXPECT_GT(module->instructionCount(), 0u) << s.name;
}

INSTANTIATE_TEST_SUITE_P(
    All, CorpusEach,
    ::testing::Range(size_t{0}, corpus().size()),
    [](const ::testing::TestParamInfo<size_t> &info) {
        std::string name = corpus()[info.param].name;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(CorpusPopulation, SizeDistributionMatchesPaper)
{
    // Paper Fig 4a: most shaders < 50 preprocessed lines, max ~300,
    // power-law-like shape.
    int small = 0, total = 0, max_lines = 0;
    for (const auto &s : corpus()) {
        glsl::CompiledShader cs =
            glsl::compileShader(s.source, s.defines);
        int lines = analysis::executableLines(cs.preprocessedText);
        max_lines = std::max(max_lines, lines);
        small += lines < 50;
        ++total;
    }
    EXPECT_GT(small * 2, total) << "majority must be <50 lines";
    EXPECT_LE(max_lines, 320);
    EXPECT_GE(max_lines, 60) << "need a long tail";
}

TEST(CorpusPopulation, LoopsAreUncommon)
{
    // Paper V-A: "Loops are surprisingly uncommon in these shaders."
    int with_loops = 0, total = 0;
    for (const auto &s : corpus()) {
        auto module = emit::compileToIr(s.source, s.defines);
        bool has_loop = false;
        ir::forEachNode(module->body, [&](ir::Node &n) {
            has_loop |= n.kind() == ir::NodeKind::Loop;
        });
        with_loops += has_loop;
        ++total;
    }
    EXPECT_LT(with_loops * 3, total)
        << "no more than a third of shaders may contain loops";
}

TEST(CorpusPopulation, UbershaderFamiliesShareCode)
{
    // Members of the pbr family must share their base source and
    // differ only in defines (paper IV-A).
    std::map<std::string, std::set<std::string>> family_sources;
    for (const auto &s : corpus())
        family_sources[s.family].insert(s.source);
    ASSERT_TRUE(family_sources.count("pbr"));
    EXPECT_EQ(family_sources["pbr"].size(), 1u);
    // And at least 10 pbr variants exist.
    int pbr_count = 0;
    for (const auto &s : corpus())
        pbr_count += s.family == "pbr";
    EXPECT_GE(pbr_count, 10);
}

TEST(CorpusPopulation, FamilyVariantsDiffer)
{
    // Different defines must yield different preprocessed text.
    const CorpusShader *base = findShader("pbr/base");
    const CorpusShader *full = findShader("pbr/full");
    ASSERT_NE(base, nullptr);
    ASSERT_NE(full, nullptr);
    glsl::CompiledShader a =
        glsl::compileShader(base->source, base->defines);
    glsl::CompiledShader b =
        glsl::compileShader(full->source, full->defines);
    EXPECT_LT(a.preprocessedText.size(), b.preprocessedText.size());
}

} // namespace
} // namespace gsopt::corpus
