/**
 * @file
 * Arena lifetime semantics. The IR refactor moved Instr/Var storage
 * into a per-Module bump arena; these tests pin down the ownership
 * contract that passes and the exploration tree rely on:
 *
 *  - a clone is storage-independent and outlives its source module;
 *  - unlinking instructions never invalidates other references
 *    (addresses are stable until the module dies);
 *  - the interpreter and the verifier behave identically over
 *    arena-backed IR (bit-identical to interpretReference);
 *  - the allocator itself: bump allocation, chunk growth, accounting,
 *    and the InlineVec fixed-capacity surface.
 */
#include <gtest/gtest.h>

#include "corpus/corpus.h"
#include "emit/emit.h"
#include "glsl/frontend.h"
#include "ir/arena.h"
#include "ir/interp.h"
#include "ir/verifier.h"
#include "ir/walk.h"
#include "lower/lower.h"
#include "passes/passes.h"
#include "runtime/framework.h"
#include "tuner/flags.h"

namespace gsopt {
namespace {

// ------------------------------------------------------------- arena

TEST(Arena, BumpAllocatesAndAccounts)
{
    ir::Arena arena;
    EXPECT_EQ(arena.bytesUsed(), 0u);
    EXPECT_EQ(arena.chunkCount(), 0u);

    int *a = arena.create<int>(7);
    double *b = arena.create<double>(1.5);
    EXPECT_EQ(*a, 7);
    EXPECT_EQ(*b, 1.5);
    EXPECT_GE(arena.bytesUsed(), sizeof(int) + sizeof(double));
    EXPECT_EQ(arena.chunkCount(), 1u);
    EXPECT_GE(arena.bytesReserved(), arena.bytesUsed());

    // Earlier objects stay valid and stable across chunk growth.
    for (int i = 0; i < 100000; ++i)
        arena.create<uint64_t>(static_cast<uint64_t>(i));
    EXPECT_GT(arena.chunkCount(), 1u);
    EXPECT_EQ(*a, 7);
    EXPECT_EQ(*b, 1.5);
}

TEST(Arena, ReserveHintGetsOneChunk)
{
    ir::Arena arena;
    arena.reserveHint(1 << 20);
    for (int i = 0; i < 1000; ++i)
        arena.create<uint64_t>(0);
    EXPECT_EQ(arena.chunkCount(), 1u);
}

TEST(Arena, MoveTransfersOwnership)
{
    ir::Arena a;
    int *p = a.create<int>(42);
    ir::Arena b = std::move(a);
    EXPECT_EQ(*p, 42);
    EXPECT_EQ(a.bytesUsed(), 0u);
    EXPECT_GT(b.bytesUsed(), 0u);
}

TEST(InlineVec, VectorSurface)
{
    ir::InlineVec<int, 4> v;
    EXPECT_TRUE(v.empty());
    v.push_back(1);
    v.push_back(2);
    EXPECT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0], 1);
    EXPECT_EQ(v.back(), 2);

    v = {5, 6, 7};
    EXPECT_EQ(v.size(), 3u);
    int sum = 0;
    for (int x : v)
        sum += x;
    EXPECT_EQ(sum, 18);

    std::vector<int> copy = v; // the implicit conversion to std::vector
    EXPECT_EQ(copy, (std::vector<int>{5, 6, 7}));

    ir::InlineVec<int, 4> w(std::vector<int>{5, 6, 7});
    EXPECT_TRUE(v == w);
    w.push_back(8);
    EXPECT_TRUE(v != w);

    v.assign(4u, 9);
    EXPECT_EQ(v.size(), 4u);
    EXPECT_EQ(v[3], 9);
    v.clear();
    EXPECT_TRUE(v.empty());
}

// ---------------------------------------------------- IR lifetimes

std::unique_ptr<ir::Module>
lowerCorpusShader(const char *name, passes::FlagSet flags)
{
    const corpus::CorpusShader &s = *corpus::findShader(name);
    glsl::CompiledShader cs = glsl::compileShader(s.source, s.defines);
    auto m = lower::lowerShader(cs);
    passes::optimize(*m, flags);
    return m;
}

TEST(ArenaLifetime, CloneOutlivesSourceModule)
{
    for (const char *name :
         {"simple/grayscale", "blur/weighted9", "uber/car_chase"}) {
        passes::FlagSet flags = passes::FlagSet::lunarGlassDefaults();
        auto source = lowerCorpusShader(name, flags);
        const uint64_t source_fp = ir::fingerprint(*source);
        const std::string source_text = emit::emitGlsl(*source);

        auto clone = source->clone();
        source.reset(); // free every source chunk

        // The clone must still verify, fingerprint, print, and run —
        // any pointer into the dead source arena would break here (and
        // trip ASan in the sanitizer CI job).
        EXPECT_TRUE(ir::verify(*clone).empty()) << name;
        EXPECT_EQ(ir::fingerprint(*clone), source_fp) << name;
        EXPECT_EQ(emit::emitGlsl(*clone), source_text) << name;

        const corpus::CorpusShader &s = *corpus::findShader(name);
        glsl::CompiledShader cs =
            glsl::compileShader(s.source, s.defines);
        ir::InterpEnv env = runtime::defaultEnvironment(cs.interface);
        auto result = ir::interpret(*clone, env);
        EXPECT_FALSE(result.outputs.empty()) << name;
    }
}

TEST(ArenaLifetime, UnlinkedInstructionsKeepStableAddresses)
{
    auto m = lowerCorpusShader("simple/grayscale",
                               passes::FlagSet::none());
    // Collect the addresses of everything, then DCE-style unlink every
    // pure instruction from the blocks.
    std::vector<const ir::Instr *> all;
    ir::forEachInstr(m->body, [&](const ir::Instr &i) {
        all.push_back(&i);
    });
    ASSERT_FALSE(all.empty());
    ir::eraseInstrsIf(m->body, [](const ir::Instr &i) {
        return !ir::hasSideEffects(i.op);
    });
    // The unlinked instructions are still readable: their storage
    // belongs to the arena, not to the block lists.
    for (const ir::Instr *i : all)
        EXPECT_LT(i->id, m->idBound());
}

TEST(ArenaLifetime, ModuleReportsArenaFootprint)
{
    auto m = lowerCorpusShader("blur/weighted9",
                               passes::FlagSet::none());
    const size_t bytes = m->arenaBytes();
    EXPECT_GT(bytes, m->instructionCount() * sizeof(ir::Instr) / 2);
    auto c = m->clone();
    // The clone pre-reserves the source footprint: same bytes, and it
    // all fits one chunk.
    EXPECT_GE(c->arenaBytes(), bytes / 2);
    EXPECT_EQ(c->arena().chunkCount(), 1u);
}

// ------------------------------------- interp/verifier equivalence

TEST(ArenaInterp, InterpretBitIdenticalToReferenceOverArenaIr)
{
    // Focused spot-check (the exhaustive sweep lives in
    // interp_golden_test): optimized arena-backed IR must interpret
    // bit-identically on both engines after the source of a clone is
    // gone.
    for (const char *name : {"tonemap/aces", "pbr/full"}) {
        const corpus::CorpusShader &s = *corpus::findShader(name);
        glsl::CompiledShader cs =
            glsl::compileShader(s.source, s.defines);
        ir::InterpEnv env = runtime::defaultEnvironment(cs.interface);

        auto source = lowerCorpusShader(
            name, passes::FlagSet::lunarGlassDefaults());
        auto m = source->clone();
        source.reset();

        EXPECT_TRUE(ir::verify(*m).empty()) << name;
        auto fast = ir::interpret(*m, env);
        auto ref = ir::interpretReference(*m, env);
        ASSERT_EQ(fast.discarded, ref.discarded) << name;
        ASSERT_EQ(fast.executedInstructions, ref.executedInstructions)
            << name;
        ASSERT_EQ(fast.outputs.size(), ref.outputs.size()) << name;
        for (const auto &[out_name, lanes] : ref.outputs) {
            const auto &g = fast.outputs.at(out_name);
            ASSERT_EQ(g.size(), lanes.size()) << name;
            for (size_t k = 0; k < lanes.size(); ++k)
                EXPECT_EQ(g[k], lanes[k]) << name << " lane " << k;
        }
    }
}

} // namespace
} // namespace gsopt
