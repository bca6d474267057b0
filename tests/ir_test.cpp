/**
 * @file
 * Unit tests for the IR: builder, verifier, walking/cloning utilities,
 * dumper, and the reference interpreter.
 */
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/dump.h"
#include "ir/interp.h"
#include "ir/ir.h"
#include "ir/verifier.h"
#include "ir/walk.h"

namespace gsopt::ir {
namespace {

TEST(IrBuilder, BuildsVerifiableModule)
{
    Module m;
    Var *out = m.newVar("color", Type::vec(4), VarKind::Output);
    IrBuilder b(m);
    Instr *half = b.constFloat(0.5);
    Instr *v = b.construct(Type::vec(4), {half});
    b.store(out, v);
    EXPECT_TRUE(verify(m).empty());
    EXPECT_EQ(m.instructionCount(), 3u);
}

TEST(IrBuilder, BinaryResultTypes)
{
    Module m;
    IrBuilder b(m);
    Instr *a = b.constSplat(Type::vec(3), 1.0);
    Instr *c = b.constSplat(Type::vec(3), 2.0);
    EXPECT_EQ(b.binary(Opcode::Add, a, c)->type, Type::vec(3));
    EXPECT_EQ(b.binary(Opcode::Dot, a, c)->type, Type::floatTy());
    EXPECT_EQ(b.binary(Opcode::Lt, b.constFloat(1), b.constFloat(2))
                  ->type,
              Type::boolTy());
    EXPECT_EQ(b.unary(Opcode::Length, a)->type, Type::floatTy());
    EXPECT_EQ(b.swizzle(a, {0, 1})->type, Type::vec(2));
    EXPECT_EQ(b.swizzle(a, {2})->type, Type::floatTy());
}

TEST(Verifier, CatchesUseBeforeDef)
{
    Module m;
    IrBuilder b(m);
    // Manually create an instruction whose operand comes later.
    Instr *x = b.constFloat(1.0);
    Instr *y = b.unary(Opcode::Neg, x);
    // Swap order inside the block to break dominance.
    auto *block = dyn_cast<Block>(m.body.nodes[0].get());
    ASSERT_NE(block, nullptr);
    std::swap(block->instrs[0], block->instrs[1]);
    (void)y;
    EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, CatchesStoreToReadOnly)
{
    Module m;
    Var *u = m.newVar("u", Type::floatTy(), VarKind::Uniform);
    IrBuilder b(m);
    b.store(u, b.constFloat(0.0));
    EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, CatchesBranchValueEscape)
{
    Module m;
    Var *out = m.newVar("o", Type::floatTy(), VarKind::Output);
    IrBuilder b(m);
    Instr *cond = b.constBool(true);
    IfNode *ifn = b.createIf(cond);
    b.pushRegion(&ifn->thenRegion);
    Instr *inner = b.constFloat(1.0);
    b.popRegion();
    b.store(out, inner); // illegal: value defined in branch
    EXPECT_FALSE(verify(m).empty());
}

TEST(Verifier, CatchesTypeMismatch)
{
    Module m;
    IrBuilder b(m);
    Instr *a = b.constFloat(1.0);
    Instr *v = b.constSplat(Type::vec(4), 1.0);
    Instr *bad = b.emit(Opcode::Add, Type::vec(4), {a, v});
    (void)bad;
    EXPECT_FALSE(verify(m).empty());
}

TEST(Walk, CloneRemapsOperands)
{
    Module m;
    IrBuilder b(m);
    Var *out = m.newVar("o", Type::floatTy(), VarKind::Output);
    LoopNode *loop = b.createLoop();
    loop->canonical = true;
    loop->counter = m.newVar("i", Type::intTy(), VarKind::Local);
    loop->init = 0;
    loop->limit = 3;
    loop->step = 1;
    b.pushRegion(&loop->body);
    Instr *x = b.constFloat(2.0);
    Instr *y = b.unary(Opcode::Neg, x);
    b.store(out, y);
    b.popRegion();

    Region clone;
    ValueMap map;
    cloneRegionInto(loop->body, clone, m, map);
    ASSERT_EQ(clone.instructionCount(), 3u);
    // The cloned Neg must reference the cloned Const, not the original.
    const Block *cb = dyn_cast<Block>(clone.nodes[0].get());
    ASSERT_NE(cb, nullptr);
    EXPECT_EQ(cb->instrs[1]->operands[0], cb->instrs[0]);
    EXPECT_NE(cb->instrs[0], x);
}

TEST(Walk, SimplifyMergesAdjacentBlocks)
{
    Module m;
    auto b1 = std::make_unique<Block>();
    auto b2 = std::make_unique<Block>();
    Instr *i1 = m.newInstr();
    i1->op = Opcode::Discard;
    i1->type = Type::voidTy();
    b2->instrs.push_back(i1);
    m.body.nodes.push_back(std::move(b1)); // empty block
    m.body.nodes.push_back(std::move(b2));
    EXPECT_TRUE(simplifyRegionStructure(m.body));
    EXPECT_EQ(m.body.nodes.size(), 1u);
}

TEST(Dump, ContainsOpcodeAndVars)
{
    Module m;
    Var *out = m.newVar("color", Type::vec(4), VarKind::Output);
    IrBuilder b(m);
    b.store(out, b.constSplat(Type::vec(4), 1.0));
    std::string text = dump(m);
    EXPECT_NE(text.find("var @color : vec4 out"), std::string::npos);
    EXPECT_NE(text.find("store"), std::string::npos);
}

// ------------------------------------------------------------- clone

/** A module exercising every node kind: block, if, canonical loop. */
std::unique_ptr<Module>
buildCloneFixture()
{
    auto m = std::make_unique<Module>();
    Var *in = m->newVar("x", Type::floatTy(), VarKind::Input);
    Var *acc = m->newVar("acc", Type::floatTy(), VarKind::Local);
    Var *out = m->newVar("o", Type::vec(2), VarKind::Output);
    IrBuilder b(*m);
    b.store(acc, b.constFloat(0.0));
    LoopNode *loop = b.createLoop();
    loop->canonical = true;
    loop->counter = m->newVar("i", Type::intTy(), VarKind::Local);
    loop->init = 0;
    loop->limit = 4;
    loop->step = 1;
    b.pushRegion(&loop->body);
    Instr *iv = b.construct(Type::floatTy(), {b.load(loop->counter)});
    b.store(acc, b.binary(Opcode::Add, b.load(acc), iv));
    b.popRegion();
    Instr *cond = b.binary(Opcode::Gt, b.load(in), b.constFloat(0.5));
    IfNode *ifn = b.createIf(cond);
    b.pushRegion(&ifn->thenRegion);
    b.store(acc, b.binary(Opcode::Mul, b.load(acc), b.constFloat(2.0)));
    b.popRegion();
    b.store(out, b.construct(Type::vec(2), {b.load(acc)}));
    return m;
}

TEST(Clone, VerifiesAndMatchesFingerprint)
{
    auto m = buildCloneFixture();
    auto c = m->clone();
    EXPECT_TRUE(verify(*c).empty());
    EXPECT_EQ(c->instructionCount(), m->instructionCount());
    EXPECT_EQ(c->idBound(), m->idBound());
    EXPECT_EQ(fingerprint(*c), fingerprint(*m));
}

TEST(Clone, OwnsItsReferences)
{
    auto m = buildCloneFixture();
    auto c = m->clone();
    // No instruction or var in the clone may point into the original.
    std::unordered_map<const Instr *, bool> mine;
    forEachInstr(c->body, [&](const Instr &i) { mine[&i] = true; });
    forEachInstr(c->body, [&](const Instr &i) {
        for (const Instr *op : i.operands)
            EXPECT_TRUE(mine.count(op));
        if (i.var) {
            bool in_clone = false;
            for (const Var *v : c->vars)
                in_clone |= v == i.var;
            EXPECT_TRUE(in_clone);
        }
    });
}

TEST(Clone, InterpMatchesOriginal)
{
    auto m = buildCloneFixture();
    auto c = m->clone();
    for (double x : {0.1, 0.9}) {
        InterpEnv env;
        env.inputs["x"] = {x};
        auto a = interpret(*m, env);
        auto b = interpret(*c, env);
        ASSERT_EQ(a.outputs.size(), b.outputs.size());
        for (const auto &[name, lanes] : a.outputs) {
            const auto &other = b.outputs.at(name);
            ASSERT_EQ(lanes.size(), other.size());
            for (size_t k = 0; k < lanes.size(); ++k)
                EXPECT_EQ(lanes[k], other[k]);
        }
    }
}

TEST(Clone, MutatingCloneLeavesOriginalUntouched)
{
    auto m = buildCloneFixture();
    const size_t before = m->instructionCount();
    const uint64_t fp_before = fingerprint(*m);
    auto c = m->clone();

    // Hack the clone: rewrite its first constant and drop the if-node.
    forEachInstr(c->body, [](Instr &i) {
        if (i.op == Opcode::Const && !i.constData.empty())
            i.constData[0] = 42.0;
    });
    eraseInstrsIf(c->body, [](const Instr &i) {
        return i.op == Opcode::StoreVar;
    });
    EXPECT_EQ(m->instructionCount(), before);
    EXPECT_EQ(fingerprint(*m), fp_before);
    EXPECT_NE(fingerprint(*c), fp_before);

    InterpEnv env;
    env.inputs["x"] = {0.9};
    EXPECT_DOUBLE_EQ(interpret(*m, env).outputs.at("o")[0],
                     (0.0 + 1 + 2 + 3) * 2.0);
}

// ------------------------------------------------------- fingerprint

TEST(Fingerprint, InsensitiveToIdHistory)
{
    // Two modules with identical structure but different id histories
    // (builder scratch work) must fingerprint identically.
    Module a;
    {
        Var *out = a.newVar("o", Type::floatTy(), VarKind::Output);
        IrBuilder b(a);
        b.store(out, b.constFloat(1.5));
    }
    Module b2;
    {
        b2.nextId(); // burn ids so the structural twins differ
        b2.nextId();
        Var *out = b2.newVar("o", Type::floatTy(), VarKind::Output);
        IrBuilder b(b2);
        b.store(out, b.constFloat(1.5));
    }
    EXPECT_EQ(fingerprint(a), fingerprint(b2));
}

TEST(Fingerprint, SensitiveToStructure)
{
    Module a;
    Var *oa = a.newVar("o", Type::floatTy(), VarKind::Output);
    IrBuilder ba(a);
    ba.store(oa, ba.constFloat(1.5));

    Module b;
    Var *ob = b.newVar("o", Type::floatTy(), VarKind::Output);
    IrBuilder bb(b);
    bb.store(ob, bb.constFloat(2.5));

    EXPECT_NE(fingerprint(a), fingerprint(b));
}

// ----------------------------------------------------------- interp

TEST(Interp, EvaluatesArithmetic)
{
    Module m;
    Var *out = m.newVar("o", Type::vec(2), VarKind::Output);
    IrBuilder b(m);
    Instr *v = b.constVec(Type::vec(2), {3.0, 4.0});
    Instr *len = b.unary(Opcode::Length, v);
    Instr *splat = b.construct(Type::vec(2), {len});
    b.store(out, b.binary(Opcode::Mul, v, splat));
    auto r = interpret(m, {});
    ASSERT_EQ(r.outputs.at("o").size(), 2u);
    EXPECT_DOUBLE_EQ(r.outputs.at("o")[0], 15.0);
    EXPECT_DOUBLE_EQ(r.outputs.at("o")[1], 20.0);
}

TEST(Interp, CanonicalLoopAccumulates)
{
    Module m;
    Var *acc = m.newVar("acc", Type::floatTy(), VarKind::Local);
    Var *out = m.newVar("o", Type::floatTy(), VarKind::Output);
    IrBuilder b(m);
    b.store(acc, b.constFloat(0.0));
    LoopNode *loop = b.createLoop();
    loop->canonical = true;
    loop->counter = m.newVar("i", Type::intTy(), VarKind::Local);
    loop->init = 0;
    loop->limit = 5;
    loop->step = 1;
    b.pushRegion(&loop->body);
    Instr *iv = b.load(loop->counter);
    Instr *fiv = b.construct(Type::floatTy(), {iv});
    b.store(acc, b.binary(Opcode::Add, b.load(acc), fiv));
    b.popRegion();
    b.store(out, b.load(acc));
    auto r = interpret(m, {});
    EXPECT_DOUBLE_EQ(r.outputs.at("o")[0], 0 + 1 + 2 + 3 + 4);
}

TEST(Interp, IfTakesCorrectBranch)
{
    Module m;
    Var *in = m.newVar("x", Type::floatTy(), VarKind::Input);
    Var *out = m.newVar("o", Type::floatTy(), VarKind::Output);
    IrBuilder b(m);
    Instr *cond = b.binary(Opcode::Gt, b.load(in), b.constFloat(0.0));
    IfNode *ifn = b.createIf(cond);
    b.pushRegion(&ifn->thenRegion);
    b.store(out, b.constFloat(1.0));
    b.popRegion();
    b.pushRegion(&ifn->elseRegion);
    b.store(out, b.constFloat(-1.0));
    b.popRegion();

    InterpEnv env;
    env.inputs["x"] = {5.0};
    EXPECT_DOUBLE_EQ(interpret(m, env).outputs.at("o")[0], 1.0);
    env.inputs["x"] = {-5.0};
    EXPECT_DOUBLE_EQ(interpret(m, env).outputs.at("o")[0], -1.0);
}

TEST(Interp, DiscardStopsExecution)
{
    Module m;
    Var *out = m.newVar("o", Type::floatTy(), VarKind::Output);
    IrBuilder b(m);
    b.store(out, b.constFloat(1.0));
    b.emit(Opcode::Discard, Type::voidTy());
    b.store(out, b.constFloat(2.0));
    auto r = interpret(m, {});
    EXPECT_TRUE(r.discarded);
    EXPECT_DOUBLE_EQ(r.outputs.at("o")[0], 1.0);
}

TEST(Interp, DefaultsAreHalf)
{
    Module m;
    Var *u = m.newVar("gain", Type::floatTy(), VarKind::Uniform);
    Var *out = m.newVar("o", Type::floatTy(), VarKind::Output);
    IrBuilder b(m);
    b.store(out, b.load(u));
    EXPECT_DOUBLE_EQ(interpret(m, {}).outputs.at("o")[0], 0.5);
}

TEST(Interp, TextureIsSmoothAndDeterministic)
{
    auto a = defaultTexture(0.25, 0.5, 0.0);
    auto b = defaultTexture(0.25, 0.5, 0.0);
    auto c = defaultTexture(0.2501, 0.5, 0.0);
    EXPECT_EQ(a, b);
    EXPECT_NEAR(a[0], c[0], 0.01);
    for (double ch : a) {
        EXPECT_GE(ch, 0.0);
        EXPECT_LE(ch, 1.0);
    }
}

TEST(Interp, ConstArrayLoads)
{
    Module m;
    Var *arr = m.newVar("w", Type::floatTy().array(3),
                        VarKind::ConstArray);
    arr->constInit = {10.0, 20.0, 30.0};
    Var *out = m.newVar("o", Type::floatTy(), VarKind::Output);
    IrBuilder b(m);
    Instr *idx = b.constInt(2);
    b.store(out, b.loadElem(arr, idx));
    EXPECT_DOUBLE_EQ(interpret(m, {}).outputs.at("o")[0], 30.0);
}

} // namespace
} // namespace gsopt::ir
