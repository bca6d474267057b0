/**
 * @file
 * Tests for AST -> IR lowering: structure, artefact reproduction
 * (scalarised matrices, splat vectorisation), inlining, loop
 * canonicalisation — all validated against the interpreter.
 */
#include <gtest/gtest.h>

#include <limits>

#include "campaign_texts.h"
#include "test_md5.h"

#include "emit/emit.h"
#include "emit/offline.h"
#include "glsl/frontend.h"
#include "ir/dump.h"
#include "ir/interp.h"
#include "ir/verifier.h"
#include "ir/walk.h"
#include "lower/lower.h"
#include "passes/passes.h"
#include "tuner/features.h"
#include "tuner/flags.h"

namespace gsopt {
namespace {

using ir::InterpEnv;

std::unique_ptr<ir::Module>
lowerOk(const std::string &src)
{
    auto m = emit::compileToIr(src);
    EXPECT_TRUE(ir::verify(*m).empty());
    return m;
}

double
outScalar(const ir::Module &m, const InterpEnv &env = {},
          const char *name = "c")
{
    auto r = ir::interpret(m, env);
    return r.outputs.at(name).at(0);
}

std::vector<double>
outVec(const ir::Module &m, const InterpEnv &env = {},
       const char *name = "c")
{
    return ir::interpret(m, env).outputs.at(name);
}

TEST(Lower, SimpleArithmetic)
{
    auto m = lowerOk("out float c; void main() { c = 2.0 * 3.0 + "
                     "1.0; }");
    EXPECT_DOUBLE_EQ(outScalar(*m), 7.0);
}

TEST(Lower, VectorSwizzles)
{
    auto m = lowerOk(R"(
        out vec4 c;
        void main() {
            vec4 v = vec4(1.0, 2.0, 3.0, 4.0);
            c = v.wzyx;
        }
    )");
    auto out = outVec(*m);
    EXPECT_DOUBLE_EQ(out[0], 4.0);
    EXPECT_DOUBLE_EQ(out[3], 1.0);
}

TEST(Lower, ScalarTimesVectorSplats)
{
    // Artefact III-C.b: the scalar operand must be vectorised via a
    // Construct before the multiply.
    auto m = lowerOk(R"(
        in float f;
        out vec4 c;
        void main() { c = vec4(1.0, 2.0, 3.0, 4.0) * f; }
    )");
    bool saw_splat_mul = false;
    ir::forEachInstr(m->body, [&](const ir::Instr &i) {
        if (i.op == ir::Opcode::Mul && i.type == ir::Type::vec(4) &&
            (i.operands[0]->op == ir::Opcode::Construct ||
             i.operands[1]->op == ir::Opcode::Construct))
            saw_splat_mul = true;
    });
    EXPECT_TRUE(saw_splat_mul);
    InterpEnv env;
    env.inputs["f"] = {2.0};
    EXPECT_DOUBLE_EQ(outVec(*m, env)[2], 6.0);
}

TEST(Lower, MatrixVectorMultiplyScalarises)
{
    // Artefact III-C.a: no matrix values survive in the IR.
    auto m = lowerOk(R"(
        uniform mat2 m;
        out vec4 c;
        void main() {
            vec2 v = m * vec2(1.0, 2.0);
            c = vec4(v, 0.0, 1.0);
        }
    )");
    ir::forEachInstr(m->body, [](const ir::Instr &i) {
        EXPECT_FALSE(i.type.isMatrix()) << ir::dumpInstr(i);
    });
    // m = [[1,3],[2,4]] col-major {1,3, 2,4}: m*v = (1*1+2*2, 3*1+4*2)
    InterpEnv env;
    env.uniforms["m"] = {1.0, 3.0, 2.0, 4.0};
    auto out = outVec(*m, env);
    EXPECT_DOUBLE_EQ(out[0], 5.0);
    EXPECT_DOUBLE_EQ(out[1], 11.0);
}

TEST(Lower, MatrixMatrixMultiply)
{
    auto m = lowerOk(R"(
        uniform mat2 a;
        out vec4 c;
        void main() {
            mat2 sq = a * a;
            c = vec4(sq[0], sq[1]);
        }
    )");
    InterpEnv env;
    env.uniforms["a"] = {1.0, 0.0, 0.0, 2.0}; // diag(1,2)
    auto out = outVec(*m, env);
    EXPECT_DOUBLE_EQ(out[0], 1.0);
    EXPECT_DOUBLE_EQ(out[3], 4.0);
}

TEST(Lower, LocalMatrixStorageIsScalar)
{
    auto m = lowerOk(R"(
        out vec4 c;
        void main() {
            mat2 m = mat2(2.0);
            m[1] = vec2(5.0, 6.0);
            c = vec4(m[0].x, m[1].x, m[1].y, m[0].y);
        }
    )");
    auto out = outVec(*m);
    EXPECT_DOUBLE_EQ(out[0], 2.0);
    EXPECT_DOUBLE_EQ(out[1], 5.0);
    EXPECT_DOUBLE_EQ(out[2], 6.0);
    EXPECT_DOUBLE_EQ(out[3], 0.0);
}

TEST(Lower, CanonicalLoopRecognised)
{
    auto m = lowerOk(R"(
        out float c;
        void main() {
            float s = 0.0;
            for (int i = 0; i < 9; i++) { s += 0.125; }
            c = s;
        }
    )");
    bool found = false;
    ir::forEachNode(m->body, [&](ir::Node &n) {
        if (auto *l = ir::dyn_cast<ir::LoopNode>(&n)) {
            EXPECT_TRUE(l->canonical);
            EXPECT_EQ(l->tripCount(), 9);
            found = true;
        }
    });
    EXPECT_TRUE(found);
    EXPECT_DOUBLE_EQ(outScalar(*m), 9 * 0.125);
}

TEST(Lower, LessEqualLoopBound)
{
    auto m = lowerOk(R"(
        out float c;
        void main() {
            float s = 0.0;
            for (int i = 1; i <= 4; i += 1) { s += 1.0; }
            c = s;
        }
    )");
    ir::forEachNode(m->body, [&](ir::Node &n) {
        if (auto *l = ir::dyn_cast<ir::LoopNode>(&n)) {
            EXPECT_EQ(l->tripCount(), 4);
        }
    });
    EXPECT_DOUBLE_EQ(outScalar(*m), 4.0);
}

TEST(Lower, DynamicLoopFallsBackToGeneric)
{
    auto m = lowerOk(R"(
        uniform int n;
        out float c;
        void main() {
            float s = 0.0;
            for (int i = 0; i < n; i++) { s += 1.0; }
            c = s;
        }
    )");
    bool generic = false;
    ir::forEachNode(m->body, [&](ir::Node &n) {
        if (auto *l = ir::dyn_cast<ir::LoopNode>(&n))
            generic = !l->canonical;
    });
    EXPECT_TRUE(generic);
    InterpEnv env;
    env.uniforms["n"] = {3.0};
    EXPECT_DOUBLE_EQ(outScalar(*m, env), 3.0);
}

TEST(Lower, WhileLoop)
{
    auto m = lowerOk(R"(
        out float c;
        void main() {
            float x = 1.0;
            while (x < 10.0) { x = x * 2.0; }
            c = x;
        }
    )");
    EXPECT_DOUBLE_EQ(outScalar(*m), 16.0);
}

TEST(Lower, FunctionInlining)
{
    auto m = lowerOk(R"(
        out float c;
        float square(float x) { return x * x; }
        void main() { c = square(3.0) + square(4.0); }
    )");
    EXPECT_DOUBLE_EQ(outScalar(*m), 25.0);
    // No calls remain: every instruction is a primitive op.
    ir::forEachInstr(m->body, [](const ir::Instr &i) {
        (void)i; // all opcodes are primitives by construction
    });
}

TEST(Lower, NestedFunctionInlining)
{
    auto m = lowerOk(R"(
        out float c;
        float sq(float x) { return x * x; }
        float quad(float x) { return sq(sq(x)); }
        void main() { c = quad(2.0); }
    )");
    EXPECT_DOUBLE_EQ(outScalar(*m), 16.0);
}

TEST(Lower, InlinedFunctionWithLoop)
{
    auto m = lowerOk(R"(
        out float c;
        float sum_n(float step_v) {
            float s = 0.0;
            for (int i = 0; i < 4; i++) { s += step_v; }
            return s;
        }
        void main() { c = sum_n(1.0) + sum_n(2.0); }
    )");
    EXPECT_DOUBLE_EQ(outScalar(*m), 4.0 + 8.0);
}

TEST(Lower, InlinedLocalsGetNumberedSuffixes)
{
    // One helper inlined at three sites re-declares its locals each
    // time: the first site keeps the source names, later ones take
    // _d1, _d2 (uniqueVarName), and each site gets its own parameter
    // and return slots.
    auto m = lowerOk(R"(
        in float x; out float c;
        float scale(float v) {
            float t = v * 2.0;
            for (int i = 0; i < 2; i++) { t += v; }
            return t;
        }
        void main() { c = scale(x) + scale(x + 1.0) + scale(3.0); }
    )");
    std::vector<std::string> names;
    for (const ir::Var *v : m->vars)
        names.push_back(v->name);
    const std::vector<std::string> want = {
        "x",      "c",          "v_inl0", "scale_ret0", "t",
        "i",      "v_inl1",     "scale_ret1", "t_d1",   "i_d1",
        "v_inl2", "scale_ret2", "t_d2",   "i_d2"};
    EXPECT_EQ(names, want);
    ir::InterpEnv env;
    env.inputs["x"] = {1.0};
    EXPECT_DOUBLE_EQ(outScalar(*m, env), 4.0 + 8.0 + 12.0);
}

TEST(Lower, RecursionRejected)
{
    EXPECT_THROW(
        emit::compileToIr("out float c; float f(float x) { return "
                          "f(x); } void main() { c = f(1.0); }"),
        CompileError);
}

TEST(Lower, ConstArrayBecomesConstData)
{
    auto m = lowerOk(R"(
        out float c;
        const float w[4] = float[](0.1, 0.2, 0.3, 0.4);
        void main() { c = w[1] + w[3]; }
    )");
    ir::Var *w = m->findVar("w");
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->kind, ir::VarKind::ConstArray);
    ASSERT_EQ(w->constInit.size(), 4u);
    EXPECT_NEAR(outScalar(*m), 0.6, 1e-12);
}

/**
 * Output "c" of @p src's lowered module under the reference
 * interpreter, checked against re-compiling the module's own emitted
 * GLSL: a const initialiser must fold to the value its printed text
 * computes.
 */
std::vector<double>
constOutput(const std::string &src)
{
    auto m = lowerOk(src);
    const std::vector<double> out =
        ir::interpretReference(*m, {}).outputs.at("c");
    const std::string text = emit::emitGlsl(*m);
    auto reparsed = emit::compileToIr(text);
    EXPECT_EQ(ir::interpretReference(*reparsed, {}).outputs.at("c"), out)
        << text;
    return out;
}

TEST(LowerConstEval, GlobalIntDivisionTruncates)
{
    EXPECT_EQ(constOutput("const int H = 3 / 2; out float c; "
                          "void main() { c = float(H); }"),
              std::vector<double>{1.0});
}

TEST(LowerConstEval, FloatDivisionByZeroIsInfinite)
{
    EXPECT_EQ(constOutput("const float Z = 1.0 / 0.0; out float c; "
                          "void main() { c = Z; }"),
              std::vector<double>{std::numeric_limits<double>::infinity()});
}

TEST(LowerConstEval, IntConstructorTruncates)
{
    EXPECT_EQ(constOutput("const ivec2 V = ivec2(vec2(1.5, -1.5)); "
                          "out vec2 c; void main() { c = vec2(V); }"),
              (std::vector<double>{1.0, -1.0}));
}

TEST(LowerConstEval, ConstArrayHoldsTruncatedLocalInt)
{
    EXPECT_EQ(constOutput("out float c; void main() { const int H = 3 / 2; "
                          "const float A[2] = float[](float(H), 2.0); "
                          "c = A[0]; }"),
              std::vector<double>{1.0});
}

TEST(Lower, MutableArrayUsesElementStores)
{
    auto m = lowerOk(R"(
        in float x;
        out float c;
        void main() {
            float a[3] = float[](0.0, 0.0, 0.0);
            a[0] = x;
            a[2] = x * 2.0;
            c = a[0] + a[1] + a[2];
        }
    )");
    InterpEnv env;
    env.inputs["x"] = {2.0};
    EXPECT_DOUBLE_EQ(outScalar(*m, env), 6.0);
}

TEST(Lower, DynamicVectorIndexViaSelects)
{
    auto m = lowerOk(R"(
        uniform int k;
        out float c;
        void main() {
            vec4 v = vec4(10.0, 20.0, 30.0, 40.0);
            c = v[k];
        }
    )");
    InterpEnv env;
    env.uniforms["k"] = {2.0};
    EXPECT_DOUBLE_EQ(outScalar(*m, env), 30.0);
}

TEST(Lower, TernaryBecomesSelect)
{
    auto m = lowerOk(R"(
        in float x;
        out float c;
        void main() { c = x > 0.5 ? 2.0 : 3.0; }
    )");
    bool has_select = false, has_if = false;
    ir::forEachInstr(m->body, [&](const ir::Instr &i) {
        has_select |= i.op == ir::Opcode::Select;
    });
    ir::forEachNode(m->body, [&](ir::Node &n) {
        has_if |= n.kind() == ir::NodeKind::If;
    });
    EXPECT_TRUE(has_select);
    EXPECT_FALSE(has_if);
}

TEST(Lower, SwizzleAssignment)
{
    auto m = lowerOk(R"(
        out vec4 c;
        void main() {
            vec4 v = vec4(0.0);
            v.xy = vec2(1.0, 2.0);
            v.w = 9.0;
            c = v;
        }
    )");
    auto out = outVec(*m);
    EXPECT_DOUBLE_EQ(out[0], 1.0);
    EXPECT_DOUBLE_EQ(out[1], 2.0);
    EXPECT_DOUBLE_EQ(out[2], 0.0);
    EXPECT_DOUBLE_EQ(out[3], 9.0);
}

TEST(Lower, DiscardInBranch)
{
    auto m = lowerOk(R"(
        in float a;
        out vec4 c;
        void main() {
            if (a < 0.1) { discard; }
            c = vec4(1.0);
        }
    )");
    InterpEnv env;
    env.inputs["a"] = {0.05};
    EXPECT_TRUE(ir::interpret(*m, env).discarded);
    env.inputs["a"] = {0.5};
    EXPECT_FALSE(ir::interpret(*m, env).discarded);
}

TEST(Lower, TextureSampling)
{
    auto m = lowerOk(R"(
        uniform sampler2D tex;
        in vec2 uv;
        out vec4 c;
        void main() { c = texture(tex, uv); }
    )");
    InterpEnv env;
    env.inputs["uv"] = {0.25, 0.75};
    auto out = outVec(*m, env);
    auto expect = ir::defaultTexture(0.25, 0.75, 0.0);
    EXPECT_DOUBLE_EQ(out[0], expect[0]);
    EXPECT_DOUBLE_EQ(out[3], 1.0);
}

TEST(Lower, GlFragCoordInput)
{
    auto m = lowerOk(
        "out vec4 c; void main() { c = gl_FragCoord * 0.001; }");
    InterpEnv env;
    env.inputs["gl_FragCoord"] = {250.0, 100.0, 0.5, 1.0};
    EXPECT_DOUBLE_EQ(outVec(*m, env)[0], 0.25);
}

TEST(LowerPins, DriverFrontEndOutputOnCampaignTexts)
{
    // The driver's front end on every campaign text: the lowered module,
    // the module after the first canonicalize, and that module after
    // each value-numbering pass (gvn, tex_batch), as ir::dump text.
    // Each digest is the md5 of the 708 per-text md5s in campaign order.
    // dupFetches, tex_batch's profitability feature, is summed too.
    if (tuner::flagCount() != 8)
        GTEST_SKIP() << "the pins cover the paper's 8-pass campaign; "
                        "GSOPT_EXTRA_PASSES changes the texts";
    const auto &texts = testutil::campaignTexts();
    ASSERT_EQ(texts.size(), 708u);
    std::string lowered, canonical, gvn, texBatch;
    int dupFetches = 0;
    for (const auto &[where, text] : texts) {
        auto m = emit::compileToIr(text);
        lowered += testutil::md5Hex(ir::dump(*m));
        passes::canonicalize(*m);
        canonical += testutil::md5Hex(ir::dump(*m));
        auto g = m->clone();
        passes::gvn(*g);
        gvn += testutil::md5Hex(ir::dump(*g));
        passes::texBatch(*m);
        texBatch += testutil::md5Hex(ir::dump(*m));
        dupFetches += tuner::computeFeatures(text).dupFetches;
    }
    EXPECT_EQ(testutil::md5Hex(lowered), "d7ad46fa3e0eadf98d3f2c313a12546c");
    EXPECT_EQ(testutil::md5Hex(canonical), "248d0e4b55c512d15e1cde20f23eeb2e");
    EXPECT_EQ(testutil::md5Hex(gvn), "6391c0eb4238703b01e315bda90fe364");
    EXPECT_EQ(testutil::md5Hex(texBatch), "9e38b83a5fb5b4e5c534acdec999445d");
    EXPECT_EQ(dupFetches, 106);
}

} // namespace
} // namespace gsopt
