/**
 * @file
 * Unit tests for the GLSL front end: lexer, preprocessor, parser,
 * and semantic analysis.
 */
#include <gtest/gtest.h>

#include "corpus/corpus.h"
#include "glsl/frontend.h"
#include "glsl/lexer.h"
#include "glsl/parser.h"
#include "glsl/type.h"
#include "test_md5.h"

namespace gsopt::glsl {
namespace {

// ---------------------------------------------------------------- types

TEST(Type, Spellings)
{
    EXPECT_EQ(Type::vec(3).str(), "vec3");
    EXPECT_EQ(Type::mat(4).str(), "mat4");
    EXPECT_EQ(Type::floatTy().str(), "float");
    EXPECT_EQ(Type::ivec(2).str(), "ivec2");
    EXPECT_EQ(Type::bvec(4).str(), "bvec4");
    EXPECT_EQ(Type::vec(4).array(9).str(), "vec4[9]");
    EXPECT_EQ(Type::sampler2D().str(), "sampler2D");
}

TEST(Type, KeywordRoundTrip)
{
    for (const char *name :
         {"float", "int", "bool", "vec2", "vec3", "vec4", "ivec3",
          "bvec2", "mat2", "mat3", "mat4", "sampler2D"}) {
        EXPECT_TRUE(isTypeKeyword(keywordOf(name))) << name;
        EXPECT_EQ(typeFromKeyword(keywordOf(name)).str(), name);
    }
    EXPECT_FALSE(isTypeKeyword(keywordOf("vec5")));
    EXPECT_FALSE(isTypeKeyword(keywordOf("banana")));
    EXPECT_EQ(keywordOf("highp"), Keyword::Highp);
    EXPECT_EQ(keywordOf("discard"), Keyword::Discard);
    EXPECT_EQ(keywordOf("vec"), Keyword::None);
}

TEST(Type, ComponentCounts)
{
    EXPECT_EQ(Type::floatTy().componentCount(), 1);
    EXPECT_EQ(Type::vec(3).componentCount(), 3);
    EXPECT_EQ(Type::mat(3).componentCount(), 9);
    EXPECT_TRUE(Type::vec(2).isVector());
    EXPECT_TRUE(Type::mat(2).isMatrix());
    EXPECT_FALSE(Type::mat(2).isVector());
    EXPECT_TRUE(Type::floatTy().isScalar());
}

// ---------------------------------------------------------------- lexer

/** Tokens view @p src: the test sources are literals, which outlive
 * them. */
std::vector<Token>
lexOk(std::string_view src)
{
    DiagEngine diags;
    auto toks = lex(src, diags);
    EXPECT_FALSE(diags.hasErrors()) << diags.str();
    return toks;
}

TEST(Lexer, NumbersAndSuffixes)
{
    auto t = lexOk("1 2.5 .5 3. 1e3 2.5e-2 7f");
    ASSERT_EQ(t.size(), 8u); // 7 tokens + End
    EXPECT_EQ(t[0].kind, TokKind::IntLit);
    EXPECT_EQ(t[0].intValue, 1);
    EXPECT_EQ(t[1].kind, TokKind::FloatLit);
    EXPECT_DOUBLE_EQ(t[1].floatValue, 2.5);
    EXPECT_EQ(t[2].kind, TokKind::FloatLit);
    EXPECT_DOUBLE_EQ(t[2].floatValue, 0.5);
    EXPECT_EQ(t[3].kind, TokKind::FloatLit);
    EXPECT_EQ(t[4].kind, TokKind::FloatLit);
    EXPECT_DOUBLE_EQ(t[4].floatValue, 1000.0);
    EXPECT_DOUBLE_EQ(t[5].floatValue, 0.025);
    EXPECT_EQ(t[6].kind, TokKind::FloatLit);
}

TEST(Lexer, OperatorsAndComments)
{
    auto t = lexOk("a += b; // comment\n/* block\n */ c ++ <= &&");
    EXPECT_EQ(t[0].text, "a");
    EXPECT_EQ(t[1].kind, TokKind::PlusAssign);
    EXPECT_EQ(t[4].text, "c");
    EXPECT_EQ(t[5].kind, TokKind::PlusPlus);
    EXPECT_EQ(t[6].kind, TokKind::LessEq);
    EXPECT_EQ(t[7].kind, TokKind::AmpAmp);
}

TEST(Lexer, TracksLocations)
{
    auto t = lexOk("a\n  b");
    EXPECT_EQ(t[0].loc.line, 1);
    EXPECT_EQ(t[1].loc.line, 2);
    EXPECT_EQ(t[1].loc.column, 3);
}

TEST(Lexer, RejectsBadChars)
{
    DiagEngine diags;
    lex("a @ b", diags);
    EXPECT_TRUE(diags.hasErrors());
}

// -------------------------------------------------------- preprocessor

std::string
ppOk(const std::string &src,
     const std::map<std::string, std::string> &defs = {})
{
    DiagEngine diags;
    auto r = preprocess(src, defs, diags);
    EXPECT_FALSE(diags.hasErrors()) << diags.str();
    return r.text;
}

TEST(Preprocessor, ObjectMacros)
{
    EXPECT_EQ(ppOk("#define N 9\nint x = N;"), "int x = 9;\n");
}

TEST(Preprocessor, FunctionMacros)
{
    std::string out =
        ppOk("#define SQ(x) ((x)*(x))\nfloat y = SQ(a + b);");
    EXPECT_NE(out.find("(((a + b))*((a + b)))"), std::string::npos);
}

TEST(Preprocessor, NestedMacroExpansion)
{
    std::string out = ppOk("#define A B\n#define B 3\nint x = A;");
    EXPECT_EQ(out, "int x = 3;\n");
}

TEST(Preprocessor, IfdefBranches)
{
    std::string src = "#ifdef FEATURE\nfloat a;\n#else\nfloat b;\n#endif";
    EXPECT_EQ(ppOk(src), "float b;\n");
    EXPECT_EQ(ppOk(src, {{"FEATURE", ""}}), "float a;\n");
}

TEST(Preprocessor, IfExpressionsAndElif)
{
    std::string src = "#define LEVEL 2\n"
                      "#if LEVEL >= 3\nfloat hi;\n"
                      "#elif LEVEL == 2\nfloat mid;\n"
                      "#else\nfloat lo;\n#endif";
    EXPECT_EQ(ppOk(src), "float mid;\n");
}

TEST(Preprocessor, DefinedOperator)
{
    std::string src = "#if defined(A) && !defined(B)\nok;\n#endif";
    EXPECT_EQ(ppOk(src, {{"A", ""}}), "ok;\n");
    EXPECT_EQ(ppOk(src, {{"A", ""}, {"B", ""}}), "");
}

TEST(Preprocessor, NestedConditionals)
{
    std::string src = "#ifdef A\n#ifdef B\nab;\n#else\na;\n#endif\n#endif";
    EXPECT_EQ(ppOk(src, {{"A", ""}, {"B", ""}}), "ab;\n");
    EXPECT_EQ(ppOk(src, {{"A", ""}}), "a;\n");
    EXPECT_EQ(ppOk(src), "");
}

TEST(Preprocessor, VersionCaptured)
{
    DiagEngine diags;
    auto r = preprocess("#version 450 core\nfloat x;", {}, diags);
    EXPECT_EQ(r.version, 450);
    EXPECT_EQ(r.text, "float x;\n");
}

TEST(Preprocessor, LineContinuation)
{
    EXPECT_EQ(ppOk("#define M 1 + \\\n2\nint x = M;"),
              "int x = 1 + 2;\n");
}

TEST(Preprocessor, UndefAndRedefine)
{
    std::string src = "#define X 1\n#undef X\n#ifdef X\nyes;\n#else\n"
                      "no;\n#endif";
    EXPECT_EQ(ppOk(src), "no;\n");
}

TEST(Preprocessor, DirectiveFreeTextComesBackLineForLine)
{
    // No macro table: every line is copied as written, identifiers that
    // look like macro calls included, and '\r' line ends are dropped.
    const std::string src = "in vec2 uv;\r\n"
                            "out vec4 c;\n"
                            "\n"
                            "void main() { c = vec4(SQ(uv.x), N, 0.0, 1.0); }";
    EXPECT_EQ(ppOk(src), "in vec2 uv;\n"
                         "out vec4 c;\n"
                         "\n"
                         "void main() { c = vec4(SQ(uv.x), N, 0.0, 1.0); }\n");
}

TEST(Preprocessor, DefinePartwayExpandsLaterLines)
{
    // Lines before the #define are copied untouched; the ones after it
    // expand, and an #undef ends the expansion again.
    const std::string src = "float a = N;\n"
                            "#define N 4.0\n"
                            "float b = N;\n"
                            "float c = N * N;\n"
                            "#undef N\n"
                            "float d = N;";
    EXPECT_EQ(ppOk(src), "float a = N;\n"
                         "float b = 4.0;\n"
                         "float c = 4.0 * 4.0;\n"
                         "float d = N;\n");
}

TEST(Preprocessor, ErrorsOnUnterminatedIf)
{
    DiagEngine diags;
    preprocess("#ifdef A\nx;\n", {}, diags);
    EXPECT_TRUE(diags.hasErrors());
}

/** Preprocess @p src and return its diagnostics' text. */
std::string
ppDiags(const std::string &src)
{
    DiagEngine diags;
    preprocess(src, {}, diags);
    return diags.str();
}

TEST(Preprocessor, CorpusOutputIsPinned)
{
    // The md5 of every corpus shader's output (text, version,
    // extensions, diagnostics) with its defines, in corpus order.
    std::string all;
    for (const auto &shader : corpus::corpus()) {
        DiagEngine diags;
        auto r = preprocess(shader.source, shader.defines, diags);
        all += r.text;
        all += '\0' + std::to_string(r.version) + '\0';
        for (const std::string &e : r.extensions)
            all += e + '\n';
        all += '\0' + diags.str() + '\0';
    }
    EXPECT_EQ(testutil::md5Hex(all), "738da623cc3e1832c3ecb743458b18f2");
}

TEST(Preprocessor, TrailingNewlineGivesAFinalEmptyLine)
{
    EXPECT_EQ(ppOk("a;\n"), "a;\n\n");
    EXPECT_EQ(ppOk("a;"), "a;\n");
}

TEST(Preprocessor, CrlfContinuationInsideADefine)
{
    EXPECT_EQ(ppOk("#define M 1 + \\\r\n2\r\nint x = M;\r\n"),
              "int x = 1 + 2;\n\n");
}

TEST(Preprocessor, ParenthesisedCommaStaysInOneArgument)
{
    EXPECT_EQ(ppOk("#define F(x, y) x + y\nF((a, b), c);"),
              "((a, b)) + (c);\n");
}

TEST(Preprocessor, EmptyArgumentListOnZeroParameterMacro)
{
    EXPECT_EQ(ppDiags("#define F() 1\nF( );"),
              "error: macro 'F' expects 0 arguments, got 1\n");
}

TEST(Preprocessor, FunctionLikeNameWithoutParenIsLeftAlone)
{
    EXPECT_EQ(ppOk("#define F(x) x\nfloat F = 1.0;"), "float F = 1.0;\n");
}

TEST(Preprocessor, UnterminatedInvocationIsReported)
{
    EXPECT_EQ(ppDiags("#define F(x) x\nF(a;"),
              "error: unterminated macro invocation of 'F'\n");
}

TEST(Preprocessor, DefinedWithoutParentheses)
{
    EXPECT_EQ(ppOk("#if defined A && !defined B\nok;\n#endif",
                   {{"A", ""}}),
              "ok;\n");
}

TEST(Preprocessor, IntegerLiteralsReadWithBaseZero)
{
    EXPECT_EQ(ppOk("#if 0x10 == 16 && 010 == 8\nok;\n#endif"), "ok;\n");
}

TEST(Preprocessor, DivisionByZeroIsFalse)
{
    EXPECT_EQ(ppOk("#if 1 / 0\nyes;\n#else\nno;\n#endif"), "no;\n");
}

TEST(Preprocessor, IfArithmeticWrapsInsteadOfTrapping)
{
    // LONG_MIN / -1 used to raise SIGFPE; every operator now wraps.
    EXPECT_EQ(ppOk("#define MIN (-9223372036854775807 - 1)\n"
                   "#if MIN / -1 == MIN && MIN % -1 == 0 && -MIN == MIN\n"
                   "ok;\n#endif"),
              "ok;\n");
    EXPECT_EQ(ppOk("#if 9223372036854775807 + 1 < 0\nok;\n#endif"), "ok;\n");
}

TEST(Preprocessor, UnknownDirectiveInFalseBranchIsAnError)
{
    EXPECT_EQ(ppDiags("#if 0\n#bogus\n#endif"),
              "2:1: error: unknown directive '#bogus'\n");
}

TEST(Preprocessor, CommentInADefineIsNotPartOfTheBody)
{
    EXPECT_EQ(ppOk("#define X 1 // one\nfloat y = X + 2;"),
              "float y = 1 + 2;\n");
    EXPECT_EQ(ppOk("#define Y /* two */ 2\nfloat y = Y;"), "float y = 2;\n");
}

TEST(Preprocessor, CommentAfterAnIfdefName)
{
    EXPECT_EQ(ppOk("#define FEATURE\n#ifdef FEATURE // on\na;\n#else\nb;\n"
                   "#endif"),
              "a;\n");
}

TEST(Preprocessor, CommentAfterAnIfExpression)
{
    EXPECT_EQ(ppOk("#if 1 // c\na;\n#endif"), "a;\n");
}

TEST(Preprocessor, ElifAfterTakenBranchIsSkipped)
{
    EXPECT_EQ(ppOk("#if 1\na;\n#elif 1\nb;\n#else\nc;\n#endif"), "a;\n");
}

// --------------------------------------------------------------- parser

CompiledShader
feOk(const std::string &src,
     const std::map<std::string, std::string> &defs = {})
{
    return compileShader(src, defs);
}

const char *kMinimal = R"(
out vec4 fragColor;
void main() {
    fragColor = vec4(1.0);
}
)";

TEST(Parser, MinimalShader)
{
    auto cs = feOk(kMinimal);
    ASSERT_EQ(cs.ast.functions.size(), 1u);
    EXPECT_EQ(cs.ast.names.str(cs.ast.functions[0].name), "main");
    ASSERT_EQ(cs.ast.globals.size(), 1u);
    EXPECT_EQ(cs.ast.globals[0].qual, Qualifier::Out);
}

TEST(Parser, Precedence)
{
    auto cs = feOk("out vec4 c; void main() { float x = 1.0 + 2.0 * "
                   "3.0; c = vec4(x); }");
    const Stmt &decl = *cs.ast.functions[0].body->body[0];
    ASSERT_EQ(decl.kind, StmtKind::Decl);
    // 1.0 + (2.0 * 3.0): the multiply binds tighter.
    const Expr &sum = *decl.rhs;
    ASSERT_EQ(sum.kind, ExprKind::Binary);
    EXPECT_EQ(sum.binaryOp, BinaryOp::Add);
    ASSERT_EQ(sum.args.size(), 2u);
    EXPECT_EQ(sum.args[0]->kind, ExprKind::FloatLit);
    ASSERT_EQ(sum.args[1]->kind, ExprKind::Binary);
    EXPECT_EQ(sum.args[1]->binaryOp, BinaryOp::Mul);
}

TEST(Parser, ParensPreserved)
{
    auto cs = feOk("out vec4 c; void main() { float x = (1.0 + 2.0) * "
                   "3.0; c = vec4(x); }");
    const Stmt &decl = *cs.ast.functions[0].body->body[0];
    // (1.0 + 2.0) * 3.0: the parentheses group the sum under the
    // multiply.
    const Expr &product = *decl.rhs;
    ASSERT_EQ(product.kind, ExprKind::Binary);
    EXPECT_EQ(product.binaryOp, BinaryOp::Mul);
    ASSERT_EQ(product.args.size(), 2u);
    ASSERT_EQ(product.args[0]->kind, ExprKind::Binary);
    EXPECT_EQ(product.args[0]->binaryOp, BinaryOp::Add);
    EXPECT_EQ(product.args[1]->kind, ExprKind::FloatLit);
}

TEST(Parser, ForLoopWithIncrement)
{
    auto cs = feOk(R"(
        out vec4 c;
        void main() {
            float sum = 0.0;
            for (int i = 0; i < 9; i++) { sum += 1.0; }
            c = vec4(sum);
        }
    )");
    const Stmt &loop = *cs.ast.functions[0].body->body[1];
    ASSERT_EQ(loop.kind, StmtKind::For);
    ASSERT_NE(loop.init, nullptr);
    ASSERT_NE(loop.cond, nullptr);
    ASSERT_NE(loop.step, nullptr);
    EXPECT_EQ(loop.step->kind, StmtKind::Assign);
    EXPECT_EQ(loop.step->assignOp, AssignOp::AddAssign);
}

TEST(Parser, ArrayConstructorsAndIndexing)
{
    auto cs = feOk(R"(
        out vec4 c;
        const vec4 weights[3] = vec4[](vec4(0.1), vec4(0.2), vec4(0.3));
        void main() {
            c = weights[0] + weights[2];
        }
    )");
    EXPECT_EQ(cs.ast.globals[1].type.arraySize, 3);
    ASSERT_NE(cs.ast.globals[1].init, nullptr);
    EXPECT_EQ(cs.ast.globals[1].init->kind, ExprKind::Construct);
}

TEST(Parser, UnsizedArrayGetsSizeFromInit)
{
    auto cs = feOk(R"(
        out vec4 c;
        void main() {
            const float w[] = float[](0.1, 0.2, 0.3, 0.4);
            c = vec4(w[0]);
        }
    )");
    const Stmt &decl = *cs.ast.functions[0].body->body[0];
    EXPECT_EQ(decl.declType.arraySize, 4);
}

TEST(Parser, TernaryAndSwizzle)
{
    auto cs = feOk(R"(
        in vec2 uv;
        out vec4 c;
        void main() {
            float v = uv.x > 0.5 ? uv.y : 1.0 - uv.y;
            c = vec4(uv.xy, v, 1.0).zyxw;
        }
    )");
    const Stmt &assign = *cs.ast.functions[0].body->body[1];
    EXPECT_EQ(assign.rhs->kind, ExprKind::Member);
    EXPECT_EQ(cs.ast.names.str(assign.rhs->name), "zyxw");
    EXPECT_EQ(assign.rhs->type.str(), "vec4");
}

TEST(Parser, LayoutAndPrecisionIgnored)
{
    auto cs = feOk(R"(
        precision highp float;
        layout(location = 0) out highp vec4 color;
        uniform lowp sampler2D tex;
        in mediump vec2 uv;
        void main() { color = texture(tex, uv); }
    )");
    EXPECT_EQ(cs.interface.outputs.size(), 1u);
    EXPECT_EQ(cs.interface.uniforms.size(), 1u);
    EXPECT_EQ(cs.interface.inputs.size(), 1u);
}

TEST(Parser, UserFunctions)
{
    auto cs = feOk(R"(
        out vec4 c;
        float half_of(float x) { return x * 0.5; }
        void main() { c = vec4(half_of(3.0)); }
    )");
    ASSERT_EQ(cs.ast.functions.size(), 2u);
    EXPECT_EQ(cs.ast.names.str(cs.ast.functions[0].name), "half_of");
}

TEST(Parser, MultipleDeclarators)
{
    auto cs = feOk("out vec4 c; void main() { float a = 1.0, b = 2.0; "
                   "c = vec4(a + b); }");
    // Declarator list expands to a block of two decls.
    const Stmt &first = *cs.ast.functions[0].body->body[0];
    EXPECT_EQ(first.kind, StmtKind::Block);
    EXPECT_EQ(first.body.size(), 2u);
}

TEST(Parser, RejectsBreak)
{
    EXPECT_THROW(compileShader("out vec4 c; void main() { for (int i = 0; "
                               "i < 4; i++) { break; } c = vec4(0.0); }"),
                 CompileError);
}

// ----------------------------------------------------------------- sema

TEST(Sema, TypesAnnotated)
{
    auto cs = feOk(R"(
        in vec2 uv;
        uniform sampler2D tex;
        out vec4 c;
        void main() {
            vec4 t = texture(tex, uv);
            float l = dot(t.rgb, vec3(0.299, 0.587, 0.114));
            c = vec4(l);
        }
    )");
    const auto &body = cs.ast.functions[0].body->body;
    EXPECT_EQ(body[0]->rhs->type.str(), "vec4");
    EXPECT_EQ(body[1]->rhs->type.str(), "float");
}

TEST(Sema, IntToFloatCoercion)
{
    auto cs = feOk("out vec4 c; void main() { float x = 3; c = vec4(x * "
                   "2); }");
    const Stmt &decl = *cs.ast.functions[0].body->body[0];
    EXPECT_EQ(decl.rhs->kind, ExprKind::FloatLit);
    EXPECT_DOUBLE_EQ(decl.rhs->floatValue, 3.0);
}

TEST(Sema, ScalarVectorArithmetic)
{
    auto cs = feOk(R"(
        out vec4 c;
        void main() {
            vec3 v = vec3(1.0, 2.0, 3.0);
            vec3 w = v * 2.0;
            vec3 u = 0.5 * w + v;
            c = vec4(u, 1.0);
        }
    )");
    const auto &body = cs.ast.functions[0].body->body;
    EXPECT_EQ(body[1]->rhs->type.str(), "vec3");
    EXPECT_EQ(body[2]->rhs->type.str(), "vec3");
}

TEST(Sema, MatrixTyping)
{
    auto cs = feOk(R"(
        uniform mat4 mvp;
        in vec2 uv;
        out vec4 c;
        void main() {
            vec4 p = mvp * vec4(uv, 0.0, 1.0);
            mat4 m2 = mvp * mvp;
            c = m2 * p;
        }
    )");
    const auto &body = cs.ast.functions[0].body->body;
    EXPECT_EQ(body[0]->rhs->type.str(), "vec4");
    EXPECT_EQ(body[1]->rhs->type.str(), "mat4");
}

TEST(Sema, RejectsUndefinedVariable)
{
    EXPECT_THROW(
        compileShader("out vec4 c; void main() { c = vec4(nope); }"),
        CompileError);
}

TEST(Sema, RejectsAssignToUniform)
{
    EXPECT_THROW(compileShader("uniform float u; out vec4 c; void main() "
                               "{ u = 1.0; c = vec4(u); }"),
                 CompileError);
}

TEST(Sema, RejectsAssignToConst)
{
    EXPECT_THROW(compileShader("out vec4 c; void main() { const float k = "
                               "1.0; k = 2.0; c = vec4(k); }"),
                 CompileError);
}

TEST(Sema, RejectsBadSwizzle)
{
    EXPECT_THROW(compileShader("in vec2 uv; out vec4 c; void main() { c = "
                               "vec4(uv.z); }"),
                 CompileError);
}

TEST(Sema, RejectsTypeMismatch)
{
    EXPECT_THROW(compileShader("out vec4 c; void main() { vec3 v = "
                               "vec2(1.0); c = vec4(v, 1.0); }"),
                 CompileError);
}

TEST(Sema, RequiresMain)
{
    EXPECT_THROW(compileShader("out vec4 c;"), CompileError);
}

TEST(Sema, ShadowedLocalsAreRenamed)
{
    auto cs = feOk(R"(
        out vec4 c;
        void main() {
            float x = 1.0;
            if (x > 0.5) {
                float x = 2.0;
                c = vec4(x);
            } else {
                c = vec4(x);
            }
        }
    )");
    const auto &ifstmt = *cs.ast.functions[0].body->body[1];
    const auto &then_block = *ifstmt.body[0];
    const Stmt &inner = *then_block.body[0];
    ASSERT_EQ(inner.kind, StmtKind::Decl);
    EXPECT_NE(cs.ast.names.str(inner.name), "x"); // alpha-renamed
}

TEST(Sema, GlFragCoordAvailable)
{
    auto cs = feOk("out vec4 c; void main() { c = gl_FragCoord; }");
    EXPECT_EQ(cs.ast.functions[0].body->body[0]->rhs->type.str(),
              "vec4");
}

TEST(Sema, InterfaceCollected)
{
    auto cs = feOk(R"(
        in vec2 uv;
        in vec3 normal;
        uniform sampler2D tex;
        uniform vec4 tint;
        out vec4 color;
        void main() { color = texture(tex, uv) * tint *
                              vec4(normal, 1.0); }
    )");
    EXPECT_EQ(cs.interface.inputs.size(), 2u);
    EXPECT_EQ(cs.interface.uniforms.size(), 2u);
    ASSERT_EQ(cs.interface.outputs.size(), 1u);
    EXPECT_EQ(cs.interface.outputs[0].name, "color");
}

// ------------------------------------- constant indices and array sizes
// Each of these once crashed, failed IR verification, or compiled to
// something else than the source says.

/** The diagnostics of a source the front end must reject. */
std::string
feErrors(const std::string &src)
{
    try {
        compileShader(src);
    } catch (const CompileError &e) {
        std::string out;
        for (const Diagnostic &d : e.diagnostics())
            out += d.str() + "\n";
        return out;
    }
    ADD_FAILURE() << "accepted: " << src;
    return {};
}

TEST(Sema, ConstantMatrixColumnOutOfRangeIsDiagnosed)
{
    // Lowering read these columns past the scalarised matrix.
    for (const char *col : {"2", "7", "-1"}) {
        const std::string errs = feErrors(
            std::string("out vec4 c; void main() { mat2 m = mat2(1.0); "
                        "c = vec4(m[") +
            col + "], 0.0, 1.0); }");
        EXPECT_NE(errs.find("index " + std::string(col) +
                            " is out of range for mat2"),
                  std::string::npos)
            << errs;
    }
    EXPECT_NE(feErrors("out vec4 c; void main() { mat2 m = mat2(1.0); "
                       "c = vec4(m[3][0]); }")
                  .find("index 3 is out of range for mat2"),
              std::string::npos);
    feOk("out vec4 c; void main() { mat2 m = mat2(1.0); "
         "c = vec4(m[1], m[0][1], 1.0); }");
}

TEST(Sema, ConstantVectorComponentOutOfRangeIsDiagnosed)
{
    // Was "IR verification failed: bad extract", not a diagnostic.
    EXPECT_NE(feErrors("out vec4 c; void main() { vec4 v = vec4(1.0); "
                       "c = vec4(v[7]); }")
                  .find("index 7 is out of range for vec4"),
              std::string::npos);
    EXPECT_NE(feErrors("out vec4 c; void main() { vec4 v = vec4(1.0); "
                       "v[4] = 1.0; c = v; }")
                  .find("index 4 is out of range for vec4"),
              std::string::npos);
}

TEST(Sema, ConstantArrayIndexOutOfRangeIsDiagnosed)
{
    const std::string decl =
        "out vec4 c; const float w[3] = float[](1.0, 2.0, 3.0); "
        "void main() { c = vec4(";
    EXPECT_NE(feErrors(decl + "w[3]); }").find(
                  "index 3 is out of range for float[3]"),
              std::string::npos);
    EXPECT_NE(feErrors(decl + "w[-1]); }").find(
                  "index -1 is out of range for float[3]"),
              std::string::npos);
    feOk(decl + "w[2]); }");
}

TEST(Parser, ArraySizesOutsideOneToMaxAreRejected)
{
    // [0] silently became a scalar; [4294967298] silently became [2].
    EXPECT_NE(feErrors("out vec4 c; void main() { float a[0]; "
                       "c = vec4(1.0); }")
                  .find("array size 0 is outside 1..65536"),
              std::string::npos);
    EXPECT_NE(feErrors("out vec4 c; void main() { float a[65537]; "
                       "c = vec4(1.0); }")
                  .find("array size 65537 is outside 1..65536"),
              std::string::npos);
    EXPECT_NE(feErrors("out vec4 c; void main() { float a[4294967298]; "
                       "c = vec4(1.0); }")
                  .find("does not fit in 32 bits"),
              std::string::npos);
    // The cap itself parses (front end only: nothing is allocated).
    auto cs = feOk("out vec4 c; void main() { float a[65536]; "
                   "c = vec4(1.0); }");
    EXPECT_EQ(cs.ast.functions[0].body->body[0]->declType.arraySize,
              static_cast<int>(kMaxArraySize));
}

TEST(Lexer, IntLiteralsBeyond32BitsAreDiagnosed)
{
    // strtol saturated this one silently.
    DiagEngine diags;
    lex("99999999999999999999", diags);
    EXPECT_NE(diags.str().find("integer literal 99999999999999999999 "
                               "does not fit in 32 bits"),
              std::string::npos)
        << diags.str();
    DiagEngine too_big;
    lex("4294967296", too_big);
    EXPECT_TRUE(too_big.hasErrors());
    auto t = lexOk("4294967295");
    EXPECT_EQ(t[0].intValue, 4294967295L);
}

// ------------------------------------------------ übershader behaviour

TEST(Ubershader, DefinesSelectVariants)
{
    const char *uber = R"(
        in vec2 uv;
        uniform sampler2D tex;
        out vec4 c;
        void main() {
            vec4 base = texture(tex, uv);
        #ifdef GRAYSCALE
            float l = dot(base.rgb, vec3(0.299, 0.587, 0.114));
            base = vec4(l, l, l, base.a);
        #endif
        #ifdef INVERT
            base = vec4(1.0) - base;
        #endif
            c = base;
        }
    )";
    auto plain = feOk(uber);
    auto gray = feOk(uber, {{"GRAYSCALE", ""}});
    auto both = feOk(uber, {{"GRAYSCALE", ""}, {"INVERT", ""}});
    // main: base, c = base; GRAYSCALE adds l and its store; INVERT
    // adds one more store.
    const auto main_statements = [](const CompiledShader &cs) {
        return cs.ast.functions[0].body->body.size();
    };
    EXPECT_EQ(main_statements(plain), 2u);
    EXPECT_EQ(main_statements(gray), 4u);
    EXPECT_EQ(main_statements(both), 5u);
    EXPECT_LT(plain.preprocessedText.size(),
              gray.preprocessedText.size());
    EXPECT_LT(gray.preprocessedText.size(),
              both.preprocessedText.size());
}

} // namespace
} // namespace gsopt::glsl
