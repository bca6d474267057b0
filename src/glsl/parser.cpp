#include "glsl/parser.h"

#include <optional>

#include "support/governor.h"

namespace gsopt::glsl {

namespace {

bool
isPrecisionWord(const std::string &w)
{
    return w == "highp" || w == "mediump" || w == "lowp";
}

bool
isInterpolationWord(const std::string &w)
{
    return w == "flat" || w == "smooth" || w == "noperspective" ||
           w == "invariant";
}

/** The recursive-descent parser proper. */
class Parser
{
  public:
    Parser(const std::vector<Token> &tokens, DiagEngine &diags)
        : toks_(tokens), diags_(diags)
    {
    }

    Shader parse()
    {
        Shader shader;
        while (!peek().is(TokKind::End)) {
            size_t before = pos_;
            parseTopLevel(shader);
            if (pos_ == before) {
                // Defensive: never loop without progress.
                error("unexpected token");
                ++pos_;
            }
            if (diags_.hasErrors())
                break;
        }
        return shader;
    }

  private:
    // -- token helpers --------------------------------------------------
    const Token &peek(size_t ahead = 0) const
    {
        size_t i = pos_ + ahead;
        return i < toks_.size() ? toks_[i] : toks_.back();
    }
    const Token &advance()
    {
        const Token &t = peek();
        if (pos_ < toks_.size() - 1)
            ++pos_;
        return t;
    }
    bool check(TokKind kind) const { return peek().is(kind); }
    bool accept(TokKind kind)
    {
        if (check(kind)) {
            advance();
            return true;
        }
        return false;
    }
    const Token &expect(TokKind kind, const char *ctx)
    {
        if (!check(kind)) {
            error(std::string("expected ") + tokKindName(kind) + " " +
                  ctx + ", got " + tokKindName(peek().kind) +
                  (peek().kind == TokKind::Identifier
                       ? " '" + peek().text + "'"
                       : ""));
        }
        return advance();
    }
    void error(const std::string &msg) { diags_.error(peek().loc, msg); }

    // -- nesting governance ----------------------------------------------
    // Recursive descent turns input nesting into C++ stack depth. The
    // built-in cap turns a nesting bomb into a clean diagnostic well
    // before the stack overflows (even ungoverned); the governed cap
    // (Dim::ParseDepth) lets a budget reject far shallower with a
    // structured ResourceExhausted. Depth counts statement and
    // expression levels combined. 256 stays reachable under ASan, whose
    // larger frames overflow an 8 MB stack at about 1000 paren levels.
    static constexpr int kMaxNesting = 256;
    struct NestingGuard
    {
        Parser &p;
        explicit NestingGuard(Parser &parser) : p(parser)
        {
            governor::checkDepth(governor::Dim::ParseDepth,
                                 static_cast<uint64_t>(++p.depth_),
                                 "parse");
        }
        ~NestingGuard() { --p.depth_; }

        /** Past the built-in cap? Diagnoses once; the caller must then
         * return a stub without recursing further. */
        bool tooDeep() const
        {
            if (p.depth_ <= kMaxNesting)
                return false;
            if (!p.deepDiagnosed_) {
                p.deepDiagnosed_ = true;
                p.error("nesting too deep (more than " +
                        std::to_string(kMaxNesting) + " levels)");
            }
            return true;
        }
    };

    // -- qualifiers / types ---------------------------------------------
    void skipPrecisionAndInterp()
    {
        while (check(TokKind::Identifier) &&
               (isPrecisionWord(peek().text) ||
                isInterpolationWord(peek().text))) {
            advance();
        }
    }

    /** Skip a layout(...) qualifier if present. */
    void skipLayout()
    {
        if (check(TokKind::Identifier) && peek().text == "layout" &&
            peek(1).is(TokKind::LParen)) {
            advance();
            advance();
            int depth = 1;
            while (depth > 0 && !check(TokKind::End)) {
                if (accept(TokKind::LParen))
                    ++depth;
                else if (accept(TokKind::RParen))
                    --depth;
                else
                    advance();
            }
        }
    }

    /** True if the current identifier token names a type. */
    bool atType(size_t ahead = 0) const
    {
        return peek(ahead).is(TokKind::Identifier) &&
               isTypeKeyword(peek(ahead).text);
    }

    /**
     * Parse a type spelled as keyword plus optional `[N]` / `[]` array
     * suffix directly after the keyword (GLSL also allows the suffix
     * after the declarator name; callers handle that case).
     */
    Type parseType()
    {
        skipPrecisionAndInterp();
        const Token &t = expect(TokKind::Identifier, "as type");
        Type ty = typeFromKeyword(t.text);
        if (ty.isVoid() && t.text != "void")
            diags_.error(t.loc, "unknown type '" + t.text + "'");
        if (check(TokKind::LBracket)) {
            advance();
            if (check(TokKind::IntLit)) {
                ty = ty.array(static_cast<int>(advance().intValue));
            } else {
                ty = ty.array(-1); // unsized; resolved from initialiser
            }
            expect(TokKind::RBracket, "after array size");
        }
        return ty;
    }

    // -- top level --------------------------------------------------------
    void parseTopLevel(Shader &shader)
    {
        skipLayout();
        skipPrecisionAndInterp();

        // `precision highp float;` statements.
        if (peek().isIdent("precision")) {
            while (!check(TokKind::Semicolon) && !check(TokKind::End))
                advance();
            accept(TokKind::Semicolon);
            return;
        }

        Qualifier qual = Qualifier::Global;
        for (;;) {
            if (peek().isIdent("in") || peek().isIdent("varying")) {
                qual = Qualifier::In;
                advance();
            } else if (peek().isIdent("out")) {
                qual = Qualifier::Out;
                advance();
            } else if (peek().isIdent("uniform")) {
                qual = Qualifier::Uniform;
                advance();
            } else if (peek().isIdent("const")) {
                qual = Qualifier::Const;
                advance();
            } else if (check(TokKind::Identifier) &&
                       (isPrecisionWord(peek().text) ||
                        isInterpolationWord(peek().text))) {
                advance();
            } else {
                break;
            }
        }

        Type type = parseType();
        const Token &name_tok =
            expect(TokKind::Identifier, "as declaration name");
        std::string name = name_tok.text;

        if (check(TokKind::LParen)) {
            parseFunction(shader, type, name, name_tok.loc);
            return;
        }

        // Possibly a list of declarators: `in vec2 uv, uv2;`
        for (;;) {
            GlobalDecl g;
            g.qual = qual;
            g.type = type;
            g.name = name;
            g.loc = name_tok.loc;
            if (check(TokKind::LBracket)) {
                advance();
                if (check(TokKind::IntLit))
                    g.type = g.type.array(
                        static_cast<int>(advance().intValue));
                else
                    g.type = g.type.array(-1);
                expect(TokKind::RBracket, "after array size");
            }
            if (accept(TokKind::Assign))
                g.init = parseAssignmentSource();
            shader.globals.push_back(std::move(g));
            if (accept(TokKind::Comma)) {
                name = expect(TokKind::Identifier,
                              "in declarator list")
                           .text;
                continue;
            }
            break;
        }
        expect(TokKind::Semicolon, "after declaration");
    }

    void parseFunction(Shader &shader, Type ret, std::string name,
                       SourceLoc loc)
    {
        FunctionDecl fn;
        fn.returnType = ret;
        fn.name = std::move(name);
        fn.loc = loc;
        expect(TokKind::LParen, "in function declaration");
        if (!check(TokKind::RParen)) {
            for (;;) {
                skipPrecisionAndInterp();
                if (peek().isIdent("in"))
                    advance();
                else if (peek().isIdent("out") ||
                         peek().isIdent("inout"))
                    error("out/inout parameters are not supported");
                if (peek().isIdent("void") &&
                    peek(1).is(TokKind::RParen)) {
                    advance();
                    break;
                }
                ParamDecl p;
                p.type = parseType();
                p.name = expect(TokKind::Identifier,
                                "as parameter name")
                             .text;
                if (check(TokKind::LBracket)) {
                    advance();
                    if (check(TokKind::IntLit))
                        p.type = p.type.array(
                            static_cast<int>(advance().intValue));
                    expect(TokKind::RBracket, "after array size");
                }
                fn.params.push_back(std::move(p));
                if (!accept(TokKind::Comma))
                    break;
            }
        }
        expect(TokKind::RParen, "after parameters");
        if (accept(TokKind::Semicolon))
            return; // forward declaration: body comes later
        fn.body = parseBlock();
        shader.functions.push_back(std::move(fn));
    }

    // -- statements -------------------------------------------------------
    StmtPtr parseBlock()
    {
        auto block = Stmt::make(StmtKind::Block, peek().loc);
        expect(TokKind::LBrace, "to open block");
        while (!check(TokKind::RBrace) && !check(TokKind::End)) {
            size_t before = pos_;
            block->body.push_back(parseStatement());
            if (diags_.hasErrors())
                break;
            if (pos_ == before)
                ++pos_;
        }
        expect(TokKind::RBrace, "to close block");
        return block;
    }

    StmtPtr parseStatement()
    {
        NestingGuard guard(*this);
        const SourceLoc loc = peek().loc;
        if (guard.tooDeep())
            return Stmt::make(StmtKind::Block, loc);
        if (check(TokKind::LBrace))
            return parseBlock();
        if (peek().isIdent("if"))
            return parseIf();
        if (peek().isIdent("for"))
            return parseFor();
        if (peek().isIdent("while"))
            return parseWhile();
        if (peek().isIdent("return")) {
            advance();
            auto s = Stmt::make(StmtKind::Return, loc);
            if (!check(TokKind::Semicolon))
                s->rhs = parseExpr();
            expect(TokKind::Semicolon, "after return");
            return s;
        }
        if (peek().isIdent("discard")) {
            advance();
            expect(TokKind::Semicolon, "after discard");
            return Stmt::make(StmtKind::Discard, loc);
        }
        if (peek().isIdent("break") || peek().isIdent("continue")) {
            error("break/continue are not supported in this subset");
            advance();
            accept(TokKind::Semicolon);
            return Stmt::make(StmtKind::Block, loc);
        }
        // Declaration?
        bool is_const = false;
        size_t save = pos_;
        skipPrecisionAndInterp();
        if (peek().isIdent("const")) {
            is_const = true;
            advance();
            skipPrecisionAndInterp();
        }
        if (atType()) {
            // Distinguish `vec4 x ...` (decl) from `vec4(...)` (expr).
            // After the type keyword we may see `[N]` (array type). A
            // declaration follows with an identifier.
            size_t ahead = 1;
            if (peek(ahead).is(TokKind::LBracket)) {
                size_t a = ahead + 1;
                while (!peek(a).is(TokKind::RBracket) &&
                       !peek(a).is(TokKind::End))
                    ++a;
                ahead = a + 1;
            }
            if (peek(ahead).is(TokKind::Identifier) &&
                !isTypeKeyword(peek(ahead).text)) {
                return parseDecl(is_const, loc);
            }
        }
        pos_ = save;
        return parseExprOrAssign(loc);
    }

    StmtPtr parseDecl(bool is_const, SourceLoc loc)
    {
        Type type = parseType();
        auto first = parseSingleDeclarator(type, is_const, loc);
        if (!check(TokKind::Comma)) {
            expect(TokKind::Semicolon, "after declaration");
            return first;
        }
        // Multiple declarators expand into a scope-transparent block.
        auto block = Stmt::make(StmtKind::Block, loc);
        block->transparent = true;
        block->body.push_back(std::move(first));
        while (accept(TokKind::Comma))
            block->body.push_back(
                parseSingleDeclarator(type, is_const, peek().loc));
        expect(TokKind::Semicolon, "after declaration");
        return block;
    }

    StmtPtr parseSingleDeclarator(Type type, bool is_const, SourceLoc loc)
    {
        auto s = Stmt::make(StmtKind::Decl, loc);
        s->isConst = is_const;
        s->declType = type;
        s->name = expect(TokKind::Identifier, "as variable name").text;
        if (check(TokKind::LBracket)) {
            advance();
            if (check(TokKind::IntLit))
                s->declType = s->declType.array(
                    static_cast<int>(advance().intValue));
            else
                s->declType = s->declType.array(-1);
            expect(TokKind::RBracket, "after array size");
        }
        if (accept(TokKind::Assign))
            s->rhs = parseAssignmentSource();
        return s;
    }

    /** Initialiser value: a normal expression (array ctors included). */
    ExprPtr parseAssignmentSource() { return parseExpr(); }

    StmtPtr parseIf()
    {
        const SourceLoc loc = peek().loc;
        advance(); // if
        expect(TokKind::LParen, "after 'if'");
        auto s = Stmt::make(StmtKind::If, loc);
        s->cond = parseExpr();
        expect(TokKind::RParen, "after if condition");
        s->body.push_back(parseStatement());
        if (peek().isIdent("else")) {
            advance();
            s->elseBody.push_back(parseStatement());
        }
        return s;
    }

    StmtPtr parseFor()
    {
        const SourceLoc loc = peek().loc;
        advance(); // for
        expect(TokKind::LParen, "after 'for'");
        auto s = Stmt::make(StmtKind::For, loc);
        if (!accept(TokKind::Semicolon)) {
            if (atType() ||
                (peek().isIdent("const")) ||
                (check(TokKind::Identifier) &&
                 isPrecisionWord(peek().text))) {
                bool is_const = false;
                if (peek().isIdent("const")) {
                    is_const = true;
                    advance();
                }
                s->init = parseDecl(is_const, peek().loc);
            } else {
                s->init = parseExprOrAssign(peek().loc);
            }
        }
        if (!check(TokKind::Semicolon))
            s->cond = parseExpr();
        expect(TokKind::Semicolon, "after for condition");
        if (!check(TokKind::RParen))
            s->step = parseExprOrAssignNoSemi(peek().loc);
        expect(TokKind::RParen, "after for header");
        s->body.push_back(parseStatement());
        return s;
    }

    StmtPtr parseWhile()
    {
        const SourceLoc loc = peek().loc;
        advance(); // while
        expect(TokKind::LParen, "after 'while'");
        auto s = Stmt::make(StmtKind::While, loc);
        s->cond = parseExpr();
        expect(TokKind::RParen, "after while condition");
        s->body.push_back(parseStatement());
        return s;
    }

    StmtPtr parseExprOrAssign(SourceLoc loc)
    {
        auto s = parseExprOrAssignNoSemi(loc);
        expect(TokKind::Semicolon, "after statement");
        return s;
    }

    StmtPtr parseExprOrAssignNoSemi(SourceLoc loc)
    {
        // Prefix increment/decrement.
        if (check(TokKind::PlusPlus) || check(TokKind::MinusMinus)) {
            bool inc = advance().is(TokKind::PlusPlus);
            ExprPtr target = parseUnary();
            return makeIncDec(std::move(target), inc, loc);
        }
        ExprPtr e = parseExpr();
        if (check(TokKind::Assign) || check(TokKind::PlusAssign) ||
            check(TokKind::MinusAssign) || check(TokKind::StarAssign) ||
            check(TokKind::SlashAssign)) {
            TokKind k = advance().kind;
            auto s = Stmt::make(StmtKind::Assign, loc);
            s->lhs = std::move(e);
            s->assignOp = k == TokKind::Assign        ? AssignOp::Assign
                          : k == TokKind::PlusAssign  ? AssignOp::AddAssign
                          : k == TokKind::MinusAssign ? AssignOp::SubAssign
                          : k == TokKind::StarAssign  ? AssignOp::MulAssign
                                                      : AssignOp::DivAssign;
            s->rhs = parseExpr();
            return s;
        }
        if (check(TokKind::PlusPlus) || check(TokKind::MinusMinus)) {
            bool inc = advance().is(TokKind::PlusPlus);
            return makeIncDec(std::move(e), inc, loc);
        }
        auto s = Stmt::make(StmtKind::ExprStmt, loc);
        s->rhs = std::move(e);
        return s;
    }

    StmtPtr makeIncDec(ExprPtr target, bool inc, SourceLoc loc)
    {
        auto s = Stmt::make(StmtKind::Assign, loc);
        s->assignOp = inc ? AssignOp::AddAssign : AssignOp::SubAssign;
        s->lhs = std::move(target);
        s->rhs = Expr::makeInt(1, loc);
        return s;
    }

    // -- expressions ------------------------------------------------------
    ExprPtr parseExpr() { return parseTernary(); }

    ExprPtr parseTernary()
    {
        ExprPtr cond = parseLogicalOr();
        if (!accept(TokKind::Question))
            return cond;
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::Ternary;
        e->loc = cond->loc;
        e->args.push_back(std::move(cond));
        e->args.push_back(parseExpr());
        expect(TokKind::Colon, "in ternary expression");
        e->args.push_back(parseExpr());
        return e;
    }

    ExprPtr makeBinary(BinaryOp op, ExprPtr a, ExprPtr b)
    {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::Binary;
        e->binaryOp = op;
        e->loc = a->loc;
        e->args.push_back(std::move(a));
        e->args.push_back(std::move(b));
        return e;
    }

    ExprPtr parseLogicalOr()
    {
        ExprPtr e = parseLogicalAnd();
        while (accept(TokKind::PipePipe))
            e = makeBinary(BinaryOp::LogicalOr, std::move(e),
                           parseLogicalAnd());
        return e;
    }

    ExprPtr parseLogicalAnd()
    {
        ExprPtr e = parseEquality();
        while (accept(TokKind::AmpAmp))
            e = makeBinary(BinaryOp::LogicalAnd, std::move(e),
                           parseEquality());
        return e;
    }

    ExprPtr parseEquality()
    {
        ExprPtr e = parseRelational();
        for (;;) {
            if (accept(TokKind::EqEq))
                e = makeBinary(BinaryOp::Eq, std::move(e),
                               parseRelational());
            else if (accept(TokKind::NotEq))
                e = makeBinary(BinaryOp::Ne, std::move(e),
                               parseRelational());
            else
                break;
        }
        return e;
    }

    ExprPtr parseRelational()
    {
        ExprPtr e = parseAdditive();
        for (;;) {
            if (accept(TokKind::Less))
                e = makeBinary(BinaryOp::Lt, std::move(e),
                               parseAdditive());
            else if (accept(TokKind::Greater))
                e = makeBinary(BinaryOp::Gt, std::move(e),
                               parseAdditive());
            else if (accept(TokKind::LessEq))
                e = makeBinary(BinaryOp::Le, std::move(e),
                               parseAdditive());
            else if (accept(TokKind::GreaterEq))
                e = makeBinary(BinaryOp::Ge, std::move(e),
                               parseAdditive());
            else
                break;
        }
        return e;
    }

    ExprPtr parseAdditive()
    {
        ExprPtr e = parseMultiplicative();
        for (;;) {
            if (accept(TokKind::Plus))
                e = makeBinary(BinaryOp::Add, std::move(e),
                               parseMultiplicative());
            else if (accept(TokKind::Minus))
                e = makeBinary(BinaryOp::Sub, std::move(e),
                               parseMultiplicative());
            else
                break;
        }
        return e;
    }

    ExprPtr parseMultiplicative()
    {
        ExprPtr e = parseUnary();
        for (;;) {
            if (accept(TokKind::Star))
                e = makeBinary(BinaryOp::Mul, std::move(e), parseUnary());
            else if (accept(TokKind::Slash))
                e = makeBinary(BinaryOp::Div, std::move(e), parseUnary());
            else if (accept(TokKind::Percent))
                e = makeBinary(BinaryOp::Mod, std::move(e), parseUnary());
            else
                break;
        }
        return e;
    }

    ExprPtr parseUnary()
    {
        NestingGuard guard(*this);
        const SourceLoc loc = peek().loc;
        if (guard.tooDeep())
            return Expr::makeFloat(0.0, loc);
        if (accept(TokKind::Minus)) {
            auto e = std::make_unique<Expr>();
            e->kind = ExprKind::Unary;
            e->unaryOp = UnaryOp::Neg;
            e->loc = loc;
            e->args.push_back(parseUnary());
            return e;
        }
        if (accept(TokKind::Plus))
            return parseUnary();
        if (accept(TokKind::Bang)) {
            auto e = std::make_unique<Expr>();
            e->kind = ExprKind::Unary;
            e->unaryOp = UnaryOp::Not;
            e->loc = loc;
            e->args.push_back(parseUnary());
            return e;
        }
        if (check(TokKind::PlusPlus) || check(TokKind::MinusMinus)) {
            error("increment/decrement is only supported as a statement");
            advance();
            return parseUnary();
        }
        return parsePostfix();
    }

    ExprPtr parsePostfix()
    {
        ExprPtr e = parsePrimary();
        for (;;) {
            if (check(TokKind::LBracket)) {
                advance();
                auto idx = std::make_unique<Expr>();
                idx->kind = ExprKind::Index;
                idx->loc = e->loc;
                idx->args.push_back(std::move(e));
                idx->args.push_back(parseExpr());
                expect(TokKind::RBracket, "after index");
                e = std::move(idx);
            } else if (check(TokKind::Dot)) {
                advance();
                auto mem = std::make_unique<Expr>();
                mem->kind = ExprKind::Member;
                mem->loc = e->loc;
                mem->name = expect(TokKind::Identifier,
                                   "after '.'")
                                .text;
                mem->args.push_back(std::move(e));
                e = std::move(mem);
            } else {
                break;
            }
        }
        return e;
    }

    ExprPtr parsePrimary()
    {
        const Token &t = peek();
        const SourceLoc loc = t.loc;
        if (t.is(TokKind::IntLit)) {
            advance();
            return Expr::makeInt(t.intValue, loc);
        }
        if (t.is(TokKind::FloatLit)) {
            advance();
            return Expr::makeFloat(t.floatValue, loc);
        }
        if (t.is(TokKind::LParen)) {
            advance();
            ExprPtr e = parseExpr();
            expect(TokKind::RParen, "to close parenthesis");
            return e;
        }
        if (t.is(TokKind::Identifier)) {
            if (t.text == "true") {
                advance();
                return Expr::makeBool(true, loc);
            }
            if (t.text == "false") {
                advance();
                return Expr::makeBool(false, loc);
            }
            if (isPrecisionWord(t.text)) {
                advance();
                return parsePrimary();
            }
            if (isTypeKeyword(t.text) && t.text != "void") {
                return parseConstructor();
            }
            advance();
            if (check(TokKind::LParen)) {
                advance();
                auto call = std::make_unique<Expr>();
                call->kind = ExprKind::Call;
                call->name = t.text;
                call->loc = loc;
                if (!check(TokKind::RParen)) {
                    for (;;) {
                        call->args.push_back(parseExpr());
                        if (!accept(TokKind::Comma))
                            break;
                    }
                }
                expect(TokKind::RParen, "after call arguments");
                return call;
            }
            return Expr::makeVarRef(t.text, loc);
        }
        error(std::string("unexpected token ") + tokKindName(t.kind) +
              " in expression");
        advance();
        return Expr::makeFloat(0.0, loc);
    }

    /**
     * Constructor expression: `vec4(...)`, `mat3(...)`, `float(...)`,
     * or array constructors `vec4[](...)` / `vec4[9](...)`.
     */
    ExprPtr parseConstructor()
    {
        const Token &t = advance();
        Type ty = typeFromKeyword(t.text);
        if (check(TokKind::LBracket)) {
            advance();
            if (check(TokKind::IntLit))
                ty = ty.array(static_cast<int>(advance().intValue));
            else
                ty = ty.array(-1);
            expect(TokKind::RBracket, "in array constructor");
        }
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::Construct;
        e->ctorType = ty;
        e->loc = t.loc;
        expect(TokKind::LParen, "in constructor");
        if (!check(TokKind::RParen)) {
            for (;;) {
                e->args.push_back(parseExpr());
                if (!accept(TokKind::Comma))
                    break;
            }
        }
        expect(TokKind::RParen, "after constructor arguments");
        if (e->ctorType.isArray() && e->ctorType.arraySize < 0)
            e->ctorType.arraySize = static_cast<int>(e->args.size());
        return e;
    }

    const std::vector<Token> &toks_;
    DiagEngine &diags_;
    size_t pos_ = 0;
    int depth_ = 0;
    bool deepDiagnosed_ = false;
};

} // namespace

Shader
parseShader(const std::vector<Token> &tokens, DiagEngine &diags)
{
    Parser parser(tokens, diags);
    return parser.parse();
}

} // namespace gsopt::glsl
