#include "glsl/parser.h"

#include <string>

#include "support/governor.h"

namespace gsopt::glsl {

namespace {

/** The recursive-descent parser proper. */
class Parser
{
  public:
    Parser(const std::vector<Token> &tokens, DiagEngine &diags,
           Shader &shader)
        : toks_(tokens), diags_(diags), shader_(shader)
    {
    }

    void parse()
    {
        while (!peek().is(TokKind::End)) {
            size_t before = pos_;
            parseTopLevel();
            if (pos_ == before) {
                // Defensive: never loop without progress.
                error("unexpected token");
                ++pos_;
            }
            if (diags_.hasErrors())
                break;
        }
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
                       ? " '" + std::string(peek().text) + "'"
                       : ""));
        }
        return advance();
    }
    void error(const std::string &msg) { diags_.error(peek().loc, msg); }
    NameId name(const Token &t) { return shader_.names.intern(t.text); }
    NameId expectName(const char *ctx)
    {
        return name(expect(TokKind::Identifier, ctx));
    }

    /** Arena copy of the items pushed on @p stack since @p mark. */
    template <typename T>
    Span<T> popSpan(std::vector<T> &stack, size_t mark)
    {
        Span<T> s =
            shader_.newSpan(stack.data() + mark, stack.size() - mark);
        stack.resize(mark);
        return s;
    }
    Span<Stmt *> one(Stmt *s) { return shader_.newSpan(&s, 1); }

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
        while (isIgnoredQualifier(peek().keyword))
            advance();
    }

    /** Skip a layout(...) qualifier if present. */
    void skipLayout()
    {
        if (peek().is(Keyword::Layout) && peek(1).is(TokKind::LParen)) {
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
        return isTypeKeyword(peek(ahead).keyword);
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
        Type ty = typeFromKeyword(t.keyword);
        if (ty.isVoid() && !t.is(Keyword::Void))
            diags_.error(t.loc,
                         "unknown type '" + std::string(t.text) + "'");
        if (check(TokKind::LBracket))
            ty = parseArraySuffix(ty, -1, "after array size");
        return ty;
    }

    /**
     * The `[N]` or `[]` at the cursor, applied to @p ty; `[]` gives an
     * array of size @p unsized (negative: resolved from the
     * initialiser). N must lie in 1..kMaxArraySize.
     */
    Type parseArraySuffix(Type ty, int unsized, const char *ctx)
    {
        advance(); // [
        if (check(TokKind::IntLit)) {
            const Token &n = advance();
            if (n.intValue < 1 || n.intValue > kMaxArraySize)
                diags_.error(n.loc, "array size " + std::string(n.text) +
                                        " is outside 1.." +
                                        std::to_string(kMaxArraySize));
            ty = ty.array(static_cast<int>(n.intValue));
        } else {
            ty = ty.array(unsized);
        }
        expect(TokKind::RBracket, ctx);
        return ty;
    }

    // -- top level --------------------------------------------------------
    void parseTopLevel()
    {
        skipLayout();
        skipPrecisionAndInterp();

        // `precision highp float;` statements.
        if (peek().is(Keyword::Precision)) {
            while (!check(TokKind::Semicolon) && !check(TokKind::End))
                advance();
            accept(TokKind::Semicolon);
            return;
        }

        Qualifier qual = Qualifier::Global;
        for (;;) {
            const Keyword k = peek().keyword;
            if (k == Keyword::In || k == Keyword::Varying) {
                qual = Qualifier::In;
                advance();
            } else if (k == Keyword::Out) {
                qual = Qualifier::Out;
                advance();
            } else if (k == Keyword::Uniform) {
                qual = Qualifier::Uniform;
                advance();
            } else if (k == Keyword::Const) {
                qual = Qualifier::Const;
                advance();
            } else if (isIgnoredQualifier(k)) {
                advance();
            } else {
                break;
            }
        }

        Type type = parseType();
        const Token &name_tok =
            expect(TokKind::Identifier, "as declaration name");
        NameId id = name(name_tok);

        if (check(TokKind::LParen)) {
            parseFunction(type, id, name_tok.loc);
            return;
        }

        // Possibly a list of declarators: `in vec2 uv, uv2;`
        for (;;) {
            GlobalDecl g;
            g.qual = qual;
            g.type = type;
            g.name = id;
            g.loc = name_tok.loc;
            if (check(TokKind::LBracket))
                g.type = parseArraySuffix(g.type, -1, "after array size");
            if (accept(TokKind::Assign))
                g.init = parseAssignmentSource();
            shader_.globals.push_back(g);
            if (accept(TokKind::Comma)) {
                id = expectName("in declarator list");
                continue;
            }
            break;
        }
        expect(TokKind::Semicolon, "after declaration");
    }

    void parseFunction(Type ret, NameId id, SourceLoc loc)
    {
        FunctionDecl fn;
        fn.returnType = ret;
        fn.name = id;
        fn.loc = loc;
        std::vector<ParamDecl> params;
        expect(TokKind::LParen, "in function declaration");
        if (!check(TokKind::RParen)) {
            for (;;) {
                skipPrecisionAndInterp();
                if (peek().is(Keyword::In))
                    advance();
                else if (peek().is(Keyword::Out) ||
                         peek().is(Keyword::Inout))
                    error("out/inout parameters are not supported");
                if (peek().is(Keyword::Void) &&
                    peek(1).is(TokKind::RParen)) {
                    advance();
                    break;
                }
                ParamDecl p;
                p.type = parseType();
                p.name = expectName("as parameter name");
                if (check(TokKind::LBracket))
                    p.type = parseArraySuffix(p.type, p.type.arraySize,
                                              "after array size");
                params.push_back(p);
                if (!accept(TokKind::Comma))
                    break;
            }
        }
        expect(TokKind::RParen, "after parameters");
        if (accept(TokKind::Semicolon))
            return; // forward declaration: body comes later
        fn.params = shader_.newSpan(params.data(), params.size());
        fn.body = parseBlock();
        shader_.functions.push_back(fn);
    }

    // -- statements -------------------------------------------------------
    Stmt *parseBlock()
    {
        Stmt *block = shader_.newStmt(StmtKind::Block, peek().loc);
        expect(TokKind::LBrace, "to open block");
        const size_t mark = stmts_.size();
        while (!check(TokKind::RBrace) && !check(TokKind::End)) {
            size_t before = pos_;
            Stmt *s = parseStatement();
            stmts_.push_back(s);
            if (diags_.hasErrors())
                break;
            if (pos_ == before)
                ++pos_;
        }
        block->body = popSpan(stmts_, mark);
        expect(TokKind::RBrace, "to close block");
        return block;
    }

    Stmt *parseStatement()
    {
        NestingGuard guard(*this);
        const SourceLoc loc = peek().loc;
        if (guard.tooDeep())
            return stmt(StmtKind::Block, loc);
        if (check(TokKind::LBrace))
            return parseBlock();
        if (peek().is(Keyword::If))
            return parseIf();
        if (peek().is(Keyword::For))
            return parseFor();
        if (peek().is(Keyword::While))
            return parseWhile();
        if (peek().is(Keyword::Return)) {
            advance();
            Stmt *s = stmt(StmtKind::Return, loc);
            if (!check(TokKind::Semicolon))
                s->rhs = parseExpr();
            expect(TokKind::Semicolon, "after return");
            return s;
        }
        if (peek().is(Keyword::Discard)) {
            advance();
            expect(TokKind::Semicolon, "after discard");
            return stmt(StmtKind::Discard, loc);
        }
        if (peek().is(Keyword::Break) || peek().is(Keyword::Continue)) {
            error("break/continue are not supported in this subset");
            advance();
            accept(TokKind::Semicolon);
            return stmt(StmtKind::Block, loc);
        }
        // Declaration?
        bool is_const = false;
        size_t save = pos_;
        skipPrecisionAndInterp();
        if (peek().is(Keyword::Const)) {
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
            if (peek(ahead).is(TokKind::Identifier) && !atType(ahead)) {
                return parseDecl(is_const, loc);
            }
        }
        pos_ = save;
        return parseExprOrAssign(loc);
    }

    Stmt *parseDecl(bool is_const, SourceLoc loc)
    {
        Type type = parseType();
        Stmt *first = parseSingleDeclarator(type, is_const, loc);
        if (!check(TokKind::Comma)) {
            expect(TokKind::Semicolon, "after declaration");
            return first;
        }
        // Multiple declarators expand into a scope-transparent block.
        Stmt *block = stmt(StmtKind::Block, loc);
        block->transparent = true;
        const size_t mark = stmts_.size();
        stmts_.push_back(first);
        while (accept(TokKind::Comma)) {
            Stmt *s = parseSingleDeclarator(type, is_const, peek().loc);
            stmts_.push_back(s);
        }
        block->body = popSpan(stmts_, mark);
        expect(TokKind::Semicolon, "after declaration");
        return block;
    }

    Stmt *parseSingleDeclarator(Type type, bool is_const, SourceLoc loc)
    {
        Stmt *s = stmt(StmtKind::Decl, loc);
        s->isConst = is_const;
        s->declType = type;
        s->name = expectName("as variable name");
        if (check(TokKind::LBracket))
            s->declType =
                parseArraySuffix(s->declType, -1, "after array size");
        if (accept(TokKind::Assign))
            s->rhs = parseAssignmentSource();
        return s;
    }

    /** Initialiser value: a normal expression (array ctors included). */
    Expr *parseAssignmentSource() { return parseExpr(); }

    Stmt *parseIf()
    {
        const SourceLoc loc = peek().loc;
        advance(); // if
        expect(TokKind::LParen, "after 'if'");
        Stmt *s = stmt(StmtKind::If, loc);
        s->cond = parseExpr();
        expect(TokKind::RParen, "after if condition");
        s->body = one(parseStatement());
        if (peek().is(Keyword::Else)) {
            advance();
            s->elseBody = one(parseStatement());
        }
        return s;
    }

    Stmt *parseFor()
    {
        const SourceLoc loc = peek().loc;
        advance(); // for
        expect(TokKind::LParen, "after 'for'");
        Stmt *s = stmt(StmtKind::For, loc);
        if (!accept(TokKind::Semicolon)) {
            if (atType() || peek().is(Keyword::Const) ||
                isPrecisionKeyword(peek().keyword)) {
                bool is_const = false;
                if (peek().is(Keyword::Const)) {
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
        s->body = one(parseStatement());
        return s;
    }

    Stmt *parseWhile()
    {
        const SourceLoc loc = peek().loc;
        advance(); // while
        expect(TokKind::LParen, "after 'while'");
        Stmt *s = stmt(StmtKind::While, loc);
        s->cond = parseExpr();
        expect(TokKind::RParen, "after while condition");
        s->body = one(parseStatement());
        return s;
    }

    Stmt *parseExprOrAssign(SourceLoc loc)
    {
        auto s = parseExprOrAssignNoSemi(loc);
        expect(TokKind::Semicolon, "after statement");
        return s;
    }

    Stmt *parseExprOrAssignNoSemi(SourceLoc loc)
    {
        // Prefix increment/decrement.
        if (check(TokKind::PlusPlus) || check(TokKind::MinusMinus)) {
            bool inc = advance().is(TokKind::PlusPlus);
            Expr *target = parseUnary();
            return makeIncDec(target, inc, loc);
        }
        Expr *e = parseExpr();
        if (check(TokKind::Assign) || check(TokKind::PlusAssign) ||
            check(TokKind::MinusAssign) || check(TokKind::StarAssign) ||
            check(TokKind::SlashAssign)) {
            TokKind k = advance().kind;
            Stmt *s = stmt(StmtKind::Assign, loc);
            s->lhs = e;
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
            return makeIncDec(e, inc, loc);
        }
        Stmt *s = stmt(StmtKind::ExprStmt, loc);
        s->rhs = e;
        return s;
    }

    Stmt *makeIncDec(Expr *target, bool inc, SourceLoc loc)
    {
        Stmt *s = stmt(StmtKind::Assign, loc);
        s->assignOp = inc ? AssignOp::AddAssign : AssignOp::SubAssign;
        s->lhs = target;
        s->rhs = intLit(1, loc);
        return s;
    }

    // -- expressions ------------------------------------------------------
    Expr *parseExpr() { return parseTernary(); }

    Expr *parseTernary()
    {
        Expr *cond = parseBinary(1);
        if (!accept(TokKind::Question))
            return cond;
        Expr *args[3] = {cond, parseExpr(), nullptr};
        expect(TokKind::Colon, "in ternary expression");
        args[2] = parseExpr();
        return node(ExprKind::Ternary, cond->loc, args, 3);
    }

    Stmt *stmt(StmtKind kind, SourceLoc loc)
    {
        return shader_.newStmt(kind, loc);
    }

    Expr *intLit(long v, SourceLoc loc)
    {
        Expr *e = shader_.newExpr(ExprKind::IntLit, loc);
        e->intValue = v;
        e->floatValue = static_cast<double>(v);
        return e;
    }

    Expr *floatLit(double v, SourceLoc loc)
    {
        Expr *e = shader_.newExpr(ExprKind::FloatLit, loc);
        e->floatValue = v;
        return e;
    }

    /** A node of @p kind over @p n children. */
    Expr *node(ExprKind kind, SourceLoc loc, Expr *const *args, size_t n)
    {
        Expr *e = shader_.newExpr(kind, loc);
        e->args = shader_.newSpan(args, n);
        return e;
    }

    Expr *makeBinary(BinaryOp op, Expr *a, Expr *b)
    {
        Expr *args[2] = {a, b};
        Expr *e = node(ExprKind::Binary, a->loc, args, 2);
        e->binaryOp = op;
        return e;
    }

    /** Precedence (higher binds tighter) of a binary operator token;
     * 0 for any other token. */
    static int binaryPrecedence(TokKind k, BinaryOp &op)
    {
        switch (k) {
          case TokKind::PipePipe: op = BinaryOp::LogicalOr; return 1;
          case TokKind::AmpAmp: op = BinaryOp::LogicalAnd; return 2;
          case TokKind::EqEq: op = BinaryOp::Eq; return 3;
          case TokKind::NotEq: op = BinaryOp::Ne; return 3;
          case TokKind::Less: op = BinaryOp::Lt; return 4;
          case TokKind::Greater: op = BinaryOp::Gt; return 4;
          case TokKind::LessEq: op = BinaryOp::Le; return 4;
          case TokKind::GreaterEq: op = BinaryOp::Ge; return 4;
          case TokKind::Plus: op = BinaryOp::Add; return 5;
          case TokKind::Minus: op = BinaryOp::Sub; return 5;
          case TokKind::Star: op = BinaryOp::Mul; return 6;
          case TokKind::Slash: op = BinaryOp::Div; return 6;
          case TokKind::Percent: op = BinaryOp::Mod; return 6;
          default: return 0;
        }
    }

    /** Left-associative binary operators binding at least as tightly as
     * @p min_prec, by precedence climbing. */
    Expr *parseBinary(int min_prec)
    {
        Expr *e = parseUnary();
        BinaryOp op{};
        int prec;
        while ((prec = binaryPrecedence(peek().kind, op)) >= min_prec) {
            advance();
            Expr *rhs = parseBinary(prec + 1);
            e = makeBinary(op, e, rhs);
        }
        return e;
    }

    Expr *parseUnary()
    {
        NestingGuard guard(*this);
        const SourceLoc loc = peek().loc;
        if (guard.tooDeep())
            return floatLit(0.0, loc);
        if (check(TokKind::Minus) || check(TokKind::Bang)) {
            const bool is_not = advance().is(TokKind::Bang);
            Expr *operand = parseUnary();
            Expr *e = node(ExprKind::Unary, loc, &operand, 1);
            e->unaryOp = is_not ? UnaryOp::Not : UnaryOp::Neg;
            return e;
        }
        if (accept(TokKind::Plus))
            return parseUnary();
        if (check(TokKind::PlusPlus) || check(TokKind::MinusMinus)) {
            error("increment/decrement is only supported as a statement");
            advance();
            return parseUnary();
        }
        return parsePostfix();
    }

    Expr *parsePostfix()
    {
        Expr *e = parsePrimary();
        for (;;) {
            if (check(TokKind::LBracket)) {
                advance();
                Expr *args[2] = {e, parseExpr()};
                expect(TokKind::RBracket, "after index");
                e = node(ExprKind::Index, e->loc, args, 2);
            } else if (check(TokKind::Dot)) {
                advance();
                const NameId member = expectName("after '.'");
                e = node(ExprKind::Member, e->loc, &e, 1);
                e->name = member;
            } else {
                break;
            }
        }
        return e;
    }

    Expr *parsePrimary()
    {
        const Token &t = peek();
        const SourceLoc loc = t.loc;
        if (t.is(TokKind::IntLit)) {
            advance();
            return intLit(t.intValue, loc);
        }
        if (t.is(TokKind::FloatLit)) {
            advance();
            return floatLit(t.floatValue, loc);
        }
        if (t.is(TokKind::LParen)) {
            advance();
            Expr *e = parseExpr();
            expect(TokKind::RParen, "to close parenthesis");
            return e;
        }
        if (t.is(TokKind::Identifier)) {
            if (t.is(Keyword::True) || t.is(Keyword::False)) {
                advance();
                Expr *e = shader_.newExpr(ExprKind::BoolLit, loc);
                e->boolValue = t.is(Keyword::True);
                return e;
            }
            if (isPrecisionKeyword(t.keyword)) {
                advance();
                return parsePrimary();
            }
            if (isTypeKeyword(t.keyword) && !t.is(Keyword::Void)) {
                return parseConstructor();
            }
            advance();
            if (check(TokKind::LParen)) {
                Expr *call = shader_.newExpr(ExprKind::Call, loc);
                call->name = name(t);
                call->args = parseArgs("after call arguments");
                return call;
            }
            Expr *ref = shader_.newExpr(ExprKind::VarRef, loc);
            ref->name = name(t);
            return ref;
        }
        error(std::string("unexpected token ") + tokKindName(t.kind) +
              " in expression");
        advance();
        return floatLit(0.0, loc);
    }

    /** `( a, b, ... )` at the cursor. */
    Span<Expr *> parseArgs(const char *close_ctx)
    {
        expect(TokKind::LParen, "in constructor");
        const size_t mark = exprs_.size();
        if (!check(TokKind::RParen)) {
            for (;;) {
                Expr *arg = parseExpr();
                exprs_.push_back(arg);
                if (!accept(TokKind::Comma))
                    break;
            }
        }
        expect(TokKind::RParen, close_ctx);
        return popSpan(exprs_, mark);
    }

    /**
     * Constructor expression: `vec4(...)`, `mat3(...)`, `float(...)`,
     * or array constructors `vec4[](...)` / `vec4[9](...)`.
     */
    Expr *parseConstructor()
    {
        const Token &t = advance();
        Type ty = typeFromKeyword(t.keyword);
        if (check(TokKind::LBracket))
            ty = parseArraySuffix(ty, -1, "in array constructor");
        Expr *e = shader_.newExpr(ExprKind::Construct, t.loc);
        e->ctorType = ty;
        e->args = parseArgs("after constructor arguments");
        if (e->ctorType.isArray() && e->ctorType.arraySize < 0)
            e->ctorType.arraySize = static_cast<int>(e->args.size());
        return e;
    }

    const std::vector<Token> &toks_;
    DiagEngine &diags_;
    Shader &shader_;
    /** Children of the lists being parsed, innermost last. */
    std::vector<Stmt *> stmts_;
    std::vector<Expr *> exprs_;
    size_t pos_ = 0;
    int depth_ = 0;
    bool deepDiagnosed_ = false;
};

} // namespace

Shader
parseShader(const std::vector<Token> &tokens, DiagEngine &diags)
{
    Shader shader;
    Parser(tokens, diags, shader).parse();
    return shader;
}

} // namespace gsopt::glsl
