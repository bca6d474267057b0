#include "glsl/sema.h"

#include <optional>
#include <string>

#include "glsl/builtins.h"
#include "support/governor.h"

namespace gsopt::glsl {

std::optional<std::vector<int>>
decodeSwizzle(std::string_view name, int source_rows)
{
    if (name.empty() || name.size() > 4)
        return std::nullopt;
    std::vector<int> idx;
    for (char c : name) {
        int i = -1;
        switch (c) {
          case 'x': case 'r': case 's': i = 0; break;
          case 'y': case 'g': case 't': i = 1; break;
          case 'z': case 'b': case 'p': i = 2; break;
          case 'w': case 'a': case 'q': i = 3; break;
          default: return std::nullopt;
        }
        if (i >= source_rows)
            return std::nullopt;
        idx.push_back(i);
    }
    return idx;
}

namespace {

/** A declared name. */
struct Symbol
{
    Type type;
    Qualifier qual = Qualifier::Global;
    bool isConst = false;
    NameId uniqueName = kNoName; ///< post-alpha-renaming spelling
    size_t depth = 0;            ///< scope depth it was declared at
};

class Checker
{
  public:
    Checker(Shader &shader, DiagEngine &diags)
        : shader_(shader), diags_(diags)
    {
    }

    ShaderInterface run()
    {
        growTables();
        pushScope();
        declareBuiltins();
        for (auto &g : shader_.globals)
            checkGlobal(g);
        for (auto &f : shader_.functions)
            checkFunction(f);
        if (!shader_.findFunction(shader_.names.find("main")))
            diags_.error({}, "shader has no main() function");
        popScope();
        return iface_;
    }

  private:
    // -- scopes -----------------------------------------------------------
    // One binding per source name: visible_[name] is the innermost
    // symbol spelled so. Declaring logs the binding it hides; leaving a
    // scope undoes its log entries.
    void pushScope() { scopeMarks_.push_back(undo_.size()); }
    void popScope()
    {
        for (size_t mark = scopeMarks_.back(); undo_.size() > mark;
             undo_.pop_back()) {
            const auto [name, hidden] = undo_.back();
            byUnique_[symbols_[visible_[name]].uniqueName] = -1;
            visible_[name] = hidden;
        }
        scopeMarks_.pop_back();
    }

    /** Size the name-indexed tables for every interned name. */
    void growTables()
    {
        const size_t n = shader_.names.size();
        visible_.resize(n, -1);
        byUnique_.resize(n, -1);
        used_.resize(n, 0);
    }

    std::string spelling(NameId id) const
    {
        return std::string(shader_.names.str(id));
    }
    /** @p id's spelling in quotes, for diagnostics. */
    std::string quoted(NameId id) const { return "'" + spelling(id) + "'"; }

    Symbol *lookup(NameId name)
    {
        const int i = visible_[name];
        return i < 0 ? nullptr : &symbols_[static_cast<size_t>(i)];
    }

    /**
     * Declare a name in the innermost scope, alpha-renaming if the
     * spelling was ever used before in this shader.
     */
    NameId declare(NameId name, Symbol sym, SourceLoc loc)
    {
        const Symbol *shadowed = lookup(name);
        if (shadowed && shadowed->depth == scopeMarks_.size()) {
            diags_.error(loc, "redefinition of " + quoted(name));
            return name;
        }
        NameId unique = name;
        if (used_[name]) {
            int n = 1;
            do {
                unique = shader_.names.intern(spelling(name) + "_s" +
                                              std::to_string(n++));
                growTables();
            } while (used_[unique]);
        }
        sym.uniqueName = unique;
        sym.depth = scopeMarks_.size();
        const int i = static_cast<int>(symbols_.size());
        symbols_.push_back(sym);
        used_[unique] = 1;
        undo_.emplace_back(name, visible_[name]);
        visible_[name] = i;
        byUnique_[unique] = i;
        return unique;
    }

    void declareBuiltins()
    {
        Symbol frag_coord;
        frag_coord.type = Type::vec(4);
        frag_coord.qual = Qualifier::In;
        const NameId name = shader_.names.intern("gl_FragCoord");
        growTables();
        declare(name, frag_coord, {});
    }

    // -- conversions ------------------------------------------------------
    /** Wrap @p e in an int->float conversion if needed to match @p want. */
    bool coerce(Expr *&e, const Type &want)
    {
        if (e->type == want)
            return true;
        // int -> float (scalar), possibly already literal
        if (want.isFloat() && e->type.isInt() &&
            e->type.rows == want.rows && e->type.cols == want.cols &&
            !e->type.isArray() && !want.isArray()) {
            if (e->kind == ExprKind::IntLit) {
                e->kind = ExprKind::FloatLit;
                e->floatValue = static_cast<double>(e->intValue);
                e->type = want;
                return true;
            }
            Expr *conv = shader_.newExpr(ExprKind::Construct, e->loc);
            conv->ctorType = want;
            conv->type = want;
            conv->args = shader_.newSpan(&e, 1);
            e = conv;
            return true;
        }
        return false;
    }

    /** Numeric usual-arithmetic conversion across two operands. */
    void balance(Expr *&a, Expr *&b)
    {
        if (a->type.isFloat() && b->type.isInt())
            coerce(b, Type{BaseType::Float, b->type.cols, b->type.rows, 0});
        else if (a->type.isInt() && b->type.isFloat())
            coerce(a, Type{BaseType::Float, a->type.cols, a->type.rows, 0});
    }

    // -- globals / functions ----------------------------------------------
    /** Check the initialiser (if any) of a declaration of @p name,
     * sizing an unsized array @p type from it. */
    void checkInitialiser(Type &type, Expr *&init, NameId name,
                          SourceLoc loc)
    {
        if (init) {
            checkExpr(init);
            if (type.isArray() && type.arraySize < 0 &&
                init->type.isArray())
                type.arraySize = init->type.arraySize;
            if (!coerce(init, type) && init->type != type) {
                diags_.error(loc, "initialiser type " + init->type.str() +
                                      " does not match " + type.str() +
                                      " for " + quoted(name));
            }
        } else if (type.isArray() && type.arraySize < 0) {
            diags_.error(loc, "unsized array " + quoted(name) +
                                  " needs an initialiser");
        }
    }

    void checkGlobal(GlobalDecl &g)
    {
        checkInitialiser(g.type, g.init, g.name, g.loc);
        if (g.qual == Qualifier::Const && !g.init)
            diags_.error(g.loc,
                         "const " + quoted(g.name) + " needs an initialiser");
        if (g.type.isSampler() && g.qual != Qualifier::Uniform)
            diags_.error(g.loc, "samplers must be uniforms");

        Symbol sym;
        sym.type = g.type;
        sym.qual = g.qual;
        sym.isConst = g.qual == Qualifier::Const;
        g.name = declare(g.name, sym, g.loc);

        InterfaceVar iv{spelling(g.name), g.type, g.qual};
        switch (g.qual) {
          case Qualifier::In:
            iface_.inputs.push_back(iv);
            break;
          case Qualifier::Out:
            iface_.outputs.push_back(iv);
            break;
          case Qualifier::Uniform:
            iface_.uniforms.push_back(iv);
            break;
          default:
            break;
        }
    }

    void checkFunction(FunctionDecl &fn)
    {
        currentFunction_ = &fn;
        pushScope();
        for (auto &p : fn.params) {
            Symbol sym;
            sym.type = p.type;
            sym.qual = Qualifier::Global;
            p.name = declare(p.name, sym, fn.loc);
        }
        checkStmt(fn.body);
        popScope();
        currentFunction_ = nullptr;
    }

    // -- recursion governance ---------------------------------------------
    // Sema recursion mirrors AST depth. The parser already caps its own
    // nesting, but sema must stand alone against any AST producer: the
    // built-in cap yields a clean diagnostic before the C++ stack
    // overflows, and the governed cap (Dim::SemaDepth) lets a budget
    // reject shallower with a structured ResourceExhausted.
    static constexpr int kMaxDepth = 1024;
    struct DepthGuard
    {
        Checker &c;
        explicit DepthGuard(Checker &checker) : c(checker)
        {
            governor::checkDepth(governor::Dim::SemaDepth,
                                 static_cast<uint64_t>(++c.depth_),
                                 "sema");
        }
        ~DepthGuard() { --c.depth_; }

        bool tooDeep(SourceLoc loc) const
        {
            if (c.depth_ <= kMaxDepth)
                return false;
            if (!c.deepDiagnosed_) {
                c.deepDiagnosed_ = true;
                c.diags_.error(loc, "semantic analysis nesting too deep");
            }
            return true;
        }
    };

    // -- statements ---------------------------------------------------------
    void checkStmt(Stmt *s)
    {
        DepthGuard guard(*this);
        if (guard.tooDeep(s->loc))
            return;
        switch (s->kind) {
          case StmtKind::Block: {
            if (!s->transparent)
                pushScope();
            for (Stmt *b : s->body)
                checkStmt(b);
            if (!s->transparent)
                popScope();
            break;
          }
          case StmtKind::Decl: {
            checkInitialiser(s->declType, s->rhs, s->name, s->loc);
            Symbol sym;
            sym.type = s->declType;
            sym.isConst = s->isConst;
            s->name = declare(s->name, sym, s->loc);
            break;
          }
          case StmtKind::Assign: {
            checkExpr(s->lhs);
            checkLValue(*s->lhs);
            checkExpr(s->rhs);
            Type target = s->lhs->type;
            if (s->assignOp != AssignOp::Assign) {
                // compound assign behaves like the binary operator
                if (!target.isNumeric() && !target.isMatrix())
                    diags_.error(s->loc,
                                 "compound assignment needs numeric type");
                if (target.isFloat() && s->rhs->type.isInt())
                    coerce(s->rhs,
                           Type{BaseType::Float, s->rhs->type.cols,
                                s->rhs->type.rows, 0});
                bool ok = s->rhs->type == target ||
                          (s->rhs->type.isScalar() &&
                           s->rhs->type.base == target.base);
                if (!ok)
                    diags_.error(s->loc,
                                 "cannot apply compound assignment of " +
                                     s->rhs->type.str() + " to " +
                                     target.str());
            } else {
                if (!coerce(s->rhs, target) && s->rhs->type != target) {
                    diags_.error(s->loc, "cannot assign " +
                                             s->rhs->type.str() + " to " +
                                             target.str());
                }
            }
            break;
          }
          case StmtKind::ExprStmt:
            checkExpr(s->rhs);
            break;
          case StmtKind::If: {
            checkExpr(s->cond);
            if (s->cond->type != Type::boolTy())
                diags_.error(s->loc, "if condition must be bool, got " +
                                         s->cond->type.str());
            pushScope();
            for (Stmt *b : s->body)
                checkStmt(b);
            popScope();
            pushScope();
            for (Stmt *b : s->elseBody)
                checkStmt(b);
            popScope();
            break;
          }
          case StmtKind::For: {
            pushScope();
            if (s->init)
                checkStmt(s->init);
            if (s->cond) {
                checkExpr(s->cond);
                if (s->cond->type != Type::boolTy())
                    diags_.error(s->loc,
                                 "loop condition must be bool, got " +
                                     s->cond->type.str());
            }
            if (s->step)
                checkStmt(s->step);
            pushScope();
            for (Stmt *b : s->body)
                checkStmt(b);
            popScope();
            popScope();
            break;
          }
          case StmtKind::While: {
            checkExpr(s->cond);
            if (s->cond->type != Type::boolTy())
                diags_.error(s->loc, "loop condition must be bool");
            pushScope();
            for (Stmt *b : s->body)
                checkStmt(b);
            popScope();
            break;
          }
          case StmtKind::Return: {
            Type want = currentFunction_
                            ? currentFunction_->returnType
                            : Type::voidTy();
            if (s->rhs) {
                checkExpr(s->rhs);
                if (!coerce(s->rhs, want) && s->rhs->type != want)
                    diags_.error(s->loc, "return type mismatch: got " +
                                             s->rhs->type.str() +
                                             ", expected " + want.str());
            } else if (!want.isVoid()) {
                diags_.error(s->loc, "non-void function must return a "
                                     "value");
            }
            break;
          }
          case StmtKind::Discard:
            break;
        }
    }

    void checkLValue(const Expr &e)
    {
        switch (e.kind) {
          case ExprKind::VarRef: {
            Symbol *sym = findByUnique(e.name);
            if (!sym) {
                return; // undefined already reported
            }
            if (sym->isConst)
                diags_.error(e.loc, "cannot assign to const " +
                                        quoted(e.name));
            if (sym->qual == Qualifier::In ||
                sym->qual == Qualifier::Uniform)
                diags_.error(e.loc, "cannot assign to " +
                                        std::string(sym->qual ==
                                                            Qualifier::In
                                                        ? "input"
                                                        : "uniform") +
                                        " " + quoted(e.name));
            break;
          }
          case ExprKind::Index:
          case ExprKind::Member:
            checkLValue(*e.args[0]);
            if (e.kind == ExprKind::Member) {
                // swizzle lvalues must not repeat components
                std::string seen;
                for (char c : shader_.names.str(e.name)) {
                    if (seen.find(c) != std::string::npos)
                        diags_.error(e.loc,
                                     "duplicate component in swizzle "
                                     "assignment");
                    seen += c;
                }
            }
            break;
          default:
            diags_.error(e.loc, "expression is not assignable");
        }
    }

    Symbol *findByUnique(NameId unique)
    {
        const int i = byUnique_[unique];
        return i < 0 ? nullptr : &symbols_[static_cast<size_t>(i)];
    }

    // -- expressions ----------------------------------------------------
    void checkExpr(Expr *&e)
    {
        DepthGuard guard(*this);
        if (guard.tooDeep(e->loc)) {
            e->type = Type::floatTy();
            return;
        }
        switch (e->kind) {
          case ExprKind::IntLit:
            e->type = Type::intTy();
            break;
          case ExprKind::FloatLit:
            e->type = Type::floatTy();
            break;
          case ExprKind::BoolLit:
            e->type = Type::boolTy();
            break;
          case ExprKind::VarRef: {
            Symbol *sym = lookup(e->name);
            if (!sym) {
                diags_.error(e->loc, "use of undeclared identifier " +
                                         quoted(e->name));
                e->type = Type::floatTy();
                break;
            }
            e->name = sym->uniqueName;
            e->type = sym->type;
            break;
          }
          case ExprKind::Unary: {
            checkExpr(e->args[0]);
            const Type &t = e->args[0]->type;
            if (e->unaryOp == UnaryOp::Not) {
                if (t != Type::boolTy())
                    diags_.error(e->loc, "'!' needs a bool operand");
                e->type = Type::boolTy();
            } else {
                if (!t.isNumeric() && !t.isMatrix())
                    diags_.error(e->loc, "unary '-' needs numeric type");
                e->type = t;
            }
            break;
          }
          case ExprKind::Binary:
            checkBinary(e);
            break;
          case ExprKind::Ternary: {
            checkExpr(e->args[0]);
            if (e->args[0]->type != Type::boolTy())
                diags_.error(e->loc, "ternary condition must be bool");
            checkExpr(e->args[1]);
            checkExpr(e->args[2]);
            balance(e->args[1], e->args[2]);
            if (e->args[1]->type != e->args[2]->type)
                diags_.error(e->loc, "ternary branches disagree: " +
                                         e->args[1]->type.str() + " vs " +
                                         e->args[2]->type.str());
            e->type = e->args[1]->type;
            break;
          }
          case ExprKind::Call:
            checkCall(e);
            break;
          case ExprKind::Construct:
            checkConstruct(e);
            break;
          case ExprKind::Index: {
            checkExpr(e->args[0]);
            checkExpr(e->args[1]);
            if (!e->args[1]->type.isInt() ||
                !e->args[1]->type.isScalar())
                diags_.error(e->loc, "index must be an int");
            const Type &base = e->args[0]->type;
            long extent = 0; // constant indices must lie in [0, extent)
            if (base.isArray()) {
                e->type = base.elementType();
                extent = base.arraySize;
            } else if (base.isMatrix()) {
                e->type = Type::vec(base.rows);
                extent = base.cols;
            } else if (base.isVector()) {
                e->type = base.scalarType();
                extent = base.rows;
            } else {
                diags_.error(e->loc, "type " + base.str() +
                                         " is not indexable");
                e->type = Type::floatTy();
            }
            const auto index = literalIntOf(*e->args[1]);
            if (extent > 0 && index && (*index < 0 || *index >= extent))
                diags_.error(e->loc, "index " + std::to_string(*index) +
                                         " is out of range for " +
                                         base.str());
            break;
          }
          case ExprKind::Member: {
            checkExpr(e->args[0]);
            const Type &base = e->args[0]->type;
            if (!base.isVector()) {
                diags_.error(e->loc, "swizzle on non-vector type " +
                                         base.str());
                e->type = Type::floatTy();
                break;
            }
            auto sw = decodeSwizzle(shader_.names.str(e->name), base.rows);
            if (!sw) {
                diags_.error(e->loc, "invalid swizzle '." +
                                         spelling(e->name) + "' on " +
                                         base.str());
                e->type = Type::floatTy();
                break;
            }
            e->type = sw->size() == 1
                          ? base.scalarType()
                          : base.withRows(static_cast<int>(sw->size()));
            break;
          }
        }
    }

    void checkBinary(Expr *e)
    {
        checkExpr(e->args[0]);
        checkExpr(e->args[1]);
        Expr *&a = e->args[0];
        Expr *&b = e->args[1];
        const BinaryOp op = e->binaryOp;

        if (op == BinaryOp::LogicalAnd || op == BinaryOp::LogicalOr) {
            if (a->type != Type::boolTy() || b->type != Type::boolTy())
                diags_.error(e->loc, "logical operator needs bool "
                                     "operands");
            e->type = Type::boolTy();
            return;
        }
        if (op == BinaryOp::Eq || op == BinaryOp::Ne) {
            balance(a, b);
            if (a->type != b->type)
                diags_.error(e->loc, "cannot compare " + a->type.str() +
                                         " with " + b->type.str());
            e->type = Type::boolTy();
            return;
        }
        if (op == BinaryOp::Lt || op == BinaryOp::Le ||
            op == BinaryOp::Gt || op == BinaryOp::Ge) {
            balance(a, b);
            if (!a->type.isScalar() || !b->type.isScalar() ||
                a->type != b->type || a->type.isBool())
                diags_.error(e->loc, "relational operators need matching "
                                     "numeric scalars");
            e->type = Type::boolTy();
            return;
        }
        if (op == BinaryOp::Mod) {
            if (!a->type.isInt() || !b->type.isInt() ||
                !a->type.isScalar() || !b->type.isScalar())
                diags_.error(e->loc, "'%' needs int scalars (use mod() "
                                     "for floats)");
            e->type = Type::intTy();
            return;
        }

        // Arithmetic: +,-,*,/
        balance(a, b);
        const Type &ta = a->type;
        const Type &tb = b->type;
        auto fail = [&]() {
            diags_.error(e->loc, "invalid operands " + ta.str() + " and " +
                                     tb.str());
            e->type = ta;
        };
        if (ta.isArray() || tb.isArray() || ta.isSampler() ||
            tb.isSampler() || ta.isBool() || tb.isBool()) {
            fail();
            return;
        }
        if (ta.base != tb.base) {
            fail();
            return;
        }
        if (op == BinaryOp::Mul) {
            if (ta.isMatrix() && tb.isMatrix() && ta.cols == tb.cols) {
                e->type = ta;
                return;
            }
            if (ta.isMatrix() && tb.isVector() && ta.cols == tb.rows) {
                e->type = Type::vec(ta.rows);
                return;
            }
            if (ta.isVector() && tb.isMatrix() && ta.rows == tb.rows) {
                e->type = Type::vec(tb.cols);
                return;
            }
        }
        if (ta.isMatrix() || tb.isMatrix()) {
            // mat +- mat, mat */ scalar
            if (ta.isMatrix() && tb.isMatrix()) {
                if (ta == tb && (op == BinaryOp::Add ||
                                 op == BinaryOp::Sub)) {
                    e->type = ta;
                    return;
                }
                fail();
                return;
            }
            if (ta.isMatrix() && tb.isScalar()) {
                e->type = ta;
                return;
            }
            if (ta.isScalar() && tb.isMatrix()) {
                e->type = tb;
                return;
            }
            fail();
            return;
        }
        // scalar/vector combinations
        if (ta.rows == tb.rows) {
            e->type = ta;
            return;
        }
        if (ta.isScalar()) {
            e->type = tb;
            return;
        }
        if (tb.isScalar()) {
            e->type = ta;
            return;
        }
        fail();
    }

    void checkCall(Expr *e)
    {
        std::vector<Type> arg_types;
        for (Expr *&a : e->args) {
            checkExpr(a);
            arg_types.push_back(a->type);
        }
        // Builtin? Resolve its catalogue row once, for lowering too.
        const Builtin *b = findBuiltin(shader_.names.str(e->name),
                                       arg_types.size());
        if (b) {
            Type r = b->resultType(arg_types);
            if (r.isVoid()) {
                // Try int->float promoting every int arg.
                bool promoted = false;
                for (size_t i = 0; i < e->args.size(); ++i) {
                    if (arg_types[i].isInt() &&
                        !arg_types[i].isArray()) {
                        Type ft{BaseType::Float, arg_types[i].cols,
                                arg_types[i].rows, 0};
                        if (coerce(e->args[i], ft)) {
                            arg_types[i] = ft;
                            promoted = true;
                        }
                    }
                }
                if (promoted)
                    r = b->resultType(arg_types);
            }
            if (r.isVoid()) {
                std::string sig;
                for (const auto &t : arg_types)
                    sig += (sig.empty() ? "" : ", ") + t.str();
                diags_.error(e->loc, "no matching overload for " +
                                         spelling(e->name) + "(" + sig +
                                         ")");
                e->type = Type::floatTy();
                return;
            }
            e->type = r;
            e->builtin = b;
            return;
        }
        // User function.
        const FunctionDecl *fn = shader_.findFunction(e->name);
        if (!fn) {
            diags_.error(e->loc,
                         "call to undefined function " + quoted(e->name));
            e->type = Type::floatTy();
            return;
        }
        if (fn->params.size() != e->args.size()) {
            diags_.error(e->loc, quoted(e->name) + " expects " +
                                     std::to_string(fn->params.size()) +
                                     " arguments, got " +
                                     std::to_string(e->args.size()));
            e->type = fn->returnType;
            return;
        }
        for (size_t i = 0; i < e->args.size(); ++i) {
            if (!coerce(e->args[i], fn->params[i].type) &&
                e->args[i]->type != fn->params[i].type) {
                diags_.error(e->loc,
                             "argument " + std::to_string(i + 1) +
                                 " of " + quoted(e->name) + ": expected " +
                                 fn->params[i].type.str() + ", got " +
                                 e->args[i]->type.str());
            }
        }
        e->type = fn->returnType;
    }

    void checkConstruct(Expr *e)
    {
        for (Expr *&a : e->args)
            checkExpr(a);
        const Type ty = e->ctorType;
        e->type = ty;

        if (ty.isArray()) {
            if (ty.arraySize != static_cast<int>(e->args.size())) {
                diags_.error(e->loc,
                             "array constructor needs " +
                                 std::to_string(ty.arraySize) +
                                 " elements, got " +
                                 std::to_string(e->args.size()));
                return;
            }
            for (Expr *&a : e->args) {
                if (!coerce(a, ty.elementType()) &&
                    a->type != ty.elementType()) {
                    diags_.error(a->loc,
                                 "array element type " + a->type.str() +
                                     " does not match " +
                                     ty.elementType().str());
                }
            }
            return;
        }
        if (ty.isScalar()) {
            if (e->args.size() != 1 ||
                (!e->args[0]->type.isScalar() &&
                 !e->args[0]->type.isVector())) {
                diags_.error(e->loc, "scalar constructor needs one "
                                     "scalar argument");
            }
            return;
        }
        if (ty.isVector()) {
            int total = 0;
            for (const Expr *a : e->args) {
                if (a->type.isArray() || a->type.isSampler() ||
                    a->type.isMatrix()) {
                    diags_.error(a->loc, "bad vector constructor "
                                         "argument");
                    return;
                }
                // int components are fine; they convert per-component
                total += a->type.componentCount();
            }
            bool splat = e->args.size() == 1 &&
                         e->args[0]->type.isScalar();
            bool shrink = e->args.size() == 1 &&
                          e->args[0]->type.isVector() &&
                          e->args[0]->type.rows >= ty.rows;
            if (!splat && !shrink && total != ty.rows) {
                diags_.error(e->loc,
                             "vector constructor components (" +
                                 std::to_string(total) +
                                 ") do not match " + ty.str());
            }
            return;
        }
        if (ty.isMatrix()) {
            const int need = ty.cols * ty.rows;
            if (e->args.size() == 1 && e->args[0]->type.isScalar())
                return; // diagonal matrix
            if (e->args.size() == 1 && e->args[0]->type.isMatrix())
                return; // matrix resize
            int total = 0;
            bool columns = true;
            for (const Expr *a : e->args) {
                if (!a->type.isScalar() && !a->type.isVector()) {
                    diags_.error(a->loc, "bad matrix constructor "
                                         "argument");
                    return;
                }
                columns = columns && a->type.isVector() &&
                          a->type.rows == ty.rows;
                total += a->type.componentCount();
            }
            if (total != need) {
                diags_.error(e->loc,
                             "matrix constructor components (" +
                                 std::to_string(total) +
                                 ") do not match " + ty.str());
            }
            return;
        }
        diags_.error(e->loc, "cannot construct type " + ty.str());
    }

    Shader &shader_;
    DiagEngine &diags_;
    std::vector<Symbol> symbols_; ///< every symbol declared
    std::vector<int> visible_;    ///< by source name: symbol or -1
    std::vector<int> byUnique_;   ///< by unique name: visible symbol
    std::vector<char> used_;      ///< by name: taken as a unique name
    /** (name, the binding its declaration hid), per declaration. */
    std::vector<std::pair<NameId, int>> undo_;
    std::vector<size_t> scopeMarks_; ///< undo_ size at each scope entry
    ShaderInterface iface_;
    FunctionDecl *currentFunction_ = nullptr;
    int depth_ = 0;
    bool deepDiagnosed_ = false;
};

} // namespace

ShaderInterface
analyze(Shader &shader, DiagEngine &diags)
{
    Checker checker(shader, diags);
    return checker.run();
}

} // namespace gsopt::glsl
