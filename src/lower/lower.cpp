#include "lower/lower.h"

#include <array>
#include <cmath>
#include <optional>
#include <string>

#include "glsl/builtins.h"
#include "ir/builder.h"
#include "ir/verifier.h"

namespace gsopt::lower {

using glsl::AssignOp;
using glsl::BinaryOp;
using glsl::Expr;
using glsl::ExprKind;
using glsl::kNoName;
using glsl::NameId;
using glsl::Qualifier;
using glsl::Stmt;
using glsl::StmtKind;
using glsl::UnaryOp;
using ir::Instr;
using ir::IrBuilder;
using ir::Opcode;
using ir::Type;
using ir::Var;
using ir::VarKind;

namespace {

/** A scalarised matrix value: cols*rows scalar SSA values, column-major. */
struct MatValue
{
    int cols = 0;
    int rows = 0;
    std::vector<Instr *> scalars; ///< scalars[c * rows + r]

    Instr *&at(int c, int r) { return scalars[c * rows + r]; }
    Instr *at(int c, int r) const { return scalars[c * rows + r]; }
};

/** The result of evaluating an expression. */
struct Value
{
    Instr *v = nullptr; ///< scalar/vector value (null for matrices)
    std::optional<MatValue> mat;

    bool isMatrix() const { return mat.has_value(); }
};

[[noreturn]] void
fail(SourceLoc loc, const std::string &msg)
{
    throw CompileError({{Severity::Error, loc, msg}});
}

class Lowerer
{
  public:
    explicit Lowerer(const glsl::CompiledShader &cs)
        : cs_(cs), names_(cs.ast.names.extension()),
          fragCoord_(names_.intern("gl_FragCoord")),
          module_(std::make_unique<ir::Module>()), builder_(*module_)
    {
    }

    std::unique_ptr<ir::Module> run()
    {
        for (const auto &g : cs_.ast.globals)
            lowerGlobal(g);
        const glsl::FunctionDecl *main =
            cs_.ast.findFunction(names_.find("main"));
        if (!main)
            fail({}, "no main function");
        for (const Stmt *s : main->body->body)
            lowerStmt(*s);
        ir::verifyOrDie(*module_, "after lowering");
        return std::move(module_);
    }

  private:
    // ================= constant evaluation (for const arrays) ==========

    /** Flattened constant value of an expression, if fully constant. */
    std::optional<std::vector<double>> tryEvalConst(const Expr &e)
    {
        switch (e.kind) {
          case ExprKind::IntLit:
            return std::vector<double>{static_cast<double>(e.intValue)};
          case ExprKind::FloatLit:
            return std::vector<double>{e.floatValue};
          case ExprKind::BoolLit:
            return std::vector<double>{e.boolValue ? 1.0 : 0.0};
          case ExprKind::VarRef: {
            return info(e.name).constValue;
          }
          case ExprKind::Unary: {
            auto a = tryEvalConst(*e.args[0]);
            if (!a)
                return std::nullopt;
            for (double &d : *a)
                d = e.unaryOp == UnaryOp::Not ? (d == 0.0 ? 1.0 : 0.0)
                                              : -d;
            return a;
          }
          case ExprKind::Binary: {
            auto a = tryEvalConst(*e.args[0]);
            auto b = tryEvalConst(*e.args[1]);
            if (!a || !b)
                return std::nullopt;
            // Broadcast scalars.
            if (a->size() == 1 && b->size() > 1)
                a->assign(b->size(), (*a)[0]);
            if (b->size() == 1 && a->size() > 1)
                b->assign(a->size(), (*b)[0]);
            if (a->size() != b->size())
                return std::nullopt;
            for (size_t i = 0; i < a->size(); ++i) {
                double x = (*a)[i], y = (*b)[i];
                switch (e.binaryOp) {
                  case BinaryOp::Add: (*a)[i] = x + y; break;
                  case BinaryOp::Sub: (*a)[i] = x - y; break;
                  case BinaryOp::Mul: (*a)[i] = x * y; break;
                  case BinaryOp::Div:
                    (*a)[i] = y != 0.0 ? x / y : 0.0;
                    break;
                  default:
                    return std::nullopt;
                }
            }
            return a;
          }
          case ExprKind::Construct: {
            if (e.ctorType.isMatrix())
                return std::nullopt;
            std::vector<double> out;
            for (const Expr *arg : e.args) {
                auto v = tryEvalConst(*arg);
                if (!v)
                    return std::nullopt;
                out.insert(out.end(), v->begin(), v->end());
            }
            if (!e.ctorType.isArray()) {
                const size_t want =
                    static_cast<size_t>(e.ctorType.componentCount());
                if (out.size() == 1 && want > 1)
                    out.assign(want, out[0]); // splat
                if (out.size() > want)
                    out.resize(want); // vec3(v4) truncation
                if (out.size() != want)
                    return std::nullopt;
            }
            return out;
          }
          case ExprKind::Index: {
            auto base = tryEvalConst(*e.args[0]);
            auto idx = tryEvalConst(*e.args[1]);
            if (!base || !idx)
                return std::nullopt;
            const Type &bt = e.args[0]->type;
            int comp = bt.isArray() ? bt.elementType().componentCount()
                                    : 1;
            size_t offset =
                static_cast<size_t>((*idx)[0]) * static_cast<size_t>(comp);
            if (offset + static_cast<size_t>(comp) > base->size())
                return std::nullopt;
            return std::vector<double>(base->begin() + offset,
                                       base->begin() + offset + comp);
          }
          case ExprKind::Member: {
            auto base = tryEvalConst(*e.args[0]);
            if (!base)
                return std::nullopt;
            auto lanes = glsl::decodeSwizzle(
                str(e.name), static_cast<int>(base->size()));
            if (!lanes)
                return std::nullopt;
            std::vector<double> out;
            for (int i : *lanes)
                out.push_back((*base)[static_cast<size_t>(i)]);
            return out;
          }
          default:
            return std::nullopt;
        }
    }

    // ========================== globals ================================

    void lowerGlobal(const glsl::GlobalDecl &g)
    {
        VarKind kind = VarKind::Local;
        switch (g.qual) {
          case Qualifier::In:
            kind = VarKind::Input;
            break;
          case Qualifier::Out:
            kind = VarKind::Output;
            break;
          case Qualifier::Uniform:
            kind = g.type.isSampler() ? VarKind::Sampler
                                      : VarKind::Uniform;
            break;
          case Qualifier::Const:
          case Qualifier::Global:
            kind = VarKind::Local;
            break;
        }

        if (kind != VarKind::Local) {
            // Uniform matrices stay whole too; columns are loaded via
            // LoadElem and scalarised at each use.
            newVar(g.name, g.type, kind);
            return;
        }

        // const globals: try full constant evaluation. Mutable globals
        // must keep real storage (main may overwrite them).
        if (g.init && g.qual == Qualifier::Const) {
            auto cv = tryEvalConst(*g.init);
            if (cv) {
                info(g.name).constValue = cv;
                if (g.type.isArray()) {
                    Var *var =
                        newVar(g.name, g.type, VarKind::ConstArray);
                    var->constInit = *cv;
                    return;
                }
                // Constant scalar/vector: materialise as a module-entry
                // store (forwarding will propagate it).
                declareLocal(g.name, g.type, g.loc);
                Value value{makeConst(g.type, *cv), std::nullopt};
                storeValue(g.name, g.type, value, {});
                return;
            }
        }
        declareLocal(g.name, g.type, g.loc);
        if (g.init) {
            Value v = lowerExpr(*g.init);
            storeValue(g.name, g.type, v, g.loc);
        }
    }

    // ===================== var management ==============================

    /** Scalarised storage for a local matrix variable. */
    struct MatrixStorage
    {
        int cols = 0;
        int rows = 0;
        std::vector<Var *> comps;
    };

    /** What the lowerer knows about one name. */
    struct NameInfo
    {
        Var *var = nullptr;      ///< first module var so named
        int matrix = -1;         ///< matrices_ index: scalarised storage
        /** Known constant value (const globals/locals, arrays). */
        std::optional<std::vector<double>> constValue;
        NameId subst = kNoName;  ///< active substitution, if any
        bool inlining = false;   ///< a function on the inline stack
    };

    /** The entry of @p id; a reference valid until the next intern. */
    NameInfo &info(NameId id)
    {
        if (id >= infos_.size())
            infos_.resize(names_.size());
        return infos_[id];
    }

    std::string_view str(NameId id) const { return names_.str(id); }
    /** @p id's spelling in quotes, for diagnostics. */
    std::string quoted(NameId id) const
    {
        return "'" + std::string(str(id)) + "'";
    }

    /** @p base's spelling plus @p suffix, interned. */
    NameId derived(NameId base, const std::string &suffix)
    {
        return names_.intern(std::string(str(base)) + suffix);
    }

    /** Create a module var and index it by name (the first var with a
     * name wins, as in Module::findVar, which this index replaces:
     * every var is created here). */
    Var *newVar(NameId name, Type type, VarKind kind)
    {
        Var *v = module_->newVar(std::string(str(name)), type, kind);
        if (!info(name).var)
            info(name).var = v;
        return v;
    }

    /** Is @p name a var or a scalarised matrix already? */
    bool taken(NameId name)
    {
        return info(name).var || info(name).matrix >= 0;
    }

    /**
     * Make a module-unique variable name. Source names are unique after
     * sema's alpha-renaming, but inlining the same function at several
     * sites re-declares its locals; those get a numeric suffix here.
     */
    NameId uniqueVarName(NameId name)
    {
        if (!taken(name))
            return name;
        int n = 1;
        NameId candidate;
        do {
            candidate = derived(name, "_d" + std::to_string(n++));
        } while (taken(candidate));
        return candidate;
    }

    /** Create the storage for a local of any type (matrix-aware). */
    void declareLocal(NameId name, Type type, SourceLoc loc)
    {
        if (type.isMatrix()) {
            // Scalarised storage: one float var per component.
            MatrixStorage m{type.cols, type.rows, {}};
            for (int c = 0; c < type.cols; ++c) {
                for (int r = 0; r < type.rows; ++r) {
                    m.comps.push_back(newVar(
                        derived(name, "_m" + std::to_string(c) +
                                          std::to_string(r)),
                        Type::floatTy(), VarKind::Local));
                }
            }
            info(name).matrix = static_cast<int>(matrices_.size());
            matrices_.push_back(std::move(m));
            return;
        }
        if (type.isArray() && type.arraySize < 0)
            fail(loc, "array " + quoted(name) + " has unresolved size");
        newVar(name, type, VarKind::Local);
    }

    /** The scalarised storage of @p name, or nullptr. */
    const MatrixStorage *matrixOf(NameId name)
    {
        const int m = info(name).matrix;
        return m < 0 ? nullptr : &matrices_[static_cast<size_t>(m)];
    }

    Var *varFor(NameId name, SourceLoc loc)
    {
        Var *v = info(name).var;
        if (!v && name == fragCoord_) {
            // The fragment-coordinate builtin materialises on first use.
            return newVar(fragCoord_, Type::vec(4), VarKind::Input);
        }
        if (!v)
            fail(loc, "lowering: unknown variable " + quoted(name));
        return v;
    }

    Instr *makeConst(Type type, const std::vector<double> &lanes)
    {
        if (lanes.size() == 1 && type.componentCount() > 1)
            return builder_.constSplat(type, lanes[0]);
        return builder_.constVec(type, lanes);
    }

    // ================= scalar<->vector shape handling ===================

    /**
     * Splat a scalar to a vector type via Construct — the deliberate
     * "unnecessary vectorisation" artefact (III-C.b).
     */
    Instr *splat(Instr *scalar, Type vec_type)
    {
        return builder_.construct(vec_type, {scalar});
    }

    /** Promote operands of a componentwise binary op to a common shape. */
    void matchShapes(Instr *&a, Instr *&b)
    {
        if (a->type.rows == b->type.rows)
            return;
        if (a->type.isScalar())
            a = splat(a, b->type);
        else if (b->type.isScalar())
            b = splat(b, a->type);
    }

    // =========================== expressions ==========================

    Value lowerExpr(const Expr &e)
    {
        switch (e.kind) {
          case ExprKind::IntLit:
            return {builder_.constInt(e.intValue), std::nullopt};
          case ExprKind::FloatLit:
            return {builder_.constFloat(e.floatValue), std::nullopt};
          case ExprKind::BoolLit:
            return {builder_.constBool(e.boolValue), std::nullopt};
          case ExprKind::VarRef:
            return lowerVarRef(e);
          case ExprKind::Unary:
            return lowerUnary(e);
          case ExprKind::Binary:
            return lowerBinary(e);
          case ExprKind::Ternary:
            return lowerTernary(e);
          case ExprKind::Call:
            return lowerCall(e);
          case ExprKind::Construct:
            return lowerConstruct(e);
          case ExprKind::Index:
            return lowerIndex(e);
          case ExprKind::Member:
            return lowerMember(e);
        }
        fail(e.loc, "unhandled expression kind");
    }

    /** Evaluate an expression expecting a non-matrix value. */
    Instr *lowerScalarOrVector(const Expr &e)
    {
        Value v = lowerExpr(e);
        if (v.isMatrix())
            fail(e.loc, "matrix value used where scalar/vector expected");
        return v.v;
    }

    Value lowerVarRef(const Expr &e)
    {
        // Inlined-function parameter substitution.
        const NameId name = substName(e.name);

        if (e.type.isMatrix()) {
            if (const MatrixStorage *m = matrixOf(name)) {
                MatValue mv;
                mv.cols = m->cols;
                mv.rows = m->rows;
                for (Var *comp : m->comps)
                    mv.scalars.push_back(builder_.load(comp));
                return {nullptr, mv};
            }
            // Uniform matrix: load columns, scalarise.
            Var *var = varFor(name, e.loc);
            MatValue mv;
            mv.cols = e.type.cols;
            mv.rows = e.type.rows;
            for (int c = 0; c < mv.cols; ++c) {
                Instr *col =
                    builder_.loadElem(var, builder_.constInt(c));
                col->type = Type::vec(mv.rows);
                for (int r = 0; r < mv.rows; ++r)
                    mv.scalars.push_back(builder_.extract(col, r));
            }
            return {nullptr, mv};
        }
        Var *var = varFor(name, e.loc);
        if (var->type.isArray())
            fail(e.loc, "array " + quoted(name) +
                            " can only be used with an index");
        return {builder_.load(var), std::nullopt};
    }

    Value lowerUnary(const Expr &e)
    {
        Value a = lowerExpr(*e.args[0]);
        if (a.isMatrix()) {
            MatValue out = *a.mat;
            for (auto &s : out.scalars)
                s = builder_.unary(Opcode::Neg, s);
            return {nullptr, out};
        }
        Opcode op = e.unaryOp == UnaryOp::Not ? Opcode::Not : Opcode::Neg;
        return {builder_.unary(op, a.v), std::nullopt};
    }

    Value lowerBinary(const Expr &e)
    {
        const BinaryOp op = e.binaryOp;
        Value av = lowerExpr(*e.args[0]);
        Value bv = lowerExpr(*e.args[1]);

        if (av.isMatrix() || bv.isMatrix())
            return lowerMatrixBinary(e, av, bv);

        // By BinaryOp.
        static constexpr Opcode kOpcodes[] = {
            Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Div,
            Opcode::Mod, Opcode::Lt,  Opcode::Le,  Opcode::Gt,
            Opcode::Ge,  Opcode::Eq,  Opcode::Ne,  Opcode::LogicalAnd,
            Opcode::LogicalOr,
        };
        Instr *a = av.v;
        Instr *b = bv.v;
        if (op <= BinaryOp::Div)
            matchShapes(a, b);
        return {builder_.binary(kOpcodes[static_cast<int>(op)], a, b),
                std::nullopt};
    }

    Value lowerMatrixBinary(const Expr &e, Value &av, Value &bv)
    {
        const BinaryOp op = e.binaryOp;
        // mat * vec
        if (op == BinaryOp::Mul && av.isMatrix() && !bv.isMatrix() &&
            bv.v->type.isVector()) {
            const MatValue &m = *av.mat;
            std::vector<Instr *> vcomp;
            for (int c = 0; c < m.cols; ++c)
                vcomp.push_back(builder_.extract(bv.v, c));
            std::vector<Instr *> rows;
            for (int r = 0; r < m.rows; ++r) {
                Instr *sum = nullptr;
                for (int c = 0; c < m.cols; ++c) {
                    Instr *prod = builder_.binary(Opcode::Mul,
                                                  m.at(c, r), vcomp[c]);
                    sum = sum ? builder_.binary(Opcode::Add, sum, prod)
                              : prod;
                }
                rows.push_back(sum);
            }
            return {builder_.construct(Type::vec(m.rows), rows),
                    std::nullopt};
        }
        // vec * mat
        if (op == BinaryOp::Mul && !av.isMatrix() && bv.isMatrix() &&
            av.v->type.isVector()) {
            const MatValue &m = *bv.mat;
            std::vector<Instr *> vcomp;
            for (int r = 0; r < m.rows; ++r)
                vcomp.push_back(builder_.extract(av.v, r));
            std::vector<Instr *> cols;
            for (int c = 0; c < m.cols; ++c) {
                Instr *sum = nullptr;
                for (int r = 0; r < m.rows; ++r) {
                    Instr *prod = builder_.binary(Opcode::Mul, vcomp[r],
                                                  m.at(c, r));
                    sum = sum ? builder_.binary(Opcode::Add, sum, prod)
                              : prod;
                }
                cols.push_back(sum);
            }
            return {builder_.construct(Type::vec(m.cols), cols),
                    std::nullopt};
        }
        // mat * mat
        if (op == BinaryOp::Mul && av.isMatrix() && bv.isMatrix()) {
            const MatValue &a = *av.mat;
            const MatValue &b = *bv.mat;
            MatValue out;
            out.cols = b.cols;
            out.rows = a.rows;
            out.scalars.resize(
                static_cast<size_t>(out.cols * out.rows));
            for (int c = 0; c < out.cols; ++c) {
                for (int r = 0; r < out.rows; ++r) {
                    Instr *sum = nullptr;
                    for (int k = 0; k < a.cols; ++k) {
                        Instr *prod = builder_.binary(
                            Opcode::Mul, a.at(k, r), b.at(c, k));
                        sum = sum ? builder_.binary(Opcode::Add, sum,
                                                    prod)
                                  : prod;
                    }
                    out.at(c, r) = sum;
                }
            }
            return {nullptr, out};
        }
        // mat +- mat (componentwise)
        if ((op == BinaryOp::Add || op == BinaryOp::Sub) &&
            av.isMatrix() && bv.isMatrix()) {
            MatValue out = *av.mat;
            for (size_t i = 0; i < out.scalars.size(); ++i) {
                out.scalars[i] = builder_.binary(
                    op == BinaryOp::Add ? Opcode::Add : Opcode::Sub,
                    out.scalars[i], bv.mat->scalars[i]);
            }
            return {nullptr, out};
        }
        // mat *or/ scalar (componentwise)
        if (av.isMatrix() && bv.v && bv.v->type.isScalar()) {
            MatValue out = *av.mat;
            Opcode o = op == BinaryOp::Mul   ? Opcode::Mul
                       : op == BinaryOp::Div ? Opcode::Div
                       : op == BinaryOp::Add ? Opcode::Add
                                             : Opcode::Sub;
            for (auto &s : out.scalars)
                s = builder_.binary(o, s, bv.v);
            return {nullptr, out};
        }
        if (bv.isMatrix() && av.v && av.v->type.isScalar()) {
            MatValue out = *bv.mat;
            Opcode o = op == BinaryOp::Mul ? Opcode::Mul : Opcode::Add;
            if (op != BinaryOp::Mul && op != BinaryOp::Add)
                fail(e.loc, "unsupported scalar-matrix operation");
            for (auto &s : out.scalars)
                s = builder_.binary(o, av.v, s);
            return {nullptr, out};
        }
        fail(e.loc, "unsupported matrix operation");
    }

    Value lowerTernary(const Expr &e)
    {
        // Both arms are evaluated and combined with a select — exactly
        // what an if-flattened LunarGlass shader looks like.
        Instr *cond = lowerScalarOrVector(*e.args[0]);
        Value t = lowerExpr(*e.args[1]);
        Value f = lowerExpr(*e.args[2]);
        if (t.isMatrix() || f.isMatrix()) {
            MatValue out = *t.mat;
            for (size_t i = 0; i < out.scalars.size(); ++i) {
                out.scalars[i] = builder_.select(
                    cond, out.scalars[i], f.mat->scalars[i]);
            }
            return {nullptr, out};
        }
        return {builder_.select(cond, t.v, f.v), std::nullopt};
    }

    Value lowerConstruct(const Expr &e)
    {
        const Type ty = e.ctorType;
        if (ty.isArray())
            fail(e.loc, "array constructors are only supported as "
                        "variable initialisers");
        if (ty.isMatrix())
            return lowerMatrixConstruct(e);

        if (ty.isScalar()) {
            Instr *a = lowerScalarOrVector(*e.args[0]);
            Instr *src =
                a->type.isVector() ? builder_.extract(a, 0) : a;
            return {convertScalar(src, ty), std::nullopt};
        }

        // Vector constructor.
        std::vector<Instr *> parts;
        int have = 0;
        for (const Expr *arg : e.args) {
            Instr *v = lowerScalarOrVector(*arg);
            // Component base conversion (int literals in vec ctor, ...).
            if (v->type.isScalar() && v->type.base != ty.base)
                v = convertScalar(v, ty.scalarType());
            if (have >= ty.rows)
                break; // extra args (vec3(v4)) are truncated below
            parts.push_back(v);
            have += v->type.componentCount();
        }
        if (parts.size() == 1 && parts[0]->type.isScalar())
            return {builder_.construct(ty, parts), std::nullopt}; // splat
        if (parts.size() == 1 && parts[0]->type.isVector() &&
            parts[0]->type.rows > ty.rows &&
            parts[0]->type.base == ty.base) {
            // vec3(v4): truncating swizzle (ivec3(v4) converts its
            // lanes in the chain below)
            std::vector<int> idx;
            for (int i = 0; i < ty.rows; ++i)
                idx.push_back(i);
            return {builder_.swizzle(parts[0], idx), std::nullopt};
        }
        // Multi-component constructors lower to insertelement chains,
        // exactly as LLVM (and therefore LunarGlass) builds vectors.
        // This is why the Coalesce pass "applies to almost every
        // shader" in the paper (Fig 8a): it rewrites these chains back
        // into single swizzled constructions.
        std::vector<Instr *> scalars;
        for (Instr *p : parts) {
            if (p->type.isScalar()) {
                scalars.push_back(p);
            } else {
                // Each lane converts to the constructor's base type
                // (ivec4(v4) truncates), except an int lane of a float
                // vector: GLSL promotes it implicitly, and an int is
                // already an exact float. Lanes past the constructor's
                // size (ivec3(v4)) are not extracted.
                for (int i = 0; i < p->type.rows &&
                                static_cast<int>(scalars.size()) < ty.rows;
                     ++i) {
                    Instr *lane = builder_.extract(p, i);
                    if (!(lane->type.isInt() && ty.isFloat()))
                        lane = convertScalar(lane, ty.scalarType());
                    scalars.push_back(lane);
                }
            }
        }
        scalars.resize(static_cast<size_t>(ty.rows),
                       scalars.empty() ? nullptr : scalars.back());
        Instr *acc = builder_.constSplat(ty, 0.0);
        for (int lane = 0; lane < ty.rows; ++lane)
            acc = builder_.insert(acc, scalars[static_cast<size_t>(lane)],
                                  lane);
        return {acc, std::nullopt};
    }

    Instr *convertScalar(Instr *v, Type to)
    {
        if (v->type == to)
            return v;
        // Represent conversions as a Construct of one scalar.
        return builder_.construct(to, {v});
    }

    Value lowerMatrixConstruct(const Expr &e)
    {
        const Type ty = e.ctorType;
        MatValue out;
        out.cols = ty.cols;
        out.rows = ty.rows;
        out.scalars.assign(static_cast<size_t>(ty.cols * ty.rows),
                           nullptr);

        if (e.args.size() == 1 && e.args[0]->type.isScalar()) {
            Instr *d = lowerScalarOrVector(*e.args[0]);
            Instr *zero = builder_.constFloat(0.0);
            for (int c = 0; c < ty.cols; ++c) {
                for (int r = 0; r < ty.rows; ++r)
                    out.at(c, r) = c == r ? d : zero;
            }
            return {nullptr, out};
        }
        if (e.args.size() == 1 && e.args[0]->type.isMatrix()) {
            Value src = lowerExpr(*e.args[0]);
            Instr *zero = builder_.constFloat(0.0);
            Instr *one = builder_.constFloat(1.0);
            for (int c = 0; c < ty.cols; ++c) {
                for (int r = 0; r < ty.rows; ++r) {
                    if (c < src.mat->cols && r < src.mat->rows)
                        out.at(c, r) = src.mat->at(c, r);
                    else
                        out.at(c, r) = c == r ? one : zero;
                }
            }
            return {nullptr, out};
        }
        // Flatten all args to scalars, column-major fill.
        std::vector<Instr *> scalars;
        for (const Expr *arg : e.args) {
            Instr *v = lowerScalarOrVector(*arg);
            if (v->type.isScalar()) {
                scalars.push_back(v);
            } else {
                for (int i = 0; i < v->type.rows; ++i)
                    scalars.push_back(builder_.extract(v, i));
            }
        }
        if (scalars.size() <
            static_cast<size_t>(ty.cols) * static_cast<size_t>(ty.rows))
            fail(e.loc, "not enough components in matrix constructor");
        for (int c = 0; c < ty.cols; ++c) {
            for (int r = 0; r < ty.rows; ++r)
                out.at(c, r) =
                    scalars[static_cast<size_t>(c * ty.rows + r)];
        }
        return {nullptr, out};
    }

    Value lowerIndex(const Expr &e)
    {
        const Expr &base = *e.args[0];
        const Expr &idx = *e.args[1];

        // Array element access goes straight to the var.
        if (base.kind == ExprKind::VarRef && base.type.isArray()) {
            Var *var = varFor(substName(base.name), base.loc);
            Instr *i = lowerScalarOrVector(idx);
            Instr *elem = builder_.loadElem(var, i);
            return {elem, std::nullopt};
        }
        // Matrix column access.
        if (base.type.isMatrix()) {
            Value m = lowerExpr(base);
            auto ci = glsl::literalIntOf(idx);
            if (!ci)
                fail(e.loc, "dynamic matrix column index is not "
                            "supported on scalarised matrices");
            int c = static_cast<int>(*ci);
            std::vector<Instr *> comps;
            for (int r = 0; r < m.mat->rows; ++r)
                comps.push_back(m.mat->at(c, r));
            return {builder_.construct(Type::vec(m.mat->rows), comps),
                    std::nullopt};
        }
        // Vector component access.
        Instr *vec = lowerScalarOrVector(base);
        auto ci = glsl::literalIntOf(idx);
        if (ci)
            return {builder_.extract(vec, static_cast<int>(*ci)),
                    std::nullopt};
        // Dynamic vector index: select chain (v[i]).
        Instr *index = lowerScalarOrVector(idx);
        Instr *result = builder_.extract(vec, 0);
        for (int lane = 1; lane < vec->type.rows; ++lane) {
            Instr *is_lane = builder_.binary(Opcode::Eq, index,
                                             builder_.constInt(lane));
            result = builder_.select(is_lane,
                                     builder_.extract(vec, lane),
                                     result);
        }
        return {result, std::nullopt};
    }

    Value lowerMember(const Expr &e)
    {
        Instr *base = lowerScalarOrVector(*e.args[0]);
        std::vector<int> idx = swizzleIndices(e.name);
        if (idx.size() == 1)
            return {builder_.extract(base, idx[0]), std::nullopt};
        return {builder_.swizzle(base, idx), std::nullopt};
    }

    /** The lanes of a swizzle sema accepted. */
    std::vector<int> swizzleIndices(NameId name) const
    {
        return *glsl::decodeSwizzle(str(name), 4);
    }

    // ========================= calls ===================================

    Value lowerCall(const Expr &e)
    {
        if (e.builtin)
            return lowerBuiltin(e, *e.builtin);

        const NameId name = e.name;
        const glsl::FunctionDecl *fn = cs_.ast.findFunction(name);
        if (!fn)
            fail(e.loc, "call to unknown function " + quoted(name));
        if (info(name).inlining)
            fail(e.loc, "recursive call to " + quoted(name) +
                            " cannot be inlined");

        // Inline: bind arguments to fresh locals. The arguments lower
        // under the caller's substitutions; the callee's apply after.
        const int site = inlineCounter_++;
        std::vector<std::pair<NameId, NameId>> params;
        for (size_t i = 0; i < fn->params.size(); ++i) {
            const auto &p = fn->params[i];
            const NameId local_name =
                uniqueVarName(derived(p.name, "_inl" + std::to_string(site)));
            Value arg = lowerExpr(*e.args[i]);
            declareLocal(local_name, p.type, e.loc);
            storeValue(local_name, p.type, arg, e.loc);
            params.emplace_back(p.name, local_name);
        }
        // Return slot.
        NameId ret_name = kNoName;
        if (!fn->returnType.isVoid()) {
            ret_name =
                uniqueVarName(derived(name, "_ret" + std::to_string(site)));
            declareLocal(ret_name, fn->returnType, e.loc);
        }

        info(name).inlining = true;
        const size_t scope = substLog_.size();
        for (const auto &[param, local] : params)
            substitute(param, local);
        returnSlots_.push_back(ret_name);
        for (const Stmt *s : fn->body->body)
            lowerStmt(*s);
        returnSlots_.pop_back();
        undoSubstitutions(scope);
        info(name).inlining = false;

        if (fn->returnType.isVoid())
            return {nullptr, std::nullopt};
        if (fn->returnType.isMatrix()) {
            Expr ref;
            ref.kind = ExprKind::VarRef;
            ref.name = ret_name;
            ref.type = fn->returnType;
            return lowerVarRef(ref);
        }
        return {builder_.load(varFor(ret_name, e.loc)), std::nullopt};
    }

    /** A call sema resolved to catalogue row @p b. A sampler operand
     * becomes the instruction's var; a scalar passed where the genType
     * is a vector is splatted to it. */
    Value lowerBuiltin(const Expr &e, const glsl::Builtin &b)
    {
        using glsl::Operand;
        Var *sampler = nullptr;
        std::array<Instr *, 3> ops{};
        Type gen = Type::voidTy();
        for (size_t k = 0; k < b.arity; ++k) {
            if (b.operands[k] == Operand::Sampler) {
                sampler = samplerOf(*e.args[k]);
                continue;
            }
            ops[k] = lowerScalarOrVector(*e.args[k]);
            if (b.operands[k] == Operand::Gen && gen.isVoid())
                gen = ops[k]->type;
        }
        std::vector<Instr *> args;
        for (size_t k = 0; k < b.arity; ++k) {
            if (!ops[k])
                continue;
            if (b.operands[k] == Operand::GenOrScalar && gen.isVector() &&
                ops[k]->type.isScalar())
                ops[k] = splat(ops[k], gen);
            args.push_back(ops[k]);
        }
        return {builder_.emit(b.op, e.type, std::move(args), sampler),
                std::nullopt};
    }

    Var *samplerOf(const Expr &e)
    {
        if (e.kind != ExprKind::VarRef)
            fail(e.loc, "sampler argument must be a uniform name");
        Var *v = varFor(substName(e.name), e.loc);
        if (v->kind != VarKind::Sampler)
            fail(e.loc, quoted(e.name) + " is not a sampler");
        return v;
    }

    NameId substName(NameId name)
    {
        const NameId to = info(name).subst;
        return to != kNoName ? to : name;
    }

    /** Substitute @p to for @p from until undoSubstitutions passes this
     * entry of the log. */
    void substitute(NameId from, NameId to)
    {
        substLog_.emplace_back(from, info(from).subst);
        info(from).subst = to;
    }

    /** Undo the substitutions made since the log had @p size entries. */
    void undoSubstitutions(size_t size)
    {
        for (; substLog_.size() > size; substLog_.pop_back())
            info(substLog_.back().first).subst = substLog_.back().second;
    }

    // ========================== statements ============================

    void lowerStmt(const Stmt &s)
    {
        switch (s.kind) {
          case StmtKind::Block:
            for (const Stmt *b : s.body)
                lowerStmt(*b);
            break;
          case StmtKind::Decl:
            lowerDecl(s);
            break;
          case StmtKind::Assign:
            lowerAssign(s);
            break;
          case StmtKind::ExprStmt:
            lowerExpr(*s.rhs); // evaluate for (nonexistent) effects
            break;
          case StmtKind::If:
            lowerIf(s);
            break;
          case StmtKind::For:
            lowerFor(s);
            break;
          case StmtKind::While:
            lowerWhile(s);
            break;
          case StmtKind::Return:
            lowerReturn(s);
            break;
          case StmtKind::Discard:
            builder_.emit(Opcode::Discard, Type::voidTy());
            break;
        }
    }

    void lowerDecl(const Stmt &s)
    {
        const NameId actual = uniqueVarName(s.name);
        if (actual != s.name)
            substitute(s.name, actual);

        // const with fully constant initialiser: keep as data.
        if (s.rhs && s.isConst) {
            auto cv = tryEvalConst(*s.rhs);
            if (cv && s.declType.isArray()) {
                info(s.name).constValue = cv;
                Var *var =
                    newVar(actual, s.declType, VarKind::ConstArray);
                var->constInit = *cv;
                return;
            }
            if (cv && s.isConst)
                info(s.name).constValue = cv;
        }
        declareLocal(actual, s.declType, s.loc);
        if (!s.rhs)
            return;
        if (s.declType.isArray()) {
            // Element-wise stores from the array constructor.
            if (s.rhs->kind != ExprKind::Construct)
                fail(s.loc, "array initialiser must be a constructor");
            Var *var = varFor(actual, s.loc);
            for (size_t i = 0; i < s.rhs->args.size(); ++i) {
                Instr *v = lowerScalarOrVector(*s.rhs->args[i]);
                builder_.storeElem(var,
                                   builder_.constInt(
                                       static_cast<long>(i)),
                                   v);
            }
            return;
        }
        Value v = lowerExpr(*s.rhs);
        storeValue(actual, s.declType, v, s.loc);
    }

    /** Store a Value (matrix-aware) into a named variable. */
    void storeValue(NameId name, Type type, Value &v, SourceLoc loc)
    {
        if (type.isMatrix()) {
            const MatrixStorage *m = matrixOf(name);
            if (!m)
                fail(loc, "matrix variable " + quoted(name) + " not lowered");
            if (!v.isMatrix())
                fail(loc, "expected matrix value for " + quoted(name));
            for (size_t i = 0; i < m->comps.size(); ++i)
                builder_.store(m->comps[i], v.mat->scalars[i]);
            return;
        }
        builder_.store(varFor(name, loc), v.v);
    }

    void lowerAssign(const Stmt &s)
    {
        // Compute the rvalue, applying compound ops against the loaded
        // current value of the lhs.
        Value rhs = lowerExpr(*s.rhs);
        if (s.assignOp != AssignOp::Assign) {
            Value cur = lowerExpr(*s.lhs);
            Opcode op = s.assignOp == AssignOp::AddAssign   ? Opcode::Add
                        : s.assignOp == AssignOp::SubAssign ? Opcode::Sub
                        : s.assignOp == AssignOp::MulAssign ? Opcode::Mul
                                                            : Opcode::Div;
            if (cur.isMatrix()) {
                MatValue out = *cur.mat;
                if (rhs.isMatrix()) {
                    if (op == Opcode::Mul) {
                        Expr dummy;
                        dummy.binaryOp = BinaryOp::Mul;
                        rhs = lowerMatrixBinary(dummy, cur, rhs);
                    } else {
                        for (size_t i = 0; i < out.scalars.size(); ++i)
                            out.scalars[i] = builder_.binary(
                                op, out.scalars[i],
                                rhs.mat->scalars[i]);
                        rhs = {nullptr, out};
                    }
                } else {
                    for (auto &sc : out.scalars)
                        sc = builder_.binary(op, sc, rhs.v);
                    rhs = {nullptr, out};
                }
            } else {
                Instr *a = cur.v;
                Instr *b = rhs.v;
                matchShapes(a, b);
                rhs = {builder_.binary(op, a, b), std::nullopt};
            }
        }
        storeLValue(*s.lhs, rhs, s.loc);
    }

    void storeLValue(const Expr &lhs, Value &v, SourceLoc loc)
    {
        switch (lhs.kind) {
          case ExprKind::VarRef: {
            const NameId name = substName(lhs.name);
            if (lhs.type.isMatrix()) {
                storeValue(name, lhs.type, v, loc);
                return;
            }
            Instr *val = v.v;
            Var *var = varFor(name, loc);
            // Implicit shape fix: storing a scalar into a vector slot
            // cannot happen post-sema; but int->float components can.
            builder_.store(var, val);
            return;
          }
          case ExprKind::Index: {
            const Expr &base = *lhs.args[0];
            if (base.kind == ExprKind::VarRef && base.type.isArray()) {
                Var *var = varFor(substName(base.name), loc);
                Instr *idx = lowerScalarOrVector(*lhs.args[1]);
                builder_.storeElem(var, idx, v.v);
                return;
            }
            if (base.kind == ExprKind::VarRef && base.type.isVector()) {
                auto ci = glsl::literalIntOf(*lhs.args[1]);
                if (!ci)
                    fail(loc, "dynamic vector component stores are not "
                              "supported");
                Var *var = varFor(substName(base.name), loc);
                Instr *cur = builder_.load(var);
                Instr *ins = builder_.insert(
                    cur, v.v, static_cast<int>(*ci));
                builder_.store(var, ins);
                return;
            }
            if (base.kind == ExprKind::VarRef && base.type.isMatrix()) {
                auto ci = glsl::literalIntOf(*lhs.args[1]);
                if (!ci)
                    fail(loc, "dynamic matrix column stores are not "
                              "supported");
                const MatrixStorage *m = matrixOf(substName(base.name));
                if (!m)
                    fail(loc, "cannot store column of a non-local "
                              "matrix");
                int c = static_cast<int>(*ci);
                for (int r = 0; r < m->rows; ++r) {
                    Instr *comp = builder_.extract(v.v, r);
                    builder_.store(
                        m->comps[static_cast<size_t>(c * m->rows + r)],
                        comp);
                }
                return;
            }
            fail(loc, "unsupported indexed store");
          }
          case ExprKind::Member: {
            const Expr &base = *lhs.args[0];
            std::vector<int> idx = swizzleIndices(lhs.name);
            if (base.kind == ExprKind::VarRef && base.type.isVector()) {
                Var *var = varFor(substName(base.name), loc);
                builder_.store(var,
                               insertLanes(builder_.load(var), v.v, idx));
                return;
            }
            if (base.kind == ExprKind::Index) {
                // arr[i].x = v
                const Expr &arr = *base.args[0];
                if (arr.kind == ExprKind::VarRef &&
                    arr.type.isArray()) {
                    Var *var = varFor(substName(arr.name), loc);
                    Instr *index =
                        lowerScalarOrVector(*base.args[1]);
                    Instr *cur = builder_.loadElem(var, index);
                    builder_.storeElem(var, index,
                                       insertLanes(cur, v.v, idx));
                    return;
                }
            }
            fail(loc, "unsupported swizzled store");
          }
          default:
            fail(loc, "expression is not a supported lvalue");
        }
    }

    /** @p cur with its lanes @p idx replaced by @p value's lanes (by
     * @p value itself for one lane). */
    Instr *insertLanes(Instr *cur, Instr *value, const std::vector<int> &idx)
    {
        if (idx.size() == 1)
            return builder_.insert(cur, value, idx[0]);
        for (size_t i = 0; i < idx.size(); ++i) {
            Instr *lane = builder_.extract(value, static_cast<int>(i));
            cur = builder_.insert(cur, lane, idx[i]);
        }
        return cur;
    }

    void lowerIf(const Stmt &s)
    {
        Instr *cond = lowerScalarOrVector(*s.cond);
        ir::IfNode *node = builder_.createIf(cond);
        builder_.pushRegion(&node->thenRegion);
        for (const Stmt *b : s.body)
            lowerStmt(*b);
        builder_.popRegion();
        builder_.pushRegion(&node->elseRegion);
        for (const Stmt *b : s.elseBody)
            lowerStmt(*b);
        builder_.popRegion();
    }

    /**
     * Canonical loop recognition: `for (int i = C0; i < C1; i += C2)`
     * (also `<=`, `i++`, `i = i + C2`) with a body that never writes i.
     */
    bool tryCanonicalFor(const Stmt &s)
    {
        if (!s.init || !s.cond || !s.step)
            return false;
        // init: Decl int name = IntLit
        const Stmt *init = s.init;
        if (init->kind != StmtKind::Decl ||
            init->declType != Type::intTy() || !init->rhs)
            return false;
        auto init_val = glsl::literalIntOf(*init->rhs);
        if (!init_val)
            return false;
        const NameId iv = init->name;
        // cond: iv < IntLit  |  iv <= IntLit
        const Expr &cond = *s.cond;
        if (cond.kind != ExprKind::Binary)
            return false;
        if (cond.binaryOp != BinaryOp::Lt &&
            cond.binaryOp != BinaryOp::Le)
            return false;
        if (cond.args[0]->kind != ExprKind::VarRef ||
            cond.args[0]->name != iv)
            return false;
        auto limit = glsl::literalIntOf(*cond.args[1]);
        if (!limit)
            return false;
        long lim = *limit + (cond.binaryOp == BinaryOp::Le ? 1 : 0);
        // step: iv += C  |  iv = iv + C
        const Stmt &step = *s.step;
        if (step.kind != StmtKind::Assign ||
            step.lhs->kind != ExprKind::VarRef || step.lhs->name != iv)
            return false;
        long step_val = 0;
        if (step.assignOp == AssignOp::AddAssign) {
            auto c = glsl::literalIntOf(*step.rhs);
            if (!c)
                return false;
            step_val = *c;
        } else if (step.assignOp == AssignOp::Assign &&
                   step.rhs->kind == ExprKind::Binary &&
                   step.rhs->binaryOp == BinaryOp::Add &&
                   step.rhs->args[0]->kind == ExprKind::VarRef &&
                   step.rhs->args[0]->name == iv) {
            auto c = glsl::literalIntOf(*step.rhs->args[1]);
            if (!c)
                return false;
            step_val = *c;
        } else {
            return false;
        }
        if (step_val <= 0)
            return false;
        // Body must not write the counter.
        for (const Stmt *b : s.body) {
            if (writesVar(b, iv))
                return false;
        }

        const NameId counter_name = uniqueVarName(iv);
        Var *counter =
            newVar(counter_name, Type::intTy(), VarKind::Local);
        ir::LoopNode *loop = builder_.createLoop();
        loop->canonical = true;
        loop->counter = counter;
        loop->init = *init_val;
        loop->limit = lim;
        loop->step = step_val;
        const size_t scope = substLog_.size();
        if (counter_name != iv)
            substitute(iv, counter_name);
        builder_.pushRegion(&loop->body);
        for (const Stmt *b : s.body)
            lowerStmt(*b);
        builder_.popRegion();
        undoSubstitutions(scope);
        return true;
    }

    /** Does @p s (or a statement inside it) assign @p name? */
    static bool writesVar(const Stmt *s, NameId name)
    {
        if (!s)
            return false;
        if (s->kind == StmtKind::Assign &&
            s->lhs->kind == ExprKind::VarRef && s->lhs->name == name)
            return true;
        for (const Stmt *b : s->body) {
            if (writesVar(b, name))
                return true;
        }
        for (const Stmt *b : s->elseBody) {
            if (writesVar(b, name))
                return true;
        }
        return writesVar(s->init, name) || writesVar(s->step, name);
    }

    void lowerFor(const Stmt &s)
    {
        if (tryCanonicalFor(s))
            return;
        // Generic fallback: init before, cond in condRegion, step at the
        // end of the body.
        if (s.init)
            lowerStmt(*s.init);
        ir::LoopNode *loop = builder_.createLoop();
        loop->canonical = false;
        builder_.pushRegion(&loop->condRegion);
        loop->condValue = s.cond ? lowerScalarOrVector(*s.cond)
                                 : builder_.constBool(true);
        builder_.popRegion();
        builder_.pushRegion(&loop->body);
        for (const Stmt *b : s.body)
            lowerStmt(*b);
        if (s.step)
            lowerStmt(*s.step);
        builder_.popRegion();
    }

    void lowerWhile(const Stmt &s)
    {
        ir::LoopNode *loop = builder_.createLoop();
        loop->canonical = false;
        builder_.pushRegion(&loop->condRegion);
        loop->condValue = lowerScalarOrVector(*s.cond);
        builder_.popRegion();
        builder_.pushRegion(&loop->body);
        for (const Stmt *b : s.body)
            lowerStmt(*b);
        builder_.popRegion();
    }

    void lowerReturn(const Stmt &s)
    {
        if (returnSlots_.empty()) {
            // Return from main.
            if (s.rhs)
                fail(s.loc, "main() cannot return a value");
            // A bare tail `return;` is a no-op; anything else would be
            // an early return which the subset forbids. We cannot easily
            // tell the difference here; accept it (corpus uses tail
            // position only).
            return;
        }
        // Copy, not reference: lowering the return expression may inline
        // further calls, growing returnSlots_ and invalidating refs.
        const NameId slot = returnSlots_.back();
        if (!s.rhs) {
            if (slot != kNoName)
                fail(s.loc, "missing return value");
            return;
        }
        Value v = lowerExpr(*s.rhs);
        Type t = v.isMatrix() ? Type::mat(v.mat->cols) : v.v->type;
        storeValue(slot, t, v, s.loc);
    }

    // ------------------------------------------------------------------
    const glsl::CompiledShader &cs_;
    /** The shader's names plus the var names lowering makes up. */
    glsl::NameTable names_;
    const NameId fragCoord_;
    std::unique_ptr<ir::Module> module_;
    IrBuilder builder_;

    std::vector<MatrixStorage> matrices_;

    std::vector<NameInfo> infos_; ///< by NameId
    /** (name, the substitution it replaced), per substitution made. */
    std::vector<std::pair<NameId, NameId>> substLog_;
    std::vector<NameId> returnSlots_; ///< kNoName for void functions
    int inlineCounter_ = 0;
};

} // namespace

std::unique_ptr<ir::Module>
lowerShader(const glsl::CompiledShader &cs)
{
    Lowerer lowerer(cs);
    return lowerer.run();
}

} // namespace gsopt::lower
