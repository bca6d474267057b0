/**
 * @file
 * Abstract syntax tree for the GLSL subset. Nodes are tagged structs
 * (ExprKind / StmtKind discriminators) rather than a class hierarchy.
 *
 * Storage: every node of a Shader is bump-allocated from the Shader's
 * arena (ir/arena.h) and freed all at once with it; nodes are trivially
 * destructible and refer to each other by raw pointer. Child lists are
 * Spans of arena arrays. Identifiers are NameIds interned in the
 * Shader's NameTable, so scopes and symbol tables key by integer and a
 * spelling is copied once per compile, not once per node. A Shader is
 * move-only; moving it keeps every node and spelling at its address.
 *
 * The subset covers everything fragment shaders in the corpus use:
 * expressions over scalars/vectors/matrices/arrays, swizzles, constructor
 * and builtin calls, if/else, for/while loops, user functions, in/out/
 * uniform/const globals, `discard`, and const array initialisers
 * (`vec4[](...)`). Structs, switch, and bit operations are out of scope.
 */
#ifndef GSOPT_GLSL_AST_H
#define GSOPT_GLSL_AST_H

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "glsl/type.h"
#include "ir/arena.h"
#include "support/diag.h"

namespace gsopt::glsl {

/** An interned identifier; dense per NameTable, from 0. */
using NameId = uint32_t;
constexpr NameId kNoName = ~NameId{0};

/**
 * The identifier spellings of one compile. Each distinct spelling is
 * stored once, in the table's own arena, and named by a dense id.
 */
class NameTable
{
  public:
    NameTable() = default;
    NameTable(NameTable &&) = default;
    NameTable &operator=(NameTable &&) = default;

    /** The id of @p spelling, adding it if new. */
    NameId intern(std::string_view spelling);
    /** The id of @p spelling, or kNoName if it was never interned. */
    NameId find(std::string_view spelling) const;
    std::string_view str(NameId id) const { return spellings_[id]; }
    /** One past the largest id. */
    size_t size() const { return spellings_.size(); }

    /**
     * A table with this one's ids that can intern more names (the
     * lowerer's generated var names) without touching this one. Its
     * views of this table's spellings need this table alive.
     */
    NameTable extension() const;

  private:
    size_t slotOf(std::string_view spelling) const;
    void grow();

    ir::Arena chars_;
    std::vector<std::string_view> spellings_;
    std::vector<NameId> slots_; ///< open addressing; kNoName = empty
};

/** A fixed list of arena-allocated items. */
template <typename T>
struct Span
{
    T *items = nullptr;
    uint32_t count = 0;

    T *begin() const { return items; }
    T *end() const { return items + count; }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    T &operator[](size_t i) const { return items[i]; }
};

struct Builtin;

/** Expression node discriminator. */
enum class ExprKind {
    IntLit,
    FloatLit,
    BoolLit,
    VarRef,   ///< name
    Unary,    ///< unaryOp, args[0]
    Binary,   ///< binaryOp, args[0], args[1]
    Ternary,  ///< args[0] ? args[1] : args[2]
    Call,     ///< builtin or user function: name, args, builtin
    Construct,///< type constructor: ctorType, args (also array init)
    Index,    ///< args[0] [ args[1] ]
    Member,   ///< args[0] . name   (vector swizzle)
};

enum class UnaryOp { Neg, Not };

enum class BinaryOp {
    Add, Sub, Mul, Div, Mod,
    Lt, Le, Gt, Ge, Eq, Ne,
    LogicalAnd, LogicalOr,
};

/** A GLSL expression. Field use depends on `kind` (see ExprKind docs). */
struct Expr
{
    ExprKind kind = ExprKind::IntLit;
    SourceLoc loc;
    Type type; ///< filled in by semantic analysis

    double floatValue = 0.0;
    long intValue = 0;
    bool boolValue = false;
    NameId name = kNoName;
    UnaryOp unaryOp = UnaryOp::Neg;
    BinaryOp binaryOp = BinaryOp::Add;
    Type ctorType;
    Span<Expr *> args;
    /** Call: the catalogue row sema resolved it to; null for a call
     * to a user function. */
    const Builtin *builtin = nullptr;
};

/** The value of an int literal, or of `-` applied to one, if @p e is
 * one. */
std::optional<long> literalIntOf(const Expr &e);

/** Statement node discriminator. */
enum class StmtKind {
    Block,    ///< body
    Decl,     ///< declType, name, optional init, isConst
    Assign,   ///< lhs op= rhs (op may be plain Assign)
    ExprStmt, ///< rhs as expression (e.g. a bare call)
    If,       ///< cond, body (then), elseBody
    For,      ///< init, cond, step, body
    While,    ///< cond, body
    Return,   ///< optional rhs
    Discard,
};

enum class AssignOp { Assign, AddAssign, SubAssign, MulAssign, DivAssign };

/** A GLSL statement. Field use depends on `kind` (see StmtKind docs). */
struct Stmt
{
    StmtKind kind = StmtKind::Block;
    SourceLoc loc;

    // Decl
    Type declType;
    NameId name = kNoName;
    bool isConst = false;

    /**
     * A Block produced by expanding a declarator list (`float a, b;`)
     * rather than by source braces: it introduces no scope and prints
     * without braces.
     */
    bool transparent = false;

    // Assign / ExprStmt / Return / Decl-init
    Expr *lhs = nullptr;
    AssignOp assignOp = AssignOp::Assign;
    Expr *rhs = nullptr; ///< decl init, assign value, expr, return value

    // Control flow
    Expr *cond = nullptr;
    Stmt *init = nullptr; ///< for-init
    Stmt *step = nullptr; ///< for-step
    Span<Stmt *> body;
    Span<Stmt *> elseBody;
};

/** Storage qualifier of a global declaration. */
enum class Qualifier { Global, In, Out, Uniform, Const };

/** A module-scope declaration. */
struct GlobalDecl
{
    Qualifier qual = Qualifier::Global;
    Type type;
    NameId name = kNoName;
    Expr *init = nullptr; ///< only for const/global initialisers
    SourceLoc loc;
};

/** A function parameter (only `in` parameters are supported). */
struct ParamDecl
{
    Type type;
    NameId name = kNoName;
};

/** A function definition. */
struct FunctionDecl
{
    Type returnType;
    NameId name = kNoName;
    Span<ParamDecl> params;
    Stmt *body = nullptr; ///< a Block statement
    SourceLoc loc;
};

/** A whole translation unit (one shader stage) and its storage. */
struct Shader
{
    int version = 0;
    std::vector<GlobalDecl> globals;
    std::vector<FunctionDecl> functions;
    NameTable names;
    ir::Arena arena; ///< every node and span of this shader

    Expr *newExpr(ExprKind kind, SourceLoc loc);
    Stmt *newStmt(StmtKind kind, SourceLoc loc);
    /** Copy @p n items into the arena. */
    template <typename T>
    Span<T> newSpan(const T *first, size_t n)
    {
        Span<T> s;
        s.items = arena.allocateArray<T>(n);
        s.count = static_cast<uint32_t>(n);
        for (size_t i = 0; i < n; ++i)
            s.items[i] = first[i];
        return s;
    }

    /** Find a function by name (nullptr if absent). */
    const FunctionDecl *findFunction(NameId name) const;
};

} // namespace gsopt::glsl

#endif // GSOPT_GLSL_AST_H
