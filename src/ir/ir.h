/**
 * @file
 * The shader intermediate representation.
 *
 * Design: a *structured* IR rather than a flat CFG. A shader module is a
 * single function body (all user functions are inlined during lowering,
 * as LunarGlass effectively does for GLSL) represented as a Region — an
 * ordered list of nodes, where each node is either a straight-line Block
 * of instructions, an IfNode (condition value + then/else sub-regions),
 * or a LoopNode (canonical constant-trip-count loops, plus a generic
 * fallback for dynamic loops).
 *
 * Values are SSA: each instruction defines at most one value, and an
 * operand may reference any instruction that appears *structurally
 * earlier* (earlier in the same block, or in a block that precedes the
 * use's enclosing node chain). Mutable state lives in Vars (shader
 * inputs/outputs/uniforms and user locals), accessed through LoadVar /
 * StoreVar / LoadElem / StoreElem; the always-on canonicalisation pass
 * forwards stores to loads in straight-line code, which recovers pure
 * dataflow exactly where the paper's shaders live (few branches, large
 * basic blocks).
 *
 * Storage: Instrs and Vars are bump-allocated from a per-Module Arena
 * (see ir/arena.h) and referenced by raw pointer everywhere; Blocks hold
 * plain `Instr *` lists, not owning pointers. Dropping an instruction
 * from a block never frees it — its memory (and address) stays valid
 * until the module dies, which is what makes replacement maps in passes
 * safe without graveyard bookkeeping. Instr is trivially copyable, so
 * Module::clone() is a near-linear copy: instructions are copied by
 * value into the clone's arena and operand/var pointers are remapped
 * through dense slot tables indexed by Instr::id / Var::id.
 *
 * There are no matrix values in the IR: lowering scalarises all matrix
 * maths (reproducing LunarGlass compilation artefact III-C.a), and
 * scalar-times-vector is represented by splat Construct + vector ops
 * (artefact III-C.b).
 */
#ifndef GSOPT_IR_IR_H
#define GSOPT_IR_IR_H

#include <memory>
#include <string>
#include <vector>

#include "glsl/type.h"
#include "ir/arena.h"
#include "support/governor.h"

namespace gsopt::ir {

/** IR reuses the front end's type algebra (matrices never appear). */
using Type = glsl::Type;
using BaseType = glsl::BaseType;

class Block;
class Node;
class Module;

/** Storage class of a variable. */
enum class VarKind {
    Local,   ///< function-local mutable storage
    Input,   ///< `in` interface variable (read-only)
    Output,  ///< `out` interface variable (write-only-ish)
    Uniform, ///< uniform (read-only; includes matrices kept whole)
    Sampler, ///< texture sampler uniform
    ConstArray, ///< const-initialised lookup data (weights tables etc.)
};

/**
 * A named storage location. Vars live in their Module's arena (the
 * module destroys them explicitly — unlike Instrs they hold a name
 * string and const-init data, so they are not trivially destructible);
 * instructions reference them by pointer. Var ids are dense:
 * module.vars[v->id] == v.
 */
struct Var
{
    int id = 0;
    std::string name;
    Type type;
    VarKind kind = VarKind::Local;

    /**
     * Constant initial contents for ConstArray vars, flattened
     * column-major: arraySize * componentCount entries (ints/bools are
     * stored as doubles; the type says how to read them).
     */
    std::vector<double> constInit;

    bool isReadOnly() const
    {
        return kind == VarKind::Input || kind == VarKind::Uniform ||
               kind == VarKind::Sampler || kind == VarKind::ConstArray;
    }
};

/** Instruction opcodes. Grouped by arity/shape; see operand docs below. */
enum class Opcode {
    // Constants: no operands; payload in Instr::constData.
    Const,
    // Unary arithmetic/logic: operands[0].
    Neg, Not,
    // Binary arithmetic: operands[0], operands[1].
    Add, Sub, Mul, Div, Mod,
    // Comparisons / logic (result bool): operands[0], operands[1].
    Lt, Le, Gt, Ge, Eq, Ne, LogicalAnd, LogicalOr,
    // Unary math intrinsics: operands[0].
    Sin, Cos, Tan, Asin, Acos, Atan, Exp, Log, Exp2, Log2, Sqrt,
    InvSqrt, Abs, Sign, Floor, Ceil, Fract, Radians, Degrees,
    Normalize, Length,
    // Binary math intrinsics.
    Atan2, Pow, Min, Max, Step, Distance, Dot, Cross, Reflect,
    // Ternary math intrinsics.
    Clamp, Mix, Smoothstep, Refract,
    // Select: operands[0]=cond (bool scalar), [1]=true val, [2]=false.
    Select,
    // Construct: build a vector/scalar from components; a single scalar
    // operand for a vector result is a splat.
    Construct,
    // Extract: operands[0]=vector, indices[0]=component.
    Extract,
    // Insert: operands[0]=vector, operands[1]=scalar, indices[0]=comp.
    Insert,
    // Swizzle: operands[0]=vector, indices=components (1-4 entries).
    Swizzle,
    // Texturing: operands[0] is a LoadVar of a Sampler var.
    Texture,     ///< (sampler, coord)
    TextureBias, ///< (sampler, coord, bias)
    TextureLod,  ///< (sampler, coord, lod)
    // Memory.
    LoadVar,   ///< whole var read: var
    StoreVar,  ///< whole var write: var, operands[0]=value
    LoadElem,  ///< array/matrix-column read: var, operands[0]=index
    StoreElem, ///< array element write: var, operands[0]=idx, [1]=value
    // Fragment kill (side effect, no value).
    Discard,
};

/** Human-readable opcode mnemonic. */
const char *opcodeName(Opcode op);

/** True for instructions whose effect is not captured by their value;
 * these are also the ones that produce no value at all. */
bool hasSideEffects(Opcode op);

/** Widest operand/index/constant-lane list an instruction can carry:
 * the type system tops out at vec4, so Construct takes at most 4
 * parts, Swizzle at most 4 indices, Const at most 4 lanes. */
constexpr unsigned kMaxInstrWidth = 4;

/**
 * One SSA instruction. Lives in its Module's arena; Blocks and users
 * reference it by raw pointer (users must appear structurally later).
 * Trivially copyable and trivially destructible: the operand, index,
 * and constant-lane lists are inline fixed-capacity vectors, so copying
 * an Instr copies everything but the pointees, and destroying a module
 * never visits instructions.
 */
class Instr
{
  public:
    Opcode op = Opcode::Const;
    Type type;                  ///< result type (void for stores etc.)
    int id = 0;                 ///< unique within the module (for dumps)
    InlineVec<Instr *, kMaxInstrWidth> operands;
    Var *var = nullptr;         ///< for Load*/Store*/Texture sampler ref
    InlineVec<int, kMaxInstrWidth> indices; ///< Extract/Insert/Swizzle
    InlineVec<double, kMaxInstrWidth> constData; ///< Const: per lane

    bool isConst() const { return op == Opcode::Const; }

    /** Scalar constant convenience accessor (first lane). */
    double scalarConst() const
    {
        return constData.empty() ? 0.0 : constData[0];
    }

    /** True if all lanes of a Const are equal (splat constant). */
    bool isSplatConst() const;
};

static_assert(std::is_trivially_destructible_v<Instr>,
              "Instr must stay trivially destructible: module teardown "
              "frees arena chunks without visiting instructions");
static_assert(std::is_trivially_copyable_v<Instr>,
              "Instr must stay trivially copyable: clone() copies "
              "instructions by value and only remaps pointers");

/** Node discriminator. */
enum class NodeKind { Block, If, Loop };

/** Base class of region nodes. */
class Node
{
  public:
    explicit Node(NodeKind kind) : kind_(kind) {}
    virtual ~Node() = default;

    NodeKind kind() const { return kind_; }

  private:
    NodeKind kind_;
};

using NodePtr = std::unique_ptr<Node>;

/** An ordered list of nodes (a structured sub-program). */
class Region
{
  public:
    std::vector<NodePtr> nodes;

    bool empty() const { return nodes.empty(); }

    /** Total instruction count in this region, recursively. */
    size_t instructionCount() const;
};

/** Straight-line sequence of instructions (non-owning: instruction
 * storage belongs to the module's arena). */
class Block : public Node
{
  public:
    Block() : Node(NodeKind::Block) {}

    std::vector<Instr *> instrs;

    static bool classof(const Node *n)
    {
        return n->kind() == NodeKind::Block;
    }
};

/** Structured conditional. The condition is a value computed earlier. */
class IfNode : public Node
{
  public:
    IfNode() : Node(NodeKind::If) {}

    Instr *cond = nullptr;
    Region thenRegion;
    Region elseRegion;

    static bool classof(const Node *n)
    {
        return n->kind() == NodeKind::If;
    }
};

/**
 * Structured loop.
 *
 * Canonical form (recognised at lowering): `for (int i = init; i < limit;
 * i += step)` with integer constants and a body that never stores the
 * counter. Only canonical loops can be fully unrolled, mirroring
 * LunarGlass's "simple loop unrolling for constant loop indices".
 *
 * Generic form: `condRegion` is evaluated before each iteration and
 * `condValue` (a bool scalar defined inside it) decides continuation.
 */
class LoopNode : public Node
{
  public:
    LoopNode() : Node(NodeKind::Loop) {}

    bool canonical = false;
    Var *counter = nullptr;
    long init = 0;
    long limit = 0;
    long step = 1;

    Region condRegion;          ///< generic loops only
    Instr *condValue = nullptr; ///< generic loops only

    Region body;

    /** Trip count of a canonical loop (0 for generic/degenerate). */
    long tripCount() const
    {
        if (!canonical || step <= 0)
            return 0;
        if (limit <= init)
            return 0;
        return (limit - init + step - 1) / step;
    }

    static bool classof(const Node *n)
    {
        return n->kind() == NodeKind::Loop;
    }
};

/** Cast helpers in the LLVM style (null on mismatch). */
template <typename T>
T *
dyn_cast(Node *n)
{
    return n && T::classof(n) ? static_cast<T *>(n) : nullptr;
}

template <typename T>
const T *
dyn_cast(const Node *n)
{
    return n && T::classof(n) ? static_cast<const T *>(n) : nullptr;
}

/**
 * A whole shader in IR form: the variable table plus the body of main.
 * Owns an Arena that backs every Instr and Var; destruction releases
 * the arena's chunks and the (few) structural nodes, never touching
 * instructions individually.
 */
class Module
{
  public:
    Module() = default;
    ~Module();

    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;

    std::vector<Var *> vars;
    Region body;

    /** Create a new variable owned by this module. */
    Var *newVar(std::string name, Type type, VarKind kind);

    /** Find a variable by name (nullptr if absent). */
    Var *findVar(const std::string &name) const;

    /** Bump-allocate a blank instruction with a fresh id. The caller
     * fills the fields and links it into a block. Charged against the
     * governed IR-instruction budget (Dim::IrInstrs). */
    Instr *newInstr()
    {
        governor::charge(governor::Dim::IrInstrs, 1, "ir");
        Instr *i = arena_.create<Instr>();
        i->id = nextId_++;
        return i;
    }

    /** Bump-allocate a copy of @p proto under a fresh id (operand and
     * var pointers are copied as-is; remapping is the caller's job). */
    Instr *newInstr(const Instr &proto)
    {
        governor::charge(governor::Dim::IrInstrs, 1, "ir");
        Instr *i = arena_.create<Instr>(proto);
        i->id = nextId_++;
        return i;
    }

    /** Allocate a fresh instruction id. */
    int nextId() { return nextId_++; }

    /**
     * Exclusive upper bound on instruction ids allocated so far. Dense
     * per-value side tables (the interpreter's register file, clone's
     * slot remap) index by Instr::id and size themselves with this.
     */
    int idBound() const { return nextId_; }

    /** Total instruction count of the body. */
    size_t instructionCount() const { return body.instructionCount(); }

    /** The arena backing this module's Instrs and Vars. */
    Arena &arena() { return arena_; }
    const Arena &arena() const { return arena_; }

    /** Bytes of IR storage bump-allocated so far. */
    size_t arenaBytes() const { return arena_.bytesUsed(); }

    /**
     * Deep copy. The clone owns fresh Vars and Instrs mirroring this
     * module exactly — same var/instr ids, same structure — with every
     * operand and var reference remapped into the clone. Cloning a
     * lowered module and running a pass pipeline on the copy is
     * behaviourally identical to re-lowering from source (the
     * compile-once exploration relies on this). The clone's storage is
     * independent: it remains fully usable after the source module is
     * destroyed.
     *
     * Cost: near-linear block copy. Instructions are trivially
     * copyable, so each one is a struct copy into the clone's arena
     * (pre-sized to the source's footprint) followed by slot-indexed
     * pointer remaps through dense Instr::id / Var::id tables — no
     * hashing, no per-instruction heap traffic.
     */
    std::unique_ptr<Module> clone() const;

  private:
    Arena arena_;
    int nextId_ = 0;
    int nextVarId_ = 0;
};

/**
 * Structural fingerprint of a module: a hash over the var table and the
 * body in structural order, with values and vars numbered by position
 * (not by Instr::id / Var::id), so two modules that would render to
 * identical GLSL hash identically regardless of their id history. Used
 * to dedup variants *before* paying for the printer, and as the
 * content-address of pass memoization in the exploration flag tree.
 */
uint64_t fingerprint(const Module &module);

} // namespace gsopt::ir

#endif // GSOPT_IR_IR_H
