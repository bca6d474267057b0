/**
 * @file
 * Shared machinery for optimization passes: module-wide use counts, the
 * value-numbering key, an insert-anywhere instruction factory, and the
 * constant evaluator used by folding.
 */
#ifndef GSOPT_PASSES_UTIL_H
#define GSOPT_PASSES_UTIL_H

#include <cstdint>
#include <optional>
#include <vector>

#include "ir/ir.h"

namespace gsopt::passes {

/**
 * Number of uses of each value (operands + structured condition refs),
 * indexed by Instr::id and sized by Module::idBound().
 */
std::vector<int> countUses(const ir::Module &module);

/** @p i's entry in a countUses table; instructions created after the
 * count was taken have no uses yet. */
inline int
useCount(const std::vector<int> &uses, const ir::Instr *i)
{
    const size_t id = static_cast<size_t>(i->id);
    return id < uses.size() ? uses[id] : 0;
}

/**
 * Value replacements, dense by Instr::id: after set(from, to), resolve
 * maps from (transitively) to its replacement. Instructions created
 * after construction can be replaced or resolved too.
 */
class Replacements
{
  public:
    explicit Replacements(const ir::Module &module)
        : to_(static_cast<size_t>(module.idBound()), nullptr)
    {
    }

    void set(const ir::Instr &from, ir::Instr *to);

    bool empty() const { return !any_; }

    bool replaced(const ir::Instr &i) const { return next(&i) != nullptr; }

    ir::Instr *resolve(ir::Instr *v) const
    {
        while (ir::Instr *n = v ? next(v) : nullptr)
            v = n;
        return v;
    }

    void resolveOperands(ir::Instr &i) const
    {
        for (ir::Instr *&op : i.operands)
            op = resolve(op);
    }

    /** Resolve every operand and if/loop condition in the module. */
    void apply(ir::Module &module) const;

  private:
    ir::Instr *next(const ir::Instr *v) const
    {
        const size_t id = static_cast<size_t>(v->id);
        return id < to_.size() ? to_[id] : nullptr;
    }

    std::vector<ir::Instr *> to_;
    bool any_ = false;
};

/**
 * Value-numbering key: equal keys compute the same value. A fixed-size
 * record of the opcode, result type, operand ids, var id, indices and
 * const lanes (plus GVN's memory version of a loaded var), compared and
 * hashed word-wise.
 *
 * Const lanes compare by their std::to_string ("%f") rendering, as the
 * string keys this record replaced did. That merges distinct constants
 * printing alike (5.4e-09 and 0), deliberately: the pinned campaign
 * outputs depend on it. Exact lanes are ROADMAP item 2(a) and need a
 * re-baseline of the pins.
 */
struct ValueKey
{
    uint16_t op = 0;
    uint8_t operandCount = 0;
    uint8_t indexCount = 0;
    uint8_t laneCount = 0;
    /** Bit k: lane k prints with a '-'; bit 4+k: lane k is a text hash. */
    uint8_t laneFlags = 0;
    uint16_t unused = 0;
    uint32_t shape = 0;   ///< Type base, cols and rows
    int32_t arraySize = 0;
    int32_t var = -1;     ///< Var::id, -1 for none
    int32_t memVersion = 0;
    int32_t operands[ir::kMaxInstrWidth] = {};
    int32_t indices[ir::kMaxInstrWidth] = {};
    uint64_t lanes[ir::kMaxInstrWidth] = {};

    bool operator==(const ValueKey &o) const;
    bool operator!=(const ValueKey &o) const { return !(*this == o); }
};

struct ValueKeyHash
{
    size_t operator()(const ValueKey &k) const;
};

/** The key of @p instr; @p memVersion distinguishes loads of one var
 * across stores (GVN), 0 elsewhere. */
ValueKey valueKey(const ir::Instr &instr, int memVersion = 0);

/**
 * Scoped value numbering: the first instruction inserted with each
 * value key, among the scopes still open. Block CSE, GVN, tex_batch and
 * the dupFetches feature all number values through it.
 *
 * Open addressing with linear probing, grown to keep the load factor at
 * or below one half. A key is inserted only when no live entry has it,
 * so there is at most one live entry per key, and the first dominating
 * instruction is found without searching scope by scope. Every insert
 * is logged; popScope clears the slots logged since the matching
 * pushScope, newest first, which undoes linear probing exactly.
 *
 * A slot holds the first instruction, the memory version it was keyed
 * with and the key's hash, not the key: a hash match recomputes that
 * instruction's key. Callers resolve an instruction's operands before
 * inserting it and write nothing to it afterwards, so the key stays the
 * one it was inserted under.
 */
class ValueTable
{
  public:
    /** Open a scope: popScope forgets what is inserted from here on. */
    void pushScope() { marks_.push_back(log_.size()); }
    void popScope();

    /** The live entry with @p instr's key under @p memVersion, or
     * nullptr after recording @p instr as that entry. */
    ir::Instr *findOrInsert(ir::Instr &instr, int memVersion = 0);

  private:
    struct Slot
    {
        uint64_t hash = 0; ///< of first's key
        ir::Instr *first = nullptr; ///< nullptr: empty
        int memVersion = 0;
    };

    void grow();

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    /** Slot of every live entry, in insertion order. */
    std::vector<size_t> log_;
    /** log_ size at each open pushScope. */
    std::vector<size_t> marks_;
};

/**
 * Creates instructions inside an existing Block at a fixed position
 * (before the instruction passes are rewriting). Keeps SSA order valid:
 * everything emitted lands before the rewrite root.
 */
class LocalBuilder
{
  public:
    /** Insert before @p block->instrs[pos]; pos may equal size(). */
    LocalBuilder(ir::Module &module, ir::Block &block, size_t pos)
        : module_(module), block_(block), pos_(pos)
    {
    }

    ir::Instr *emit(ir::Opcode op, ir::Type type,
                    std::vector<ir::Instr *> operands = {},
                    ir::Var *var = nullptr,
                    std::vector<int> indices = {});

    ir::Instr *constFloat(double v);
    ir::Instr *constSplat(ir::Type type, double v);
    ir::Instr *constVec(ir::Type type, std::vector<double> lanes);

    /** Position after all emissions (== index of the rewrite root). */
    size_t position() const { return pos_; }

  private:
    ir::Module &module_;
    ir::Block &block_;
    size_t pos_;
};

/**
 * Evaluate an instruction whose operands are all Const, returning the
 * result lanes; nullopt if the op is not foldable.
 */
std::optional<std::vector<double>> foldConstInstr(const ir::Instr &instr);

/**
 * If @p instr is a "scalar-like" constant — a Const scalar, a Const
 * splat vector, or a Construct splat of a Const scalar — return the
 * scalar value.
 */
std::optional<double> splatConstValue(const ir::Instr *instr);

} // namespace gsopt::passes

#endif // GSOPT_PASSES_UTIL_H
