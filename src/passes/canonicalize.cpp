/**
 * @file
 * The always-on canonicalisation fixpoint: constant folding, vector
 * element simplification, store->load forwarding, dead store
 * elimination, block-local CSE, trivial DCE, and structural cleanup.
 */
#include <algorithm>
#include <vector>

#include "ir/walk.h"
#include "passes/passes.h"
#include "passes/util.h"

namespace gsopt::passes {

using ir::Block;
using ir::dyn_cast;
using ir::IfNode;
using ir::Instr;
using ir::LoopNode;
using ir::Module;
using ir::Node;
using ir::Opcode;
using ir::Region;
using ir::Type;
using ir::Var;
using ir::VarKind;

namespace {

// ------------------------------------------------------------------
// Constant folding + simple instruction simplification (in place).
// ------------------------------------------------------------------
bool
foldConstants(Module &module)
{
    bool changed = false;
    Replacements repl(module);

    ir::forEachInstr(module.body, [&](Instr &i) {
        if (i.op == Opcode::Const || ir::hasSideEffects(i.op))
            return;

        // Const-array element load with constant index folds to data.
        if (i.op == Opcode::LoadElem && i.var &&
            i.var->kind == VarKind::ConstArray &&
            i.operands[0]->op == Opcode::Const) {
            const int comp = i.type.componentCount();
            long idx = static_cast<long>(i.operands[0]->scalarConst());
            long count = i.var->type.arraySize;
            if (idx >= 0 && idx < count) {
                size_t off = static_cast<size_t>(idx) *
                             static_cast<size_t>(comp);
                i.op = Opcode::Const;
                i.constData.assign(
                    i.var->constInit.begin() + static_cast<long>(off),
                    i.var->constInit.begin() +
                        static_cast<long>(off + comp));
                i.operands.clear();
                i.var = nullptr;
                changed = true;
            }
            return;
        }

        // Full constant fold.
        auto folded = foldConstInstr(i);
        if (folded) {
            i.op = Opcode::Const;
            i.constData = std::move(*folded);
            i.operands.clear();
            i.indices.clear();
            i.var = nullptr;
            changed = true;
            return;
        }

        // Select with constant condition -> the chosen arm.
        if (i.op == Opcode::Select &&
            i.operands[0]->op == Opcode::Const) {
            repl.set(i, i.operands[0]->scalarConst() != 0.0
                            ? i.operands[1]
                            : i.operands[2]);
            changed = true;
            return;
        }
        // Select with identical arms.
        if (i.op == Opcode::Select && i.operands[1] == i.operands[2]) {
            repl.set(i, i.operands[1]);
            changed = true;
            return;
        }

        // Extract of Construct / splat / Swizzle.
        if (i.op == Opcode::Extract) {
            Instr *src = i.operands[0];
            const int want = i.indices[0];
            if (src->op == Opcode::Construct) {
                if (src->operands.size() == 1 &&
                    src->operands[0]->type.isScalar()) {
                    repl.set(i, src->operands[0]); // splat
                    changed = true;
                    return;
                }
                int at = 0;
                for (Instr *part : src->operands) {
                    int n = part->type.componentCount();
                    if (want < at + n) {
                        if (part->type.isScalar()) {
                            repl.set(i, part);
                        } else {
                            i.operands[0] = part;
                            i.indices[0] = want - at;
                        }
                        changed = true;
                        return;
                    }
                    at += n;
                }
            } else if (src->op == Opcode::Swizzle) {
                i.operands[0] = src->operands[0];
                i.indices[0] =
                    src->indices[static_cast<size_t>(want)];
                changed = true;
                return;
            } else if (src->op == Opcode::Insert) {
                if (src->indices[0] == want) {
                    repl.set(i, src->operands[1]);
                } else {
                    i.operands[0] = src->operands[0];
                }
                changed = true;
                return;
            }
            return;
        }

        // Swizzle simplifications.
        if (i.op == Opcode::Swizzle) {
            Instr *src = i.operands[0];
            // Identity swizzle.
            if (i.type == src->type) {
                bool identity = true;
                for (size_t k = 0; k < i.indices.size(); ++k)
                    identity &= i.indices[k] == static_cast<int>(k);
                if (identity) {
                    repl.set(i, src);
                    changed = true;
                    return;
                }
            }
            // Swizzle of swizzle composes.
            if (src->op == Opcode::Swizzle) {
                for (int &idx : i.indices)
                    idx = src->indices[static_cast<size_t>(idx)];
                i.operands[0] = src->operands[0];
                changed = true;
                return;
            }
            // Swizzle of a splat construct is the splat (same width) or
            // a smaller splat.
            if (src->op == Opcode::Construct &&
                src->operands.size() == 1 &&
                src->operands[0]->type.isScalar()) {
                if (i.type.rows == src->type.rows) {
                    repl.set(i, src);
                } else {
                    i.op = Opcode::Construct;
                    i.operands = {src->operands[0]};
                    i.indices.clear();
                }
                changed = true;
                return;
            }
            return;
        }

        // Construct of a single full-width vector is that vector.
        if (i.op == Opcode::Construct && i.operands.size() == 1 &&
            i.operands[0]->type == i.type && !i.type.isScalar()) {
            repl.set(i, i.operands[0]);
            changed = true;
            return;
        }
        // Scalar "conversion" construct of same type.
        if (i.op == Opcode::Construct && i.operands.size() == 1 &&
            i.type.isScalar() && i.operands[0]->type == i.type) {
            repl.set(i, i.operands[0]);
            changed = true;
            return;
        }
    });

    repl.apply(module);
    return changed;
}

// ------------------------------------------------------------------
// Store->load forwarding with region-aware invalidation.
// ------------------------------------------------------------------
/**
 * What forwarding knows about memory, in tables indexed by Var::id: each
 * var's whole value and its known constant-index elements. A branch or
 * loop body forwards from the enclosing knowledge and its own
 * discoveries do not survive it; rather than forwarding from a copy,
 * every change is logged, and leaving the region undoes its changes.
 */
class MemEnv
{
  public:
    explicit MemEnv(size_t vars) : whole_(vars, nullptr), elems_(vars) {}

    Instr *whole(const Var *v) const { return whole_[slot(v)]; }
    void setWhole(const Var *v, Instr *value)
    {
        log_.push_back({slot(v), false, 0, whole_[slot(v)]});
        whole_[slot(v)] = value;
    }

    Instr *elem(const Var *v, long idx) const
    {
        for (const auto &[i, value] : elems_[slot(v)]) {
            if (i == idx)
                return value;
        }
        return nullptr;
    }
    void setElem(const Var *v, long idx, Instr *value)
    {
        log_.push_back({slot(v), true, idx, elem(v, idx)});
        put(slot(v), idx, value);
    }

    /** Forget everything known about @p v. */
    void invalidate(const Var *v)
    {
        if (whole(v))
            setWhole(v, nullptr);
        auto &elems = elems_[slot(v)];
        for (const auto &[idx, value] : elems)
            log_.push_back({slot(v), true, idx, value});
        elems.clear();
    }

    /** The point to undo() back to. */
    size_t mark() const { return log_.size(); }
    void undo(size_t mark)
    {
        for (; log_.size() > mark; log_.pop_back()) {
            const Change &c = log_.back();
            if (!c.isElem)
                whole_[c.var] = c.old;
            else
                put(c.var, c.idx, c.old);
        }
    }

  private:
    struct Change
    {
        size_t var;
        bool isElem;
        long idx;
        Instr *old; ///< nullptr: nothing was known
    };

    static size_t slot(const Var *v) { return static_cast<size_t>(v->id); }

    /** Set (or, for nullptr, erase) one element entry. */
    void put(size_t var, long idx, Instr *value)
    {
        auto &elems = elems_[var];
        for (size_t i = 0; i < elems.size(); ++i) {
            if (elems[i].first != idx)
                continue;
            if (value) {
                elems[i].second = value;
            } else {
                elems[i] = elems.back();
                elems.pop_back();
            }
            return;
        }
        if (value)
            elems.emplace_back(idx, value);
    }

    std::vector<Instr *> whole_;
    std::vector<std::vector<std::pair<long, Instr *>>> elems_;
    std::vector<Change> log_;
};

/** Forget, in @p env, every var stored anywhere inside @p region. */
void
invalidateStoredVars(const Region &region, MemEnv &env)
{
    ir::forEachInstr(region, [&env](const Instr &i) {
        if (i.op == Opcode::StoreVar || i.op == Opcode::StoreElem)
            env.invalidate(i.var);
    });
}

bool
forwardRegion(Region &region, MemEnv &env, Replacements &repl)
{
    bool changed = false;
    for (auto &node : region.nodes) {
        if (auto *b = dyn_cast<Block>(node.get())) {
            for (Instr *ip : b->instrs) {
                Instr &i = *ip;
                // Operands may already have replacements.
                repl.resolveOperands(i);
                switch (i.op) {
                  case Opcode::LoadVar: {
                    if (Instr *known = env.whole(i.var)) {
                        repl.set(i, known);
                        changed = true;
                    } else if (!i.var->type.isArray() &&
                               !i.var->type.isMatrix()) {
                        // Remember the loaded value: later loads with no
                        // intervening store forward to this one.
                        env.setWhole(i.var, &i);
                    }
                    break;
                  }
                  case Opcode::StoreVar:
                    env.invalidate(i.var);
                    env.setWhole(i.var, i.operands[0]);
                    break;
                  case Opcode::LoadElem: {
                    if (i.operands[0]->op == Opcode::Const) {
                        long idx = static_cast<long>(
                            i.operands[0]->scalarConst());
                        if (Instr *known = env.elem(i.var, idx)) {
                            repl.set(i, known);
                            changed = true;
                        } else {
                            env.setElem(i.var, idx, &i);
                        }
                    }
                    break;
                  }
                  case Opcode::StoreElem: {
                    if (i.operands[0]->op == Opcode::Const) {
                        long idx = static_cast<long>(
                            i.operands[0]->scalarConst());
                        // Invalidate whole-var view plus this element.
                        if (env.whole(i.var))
                            env.setWhole(i.var, nullptr);
                        env.setElem(i.var, idx, i.operands[1]);
                    } else {
                        env.invalidate(i.var);
                    }
                    break;
                  }
                  default:
                    break;
                }
            }
        } else if (auto *f = dyn_cast<IfNode>(node.get())) {
            f->cond = repl.resolve(f->cond);
            // Each branch starts from the pre-if knowledge. Loads cached
            // inside branches don't survive (they are conditioned); keep
            // only the pre-if knowledge minus stores.
            const size_t mark = env.mark();
            changed |= forwardRegion(f->thenRegion, env, repl);
            env.undo(mark);
            changed |= forwardRegion(f->elseRegion, env, repl);
            env.undo(mark);
            invalidateStoredVars(f->thenRegion, env);
            invalidateStoredVars(f->elseRegion, env);
        } else if (auto *l = dyn_cast<LoopNode>(node.get())) {
            invalidateStoredVars(l->condRegion, env);
            invalidateStoredVars(l->body, env);
            if (l->counter)
                env.invalidate(l->counter);
            const size_t mark = env.mark();
            changed |= forwardRegion(l->condRegion, env, repl);
            env.undo(mark);
            l->condValue = repl.resolve(l->condValue);
            changed |= forwardRegion(l->body, env, repl);
            env.undo(mark);
        }
    }
    return changed;
}

bool
storeLoadForwarding(Module &module)
{
    MemEnv env(module.vars.size());
    Replacements repl(module);
    bool changed = forwardRegion(module.body, env, repl);
    repl.apply(module);
    return changed;
}

// ------------------------------------------------------------------
// Dead store elimination.
// ------------------------------------------------------------------
bool
deadStoreElim(Module &module)
{
    bool changed = false;

    // 1. Locals that are never loaded anywhere: all their stores die.
    std::vector<char> loaded(module.vars.size(), 0);
    ir::forEachInstr(module.body, [&loaded](const Instr &i) {
        if (i.op == Opcode::LoadVar || i.op == Opcode::LoadElem)
            loaded[static_cast<size_t>(i.var->id)] = 1;
    });
    std::vector<char> dead(static_cast<size_t>(module.idBound()), 0);
    auto kill = [&](const Instr &i) {
        dead[static_cast<size_t>(i.id)] = 1;
        changed = true;
    };
    ir::forEachInstr(module.body, [&](const Instr &i) {
        if ((i.op == Opcode::StoreVar || i.op == Opcode::StoreElem) &&
            i.var->kind == VarKind::Local &&
            !loaded[static_cast<size_t>(i.var->id)])
            kill(i);
    });

    // 2. Same-block overwritten stores with no intervening load.
    std::vector<Instr *> pending(module.vars.size(), nullptr); // by Var::id
    std::vector<size_t> touched; // pending slots the block set
    ir::forEachNode(module.body, [&](Node &n) {
        auto *b = dyn_cast<Block>(&n);
        if (!b)
            return;
        for (Instr *ip : b->instrs) {
            Instr &i = *ip;
            if (i.op != Opcode::StoreVar && i.op != Opcode::LoadVar &&
                i.op != Opcode::LoadElem && i.op != Opcode::StoreElem)
                continue;
            Instr *&store = pending[static_cast<size_t>(i.var->id)];
            if (i.op != Opcode::StoreVar) {
                store = nullptr;
                continue;
            }
            if (store)
                kill(*store);
            else
                touched.push_back(static_cast<size_t>(i.var->id));
            store = &i;
        }
        for (size_t v : touched)
            pending[v] = nullptr;
        touched.clear();
    });

    if (changed) {
        ir::eraseInstrsIf(module.body, [&dead](const Instr &i) {
            return dead[static_cast<size_t>(i.id)] != 0;
        });
    }
    return changed;
}

// ------------------------------------------------------------------
// Block-local CSE.
// ------------------------------------------------------------------
/** True if the instruction can be value-numbered. */
bool
isNumerable(const Instr &i)
{
    if (ir::hasSideEffects(i.op))
        return false;
    if (i.op == Opcode::LoadVar)
        return i.var->isReadOnly();
    if (i.op == Opcode::LoadElem)
        return i.var->isReadOnly();
    // Texture fetches of the same coords are the same value.
    return true;
}

bool
localCse(Module &module)
{
    bool changed = false;
    Replacements repl(module);
    ValueTable table;
    ir::forEachNode(module.body, [&](Node &n) {
        auto *b = dyn_cast<Block>(&n);
        if (!b)
            return;
        table.pushScope();
        for (Instr *ip : b->instrs) {
            Instr &i = *ip;
            repl.resolveOperands(i);
            if (!isNumerable(i))
                continue;
            if (Instr *first = table.findOrInsert(i)) {
                repl.set(i, first);
                changed = true;
            }
        }
        table.popScope();
    });
    repl.apply(module);
    return changed;
}

// ------------------------------------------------------------------
// Trivial DCE: iteratively drop unused pure instructions.
// ------------------------------------------------------------------
bool
trivialDce(Module &module)
{
    bool changed = false;
    for (;;) {
        const std::vector<int> uses = countUses(module);
        bool erased = false;
        ir::eraseInstrsIf(module.body, [&](const Instr &i) {
            const bool dead = !ir::hasSideEffects(i.op) &&
                              uses[static_cast<size_t>(i.id)] == 0;
            erased |= dead;
            return dead;
        });
        if (!erased)
            break;
        changed = true;
    }
    return changed;
}

// ------------------------------------------------------------------
// Structural folding: if(const) splice, dead loops, empty nodes.
// ------------------------------------------------------------------
bool
foldStructure(Region &region)
{
    bool changed = false;
    std::vector<ir::NodePtr> result;
    for (auto &node : region.nodes) {
        if (auto *f = dyn_cast<IfNode>(node.get())) {
            changed |= foldStructure(f->thenRegion);
            changed |= foldStructure(f->elseRegion);
            if (f->cond && f->cond->op == Opcode::Const) {
                Region &taken = f->cond->scalarConst() != 0.0
                                    ? f->thenRegion
                                    : f->elseRegion;
                for (auto &inner : taken.nodes)
                    result.push_back(std::move(inner));
                changed = true;
                continue;
            }
        } else if (auto *l = dyn_cast<LoopNode>(node.get())) {
            changed |= foldStructure(l->condRegion);
            changed |= foldStructure(l->body);
            if (l->canonical && l->tripCount() == 0) {
                changed = true;
                continue;
            }
            if (!l->canonical && l->condValue &&
                l->condValue->op == Opcode::Const &&
                l->condValue->scalarConst() == 0.0) {
                // while(false): the cond region still executes once.
                for (auto &inner : l->condRegion.nodes)
                    result.push_back(std::move(inner));
                changed = true;
                continue;
            }
        }
        result.push_back(std::move(node));
    }
    region.nodes = std::move(result);
    changed |= ir::simplifyRegionStructure(region);
    return changed;
}

} // namespace

bool
canonicalize(Module &module)
{
    bool any = false;
    for (int iter = 0; iter < 32; ++iter) {
        bool changed = false;
        changed |= foldConstants(module);
        changed |= storeLoadForwarding(module);
        changed |= deadStoreElim(module);
        changed |= localCse(module);
        changed |= trivialDce(module);
        changed |= foldStructure(module.body);
        if (!changed)
            break;
        any = true;
    }
    return any;
}

} // namespace gsopt::passes
