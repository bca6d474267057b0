/**
 * @file
 * Traversal and mutation utilities over the structured IR: instruction
 * walks, use replacement, and remapping clones (the primitive behind loop
 * unrolling and if-flattening).
 */
#ifndef GSOPT_IR_WALK_H
#define GSOPT_IR_WALK_H

#include <algorithm>
#include <unordered_map>

#include "ir/ir.h"

namespace gsopt::ir {

/**
 * Visit every instruction in the region, in structural order. The
 * walkers are templates over any callable, so the visitor inlines
 * into the passes' hot loops instead of going through std::function.
 */
template <typename Fn>
void
forEachInstr(Region &region, Fn &&fn)
{
    for (auto &node : region.nodes) {
        if (auto *b = dyn_cast<Block>(node.get())) {
            for (Instr *i : b->instrs)
                fn(*i);
        } else if (auto *f = dyn_cast<IfNode>(node.get())) {
            forEachInstr(f->thenRegion, fn);
            forEachInstr(f->elseRegion, fn);
        } else if (auto *l = dyn_cast<LoopNode>(node.get())) {
            forEachInstr(l->condRegion, fn);
            forEachInstr(l->body, fn);
        }
    }
}

template <typename Fn>
void
forEachInstr(const Region &region, Fn &&fn)
{
    forEachInstr(const_cast<Region &>(region),
                 [&fn](const Instr &i) { fn(i); });
}

/** Visit every node (blocks, ifs, loops), pre-order. */
template <typename Fn>
void
forEachNode(Region &region, Fn &&fn)
{
    for (auto &node : region.nodes) {
        fn(*node);
        if (auto *f = dyn_cast<IfNode>(node.get())) {
            forEachNode(f->thenRegion, fn);
            forEachNode(f->elseRegion, fn);
        } else if (auto *l = dyn_cast<LoopNode>(node.get())) {
            forEachNode(l->condRegion, fn);
            forEachNode(l->body, fn);
        }
    }
}

/** Value remapping table used while cloning. */
using ValueMap = std::unordered_map<const Instr *, Instr *>;

/**
 * Clone @p src region into @p dst (appending), remapping operand
 * references through @p map. References to values defined outside @p src
 * (not present in the map) are kept as-is. New instructions get fresh
 * ids from @p module.
 */
void cloneRegionInto(const Region &src, Region &dst, Module &module,
                     ValueMap &map);

/**
 * Erase instructions of the region for which @p pred returns true.
 * Does not check uses; callers must know the instructions are dead.
 */
template <typename Pred>
void
eraseInstrsIf(Region &region, Pred &&pred)
{
    for (auto &node : region.nodes) {
        if (auto *b = dyn_cast<Block>(node.get())) {
            // Unlinks only: the instructions stay alive (and their
            // addresses stable) in the module's arena.
            auto &v = b->instrs;
            v.erase(std::remove_if(v.begin(), v.end(),
                                   [&pred](const Instr *i) {
                                       return pred(*i);
                                   }),
                    v.end());
        } else if (auto *f = dyn_cast<IfNode>(node.get())) {
            eraseInstrsIf(f->thenRegion, pred);
            eraseInstrsIf(f->elseRegion, pred);
        } else if (auto *l = dyn_cast<LoopNode>(node.get())) {
            eraseInstrsIf(l->condRegion, pred);
            eraseInstrsIf(l->body, pred);
        }
    }
}

/** Remove empty blocks and empty if-nodes; returns true if changed. */
bool simplifyRegionStructure(Region &region);

} // namespace gsopt::ir

#endif // GSOPT_IR_WALK_H
