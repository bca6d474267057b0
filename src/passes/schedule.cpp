/**
 * @file
 * Pressure-reducing scheduler ("sinking"): moves pure single-use
 * instructions whose definition sits far from their only user down to
 * just before that user.
 *
 * Every production shader compiler list-schedules for register
 * pressure; without this, an offline pass that rebuilds a long
 * reduction chain at the end of a block (reassociation does exactly
 * that) would look catastrophically expensive, because all of its
 * operands would appear live across the whole block. The driver model
 * runs this before register accounting.
 *
 * The span threshold keeps the model honest: schedulers fix egregious
 * live ranges, but they cannot undo genuine pressure (if-converted code
 * interleaves both arms' chains within the window; those stay put).
 *
 * Texture fetches never sink: drivers issue them early to hide latency.
 */
#include <algorithm>
#include <functional>
#include <unordered_map>

#include "ir/walk.h"
#include "passes/passes.h"
#include "passes/util.h"

namespace gsopt::passes {

using ir::Block;
using ir::dyn_cast;
using ir::Instr;
using ir::Module;
using ir::Node;
using ir::Opcode;

namespace {

bool
isSinkable(const Instr &i)
{
    if (ir::hasSideEffects(i.op))
        return false;
    switch (i.op) {
      case Opcode::Texture:
      case Opcode::TextureBias:
      case Opcode::TextureLod:
      case Opcode::Const: // free anyway; moving them is churn
        return false;
      case Opcode::LoadVar:
      case Opcode::LoadElem:
        // Memory order against stores must be preserved; loads stay.
        return false;
      default:
        return true;
    }
}

bool
scheduleBlock(Block &block, size_t min_span,
              const std::vector<int> &uses)
{
    const size_t n = block.instrs.size();
    // First (and only, for single-use values) user position per instr.
    std::unordered_map<const Instr *, size_t> user_pos;
    for (size_t i = 0; i < n; ++i) {
        for (const Instr *op : block.instrs[i]->operands) {
            if (!user_pos.count(op))
                user_pos[op] = i;
        }
    }

    // Decide what sinks.
    std::unordered_map<const Instr *, bool> sink;
    bool any = false;
    for (size_t i = 0; i < n; ++i) {
        const Instr *instr = block.instrs[i];
        auto pit = user_pos.find(instr);
        if (useCount(uses, instr) != 1 || pit == user_pos.end())
            continue; // multi-use, unused, or used outside the block
        if (!isSinkable(*instr))
            continue;
        // Sinking a direct consumer of a texture fetch would extend the
        // (wide) fetch result's live range to the consumer's new
        // position — schedulers keep those together instead.
        bool consumes_texture = false;
        for (const Instr *op : instr->operands) {
            consumes_texture |= op->op == Opcode::Texture ||
                                op->op == Opcode::TextureBias ||
                                op->op == Opcode::TextureLod;
        }
        if (consumes_texture)
            continue;
        if (pit->second - i <= min_span)
            continue;
        sink[instr] = true;
        any = true;
    }
    if (!any)
        return false;

    // Rebuild: non-sunk instructions keep their order; sunk ones are
    // emitted (with their sunk dependencies, recursively) right before
    // their user.
    std::vector<Instr *> result;
    result.reserve(n);
    std::unordered_map<const Instr *, size_t> holding; // -> old index
    std::unordered_map<const Instr *, bool> emitted;

    std::function<void(size_t)> emit_sunk = [&](size_t old_index) {
        Instr *instr = block.instrs[old_index];
        if (emitted[instr])
            return;
        emitted[instr] = true;
        for (const Instr *op : instr->operands) {
            auto hit = holding.find(op);
            if (hit != holding.end())
                emit_sunk(hit->second);
        }
        result.push_back(instr);
    };

    for (size_t i = 0; i < n; ++i) {
        Instr *instr = block.instrs[i];
        if (sink[instr]) {
            holding[instr] = i;
            continue;
        }
        // Emit any sunk values this instruction consumes.
        for (const Instr *op : instr->operands) {
            auto hit = holding.find(op);
            if (hit != holding.end())
                emit_sunk(hit->second);
        }
        result.push_back(instr);
    }
    // Anything never demanded (shouldn't happen for single-use values
    // used in this block) is appended in original order to preserve
    // both the value and determinism.
    std::vector<size_t> leftovers;
    for (auto &[instr, old_index] : holding) {
        if (!emitted[instr])
            leftovers.push_back(old_index);
    }
    std::sort(leftovers.begin(), leftovers.end());
    for (size_t old_index : leftovers)
        emit_sunk(old_index);
    block.instrs = std::move(result);
    return true;
}

} // namespace

bool
scheduleForPressure(Module &module, size_t minSpan)
{
    auto uses = countUses(module);
    bool changed = false;
    ir::forEachNode(module.body, [&](Node &n) {
        if (auto *b = dyn_cast<Block>(&n))
            changed |= scheduleBlock(*b, minSpan, uses);
    });
    return changed;
}

} // namespace gsopt::passes
