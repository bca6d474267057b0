/**
 * @file
 * Coalesce: rewrite chains of single-component vector inserts into one
 * swizzled vector construction, and constructs whose components are all
 * extracts of one source vector into a single swizzle. This is the
 * LunarGlass "Coalesce inserts/extracts into multiInserts/swizzles"
 * pass; it applies to almost every shader (Fig 8a) because lowering
 * turns per-component writes (`v.x = ...`) into insert chains.
 */

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
coalesceBlock(Block &block, Module &module,
              const std::vector<int> &uses)
{
    bool changed = false;
    for (size_t pos = 0; pos < block.instrs.size(); ++pos) {
        Instr &i = *block.instrs[pos];

        // ---- Insert chains -> Construct --------------------------------
        if (i.op == Opcode::Insert) {
            // Dead inserts (mid-chain leftovers from an earlier sweep)
            // are cleanup work for DCE, not chain heads.
            if (useCount(uses, &i) == 0)
                continue;
            // Only rewrite chain heads: an insert whose result is not
            // consumed by another single-use insert in this block.
            bool is_head = true;
            if (pos + 1 < block.instrs.size()) {
                // Heuristic scan: if any later insert in this block uses
                // i as its vector operand and i has exactly one use, i
                // is mid-chain.
                if (useCount(uses, &i) == 1) {
                    for (size_t j = pos + 1; j < block.instrs.size();
                         ++j) {
                        const Instr &later = *block.instrs[j];
                        if (later.op == Opcode::Insert &&
                            later.operands[0] == &i) {
                            is_head = false;
                            break;
                        }
                    }
                }
            }
            if (!is_head)
                continue;

            // Walk down the chain collecting lane values (outermost
            // insert wins its lane).
            const int rows = i.type.rows;
            std::vector<Instr *> lanes(static_cast<size_t>(rows),
                                       nullptr);
            Instr *cursor = &i;
            int chain_len = 0;
            while (cursor && cursor->op == Opcode::Insert) {
                int lane = cursor->indices[0];
                if (!lanes[static_cast<size_t>(lane)])
                    lanes[static_cast<size_t>(lane)] =
                        cursor->operands[1];
                ++chain_len;
                Instr *base = cursor->operands[0];
                // Only follow through single-use inserts.
                if (base->op == Opcode::Insert &&
                    useCount(uses, base) == 1) {
                    cursor = base;
                } else {
                    cursor = base;
                    break;
                }
            }
            if (chain_len < 2)
                continue;
            // Fill uncovered lanes from the chain's base vector.
            Instr *base = cursor;
            LocalBuilder lb(module, block, pos);
            for (int lane = 0; lane < rows; ++lane) {
                if (!lanes[static_cast<size_t>(lane)]) {
                    lanes[static_cast<size_t>(lane)] = lb.emit(
                        Opcode::Extract, i.type.scalarType(), {base},
                        nullptr, {lane});
                }
            }
            // Rewrite the head insert in place as a Construct.
            i.op = Opcode::Construct;
            i.operands = lanes;
            i.indices.clear();
            pos = lb.position(); // skip the extracts we just emitted
            changed = true;
            continue;
        }

        // ---- Construct of extracts -> Swizzle ---------------------------
        if (i.op == Opcode::Construct && i.type.isVector() &&
            i.operands.size() > 1) {
            Instr *src = nullptr;
            std::vector<int> idx;
            bool all_extracts = true;
            for (Instr *part : i.operands) {
                if (part->op != Opcode::Extract ||
                    !part->operands[0]->type.isVector()) {
                    all_extracts = false;
                    break;
                }
                if (!src)
                    src = part->operands[0];
                if (part->operands[0] != src) {
                    all_extracts = false;
                    break;
                }
                idx.push_back(part->indices[0]);
            }
            if (all_extracts && src &&
                static_cast<int>(idx.size()) == i.type.rows) {
                i.op = Opcode::Swizzle;
                i.operands = {src};
                i.indices = idx;
                changed = true;
                // Identity swizzles fold away in canonicalisation.
                continue;
            }
        }
    }
    return changed;
}

} // namespace

bool
coalesce(Module &module)
{
    // Iterate to a fixpoint: an insert chain first becomes a Construct
    // of extracts, which a second sweep turns into a Swizzle.
    bool changed = false;
    for (int iter = 0; iter < 4; ++iter) {
        auto uses = countUses(module);
        bool pass_changed = false;
        ir::forEachNode(module.body, [&](Node &n) {
            if (auto *b = dyn_cast<Block>(&n))
                pass_changed |= coalesceBlock(*b, module, uses);
        });
        if (!pass_changed)
            break;
        changed = true;
    }
    return changed;
}

} // namespace gsopt::passes
