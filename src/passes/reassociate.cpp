/**
 * @file
 * Integer reassociation (the LunarGlass "Reassociate" flag): flattens
 * integer add/mul chains, folds their constants, and canonically orders
 * operands. Per the paper it also handles a small set of floating-point
 * identities (x + 0, f * 0) — and indeed most of its real-world impact
 * comes from those, because integers are rare in shaders (Fig 8c).
 */
#include <algorithm>

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
reassociateBlock(Block &block, Module &module,
                 const std::vector<int> &uses,
                 Replacements &repl)
{
    bool changed = false;
    for (size_t pos = 0; pos < block.instrs.size(); ++pos) {
        Instr &i = *block.instrs[pos];

        // -- float identities the LunarGlass pass handles ----------------
        if (i.type.isFloat() &&
            (i.op == Opcode::Add || i.op == Opcode::Mul)) {
            Instr *a = i.operands[0];
            Instr *b = i.operands[1];
            auto ca = splatConstValue(a);
            auto cb = splatConstValue(b);
            if (i.op == Opcode::Add) {
                if (cb && *cb == 0.0) {
                    repl.set(i, a);
                    changed = true;
                    continue;
                }
                if (ca && *ca == 0.0) {
                    repl.set(i, b);
                    changed = true;
                    continue;
                }
            } else { // Mul
                if ((cb && *cb == 0.0) || (ca && *ca == 0.0)) {
                    LocalBuilder lb(module, block, pos);
                    Instr *zero = lb.constSplat(i.type, 0.0);
                    repl.set(i, zero);
                    pos = lb.position();
                    changed = true;
                    continue;
                }
            }
        }

        if (!i.type.isInt() || !i.type.isScalar())
            continue;
        if (i.op != Opcode::Add && i.op != Opcode::Mul)
            continue;

        // Is this a chain head? (no same-op single-use parent consumes it)
        // Flatten through same-op children that are single-use.
        std::vector<Instr *> terms;
        long const_acc = i.op == Opcode::Add ? 0 : 1;
        bool saw_const = false;
        int flattened = 0;
        std::vector<Instr *> stack = {&i};
        while (!stack.empty()) {
            Instr *cur = stack.back();
            stack.pop_back();
            for (Instr *op : cur->operands) {
                if (op->op == i.op && op->type == i.type &&
                    useCount(uses, op) == 1) {
                    stack.push_back(op);
                    ++flattened;
                } else if (op->op == Opcode::Const) {
                    long v = static_cast<long>(op->scalarConst());
                    const_acc =
                        i.op == Opcode::Add ? const_acc + v
                                            : const_acc * v;
                    saw_const = true;
                } else {
                    terms.push_back(op);
                }
            }
        }
        // Only rewrite if the chain was non-trivial.
        if (flattened == 0 && !saw_const)
            continue;
        if (flattened == 0 && terms.size() == 2)
            continue; // plain binary with no constant partner

        // Canonical order for CSE friendliness.
        std::sort(terms.begin(), terms.end(),
                  [](const Instr *a, const Instr *b) {
                      return a->id < b->id;
                  });

        LocalBuilder lb(module, block, pos);
        Instr *acc = nullptr;
        for (Instr *t : terms) {
            acc = acc ? lb.emit(i.op, i.type, {acc, t}) : t;
        }
        const long identity = i.op == Opcode::Add ? 0 : 1;
        if (const_acc != identity || !acc) {
            Instr *c = lb.emit(Opcode::Const, i.type);
            c->constData = {static_cast<double>(const_acc)};
            acc = acc ? lb.emit(i.op, i.type, {acc, c}) : c;
        }
        // Multiplication by zero collapses everything.
        if (i.op == Opcode::Mul && const_acc == 0) {
            Instr *c = lb.emit(Opcode::Const, i.type);
            c->constData = {0.0};
            acc = c;
        }
        repl.set(i, acc);
        pos = lb.position();
        changed = true;
    }
    return changed;
}

} // namespace

bool
reassociate(Module &module)
{
    auto uses = countUses(module);
    Replacements repl(module);
    bool changed = false;
    ir::forEachNode(module.body, [&](Node &n) {
        if (auto *b = dyn_cast<Block>(&n))
            changed |= reassociateBlock(*b, module, uses, repl);
    });
    repl.apply(module);
    return changed;
}

} // namespace gsopt::passes
