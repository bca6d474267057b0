/**
 * @file
 * Integer/index strength reduction: replace expensive ops with chains
 * of the cheapest ALU class, the transformation every mobile driver
 * stack performs and the paper's eight LunarGlass flags leave on the
 * table.
 *
 *  - pow(x, k) for a small constant integer k becomes a multiply chain
 *    (k = 0..4): one transcendental-unit op traded for at most two
 *    add/mul-class ops per lane. Like div_to_mul this is "unsafe" in
 *    the strict-IEEE sense (std::pow and the chain can differ in the
 *    last ulp) and is gated behind its own flag.
 *  - integer multiply by a power of two (2/4/8) becomes a doubling add
 *    chain — the IR has no shift ops (GLSL 450 shaders in the paper's
 *    corpus do not use them), so x+x is the shift-equivalent lane op.
 *  - redundant index recompute folding: integer x*c1 + x*c2 and
 *    x*c + x (the pattern constant-index arithmetic leaves behind
 *    after unrolling) refold into a single multiply.
 *
 * Rules run to a local fixpoint (a folded index multiply may itself be
 * a power of two and reduce again); replaced instructions are left for
 * the trailing canonicalisation's DCE, exactly like the built-ins.
 */
#include <cmath>

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

/** Small integral exponent of a Const/splat operand, if any. */
std::optional<long>
smallIntConst(const Instr *instr, long lo, long hi)
{
    auto v = splatConstValue(instr);
    if (!v)
        return std::nullopt;
    const double d = *v;
    if (d != std::nearbyint(d))
        return std::nullopt;
    const long k = static_cast<long>(d);
    if (k < lo || k > hi)
        return std::nullopt;
    return k;
}

/** Decompose an integer-scalar value as (base, constant factor). */
std::pair<Instr *, long>
mulParts(Instr *v)
{
    if (v->op == Opcode::Mul && v->type.isInt() && v->type.isScalar()) {
        if (auto c = smallIntConst(v->operands[1], -4096, 4096))
            return {v->operands[0], *c};
        if (auto c = smallIntConst(v->operands[0], -4096, 4096))
            return {v->operands[1], *c};
    }
    return {v, 1};
}

class StrengthReducer
{
  public:
    explicit StrengthReducer(Module &module)
        : module_(module), repl_(module)
    {
    }

    bool run()
    {
        bool changed = false;
        // Each rewrite strictly shrinks the pow/int-mul work left, but
        // a folded index multiply can expose one more doubling step;
        // the cap is belt-and-braces against rule interaction cycles.
        for (int round = 0; round < 8; ++round) {
            round_changed_ = false;
            ir::forEachNode(module_.body, [&](Node &n) {
                if (auto *b = dyn_cast<Block>(&n))
                    reduceBlock(*b);
            });
            if (!round_changed_)
                break;
            changed = true;
        }
        apply();
        return changed;
    }

  private:
    void reduceBlock(Block &block)
    {
        for (size_t pos = 0; pos < block.instrs.size(); ++pos) {
            Instr &i = *block.instrs[pos];
            if (repl_.replaced(i))
                continue; // already rewritten; awaiting DCE
            repl_.resolveOperands(i);

            if (i.op == Opcode::Pow) {
                if (auto k = smallIntConst(i.operands[1], 0, 4)) {
                    rewritePow(block, pos, i, *k);
                    continue;
                }
            }
            if (i.op == Opcode::Mul && i.type.isInt() &&
                i.type.isScalar()) {
                Instr *base = nullptr;
                long k = 0;
                if (auto c = smallIntConst(i.operands[1], 2, 8)) {
                    base = i.operands[0];
                    k = *c;
                } else if (auto c =
                               smallIntConst(i.operands[0], 2, 8)) {
                    base = i.operands[1];
                    k = *c;
                }
                if (base && (k == 2 || k == 4 || k == 8)) {
                    rewriteMulPow2(block, pos, i, base, k);
                    continue;
                }
            }
            if (i.op == Opcode::Add && i.type.isInt() &&
                i.type.isScalar()) {
                auto [a, ca] = mulParts(i.operands[0]);
                auto [b, cb] = mulParts(i.operands[1]);
                // Fold only when a real multiply participates: plain
                // x+x stays an add (it *is* the reduced form).
                if (a == b && (ca != 1 || cb != 1))
                    rewriteFactor(block, pos, i, a, ca + cb);
            }
        }
    }

    void rewritePow(Block &block, size_t &pos, Instr &i, long k)
    {
        LocalBuilder lb(module_, block, pos);
        Instr *x = i.operands[0];
        Instr *acc;
        switch (k) {
          case 0:
            acc = lb.constSplat(i.type, 1.0);
            break;
          case 1:
            acc = x;
            break;
          case 2:
            acc = lb.emit(Opcode::Mul, i.type, {x, x});
            break;
          case 3: {
            Instr *sq = lb.emit(Opcode::Mul, i.type, {x, x});
            acc = lb.emit(Opcode::Mul, i.type, {sq, x});
            break;
          }
          default: { // 4
            Instr *sq = lb.emit(Opcode::Mul, i.type, {x, x});
            acc = lb.emit(Opcode::Mul, i.type, {sq, sq});
            break;
          }
        }
        repl_.set(i, acc);
        pos = lb.position();
        round_changed_ = true;
    }

    void rewriteMulPow2(Block &block, size_t &pos, Instr &i,
                        Instr *base, long k)
    {
        LocalBuilder lb(module_, block, pos);
        Instr *acc = base;
        for (long m = 1; m < k; m *= 2)
            acc = lb.emit(Opcode::Add, i.type, {acc, acc});
        repl_.set(i, acc);
        pos = lb.position();
        round_changed_ = true;
    }

    void rewriteFactor(Block &block, size_t &pos, Instr &i,
                       Instr *base, long factor)
    {
        LocalBuilder lb(module_, block, pos);
        Instr *acc;
        if (factor == 0) {
            acc = lb.emit(Opcode::Const, i.type);
            acc->constData = {0.0};
        } else if (factor == 1) {
            acc = base;
        } else {
            Instr *c = lb.emit(Opcode::Const, i.type);
            c->constData = {static_cast<double>(factor)};
            acc = lb.emit(Opcode::Mul, i.type, {base, c});
        }
        repl_.set(i, acc);
        pos = lb.position();
        round_changed_ = true;
    }

    void apply()
    {
        if (repl_.empty())
            return;
        ir::forEachInstr(module_.body, [&](Instr &i) {
            if (repl_.replaced(i))
                return; // dead original; operands stay as-is
            repl_.resolveOperands(i);
        });
        ir::forEachNode(module_.body, [&](Node &n) {
            if (auto *f = dyn_cast<ir::IfNode>(&n))
                f->cond = repl_.resolve(f->cond);
            else if (auto *l = dyn_cast<ir::LoopNode>(&n))
                l->condValue = repl_.resolve(l->condValue);
        });
    }

    Module &module_;
    Replacements repl_;
    bool round_changed_ = false;
};

} // namespace

bool
strengthReduce(Module &module)
{
    return StrengthReducer(module).run();
}

} // namespace gsopt::passes
