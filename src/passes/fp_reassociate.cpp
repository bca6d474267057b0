/**
 * @file
 * The paper's custom *unsafe floating-point reassociation* pass
 * (Section III-B). It mimics the integer reassociation pass for floats
 * and adds:
 *
 *   - additive simplification:  a+b-a -> b,  a+a+a -> 3a
 *   - factorisation:            ab + ac -> a(b+c)
 *   - constant grouping:        c1*(c2*v) -> (c1*c2)*v
 *   - scalar grouping:          f1*(f2*v) -> (f1*f2)*v  (minimises
 *     temporary vector registers when scalars suffice)
 *   - identity removal:         x*1 -> x, x+0 -> x, x-0 -> x, x/1 -> x
 *   - canonical operand ordering of commutative ops (better CSE later)
 *
 * None of this is IEEE-754 preserving, which is exactly why a conformant
 * driver JIT cannot do it and an offline tool can (the paper's point).
 */
#include <algorithm>
#include <map>

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
using ir::Type;

namespace {

struct Rewriter
{
    Module &module;
    const std::vector<int> &uses;
    Replacements &repl;
    bool changed = false;

    int useCount(const Instr *i) const
    {
        return passes::useCount(uses, i);
    }

    // ---------------- additive chains --------------------------------
    struct Term
    {
        Instr *value = nullptr;
        int sign = 1;
    };

    /** Flatten an Add/Sub/Neg tree through single-use same-type links. */
    void flattenAdd(Instr *node, int sign, std::vector<Term> &terms,
                    bool is_root)
    {
        const bool chainable =
            (node->op == Opcode::Add || node->op == Opcode::Sub ||
             node->op == Opcode::Neg) &&
            node->type.isFloat();
        if (!chainable || (!is_root && useCount(node) != 1)) {
            terms.push_back({node, sign});
            return;
        }
        if (node->op == Opcode::Neg) {
            flattenAdd(node->operands[0], -sign, terms, false);
            return;
        }
        flattenAdd(node->operands[0], sign, terms, false);
        flattenAdd(node->operands[1],
                   node->op == Opcode::Sub ? -sign : sign, terms,
                   false);
    }

    /**
     * Rewrite an additive chain root. Returns the replacement value or
     * nullptr if nothing changed.
     */
    Instr *rewriteAddChain(Instr &root, Block &block, size_t &pos)
    {
        std::vector<Term> terms;
        flattenAdd(&root, 1, terms, true);
        if (terms.size() < 2)
            return nullptr;

        const Type ty = root.type;
        LocalBuilder lb(module, block, pos);

        // 1. Fold constants (splat-aware) into one accumulator.
        double const_acc = 0.0;
        int n_consts = 0;
        std::vector<Term> rest;
        for (const Term &t : terms) {
            auto c = splatConstValue(t.value);
            if (c && (t.value->type == ty || t.value->type.isScalar())) {
                const_acc += t.sign * *c;
                ++n_consts;
            } else {
                rest.push_back(t);
            }
        }
        const bool any_const = n_consts > 0;

        // 2. Cancel/merge identical values: net coefficient per value.
        std::vector<std::pair<Instr *, int>> coeffs; // keeps order
        for (const Term &t : rest) {
            bool merged = false;
            for (auto &[v, c] : coeffs) {
                if (v == t.value) {
                    c += t.sign;
                    merged = true;
                    break;
                }
            }
            if (!merged)
                coeffs.emplace_back(t.value, t.sign);
        }

        // 3. Factorisation: group multiply terms by a shared factor.
        //    Only single-use Mul terms with coefficient +-1 take part.
        struct MulTerm
        {
            size_t coeff_index;
            Instr *factor;
            Instr *other;
        };
        // Keyed by instruction id, NOT pointer: map iteration order
        // must be deterministic across runs or textual dedup breaks.
        std::map<int, std::vector<MulTerm>> by_factor;
        std::map<int, Instr *> factor_of_id;
        for (size_t k = 0; k < coeffs.size(); ++k) {
            Instr *v = coeffs[k].first;
            if (coeffs[k].second == 0)
                continue;
            if (v->op == Opcode::Mul && v->type == ty &&
                useCount(v) <= 1 && std::abs(coeffs[k].second) == 1) {
                for (int side = 0; side < 2; ++side) {
                    Instr *factor = v->operands[side];
                    Instr *other = v->operands[1 - side];
                    by_factor[factor->id].push_back(
                        {k, factor, other});
                    factor_of_id[factor->id] = factor;
                }
            }
        }
        // Pick the factor shared by the most terms (>= 2); ties go to
        // the lowest id (stable).
        Instr *best_factor = nullptr;
        size_t best_count = 1;
        for (auto &[factor_id, list] : by_factor) {
            // A term can appear twice under the same factor (x*x); count
            // distinct coefficient inds.
            std::vector<size_t> inds;
            for (const auto &mt : list)
                inds.push_back(mt.coeff_index);
            std::sort(inds.begin(), inds.end());
            inds.erase(std::unique(inds.begin(), inds.end()),
                       inds.end());
            if (inds.size() > best_count) {
                best_count = inds.size();
                best_factor = factor_of_id[factor_id];
            }
        }

        const bool had_cancel_or_merge = [&]() {
            for (const auto &[v, c] : coeffs) {
                if (c == 0 || c > 1 || c < -1)
                    return true;
            }
            return false;
        }();

        // Only rewrite when something actually simplifies: two or more
        // constants fold together, identical terms cancel/merge, or a
        // common factor can be pulled out. A lone constant in a 2-term
        // chain has nothing to gain and rebuild could only add ops.
        const bool worth_it = n_consts >= 2 || had_cancel_or_merge ||
                              best_factor ||
                              (any_const && const_acc == 0.0);
        if (!worth_it)
            return nullptr;

        // Build the factored group first.
        std::vector<std::pair<Instr *, int>> final_terms;
        if (best_factor) {
            std::vector<size_t> used;
            Instr *inner = nullptr;
            for (const auto &mt : by_factor[best_factor->id]) {
                if (std::find(used.begin(), used.end(),
                              mt.coeff_index) != used.end())
                    continue;
                if (coeffs[mt.coeff_index].second == 0)
                    continue;
                used.push_back(mt.coeff_index);
                Instr *other = mt.other;
                if (coeffs[mt.coeff_index].second < 0)
                    other = lb.emit(Opcode::Neg, other->type, {other});
                inner = inner ? lb.emit(Opcode::Add, ty,
                                        {inner, other})
                              : other;
                coeffs[mt.coeff_index].second = 0;
            }
            if (inner) {
                Instr *grouped =
                    lb.emit(Opcode::Mul, ty, {best_factor, inner});
                final_terms.emplace_back(grouped, 1);
            }
        }
        for (auto &[v, c] : coeffs) {
            if (c == 0)
                continue;
            if (c == 1 || c == -1) {
                final_terms.emplace_back(v, c);
            } else {
                // a+a+a -> 3*a
                Instr *k = v->type.isScalar()
                               ? lb.constFloat(std::abs(c))
                               : lb.constSplat(v->type,
                                               std::abs(c));
                Instr *m = lb.emit(Opcode::Mul, v->type, {k, v});
                final_terms.emplace_back(m, c > 0 ? 1 : -1);
            }
        }

        // Canonical order: positives first by id.
        std::stable_sort(final_terms.begin(), final_terms.end(),
                         [](const auto &a, const auto &b) {
                             if (a.second != b.second)
                                 return a.second > b.second;
                             return a.first->id < b.first->id;
                         });

        // Rebuild as (positives + positive-const) - (negatives +
        // negative-const): never a Neg+Add pair where a Sub suffices.
        auto widen = [&](Instr *val) {
            if (val->type != ty && val->type.isScalar())
                return lb.emit(Opcode::Construct, ty, {val});
            return val;
        };
        Instr *pos_acc = nullptr;
        Instr *neg_acc = nullptr;
        for (auto &[v, sign] : final_terms) {
            Instr *val = widen(v);
            Instr *&acc = sign > 0 ? pos_acc : neg_acc;
            acc = acc ? lb.emit(Opcode::Add, ty, {acc, val}) : val;
        }
        if (any_const && const_acc != 0.0) {
            Instr *c = ty.isScalar()
                           ? lb.constFloat(std::abs(const_acc))
                           : lb.constSplat(ty, std::abs(const_acc));
            Instr *&acc = const_acc > 0 ? pos_acc : neg_acc;
            acc = acc ? lb.emit(Opcode::Add, ty, {acc, c}) : c;
        }
        Instr *acc = nullptr;
        if (pos_acc && neg_acc)
            acc = lb.emit(Opcode::Sub, ty, {pos_acc, neg_acc});
        else if (pos_acc)
            acc = pos_acc;
        else if (neg_acc)
            acc = lb.emit(Opcode::Neg, ty, {neg_acc});
        else
            acc = ty.isScalar() ? lb.constFloat(0.0)
                                : lb.constSplat(ty, 0.0);
        pos = lb.position();
        return acc;
    }

    // ---------------- multiplicative chains ----------------------------
    /**
     * Flatten a float Mul tree: constants folded, scalar factors and
     * vector factors separated.
     */
    void flattenMul(Instr *node, bool is_root, double &const_acc,
                    std::vector<Instr *> &scalars,
                    std::vector<Instr *> &vectors, int &links)
    {
        if (node->op == Opcode::Mul && node->type.isFloat() &&
            (is_root || useCount(node) == 1)) {
            if (!is_root)
                ++links;
            flattenMul(node->operands[0], false, const_acc, scalars,
                       vectors, links);
            flattenMul(node->operands[1], false, const_acc, scalars,
                       vectors, links);
            return;
        }
        auto c = splatConstValue(node);
        if (c) {
            const_acc *= *c;
            return;
        }
        // A splat Construct of a non-constant scalar contributes its
        // scalar (this is the f1*(f2*v) regrouping opportunity).
        if (node->op == Opcode::Construct &&
            node->operands.size() == 1 &&
            node->operands[0]->type.isScalar() &&
            node->type.isVector() && useCount(node) <= 1) {
            scalars.push_back(node->operands[0]);
            return;
        }
        if (node->type.isScalar())
            scalars.push_back(node);
        else
            vectors.push_back(node);
    }

    Instr *rewriteMulChain(Instr &root, Block &block, size_t &pos)
    {
        double const_acc = 1.0;
        std::vector<Instr *> scalars, vectors;
        int links = 0;
        flattenMul(&root, true, const_acc, scalars, vectors, links);

        const size_t nfactors = scalars.size() + vectors.size();
        const bool had_const = const_acc != 1.0;
        // Profitable if we folded constants together, removed a *1, or
        // can regroup scalars ahead of vectors.
        bool regroupable =
            links > 0 && (had_const || scalars.size() >= 1) &&
            vectors.size() >= 1;
        bool const_mergeable = links > 0 && had_const;
        bool identity = !had_const && nfactors == 1 && links == 0 &&
                        (splatConstValue(root.operands[0]) ||
                         splatConstValue(root.operands[1]));
        if (!regroupable && !const_mergeable && !identity &&
            !(links > 0 && scalars.size() >= 2))
            return nullptr;

        const Type ty = root.type;
        LocalBuilder lb(module, block, pos);

        std::sort(scalars.begin(), scalars.end(),
                  [](const Instr *a, const Instr *b) {
                      return a->id < b->id;
                  });
        std::sort(vectors.begin(), vectors.end(),
                  [](const Instr *a, const Instr *b) {
                      return a->id < b->id;
                  });

        // Combine all scalar factors (constants folded into one).
        Instr *scalar_part = nullptr;
        for (Instr *s : scalars) {
            scalar_part = scalar_part
                              ? lb.emit(Opcode::Mul, Type::floatTy(),
                                        {scalar_part, s})
                              : s;
        }
        if (const_acc != 1.0 || (!scalar_part && vectors.empty())) {
            Instr *c = lb.constFloat(const_acc);
            scalar_part = scalar_part
                              ? lb.emit(Opcode::Mul, Type::floatTy(),
                                        {c, scalar_part})
                              : c;
        }

        Instr *acc = nullptr;
        for (Instr *v : vectors)
            acc = acc ? lb.emit(Opcode::Mul, v->type, {acc, v}) : v;

        if (acc && scalar_part) {
            Instr *splat =
                lb.emit(Opcode::Construct, acc->type, {scalar_part});
            acc = lb.emit(Opcode::Mul, acc->type, {splat, acc});
        } else if (!acc) {
            acc = scalar_part;
            if (acc && !ty.isScalar() && acc->type.isScalar())
                acc = lb.emit(Opcode::Construct, ty, {acc});
        }
        pos = lb.position();
        return acc;
    }

    // --------------------------------------------------------------
    void rewriteBlock(Block &block)
    {
        for (size_t pos = 0; pos < block.instrs.size(); ++pos) {
            Instr &i = *block.instrs[pos];
            if (repl.replaced(i))
                continue;
            if (!i.type.isFloat() || i.type.isMatrix())
                continue;

            // Identity: x / 1 -> x (division is otherwise left to the
            // DivToMul flag).
            if (i.op == Opcode::Div) {
                auto c = splatConstValue(i.operands[1]);
                if (c && *c == 1.0) {
                    repl.set(i, i.operands[0]);
                    changed = true;
                }
                continue;
            }

            if (i.op == Opcode::Add || i.op == Opcode::Sub) {
                // Only rewrite chain roots: if the single user is another
                // additive op, the root will handle the whole tree.
                bool is_sub_chain = false;
                if (useCount(&i) == 1) {
                    for (size_t j = pos + 1; j < block.instrs.size();
                         ++j) {
                        const Instr &later = *block.instrs[j];
                        if ((later.op == Opcode::Add ||
                             later.op == Opcode::Sub ||
                             later.op == Opcode::Neg) &&
                            later.type.isFloat()) {
                            for (const Instr *op : later.operands) {
                                if (op == &i) {
                                    is_sub_chain = true;
                                    break;
                                }
                            }
                        }
                        if (is_sub_chain)
                            break;
                    }
                }
                if (is_sub_chain)
                    continue;
                size_t p = pos;
                if (Instr *r = rewriteAddChain(i, block, p)) {
                    if (r != &i) {
                        repl.set(i, r);
                        changed = true;
                    }
                    pos = p;
                }
                continue;
            }

            if (i.op == Opcode::Mul) {
                bool is_sub_chain = false;
                if (useCount(&i) == 1) {
                    for (size_t j = pos + 1; j < block.instrs.size();
                         ++j) {
                        const Instr &later = *block.instrs[j];
                        if (later.op == Opcode::Mul &&
                            later.type.isFloat()) {
                            for (const Instr *op : later.operands) {
                                if (op == &i) {
                                    is_sub_chain = true;
                                    break;
                                }
                            }
                        }
                        if (is_sub_chain)
                            break;
                    }
                }
                if (is_sub_chain)
                    continue;
                size_t p = pos;
                if (Instr *r = rewriteMulChain(i, block, p)) {
                    if (r != &i) {
                        repl.set(i, r);
                        changed = true;
                    }
                    pos = p;
                }
                continue;
            }

            // Canonical operand order for commutative ops (CSE help).
            if ((i.op == Opcode::Min || i.op == Opcode::Max ||
                 i.op == Opcode::Dot) &&
                i.operands.size() == 2 &&
                i.operands[0]->id > i.operands[1]->id) {
                std::swap(i.operands[0], i.operands[1]);
                changed = true;
            }
        }
    }
};

} // namespace

bool
fpReassociate(Module &module)
{
    auto uses = countUses(module);
    Replacements repl(module);
    Rewriter rw{module, uses, repl};
    ir::forEachNode(module.body, [&](Node &n) {
        if (auto *b = dyn_cast<Block>(&n))
            rw.rewriteBlock(*b);
    });
    repl.apply(module);
    return rw.changed;
}

} // namespace gsopt::passes
