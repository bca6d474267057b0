/**
 * @file
 * Global value numbering over the structured dominance tree. The always-
 * on CSE is block-local; GVN extends value numbering across nested
 * structure (code before an if dominates both arms and everything after
 * it cannot see arm-local values, which the scope stack enforces).
 * Loads participate with a memory version per variable that bumps on
 * stores, so redundant loads across control flow collapse too.
 *
 * As in the paper (Section VI-D2), this matters only for the few
 * shaders with non-trivial control flow: straight-line redundancy is
 * already gone after local CSE.
 */
#include <unordered_map>
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
using ir::Opcode;
using ir::Region;
using ir::Var;

namespace {

class GvnPass
{
  public:
    explicit GvnPass(Module &module)
        : module_(module), memVersion_(module.vars.size(), 0),
          repl_(module)
    {
    }

    bool run()
    {
        scopes_.emplace_back();
        walkRegion(module_.body);
        repl_.apply(module_);
        return !repl_.empty();
    }

  private:
    using Scope = std::unordered_map<ValueKey, Instr *, ValueKeyHash>;

    int &versionOf(const Var *v)
    {
        return memVersion_[static_cast<size_t>(v->id)];
    }

    Instr *lookup(const ValueKey &key)
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto f = it->find(key);
            if (f != it->end())
                return f->second;
        }
        return nullptr;
    }

    ValueKey keyOf(const Instr &i)
    {
        const bool load =
            i.var && (i.op == Opcode::LoadVar || i.op == Opcode::LoadElem);
        return valueKey(i, load ? versionOf(i.var) : 0);
    }

    void bumpStoredVars(const Region &region)
    {
        ir::forEachInstr(region, [this](const Instr &i) {
            if (i.op == Opcode::StoreVar || i.op == Opcode::StoreElem)
                ++versionOf(i.var);
        });
    }

    void walkRegion(Region &region)
    {
        for (auto &node : region.nodes) {
            if (auto *b = dyn_cast<Block>(node.get())) {
                for (Instr *ip : b->instrs) {
                    Instr &i = *ip;
                    repl_.resolveOperands(i);
                    if (i.op == Opcode::StoreVar ||
                        i.op == Opcode::StoreElem) {
                        ++versionOf(i.var);
                        continue;
                    }
                    if (ir::hasSideEffects(i.op))
                        continue;
                    const ValueKey key = keyOf(i);
                    if (Instr *prior = lookup(key))
                        repl_.set(i, prior);
                    else
                        scopes_.back().emplace(key, &i);
                }
            } else if (auto *f = dyn_cast<IfNode>(node.get())) {
                f->cond = repl_.resolve(f->cond);
                auto versions = memVersion_;
                scopes_.emplace_back();
                walkRegion(f->thenRegion);
                scopes_.pop_back();
                memVersion_ = versions;
                scopes_.emplace_back();
                walkRegion(f->elseRegion);
                scopes_.pop_back();
                memVersion_ = versions;
                // After the if, any var stored in either arm has a new
                // version.
                bumpStoredVars(f->thenRegion);
                bumpStoredVars(f->elseRegion);
            } else if (auto *l = dyn_cast<LoopNode>(node.get())) {
                // Everything stored by the loop varies per iteration:
                // bump before walking so body loads don't match
                // pre-loop loads.
                bumpStoredVars(l->condRegion);
                bumpStoredVars(l->body);
                if (l->counter)
                    ++versionOf(l->counter);
                // Cond region and body get *separate* scopes: values
                // must not be shared between them (the back end emits
                // the condition computation twice, at different points).
                scopes_.emplace_back();
                walkRegion(l->condRegion);
                l->condValue = repl_.resolve(l->condValue);
                scopes_.pop_back();
                scopes_.emplace_back();
                walkRegion(l->body);
                scopes_.pop_back();
                bumpStoredVars(l->condRegion);
                bumpStoredVars(l->body);
                if (l->counter)
                    ++versionOf(l->counter);
            }
        }
    }

    Module &module_;
    std::vector<Scope> scopes_;
    /** Per Var::id: bumped by every store the walk passes. */
    std::vector<int> memVersion_;
    Replacements repl_;
};

} // namespace

bool
gvn(Module &module)
{
    return GvnPass(module).run();
}

} // namespace gsopt::passes
