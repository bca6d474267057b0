/**
 * @file
 * Global value numbering over the structured dominance tree, and
 * tex_batch, its restriction to the fetch class. The always-on CSE is
 * block-local; GVN extends value numbering across nested structure
 * (code before an if dominates both arms and everything after it
 * cannot see arm-local values, which the table's scopes enforce).
 * Loads participate with a memory version per variable that bumps on
 * stores, so redundant loads across control flow collapse too.
 *
 * As in the paper (Section VI-D2), this matters only for the few
 * shaders with non-trivial control flow: straight-line redundancy is
 * already gone after local CSE.
 */
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

/**
 * One dominance walk: each instruction @p admit accepts collapses onto
 * the first instruction with its value key on a dominating path.
 */
class DominanceNumbering
{
  public:
    DominanceNumbering(Module &module, bool (*admit)(const Instr &))
        : module_(module), admit_(admit),
          memVersion_(module.vars.size(), 0), repl_(module)
    {
    }

    bool run()
    {
        walkRegion(module_.body);
        repl_.apply(module_);
        return !repl_.empty();
    }

  private:
    int &versionOf(const Var *v)
    {
        return memVersion_[static_cast<size_t>(v->id)];
    }

    void bumpStoredVars(const Region &region)
    {
        ir::forEachInstr(region, [this](const Instr &i) {
            if (i.op == Opcode::StoreVar || i.op == Opcode::StoreElem)
                ++versionOf(i.var);
        });
    }

    void walkScope(Region &region)
    {
        table_.pushScope();
        walkRegion(region);
        table_.popScope();
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
                    if (!admit_(i))
                        continue;
                    const bool load = i.var && (i.op == Opcode::LoadVar ||
                                                i.op == Opcode::LoadElem);
                    if (Instr *prior = table_.findOrInsert(
                            i, load ? versionOf(i.var) : 0))
                        repl_.set(i, prior);
                }
            } else if (auto *f = dyn_cast<IfNode>(node.get())) {
                f->cond = repl_.resolve(f->cond);
                const std::vector<int> versions = memVersion_;
                walkScope(f->thenRegion);
                memVersion_ = versions;
                walkScope(f->elseRegion);
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
                // Pre-loop values stay visible to both, which is what
                // lifts a loop-constant fetch to one issue.
                walkScope(l->condRegion);
                l->condValue = repl_.resolve(l->condValue);
                walkScope(l->body);
                bumpStoredVars(l->condRegion);
                bumpStoredVars(l->body);
                if (l->counter)
                    ++versionOf(l->counter);
            }
        }
    }

    Module &module_;
    bool (*admit_)(const Instr &);
    ValueTable table_;
    /** Per Var::id: bumped by every store the walk passes. */
    std::vector<int> memVersion_;
    Replacements repl_;
};

} // namespace

bool
gvn(Module &module)
{
    return DominanceNumbering(module, [](const Instr &i) {
               return !ir::hasSideEffects(i.op);
           }).run();
}

bool
isFetchOp(const Instr &i)
{
    switch (i.op) {
      case Opcode::Texture:
      case Opcode::TextureBias:
      case Opcode::TextureLod:
        return true;
      case Opcode::LoadVar:
      case Opcode::LoadElem:
        return i.var && i.var->isReadOnly();
      default:
        return false;
    }
}

bool
texBatch(Module &module)
{
    return DominanceNumbering(module, isFetchOp).run();
}

} // namespace gsopt::passes
