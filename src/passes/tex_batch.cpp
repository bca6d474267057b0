/**
 * @file
 * Texture-fetch batching: fetches of the same sampler at the same
 * coordinates — and read-only varying/uniform/const-array loads —
 * collapse onto the first fetch on a dominating path, leaving one
 * fetch whose consumers extract the lanes they need.
 *
 * The always-on canonicalisation already does this *within* a block;
 * full GVN does it across blocks but drags every other op class along
 * and is a flag the mobile drivers in the paper's device set do not
 * run. tex_batch is the targeted middle ground: dominance-scoped value
 * numbering over the fetch class only — the memory-bandwidth win that
 * matters on the tile-based mobile parts (ARM, Qualcomm), whose JIT
 * models run no GVN of their own.
 *
 * Every participating op is read-only (samplers, inputs, uniforms,
 * const arrays), so unlike GVN no memory versioning is needed; the
 * scope stack alone enforces dominance (an if-arm fetch never serves
 * the other arm or the code after the join, and loop cond-region
 * values never serve the body, mirroring the GVN/back-end contract).
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

namespace {

class TexBatcher
{
  public:
    explicit TexBatcher(Module &module) : module_(module), repl_(module)
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

    Instr *lookup(const ValueKey &key)
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto f = it->find(key);
            if (f != it->end())
                return f->second;
        }
        return nullptr;
    }

    void walkRegion(Region &region)
    {
        for (auto &node : region.nodes) {
            if (auto *b = dyn_cast<Block>(node.get())) {
                for (Instr *ip : b->instrs) {
                    Instr &i = *ip;
                    repl_.resolveOperands(i);
                    if (!isFetchOp(i))
                        continue;
                    const ValueKey key = valueKey(i);
                    if (Instr *prior = lookup(key))
                        repl_.set(i, prior);
                    else
                        scopes_.back().emplace(key, &i);
                }
            } else if (auto *f = dyn_cast<IfNode>(node.get())) {
                f->cond = repl_.resolve(f->cond);
                scopes_.emplace_back();
                walkRegion(f->thenRegion);
                scopes_.pop_back();
                scopes_.emplace_back();
                walkRegion(f->elseRegion);
                scopes_.pop_back();
            } else if (auto *l = dyn_cast<LoopNode>(node.get())) {
                // Cond region and body get separate scopes (the back
                // end re-emits the condition at a different program
                // point); pre-loop fetches stay visible to both, which
                // is what lifts a loop-constant fetch to one issue.
                scopes_.emplace_back();
                walkRegion(l->condRegion);
                l->condValue = repl_.resolve(l->condValue);
                scopes_.pop_back();
                scopes_.emplace_back();
                walkRegion(l->body);
                scopes_.pop_back();
            }
        }
    }

    Module &module_;
    std::vector<Scope> scopes_;
    Replacements repl_;
};

} // namespace

bool
texBatch(Module &module)
{
    return TexBatcher(module).run();
}

} // namespace gsopt::passes
