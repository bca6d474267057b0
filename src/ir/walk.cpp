#include "ir/walk.h"

#include <algorithm>

namespace gsopt::ir {

void
cloneRegionInto(const Region &src, Region &dst, Module &module,
                ValueMap &map)
{
    auto mapped = [&map](Instr *v) -> Instr * {
        if (!v)
            return nullptr;
        auto it = map.find(v);
        return it == map.end() ? v : it->second;
    };

    for (const auto &node : src.nodes) {
        if (const auto *b = dyn_cast<Block>(node.get())) {
            auto nb = std::make_unique<Block>();
            nb->instrs.reserve(b->instrs.size());
            for (const Instr *i : b->instrs) {
                Instr *ni = module.newInstr(*i);
                for (Instr *&op : ni->operands)
                    op = mapped(op);
                map[i] = ni;
                nb->instrs.push_back(ni);
            }
            dst.nodes.push_back(std::move(nb));
        } else if (const auto *f = dyn_cast<IfNode>(node.get())) {
            auto nf = std::make_unique<IfNode>();
            nf->cond = mapped(f->cond);
            cloneRegionInto(f->thenRegion, nf->thenRegion, module, map);
            cloneRegionInto(f->elseRegion, nf->elseRegion, module, map);
            dst.nodes.push_back(std::move(nf));
        } else if (const auto *l = dyn_cast<LoopNode>(node.get())) {
            auto nl = std::make_unique<LoopNode>();
            nl->canonical = l->canonical;
            nl->counter = l->counter;
            nl->init = l->init;
            nl->limit = l->limit;
            nl->step = l->step;
            cloneRegionInto(l->condRegion, nl->condRegion, module, map);
            nl->condValue = mapped(l->condValue);
            cloneRegionInto(l->body, nl->body, module, map);
            dst.nodes.push_back(std::move(nl));
        }
    }
}

bool
simplifyRegionStructure(Region &region)
{
    bool changed = false;
    auto &nodes = region.nodes;
    for (auto &node : nodes) {
        if (auto *f = dyn_cast<IfNode>(node.get())) {
            changed |= simplifyRegionStructure(f->thenRegion);
            changed |= simplifyRegionStructure(f->elseRegion);
        } else if (auto *l = dyn_cast<LoopNode>(node.get())) {
            changed |= simplifyRegionStructure(l->condRegion);
            changed |= simplifyRegionStructure(l->body);
        }
    }
    auto is_removable = [](const NodePtr &n) {
        if (const auto *b = dyn_cast<Block>(n.get()))
            return b->instrs.empty();
        if (const auto *f = dyn_cast<IfNode>(n.get()))
            return f->thenRegion.instructionCount() == 0 &&
                   f->elseRegion.instructionCount() == 0;
        if (const auto *l = dyn_cast<LoopNode>(n.get()))
            return l->canonical && l->body.instructionCount() == 0;
        return false;
    };
    size_t before = nodes.size();
    nodes.erase(std::remove_if(nodes.begin(), nodes.end(), is_removable),
                nodes.end());
    changed |= nodes.size() != before;

    // Merge adjacent blocks so passes see maximal straight-line runs.
    for (size_t i = 0; i + 1 < nodes.size();) {
        auto *a = dyn_cast<Block>(nodes[i].get());
        auto *b = dyn_cast<Block>(nodes[i + 1].get());
        if (a && b) {
            a->instrs.insert(a->instrs.end(), b->instrs.begin(),
                             b->instrs.end());
            nodes.erase(nodes.begin() + static_cast<long>(i) + 1);
            changed = true;
        } else {
            ++i;
        }
    }
    return changed;
}

} // namespace gsopt::ir
