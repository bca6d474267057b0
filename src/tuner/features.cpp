#include "tuner/features.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string>

#include "emit/offline.h"
#include "ir/walk.h"
#include "passes/passes.h"
#include "passes/util.h"

namespace gsopt::tuner {

ShaderFeatures
computeFeatures(const std::string &preprocessed)
{
    ShaderFeatures f;
    auto module = emit::compileToIr(preprocessed);
    passes::canonicalize(*module);
    f.instrs = module->instructionCount();
    ir::forEachNode(module->body, [&](ir::Node &n) {
        if (auto *l = ir::dyn_cast<ir::LoopNode>(&n)) {
            if (l->canonical) {
                f.hasConstLoop = true;
                f.maxTripCount =
                    std::max(f.maxTripCount, l->tripCount());
                f.loopBodyInstrs = std::max(
                    f.loopBodyInstrs, l->body.instructionCount());
            }
        } else if (n.kind() == ir::NodeKind::If) {
            ++f.branches;
        }
    });
    passes::ValueTable fetches;
    ir::forEachInstr(module->body, [&](ir::Instr &i) {
        switch (i.op) {
          case ir::Opcode::Texture:
          case ir::Opcode::TextureBias:
          case ir::Opcode::TextureLod:
            ++f.textures;
            break;
          case ir::Opcode::Div:
            if (i.operands[1]->op == ir::Opcode::Const)
                f.hasConstDiv = true;
            break;
          case ir::Opcode::Pow:
            if (auto e = passes::splatConstValue(i.operands[1])) {
                if (*e == std::nearbyint(*e) && *e >= 0.0 && *e <= 4.0)
                    ++f.powConstChains;
            }
            break;
          case ir::Opcode::Mul:
            if (i.type.isInt() && i.type.isScalar()) {
                for (const ir::Instr *op : i.operands) {
                    auto c = passes::splatConstValue(op);
                    if (c && (*c == 2.0 || *c == 4.0 || *c == 8.0)) {
                        ++f.intMulPow2;
                        break;
                    }
                }
            }
            break;
          default:
            break;
        }
        // Same fetch class and identity key as tex_batch itself, so
        // the profitability signal cannot drift from the pass.
        if (passes::isFetchOp(i))
            f.dupFetches += fetches.findOrInsert(i) != nullptr;
    });
    f.loopInvariantInstrs = passes::licmHoistableCount(*module);
    return f;
}

const ShaderFeatures &
featuresOf(const Exploration &exploration)
{
    // One global mutex: computation is a single front-end run (~ms)
    // and happens at most once per exploration, so contention is not a
    // concern; what matters is that concurrent strategies on the same
    // exploration never race the cache fill.
    static std::mutex mutex;
    std::lock_guard<std::mutex> lock(mutex);
    if (!exploration.featureCache) {
        exploration.featureCache = std::make_shared<ShaderFeatures>(
            computeFeatures(exploration.preprocessedOriginal));
    }
    return *exploration.featureCache;
}

} // namespace gsopt::tuner
