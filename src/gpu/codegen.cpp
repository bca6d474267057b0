#include "gpu/codegen.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "ir/walk.h"

namespace gsopt::gpu {

using ir::Block;
using ir::dyn_cast;
using ir::IfNode;
using ir::Instr;
using ir::LoopNode;
using ir::Module;
using ir::Opcode;
using ir::Region;
using ir::Var;
using ir::VarKind;

namespace {

/** Assumed iterations for loops whose trip count is unknown. */
constexpr double kGenericLoopTrips = 8.0;

/** Lane count of an instruction's result (1 for void ops). */
int
lanesOf(const Instr &i)
{
    if (ir::isVoidOp(i.op))
        return 1;
    return std::max(1, i.type.componentCount());
}

/** Cost category of one instruction on a scalar SIMT machine. */
void
scalarCost(const Instr &i, const DeviceModel &d, CostSummary &out)
{
    const int lanes = lanesOf(i);
    switch (i.op) {
      case Opcode::Const:
        return; // immediates
      case Opcode::Neg:
      case Opcode::Not:
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Abs:
      case Opcode::Sign:
      case Opcode::Floor:
      case Opcode::Ceil:
      case Opcode::Fract:
      case Opcode::Min:
      case Opcode::Max:
      case Opcode::Step:
      case Opcode::Radians:
      case Opcode::Degrees:
        out.aluCycles += lanes * d.costAddMul;
        out.instructionCount += static_cast<size_t>(lanes);
        return;
      case Opcode::Lt:
      case Opcode::Le:
      case Opcode::Gt:
      case Opcode::Ge:
      case Opcode::Eq:
      case Opcode::Ne:
      case Opcode::LogicalAnd:
      case Opcode::LogicalOr:
      case Opcode::Select:
        out.aluCycles += lanes * d.costAddMul;
        out.instructionCount += static_cast<size_t>(lanes);
        return;
      case Opcode::Clamp:
        out.aluCycles += 2.0 * lanes * d.costAddMul;
        out.instructionCount += static_cast<size_t>(2 * lanes);
        return;
      case Opcode::Mix:
        out.aluCycles += 2.0 * lanes * d.costAddMul; // sub + mad
        out.instructionCount += static_cast<size_t>(2 * lanes);
        return;
      case Opcode::Smoothstep:
        out.aluCycles += 5.0 * lanes * d.costAddMul;
        out.instructionCount += static_cast<size_t>(5 * lanes);
        return;
      case Opcode::Div:
      case Opcode::Mod:
        out.aluCycles += lanes * d.costDiv;
        out.instructionCount += static_cast<size_t>(lanes);
        return;
      case Opcode::Sqrt:
      case Opcode::InvSqrt:
        out.aluCycles += lanes * d.costSqrt;
        out.instructionCount += static_cast<size_t>(lanes);
        return;
      case Opcode::Sin:
      case Opcode::Cos:
      case Opcode::Tan:
      case Opcode::Asin:
      case Opcode::Acos:
      case Opcode::Atan:
      case Opcode::Atan2:
      case Opcode::Exp:
      case Opcode::Log:
      case Opcode::Exp2:
      case Opcode::Log2:
      case Opcode::Pow:
        out.aluCycles += lanes * d.costTranscendental;
        out.instructionCount += static_cast<size_t>(lanes);
        return;
      case Opcode::Dot: {
        const int n = std::max(1, i.operands[0]->type.rows);
        out.aluCycles += (2.0 * n - 1.0) * d.costAddMul;
        out.instructionCount += static_cast<size_t>(n);
        return;
      }
      case Opcode::Distance: {
        const int n = std::max(1, i.operands[0]->type.rows);
        out.aluCycles += (3.0 * n - 1.0) * d.costAddMul + d.costSqrt;
        out.instructionCount += static_cast<size_t>(n + 1);
        return;
      }
      case Opcode::Length: {
        const int n = std::max(1, i.operands[0]->type.rows);
        out.aluCycles += (2.0 * n - 1.0) * d.costAddMul + d.costSqrt;
        out.instructionCount += static_cast<size_t>(n + 1);
        return;
      }
      case Opcode::Normalize: {
        const int n = std::max(1, i.operands[0]->type.rows);
        out.aluCycles +=
            (2.0 * n - 1.0 + n) * d.costAddMul + d.costSqrt;
        out.instructionCount += static_cast<size_t>(2 * n);
        return;
      }
      case Opcode::Cross:
        out.aluCycles += 9.0 * d.costAddMul;
        out.instructionCount += 9;
        return;
      case Opcode::Reflect: {
        const int n = std::max(1, i.type.rows);
        out.aluCycles += (4.0 * n) * d.costAddMul;
        out.instructionCount += static_cast<size_t>(4 * n);
        return;
      }
      case Opcode::Refract: {
        const int n = std::max(1, i.type.rows);
        out.aluCycles += (6.0 * n) * d.costAddMul + d.costSqrt;
        out.instructionCount += static_cast<size_t>(6 * n);
        return;
      }
      case Opcode::Construct:
      case Opcode::Extract:
      case Opcode::Insert:
      case Opcode::Swizzle:
        out.movCycles += lanes * d.costMov;
        out.instructionCount += 1;
        return;
      case Opcode::Texture:
      case Opcode::TextureBias:
      case Opcode::TextureLod:
        out.texIssueCycles += d.texIssueCost;
        out.textureCount += 1;
        out.instructionCount += 1;
        return;
      case Opcode::LoadVar:
        if (i.var->kind == VarKind::Input) {
            out.loadStoreCycles += 0.5; // interpolated varying read
            out.instructionCount += 1;
        } else if (i.var->kind == VarKind::Uniform) {
            out.loadStoreCycles += 0.25; // constant-buffer read
        }
        return; // locals live in registers
      case Opcode::StoreVar:
        if (i.var->kind == VarKind::Output) {
            out.loadStoreCycles += 0.5;
            out.instructionCount += 1;
        }
        return;
      case Opcode::LoadElem:
      case Opcode::StoreElem:
        // Indexed access: constant-buffer or scratch traffic.
        out.loadStoreCycles += 1.2;
        out.instructionCount += 1;
        return;
      case Opcode::Discard:
        out.aluCycles += 1.0;
        out.instructionCount += 1;
        return;
    }
}

/**
 * Vec4 machine: block-level costing with SLP-style packing. Ops
 * covering <=4 float lanes take one slot; runs of consecutive
 * *independent, same-opcode* scalar ops pack up to 4 per slot at
 * slpEfficiency. Swizzles are free.
 */
void
vec4BlockCost(const Block &b, const DeviceModel &d, CostSummary &out)
{
    Opcode run_op = Opcode::Const;
    int run_len = 0;
    std::unordered_set<const Instr *> run_members;

    auto flush_run = [&]() {
        if (run_len == 0)
            return;
        // Packed cost: ideal would be ceil(len/4); achieved depends on
        // the packer efficiency (regular code packs, scrambled doesn't).
        const double ideal = std::ceil(run_len / 4.0);
        const double unpacked = run_len;
        out.aluCycles +=
            d.slpEfficiency * ideal + (1.0 - d.slpEfficiency) * unpacked;
        run_len = 0;
        run_members.clear();
    };

    auto costable_scalar = [](const Instr &i) {
        if (!i.type.isScalar() || !i.type.isFloat())
            return false;
        switch (i.op) {
          case Opcode::Add:
          case Opcode::Sub:
          case Opcode::Mul:
          case Opcode::Neg:
          case Opcode::Min:
          case Opcode::Max:
          case Opcode::Abs:
          case Opcode::Floor:
          case Opcode::Fract:
            return true;
          default:
            return false;
        }
    };

    for (const auto &ip : b.instrs) {
        const Instr &i = *ip;
        if (costable_scalar(i)) {
            bool depends = false;
            for (const Instr *op : i.operands)
                depends |= run_members.count(op) > 0;
            if (run_len > 0 && (i.op != run_op || depends))
                flush_run();
            run_op = i.op;
            ++run_len;
            run_members.insert(&i);
            out.instructionCount += 1;
            continue;
        }
        flush_run();

        const int lanes = lanesOf(i);
        const double bundles = std::ceil(lanes / 4.0);
        switch (i.op) {
          case Opcode::Const:
            break;
          case Opcode::Neg:
          case Opcode::Not:
          case Opcode::Add:
          case Opcode::Sub:
          case Opcode::Mul:
          case Opcode::Abs:
          case Opcode::Sign:
          case Opcode::Floor:
          case Opcode::Ceil:
          case Opcode::Fract:
          case Opcode::Min:
          case Opcode::Max:
          case Opcode::Step:
          case Opcode::Radians:
          case Opcode::Degrees:
          case Opcode::Lt:
          case Opcode::Le:
          case Opcode::Gt:
          case Opcode::Ge:
          case Opcode::Eq:
          case Opcode::Ne:
          case Opcode::LogicalAnd:
          case Opcode::LogicalOr:
          case Opcode::Select:
            out.aluCycles += bundles * d.costAddMul;
            out.instructionCount += 1;
            break;
          case Opcode::Clamp:
          case Opcode::Mix:
            out.aluCycles += 2.0 * bundles * d.costAddMul;
            out.instructionCount += 2;
            break;
          case Opcode::Smoothstep:
            out.aluCycles += 4.0 * bundles * d.costAddMul;
            out.instructionCount += 4;
            break;
          case Opcode::Div:
          case Opcode::Mod:
            out.aluCycles += bundles * d.costDiv;
            out.instructionCount += 1;
            break;
          case Opcode::Sqrt:
          case Opcode::InvSqrt:
            out.aluCycles += bundles * d.costSqrt;
            out.instructionCount += 1;
            break;
          case Opcode::Sin:
          case Opcode::Cos:
          case Opcode::Tan:
          case Opcode::Asin:
          case Opcode::Acos:
          case Opcode::Atan:
          case Opcode::Atan2:
          case Opcode::Exp:
          case Opcode::Log:
          case Opcode::Exp2:
          case Opcode::Log2:
          case Opcode::Pow:
            // Transcendentals are per-lane on the special-function pipe.
            out.aluCycles += lanes * d.costTranscendental / 2.0;
            out.instructionCount += 1;
            break;
          case Opcode::Dot:
          case Opcode::Length:
          case Opcode::Normalize:
            out.aluCycles +=
                (i.op == Opcode::Dot ? 1.0
                 : i.op == Opcode::Length
                     ? 1.0 + d.costSqrt / 2.0
                     : 2.0 + d.costSqrt / 2.0) *
                d.costAddMul;
            out.instructionCount += 1;
            break;
          case Opcode::Distance:
            out.aluCycles += 2.0 + d.costSqrt / 2.0;
            out.instructionCount += 2;
            break;
          case Opcode::Cross:
            out.aluCycles += 3.0;
            out.instructionCount += 3;
            break;
          case Opcode::Reflect:
          case Opcode::Refract:
            out.aluCycles += 4.0;
            out.instructionCount += 4;
            break;
          case Opcode::Construct:
            // Gathering scalars into a vector costs a mov bundle; pure
            // splats are cheap.
            out.movCycles +=
                i.operands.size() == 1 ? 0.25 : 0.5 * bundles;
            out.instructionCount += 1;
            break;
          case Opcode::Extract:
          case Opcode::Swizzle:
            out.movCycles += lanes * d.costMov; // free when costMov==0
            break;
          case Opcode::Insert:
            out.movCycles += 0.25;
            out.instructionCount += 1;
            break;
          case Opcode::Texture:
          case Opcode::TextureBias:
          case Opcode::TextureLod:
            out.texIssueCycles += d.texIssueCost;
            out.textureCount += 1;
            out.instructionCount += 1;
            break;
          case Opcode::LoadVar:
            if (i.var->kind == VarKind::Input) {
                out.loadStoreCycles += 0.5;
                out.instructionCount += 1;
            } else if (i.var->kind == VarKind::Uniform) {
                out.loadStoreCycles += 0.25;
            }
            break;
          case Opcode::StoreVar:
            if (i.var->kind == VarKind::Output) {
                out.loadStoreCycles += 0.5;
                out.instructionCount += 1;
            }
            break;
          case Opcode::LoadElem:
          case Opcode::StoreElem:
            out.loadStoreCycles += 1.2;
            out.instructionCount += 1;
            break;
          case Opcode::Discard:
            out.aluCycles += 1.0;
            out.instructionCount += 1;
            break;
        }
    }
    flush_run();
}

/** Longest-path cost accumulation over a region. */
void
costRegion(const Region &region, const DeviceModel &d, CostSummary &out)
{
    for (const auto &node : region.nodes) {
        if (const auto *b = dyn_cast<Block>(node.get())) {
            if (d.isa == IsaKind::Vec4) {
                vec4BlockCost(*b, d, out);
            } else {
                for (const auto &i : b->instrs)
                    scalarCost(*i, d, out);
            }
        } else if (const auto *f = dyn_cast<IfNode>(node.get())) {
            CostSummary then_c, else_c;
            costRegion(f->thenRegion, d, then_c);
            costRegion(f->elseRegion, d, else_c);
            const CostSummary &longer =
                then_c.issueCycles() >= else_c.issueCycles() ? then_c
                                                             : else_c;
            const CostSummary &shorter =
                then_c.issueCycles() >= else_c.issueCycles() ? else_c
                                                             : then_c;
            out.aluCycles += longer.aluCycles +
                             d.divergencePenalty * shorter.aluCycles;
            out.movCycles += longer.movCycles +
                             d.divergencePenalty * shorter.movCycles;
            out.loadStoreCycles +=
                longer.loadStoreCycles +
                d.divergencePenalty * shorter.loadStoreCycles;
            out.texIssueCycles +=
                longer.texIssueCycles +
                d.divergencePenalty * shorter.texIssueCycles;
            out.textureCount += longer.textureCount;
            out.branchCycles += longer.branchCycles + d.costBranch;
            out.instructionCount +=
                longer.instructionCount + shorter.instructionCount + 1;
        } else if (const auto *l = dyn_cast<LoopNode>(node.get())) {
            CostSummary body_c, cond_c;
            costRegion(l->body, d, body_c);
            costRegion(l->condRegion, d, cond_c);
            const double trips = l->canonical
                                     ? static_cast<double>(l->tripCount())
                                     : kGenericLoopTrips;
            auto scale = [&](const CostSummary &c, double k) {
                out.aluCycles += c.aluCycles * k;
                out.movCycles += c.movCycles * k;
                out.loadStoreCycles += c.loadStoreCycles * k;
                out.texIssueCycles += c.texIssueCycles * k;
                out.branchCycles += c.branchCycles * k;
                out.textureCount += static_cast<int>(
                    std::lround(c.textureCount * k));
            };
            scale(body_c, trips);
            scale(cond_c, l->canonical ? trips : trips + 1.0);
            // Loop overhead: compare + branch per iteration.
            out.branchCycles += (d.costBranch + 0.5) * trips;
            out.instructionCount += body_c.instructionCount +
                                    cond_c.instructionCount + 2;
        }
    }
}

// ------------------------------------------------------------------
// Backwards liveness for register pressure.
// ------------------------------------------------------------------
struct LivenessCtx
{
    const DeviceModel &device;
    double maxLive = 0;

    double weightOf(const ir::Type &t) const
    {
        const int lanes = std::max(1, t.componentCount());
        if (device.isa == IsaKind::Vec4) {
            // vec4 registers. Scalars pack imperfectly: the Midgard
            // allocator gets roughly two scalars per register in
            // practice, not four.
            if (lanes == 1)
                return 0.5;
            return std::ceil(lanes / 4.0);
        }
        return lanes;
    }
};

/** The live values' register weights and their running total. Every
 * weight is a multiple of 0.5, so the total is exact. */
struct LiveSet
{
    std::unordered_map<const void *, double> weights;
    double total = 0;

    void set(const void *key, double weight)
    {
        double &slot = weights[key];
        total += weight - slot;
        slot = weight;
    }

    void erase(const void *key)
    {
        auto it = weights.find(key);
        if (it != weights.end()) {
            total -= it->second;
            weights.erase(it);
        }
    }
};

void
scanRegionLive(const Region &region, LivenessCtx &ctx, LiveSet &live);

void
scanBlockLive(const Block &b, LivenessCtx &ctx, LiveSet &live)
{
    for (auto it = b.instrs.rbegin(); it != b.instrs.rend(); ++it) {
        const Instr &i = **it;
        // The definition dies above this point.
        live.erase(&i);
        // Whole-var stores kill the var's range (walking backwards).
        if (i.op == Opcode::StoreVar &&
            i.var->kind == VarKind::Local)
            live.erase(i.var);
        // Operands become live.
        for (const Instr *op : i.operands) {
            if (op->op != Opcode::Const)
                live.set(op, ctx.weightOf(op->type));
        }
        // Loads keep local vars alive.
        if (i.op == Opcode::LoadVar && i.var->kind == VarKind::Local)
            live.set(i.var, ctx.weightOf(i.var->type));
        if ((i.op == Opcode::LoadElem || i.op == Opcode::StoreElem) &&
            i.var->kind == VarKind::Local) {
            live.set(i.var, ctx.weightOf(i.var->type.elementType()) *
                                std::max(1, i.var->type.arraySize));
        }
        ctx.maxLive = std::max(ctx.maxLive, live.total);
    }
}

void
scanRegionLive(const Region &region, LivenessCtx &ctx, LiveSet &live)
{
    for (auto it = region.nodes.rbegin(); it != region.nodes.rend();
         ++it) {
        const ir::Node *node = it->get();
        if (const auto *b = dyn_cast<Block>(node)) {
            scanBlockLive(*b, ctx, live);
        } else if (const auto *f = dyn_cast<IfNode>(node)) {
            LiveSet then_live = live;
            LiveSet else_live = live;
            scanRegionLive(f->thenRegion, ctx, then_live);
            scanRegionLive(f->elseRegion, ctx, else_live);
            // Arms are alternatives: union of live-ins.
            live = std::move(then_live);
            for (const auto &[k, w] : else_live.weights)
                live.set(k, w);
            if (f->cond && f->cond->op != Opcode::Const)
                live.set(f->cond, ctx.weightOf(f->cond->type));
        } else if (const auto *l = dyn_cast<LoopNode>(node)) {
            // Everything live after the loop stays live through it;
            // body-internal values add on top.
            LiveSet body_live = live;
            scanRegionLive(l->body, ctx, body_live);
            scanRegionLive(l->condRegion, ctx, body_live);
            live = std::move(body_live);
            if (l->counter)
                live.set(l->counter, 1.0);
        }
    }
}

} // namespace

CostSummary
analyzeModule(const Module &module, const DeviceModel &device)
{
    CostSummary out;
    costRegion(module.body, device, out);

    LivenessCtx ctx{device};
    LiveSet live;
    scanRegionLive(module.body, ctx, live);
    out.maxLiveRegs = ctx.maxLive;
    return out;
}

MaliStaticCycles
maliStaticAnalysis(const Module &module)
{
    CostSummary c = analyzeModule(module, deviceModel(DeviceId::Arm));
    MaliStaticCycles out;
    out.arithmetic = c.aluCycles + c.movCycles + c.branchCycles;
    out.loadStore = c.loadStoreCycles;
    out.texture = c.texIssueCycles;
    return out;
}

} // namespace gsopt::gpu
