#include "ir/interp.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "ir/interp_batch.h"

namespace gsopt::ir {

namespace {

/** Broadcast read: scalar splats extend to any lane; the modulo wrap is
 * hoisted off the common paths (scalar splat, in-range index). */
double
lane(LaneSpan v, size_t i)
{
    if (v.empty())
        return 0.0;
    if (v.size() == 1)
        return v[0];
    return i < v.size() ? v[i] : v[i % v.size()];
}

} // namespace

bool
evalPure(const Instr &i, const OperandLanes &args, LaneVector &out)
{
    auto cw1 = [&](double (*fn)(double)) {
        out.assign(args[0].begin(), args[0].end());
        for (double &d : out)
            d = fn(d);
    };
    auto cw2 = [&](double (*fn)(double, double)) {
        const LaneSpan a = args[0];
        const LaneSpan b = args[1];
        out.assign(std::max(a.size(), b.size()), 0.0);
        for (size_t k = 0; k < out.size(); ++k)
            out[k] = fn(lane(a, k), lane(b, k));
    };

    switch (i.op) {
      case Opcode::Const:
        out.assign(i.constData.begin(), i.constData.end());
        return true;
      case Opcode::Neg:
        cw1(+[](double a) { return -a; });
        return true;
      case Opcode::Not:
        cw1(+[](double a) { return a == 0.0 ? 1.0 : 0.0; });
        return true;
      case Opcode::Add:
        cw2(+[](double a, double b) { return a + b; });
        return true;
      case Opcode::Sub:
        cw2(+[](double a, double b) { return a - b; });
        return true;
      case Opcode::Mul:
        cw2(+[](double a, double b) { return a * b; });
        return true;
      case Opcode::Div:
        if (i.type.isInt()) {
            cw2(+[](double a, double b) {
                return b != 0.0 ? std::trunc(a / b) : 0.0;
            });
        } else {
            cw2(+[](double a, double b) { return a / b; });
        }
        return true;
      case Opcode::Mod:
        cw2(+[](double a, double b) {
            return b != 0.0 ? a - b * std::floor(a / b) : 0.0;
        });
        return true;
      case Opcode::Lt:
        out = {args[0][0] < args[1][0] ? 1.0 : 0.0};
        return true;
      case Opcode::Le:
        out = {args[0][0] <= args[1][0] ? 1.0 : 0.0};
        return true;
      case Opcode::Gt:
        out = {args[0][0] > args[1][0] ? 1.0 : 0.0};
        return true;
      case Opcode::Ge:
        out = {args[0][0] >= args[1][0] ? 1.0 : 0.0};
        return true;
      case Opcode::Eq:
      case Opcode::Ne: {
        const bool eq = std::equal(args[0].begin(), args[0].end(),
                                   args[1].begin(), args[1].end());
        out = {eq == (i.op == Opcode::Eq) ? 1.0 : 0.0};
        return true;
      }
      case Opcode::LogicalAnd:
        out = {args[0][0] != 0.0 && args[1][0] != 0.0 ? 1.0 : 0.0};
        return true;
      case Opcode::LogicalOr:
        out = {args[0][0] != 0.0 || args[1][0] != 0.0 ? 1.0 : 0.0};
        return true;
      case Opcode::Sin: cw1(+[](double a) { return std::sin(a); }); return true;
      case Opcode::Cos: cw1(+[](double a) { return std::cos(a); }); return true;
      case Opcode::Tan: cw1(+[](double a) { return std::tan(a); }); return true;
      case Opcode::Asin: cw1(+[](double a) { return std::asin(a); }); return true;
      case Opcode::Acos: cw1(+[](double a) { return std::acos(a); }); return true;
      case Opcode::Atan: cw1(+[](double a) { return std::atan(a); }); return true;
      case Opcode::Exp: cw1(+[](double a) { return std::exp(a); }); return true;
      case Opcode::Log: cw1(+[](double a) { return std::log(a); }); return true;
      case Opcode::Exp2: cw1(+[](double a) { return std::exp2(a); }); return true;
      case Opcode::Log2: cw1(+[](double a) { return std::log2(a); }); return true;
      case Opcode::Sqrt: cw1(+[](double a) { return std::sqrt(a); }); return true;
      case Opcode::InvSqrt:
        cw1(+[](double a) { return 1.0 / std::sqrt(a); });
        return true;
      case Opcode::Abs: cw1(+[](double a) { return std::fabs(a); }); return true;
      case Opcode::Sign:
        cw1(+[](double a) {
            return a > 0.0 ? 1.0 : a < 0.0 ? -1.0 : 0.0;
        });
        return true;
      case Opcode::Floor: cw1(+[](double a) { return std::floor(a); }); return true;
      case Opcode::Ceil: cw1(+[](double a) { return std::ceil(a); }); return true;
      case Opcode::Fract:
        cw1(+[](double a) { return a - std::floor(a); });
        return true;
      case Opcode::Radians:
        cw1(+[](double a) { return a * M_PI / 180.0; });
        return true;
      case Opcode::Degrees:
        cw1(+[](double a) { return a * 180.0 / M_PI; });
        return true;
      case Opcode::Atan2:
        cw2(+[](double y, double x) { return std::atan2(y, x); });
        return true;
      case Opcode::Pow:
        cw2(+[](double a, double b) { return std::pow(a, b); });
        return true;
      case Opcode::Min:
        cw2(+[](double a, double b) { return std::min(a, b); });
        return true;
      case Opcode::Max:
        cw2(+[](double a, double b) { return std::max(a, b); });
        return true;
      case Opcode::Step:
        cw2(+[](double e, double x) { return x < e ? 0.0 : 1.0; });
        return true;
      case Opcode::Normalize: {
        out.assign(args[0].begin(), args[0].end());
        double len = 0.0;
        for (double d : out)
            len += d * d;
        len = std::sqrt(len);
        if (len > 0.0) {
            for (double &d : out)
                d /= len;
        }
        return true;
      }
      case Opcode::Length: {
        double len = 0.0;
        for (double d : args[0])
            len += d * d;
        out = {std::sqrt(len)};
        return true;
      }
      case Opcode::Distance: {
        double len = 0.0;
        for (size_t k = 0; k < args[0].size(); ++k) {
            double d = args[0][k] - lane(args[1], k);
            len += d * d;
        }
        out = {std::sqrt(len)};
        return true;
      }
      case Opcode::Dot: {
        double sum = 0.0;
        for (size_t k = 0; k < args[0].size(); ++k)
            sum += args[0][k] * lane(args[1], k);
        out = {sum};
        return true;
      }
      case Opcode::Cross: {
        const LaneSpan a = args[0];
        const LaneSpan b = args[1];
        out = {a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
               a[0] * b[1] - a[1] * b[0]};
        return true;
      }
      case Opcode::Reflect: {
        const LaneSpan v = args[0];
        const LaneSpan n = args[1];
        double d = 0.0;
        for (size_t k = 0; k < v.size(); ++k)
            d += v[k] * lane(n, k);
        out.assign(v.size(), 0.0);
        for (size_t k = 0; k < v.size(); ++k)
            out[k] = v[k] - 2.0 * d * lane(n, k);
        return true;
      }
      case Opcode::Refract: {
        const LaneSpan v = args[0];
        const LaneSpan n = args[1];
        double eta = args[2][0];
        double d = 0.0;
        for (size_t k = 0; k < v.size(); ++k)
            d += v[k] * lane(n, k);
        double k_val = 1.0 - eta * eta * (1.0 - d * d);
        out.assign(v.size(), 0.0);
        if (k_val >= 0.0) {
            double coeff = eta * d + std::sqrt(k_val);
            for (size_t k = 0; k < v.size(); ++k)
                out[k] = eta * v[k] - coeff * lane(n, k);
        }
        return true;
      }
      case Opcode::Clamp: {
        out.assign(args[0].begin(), args[0].end());
        for (size_t k = 0; k < out.size(); ++k)
            out[k] = std::min(std::max(out[k], lane(args[1], k)),
                              lane(args[2], k));
        return true;
      }
      case Opcode::Mix: {
        out.assign(args[0].begin(), args[0].end());
        for (size_t k = 0; k < out.size(); ++k) {
            double t = lane(args[2], k);
            out[k] = out[k] * (1.0 - t) + lane(args[1], k) * t;
        }
        return true;
      }
      case Opcode::Smoothstep: {
        out.assign(args[2].begin(), args[2].end());
        for (size_t k = 0; k < out.size(); ++k) {
            double e0 = lane(args[0], k), e1 = lane(args[1], k);
            double t = e1 != e0 ? (out[k] - e0) / (e1 - e0) : 0.0;
            t = std::min(std::max(t, 0.0), 1.0);
            out[k] = t * t * (3.0 - 2.0 * t);
        }
        return true;
      }
      case Opcode::Select: {
        const LaneSpan chosen = args[0][0] != 0.0 ? args[1] : args[2];
        out.assign(chosen.begin(), chosen.end());
        return true;
      }
      case Opcode::Construct: {
        out.clear();
        for (const LaneSpan v : args)
            out.insert(out.end(), v.begin(), v.end());
        const size_t want = static_cast<size_t>(i.type.componentCount());
        if (out.size() == 1 && want > 1)
            out.assign(want, out[0]);
        out.resize(want, 0.0);
        // Construct doubles as the conversion op: int(x) truncates
        // toward zero (GLSL 4.4.0 §4.1.10).
        if (i.type.isInt()) {
            for (double &d : out)
                d = std::trunc(d);
        }
        return true;
      }
      case Opcode::Extract:
        out = {args[0][static_cast<size_t>(i.indices[0])]};
        return true;
      case Opcode::Insert:
        out.assign(args[0].begin(), args[0].end());
        out[static_cast<size_t>(i.indices[0])] = args[1][0];
        return true;
      case Opcode::Swizzle:
        out.clear();
        for (int idx : i.indices)
            out.push_back(args[0][static_cast<size_t>(idx)]);
        return true;
      case Opcode::Texture:
      case Opcode::TextureBias:
      case Opcode::TextureLod:
      case Opcode::LoadVar:
      case Opcode::StoreVar:
      case Opcode::LoadElem:
      case Opcode::StoreElem:
      case Opcode::Discard:
        return false;
    }
    return false;
}

namespace {

// ===================================================================
// Map-based reference interpreter: the independent golden baseline for
// the batched engine, and its scalar fallback for hand-assembled
// modules with non-dense ids and BatchFallback shapes. Pure opcodes go
// through evalPure; this class owns memory, textures and discard.
// ===================================================================

class MapInterpreter
{
  public:
    MapInterpreter(const Module &module, const InterpEnv &env)
        : module_(module), env_(env)
    {
        for (const auto &v : module_.vars)
            initVar(*v);
    }

    InterpResult run()
    {
        execRegion(module_.body);
        meter_.flush(); // enforce sub-4096 budgets before returning
        InterpResult result;
        result.discarded = discarded_;
        result.executedInstructions = executed_;
        for (const auto &v : module_.vars) {
            if (v->kind == VarKind::Output)
                result.outputs[v->name] = memory_[v];
        }
        return result;
    }

  private:
    void initVar(const Var &v)
    {
        const int comp = v.type.isArray()
                             ? v.type.arraySize *
                                   v.type.elementType().componentCount()
                             : v.type.componentCount();
        LaneVector init(static_cast<size_t>(comp), 0.0);
        switch (v.kind) {
          case VarKind::Input: {
            auto it = env_.inputs.find(v.name);
            if (it != env_.inputs.end()) {
                for (size_t i = 0; i < init.size(); ++i)
                    init[i] = lane(it->second, i);
            } else {
                init.assign(init.size(), 0.5);
            }
            break;
          }
          case VarKind::Uniform: {
            auto it = env_.uniforms.find(v.name);
            if (it != env_.uniforms.end()) {
                for (size_t i = 0; i < init.size(); ++i)
                    init[i] = lane(it->second, i);
            } else {
                init.assign(init.size(), 0.5);
            }
            break;
          }
          case VarKind::ConstArray:
            init = v.constInit;
            break;
          default:
            break;
        }
        memory_[&v] = std::move(init);
    }

    const LaneVector &value(const Instr *i)
    {
        auto it = values_.find(i);
        if (it == values_.end())
            throw std::runtime_error("interp: use of unevaluated value");
        return it->second;
    }

    void execRegion(const Region &region)
    {
        if (discarded_)
            return;
        for (const auto &node : region.nodes) {
            if (discarded_)
                return;
            if (const auto *b = dyn_cast<Block>(node.get())) {
                for (const auto &i : b->instrs) {
                    execInstr(*i);
                    if (discarded_)
                        return;
                }
            } else if (const auto *f = dyn_cast<IfNode>(node.get())) {
                bool cond = value(f->cond)[0] != 0.0;
                execRegion(cond ? f->thenRegion : f->elseRegion);
            } else if (const auto *l = dyn_cast<LoopNode>(node.get())) {
                execLoop(*l);
            }
        }
    }

    void execLoop(const LoopNode &l)
    {
        if (l.canonical) {
            LaneVector &counter = memory_[l.counter];
            counter.assign(1, 0.0);
            for (long v = l.init; v < l.limit; v += l.step) {
                counter[0] = static_cast<double>(v);
                execRegion(l.body);
                if (discarded_)
                    return;
            }
            return;
        }
        detail::LoopGuard guard(env_.maxLoopIterations);
        for (;;) {
            execRegion(l.condRegion);
            if (discarded_)
                return;
            if (value(l.condValue)[0] == 0.0)
                break;
            execRegion(l.body);
            if (discarded_)
                return;
            guard.tick();
        }
    }

    void execInstr(const Instr &i)
    {
        ++executed_;
        meter_.tick();
        OperandLanes args;
        for (const Instr *op : i.operands)
            args.push_back(value(op));
        LaneVector out;
        if (evalPure(i, args, out)) {
            values_[&i] = std::move(out);
            return;
        }

        switch (i.op) {
          case Opcode::Texture:
          case Opcode::TextureBias:
          case Opcode::TextureLod: {
            const LaneSpan coord = args[0];
            double lod = args.size() > 1 ? args[1][0] : 0.0;
            TextureFn fn = defaultTexture;
            auto it = env_.textures.find(i.var->name);
            if (it != env_.textures.end())
                fn = it->second;
            auto rgba = fn(coord[0], lane(coord, 1), lod);
            values_[&i] = {rgba[0], rgba[1], rgba[2], rgba[3]};
            break;
          }
          case Opcode::LoadVar:
            values_[&i] = memory_[i.var];
            break;
          case Opcode::StoreVar:
            memory_[i.var].assign(args[0].begin(), args[0].end());
            break;
          case Opcode::LoadElem: {
            const LaneVector &mem = memory_[i.var];
            const int comp = i.type.componentCount();
            long idx = static_cast<long>(args[0][0]);
            LaneVector elem(static_cast<size_t>(comp), 0.0);
            size_t off = static_cast<size_t>(idx) *
                         static_cast<size_t>(comp);
            for (int k = 0; k < comp; ++k) {
                size_t p = off + static_cast<size_t>(k);
                if (p < mem.size())
                    elem[static_cast<size_t>(k)] = mem[p];
            }
            values_[&i] = std::move(elem);
            break;
          }
          case Opcode::StoreElem: {
            LaneVector &mem = memory_[i.var];
            const LaneSpan val = args[1];
            long idx = static_cast<long>(args[0][0]);
            size_t off = static_cast<size_t>(idx) * val.size();
            for (size_t k = 0; k < val.size(); ++k) {
                size_t p = off + k;
                if (p < mem.size())
                    mem[p] = val[k];
            }
            break;
          }
          case Opcode::Discard:
            discarded_ = true;
            break;
          default:
            break;
        }
    }

    const Module &module_;
    const InterpEnv &env_;
    std::unordered_map<const Instr *, LaneVector> values_;
    std::unordered_map<const Var *, LaneVector> memory_;
    bool discarded_ = false;
    size_t executed_ = 0;
    governor::StepMeter meter_{governor::Dim::InterpSteps, "interp"};
};

/**
 * Dense indexing is only valid when every Instr::id came from
 * Module::nextId() (ids unique, below idBound()) and every referenced
 * Var sits at vars[Var::id]. Lowered/cloned/pass-transformed modules
 * always satisfy this; hand-assembled test IR may not and falls back to
 * the map engine.
 */
bool
varAtItsSlot(const Module &module, const Var *v)
{
    return v && static_cast<size_t>(v->id) < module.vars.size() &&
           module.vars[static_cast<size_t>(v->id)] == v;
}

bool
denseIdsWalk(const Module &module, const Region &r,
             std::vector<bool> &seen)
{
    const int bound = module.idBound();
    for (const auto &node : r.nodes) {
        if (const auto *b = dyn_cast<Block>(node.get())) {
            for (const auto &i : b->instrs) {
                if (i->id < 0 || i->id >= bound ||
                    seen[static_cast<size_t>(i->id)])
                    return false;
                seen[static_cast<size_t>(i->id)] = true;
                if (i->var && !varAtItsSlot(module, i->var))
                    return false;
            }
        } else if (const auto *f = dyn_cast<IfNode>(node.get())) {
            if (!denseIdsWalk(module, f->thenRegion, seen) ||
                !denseIdsWalk(module, f->elseRegion, seen))
                return false;
        } else if (const auto *l = dyn_cast<LoopNode>(node.get())) {
            if (l->counter && !varAtItsSlot(module, l->counter))
                return false;
            if (!denseIdsWalk(module, l->condRegion, seen) ||
                !denseIdsWalk(module, l->body, seen))
                return false;
        }
    }
    return true;
}

} // namespace

namespace detail {

bool
denseIdsUsable(const Module &module)
{
    for (size_t i = 0; i < module.vars.size(); ++i) {
        if (module.vars[i]->id != static_cast<int>(i))
            return false;
    }
    std::vector<bool> seen(static_cast<size_t>(module.idBound()),
                           false);
    return denseIdsWalk(module, module.body, seen);
}

} // namespace detail

std::array<double, 4>
defaultTexture(double u, double v, double lod)
{
    // Smooth, colourful, deterministic pattern; lod softens amplitude.
    const double soften = 1.0 / (1.0 + 0.25 * std::max(0.0, lod));
    auto wave = [soften](double x) {
        return 0.5 + 0.5 * soften * std::sin(x);
    };
    return {wave(6.2831 * u + 1.0), wave(9.424 * v + 2.0),
            wave(6.2831 * (u + v)), 1.0};
}

InterpResult
interpret(const Module &module, const InterpEnv &env)
{
    return interpretBatch(module, BatchEnv::broadcast(env, 1)).laneResult(0);
}

InterpResult
interpretReference(const Module &module, const InterpEnv &env)
{
    return MapInterpreter(module, env).run();
}

} // namespace gsopt::ir
