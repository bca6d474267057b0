#include "ir/interp_batch.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "support/simd.h"

namespace gsopt::ir {

namespace {

/** Per-lane execution mask; lane l is bit (1u << l). */
using Mask = uint32_t;

/** Components per register strip: the type system tops out at vec4, so
 * every SSA value fits in kMaxInstrWidth components. Variable memory
 * (arrays) has its own, exactly-sized layout. */
constexpr size_t kStride = kMaxInstrWidth;

static_assert(kMaxBatchWidth <= 32, "Mask is uint32_t");

/**
 * Raised for the rare module shapes the SoA layout cannot represent
 * (per-lane divergent variable resizes, whole-array LoadVar). The
 * runner catches it and re-executes the batch lane-by-lane on the
 * map reference engine, so callers never see it.
 */
struct BatchFallback : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Scalar broadcast-read rule (mirrors interp.cpp's lane()): component
 * c of a value that has n components. */
inline size_t
wrapComp(size_t n, size_t c)
{
    return c < n ? c : c % n;
}

template <size_t W>
class Engine
{
  public:
    explicit Engine(const Module &module) : module_(module)
    {
        const size_t slots = static_cast<size_t>(module.idBound());
        regs_.reset(new double[slots * kStride * W]);
        regSize_.assign(slots, 0);
        regEpoch_.assign(slots, 0);

        const size_t nvars = module.vars.size();
        memOffset_.resize(nvars);
        memCapacity_.resize(nvars);
        memSize_.assign(nvars, 0);
        textures_.assign(nvars, nullptr);
        size_t total = 0;
        for (size_t v = 0; v < nvars; ++v) {
            const Var &var = *module.vars[v];
            const glsl::Type &t = var.type;
            size_t comp = static_cast<size_t>(
                t.isArray() ? t.arraySize *
                                  t.elementType().componentCount()
                            : t.componentCount());
            // Scalar initVar replaces ConstArray memory with the init
            // data wholesale; size capacity for whichever is larger.
            comp = std::max(comp, var.constInit.size());
            memOffset_[v] = total;
            memCapacity_[v] = comp;
            total += comp;
        }
        mem_.reset(new double[total * W]);
        simd::broadcast<W>(zero_, 0.0);
    }

    BatchResult run(const BatchEnv &env)
    {
        if (env.width == 0 || env.width > W)
            throw std::invalid_argument(
                "interpretBatch: env.width out of range");
        if (++epoch_ == 0) {
            std::fill(regEpoch_.begin(), regEpoch_.end(), 0u);
            epoch_ = 1;
        }
        env_ = &env;
        width_ = env.width;
        initialMask_ = width_ >= 32
                           ? ~Mask{0}
                           : static_cast<Mask>((Mask{1} << width_) - 1);
        discarded_ = 0;
        for (size_t l = 0; l < W; ++l)
            laneExec_[l] = 0;
        for (const Var *v : module_.vars)
            initVar(*v);

        // The meter lives per run(), not per engine: engines are
        // cached across calls, so a member would capture whatever
        // budget happened to govern construction.
        governor::StepMeter meter(governor::Dim::InterpSteps, "interp");
        meter_ = &meter;
        execRegion(module_.body, initialMask_);
        meter.flush(); // enforce sub-4096 budgets before returning
        meter_ = nullptr;

        BatchResult result;
        result.width = width_;
        result.discarded.resize(width_);
        result.laneExecuted.resize(width_);
        for (size_t l = 0; l < width_; ++l) {
            result.discarded[l] =
                static_cast<uint8_t>((discarded_ >> l) & 1u);
            result.laneExecuted[l] = laneExec_[l];
            result.executedInstructions += laneExec_[l];
        }
        for (const Var *v : module_.vars) {
            if (v->kind != VarKind::Output)
                continue;
            const size_t vid = static_cast<size_t>(v->id);
            const size_t n = memSize_[vid];
            const double *m = mem_.get() + memOffset_[vid] * W;
            std::vector<double> soa(n * width_);
            for (size_t c = 0; c < n; ++c) {
                for (size_t l = 0; l < width_; ++l)
                    soa[c * width_ + l] = m[c * W + l];
            }
            result.outputs.emplace(v->name, std::move(soa));
        }
        return result;
    }

  private:
    // -- register file ---------------------------------------------------

    const double *val(const Instr *op, size_t &n)
    {
        const size_t slot = static_cast<size_t>(op->id);
        if (regEpoch_[slot] != epoch_)
            throw std::runtime_error(
                "interp: use of unevaluated value");
        n = regSize_[slot];
        return regs_.get() + slot * kStride * W;
    }

    double *define(const Instr &i, size_t n)
    {
        const size_t slot = static_cast<size_t>(i.id);
        regEpoch_[slot] = epoch_;
        regSize_[slot] = static_cast<uint8_t>(n);
        return regs_.get() + slot * kStride * W;
    }

    /** Strip of component c of a value (ptr, n), with the reference
     * engine's broadcast/wrap rule; empty values read as zero. */
    const double *comp(const double *p, size_t n, size_t c) const
    {
        if (n == 0)
            return zero_;
        return p + wrapComp(n, c) * W;
    }

    // -- variable memory -------------------------------------------------

    double *varMem(size_t vid)
    {
        return mem_.get() + memOffset_[vid] * W;
    }

    void initVar(const Var &v)
    {
        const size_t vid = static_cast<size_t>(v.id);
        const glsl::Type &t = v.type;
        const size_t comp = static_cast<size_t>(
            t.isArray()
                ? t.arraySize * t.elementType().componentCount()
                : t.componentCount());
        double *m = varMem(vid);
        memSize_[vid] = comp;
        switch (v.kind) {
          case VarKind::Input: {
            auto it = env_->inputs.find(v.name);
            if (it != env_->inputs.end()) {
                const BatchEnv::LaneInput &in = it->second;
                for (size_t c = 0; c < comp; ++c) {
                    double *d = m + c * W;
                    if (in.comps == 0) {
                        simd::broadcast<W>(d, 0.0);
                        continue;
                    }
                    const double *s =
                        in.soa.data() +
                        wrapComp(in.comps, c) * env_->width;
                    for (size_t l = 0; l < width_; ++l)
                        d[l] = s[l];
                }
            } else {
                for (size_t c = 0; c < comp; ++c)
                    simd::broadcast<W>(m + c * W, 0.5);
            }
            break;
          }
          case VarKind::Uniform: {
            auto it = env_->uniforms.find(v.name);
            for (size_t c = 0; c < comp; ++c) {
                double fill = 0.5;
                if (it != env_->uniforms.end()) {
                    const LaneVector &u = it->second;
                    fill = u.empty() ? 0.0 : u[wrapComp(u.size(), c)];
                }
                simd::broadcast<W>(m + c * W, fill);
            }
            break;
          }
          case VarKind::ConstArray: {
            memSize_[vid] = v.constInit.size();
            for (size_t c = 0; c < v.constInit.size(); ++c)
                simd::broadcast<W>(m + c * W, v.constInit[c]);
            break;
          }
          case VarKind::Sampler: {
            auto it = env_->textures.find(v.name);
            textures_[vid] =
                it != env_->textures.end() ? &it->second : nullptr;
            for (size_t c = 0; c < comp; ++c)
                simd::broadcast<W>(m + c * W, 0.0);
            break;
          }
          default: // Local, Output: zero-initialised
            for (size_t c = 0; c < comp; ++c)
                simd::broadcast<W>(m + c * W, 0.0);
            break;
        }
    }

    // -- structured execution --------------------------------------------

    void execRegion(const Region &region, Mask m)
    {
        // Dynamic instruction counts are bulk-accumulated per *run* of
        // instructions executing under one active mask: the mask only
        // changes at control flow and discards, so straight-line code
        // pays one per-lane counting pass per run instead of one per
        // instruction. The per-lane sums are commutative, so nested
        // regions accumulating in between is harmless.
        Mask runMask = 0;
        size_t runLen = 0;
        auto flush = [&] {
            if (!runLen)
                return;
            uint64_t lanes = 0;
            for (size_t l = 0; l < W; ++l) {
                const uint64_t on = (runMask >> l) & 1u;
                laneExec_[l] += runLen * on;
                lanes += on;
            }
            // Governed work is the per-lane sum, matching the map
            // engine's per-instruction charge, amortised per run.
            meter_->tick(runLen * lanes);
            runLen = 0;
        };
        for (const auto &node : region.nodes) {
            const Mask live = m & ~discarded_;
            if (!live) {
                flush();
                return;
            }
            if (const auto *b = dyn_cast<Block>(node.get())) {
                for (const Instr *i : b->instrs) {
                    const Mask ma = m & ~discarded_;
                    if (!ma) {
                        flush();
                        return;
                    }
                    if (ma != runMask) {
                        flush();
                        runMask = ma;
                    }
                    ++runLen;
                    execInstr(*i, ma);
                }
            } else if (const auto *f = dyn_cast<IfNode>(node.get())) {
                size_t nc;
                const double *c0 = val(f->cond, nc);
                Mask t = 0;
                for (size_t l = 0; l < W; ++l) {
                    if (((live >> l) & 1u) && c0[l] != 0.0)
                        t |= Mask{1} << l;
                }
                const Mask e = live & ~t;
                if (t)
                    execRegion(f->thenRegion, t);
                if (e)
                    execRegion(f->elseRegion, e);
            } else if (const auto *l = dyn_cast<LoopNode>(node.get())) {
                execLoop(*l, live);
            }
        }
        flush();
    }

    void maskedBroadcast(double *strip, double v, Mask m)
    {
        for (size_t l = 0; l < W; ++l) {
            if ((m >> l) & 1u)
                strip[l] = v;
        }
    }

    void execLoop(const LoopNode &l, Mask m)
    {
        if (l.canonical) {
            const size_t cid = static_cast<size_t>(l.counter->id);
            // counter.assign(1, 0.0): the counter is a scalar int, so
            // only the value changes; masked like every store.
            memSize_[cid] = 1;
            double *counter = varMem(cid);
            maskedBroadcast(counter, 0.0, m);
            for (long v = l.init; v < l.limit; v += l.step) {
                const Mask ma = m & ~discarded_;
                if (!ma)
                    return;
                maskedBroadcast(counter, static_cast<double>(v), ma);
                execRegion(l.body, ma);
            }
            return;
        }
        Mask live = m;
        detail::LoopGuard guard(env_->maxLoopIterations);
        for (;;) {
            live &= ~discarded_;
            if (!live)
                return;
            execRegion(l.condRegion, live);
            live &= ~discarded_;
            if (!live)
                return;
            size_t nc;
            const double *c0 = val(l.condValue, nc);
            Mask next = 0;
            for (size_t ln = 0; ln < W; ++ln) {
                if (((live >> ln) & 1u) && c0[ln] != 0.0)
                    next |= Mask{1} << ln;
            }
            if (!next)
                break;
            live = next;
            execRegion(l.body, live);
            live &= ~discarded_;
            if (!live)
                return;
            guard.tick();
        }
    }

    // -- per-opcode lane loops -------------------------------------------

    template <typename F>
    void cw1(const Instr &i, F f)
    {
        size_t na;
        const double *a = val(i.operands[0], na);
        double *d = define(i, na);
        for (size_t c = 0; c < na; ++c)
            simd::map1<W>(d + c * W, a + c * W, f);
    }

    template <typename F>
    void cw2(const Instr &i, F f)
    {
        size_t na, nb;
        const double *a = val(i.operands[0], na);
        const double *b = val(i.operands[1], nb);
        const size_t n = std::max(na, nb);
        double *d = define(i, n);
        for (size_t c = 0; c < n; ++c)
            simd::map2<W>(d + c * W, comp(a, na, c), comp(b, nb, c),
                          f);
    }

    /** Scalar-result comparison over component 0. */
    template <typename F>
    void cmp0(const Instr &i, F f)
    {
        size_t na, nb;
        const double *a = val(i.operands[0], na);
        const double *b = val(i.operands[1], nb);
        double *d = define(i, 1);
        simd::map2<W>(d, comp(a, na, 0), comp(b, nb, 0), f);
    }

    void execInstr(const Instr &i, Mask m)
    {
        // Counting happens in execRegion (bulk, per same-mask run).
        switch (i.op) {
          case Opcode::Const: {
            double *d = define(i, i.constData.size());
            for (size_t c = 0; c < i.constData.size(); ++c)
                simd::broadcast<W>(d + c * W, i.constData[c]);
            break;
          }
          case Opcode::Neg:
            cw1(i, [](double a) { return -a; });
            break;
          case Opcode::Not:
            cw1(i, [](double a) { return a == 0.0 ? 1.0 : 0.0; });
            break;
          case Opcode::Add:
            cw2(i, [](double a, double b) { return a + b; });
            break;
          case Opcode::Sub:
            cw2(i, [](double a, double b) { return a - b; });
            break;
          case Opcode::Mul:
            cw2(i, [](double a, double b) { return a * b; });
            break;
          case Opcode::Div:
            if (i.type.isInt()) {
                cw2(i, [](double a, double b) {
                    return b != 0.0 ? std::trunc(a / b) : 0.0;
                });
            } else {
                cw2(i, [](double a, double b) { return a / b; });
            }
            break;
          case Opcode::Mod:
            cw2(i, [](double a, double b) {
                return b != 0.0 ? a - b * std::floor(a / b) : 0.0;
            });
            break;
          case Opcode::Lt:
            cmp0(i, [](double a, double b) {
                return a < b ? 1.0 : 0.0;
            });
            break;
          case Opcode::Le:
            cmp0(i, [](double a, double b) {
                return a <= b ? 1.0 : 0.0;
            });
            break;
          case Opcode::Gt:
            cmp0(i, [](double a, double b) {
                return a > b ? 1.0 : 0.0;
            });
            break;
          case Opcode::Ge:
            cmp0(i, [](double a, double b) {
                return a >= b ? 1.0 : 0.0;
            });
            break;
          case Opcode::Eq:
          case Opcode::Ne: {
            size_t na, nb;
            const double *a = val(i.operands[0], na);
            const double *b = val(i.operands[1], nb);
            double *d = define(i, 1);
            const double if_eq = i.op == Opcode::Eq ? 1.0 : 0.0;
            if (na != nb) {
                // Vector compare of mismatched sizes is never equal.
                simd::broadcast<W>(d, 1.0 - if_eq);
                break;
            }
            for (size_t l = 0; l < W; ++l) {
                bool eq = true;
                for (size_t c = 0; c < na; ++c)
                    eq &= a[c * W + l] == b[c * W + l];
                d[l] = eq ? if_eq : 1.0 - if_eq;
            }
            break;
          }
          case Opcode::LogicalAnd:
            cmp0(i, [](double a, double b) {
                return a != 0.0 && b != 0.0 ? 1.0 : 0.0;
            });
            break;
          case Opcode::LogicalOr:
            cmp0(i, [](double a, double b) {
                return a != 0.0 || b != 0.0 ? 1.0 : 0.0;
            });
            break;
          case Opcode::Sin:
            cw1(i, [](double a) { return std::sin(a); });
            break;
          case Opcode::Cos:
            cw1(i, [](double a) { return std::cos(a); });
            break;
          case Opcode::Tan:
            cw1(i, [](double a) { return std::tan(a); });
            break;
          case Opcode::Asin:
            cw1(i, [](double a) { return std::asin(a); });
            break;
          case Opcode::Acos:
            cw1(i, [](double a) { return std::acos(a); });
            break;
          case Opcode::Atan:
            cw1(i, [](double a) { return std::atan(a); });
            break;
          case Opcode::Exp:
            cw1(i, [](double a) { return std::exp(a); });
            break;
          case Opcode::Log:
            cw1(i, [](double a) { return std::log(a); });
            break;
          case Opcode::Exp2:
            cw1(i, [](double a) { return std::exp2(a); });
            break;
          case Opcode::Log2:
            cw1(i, [](double a) { return std::log2(a); });
            break;
          case Opcode::Sqrt:
            cw1(i, [](double a) { return std::sqrt(a); });
            break;
          case Opcode::InvSqrt:
            cw1(i, [](double a) { return 1.0 / std::sqrt(a); });
            break;
          case Opcode::Abs:
            cw1(i, [](double a) { return std::fabs(a); });
            break;
          case Opcode::Sign:
            cw1(i, [](double a) {
                return a > 0.0 ? 1.0 : a < 0.0 ? -1.0 : 0.0;
            });
            break;
          case Opcode::Floor:
            cw1(i, [](double a) { return std::floor(a); });
            break;
          case Opcode::Ceil:
            cw1(i, [](double a) { return std::ceil(a); });
            break;
          case Opcode::Fract:
            cw1(i, [](double a) { return a - std::floor(a); });
            break;
          case Opcode::Radians:
            cw1(i, [](double a) { return a * M_PI / 180.0; });
            break;
          case Opcode::Degrees:
            cw1(i, [](double a) { return a * 180.0 / M_PI; });
            break;
          case Opcode::Atan2:
            cw2(i, [](double y, double x) {
                return std::atan2(y, x);
            });
            break;
          case Opcode::Pow:
            cw2(i, [](double a, double b) { return std::pow(a, b); });
            break;
          case Opcode::Min:
            cw2(i, [](double a, double b) { return std::min(a, b); });
            break;
          case Opcode::Max:
            cw2(i, [](double a, double b) { return std::max(a, b); });
            break;
          case Opcode::Step:
            cw2(i, [](double e, double x) {
                return x < e ? 0.0 : 1.0;
            });
            break;
          case Opcode::Normalize: {
            size_t na;
            const double *a = val(i.operands[0], na);
            double *d = define(i, na);
            double len[W];
            simd::broadcast<W>(len, 0.0);
            for (size_t c = 0; c < na; ++c)
                simd::mulAccum<W>(len, a + c * W, a + c * W);
            simd::apply<W>(len,
                           [](double x) { return std::sqrt(x); });
            for (size_t c = 0; c < na; ++c) {
                simd::map2<W>(d + c * W, a + c * W, len,
                              [](double s, double n) {
                                  return n > 0.0 ? s / n : s;
                              });
            }
            break;
          }
          case Opcode::Length: {
            size_t na;
            const double *a = val(i.operands[0], na);
            double len[W];
            simd::broadcast<W>(len, 0.0);
            for (size_t c = 0; c < na; ++c)
                simd::mulAccum<W>(len, a + c * W, a + c * W);
            double *d = define(i, 1);
            simd::map1<W>(d, len,
                          [](double x) { return std::sqrt(x); });
            break;
          }
          case Opcode::Distance: {
            size_t na, nb;
            const double *a = val(i.operands[0], na);
            const double *b = val(i.operands[1], nb);
            double len[W];
            simd::broadcast<W>(len, 0.0);
            for (size_t c = 0; c < na; ++c) {
                const double *ac = a + c * W;
                const double *bc = comp(b, nb, c);
                GSOPT_VEC_LOOP
                for (size_t l = 0; l < W; ++l) {
                    const double diff = ac[l] - bc[l];
                    len[l] += diff * diff;
                }
            }
            double *d = define(i, 1);
            simd::map1<W>(d, len,
                          [](double x) { return std::sqrt(x); });
            break;
          }
          case Opcode::Dot: {
            size_t na, nb;
            const double *a = val(i.operands[0], na);
            const double *b = val(i.operands[1], nb);
            double sum[W];
            simd::broadcast<W>(sum, 0.0);
            for (size_t c = 0; c < na; ++c)
                simd::mulAccum<W>(sum, a + c * W, comp(b, nb, c));
            double *d = define(i, 1);
            simd::copy<W>(d, sum);
            break;
          }
          case Opcode::Cross: {
            size_t na, nb;
            const double *a = val(i.operands[0], na);
            const double *b = val(i.operands[1], nb);
            (void)na;
            (void)nb;
            double *d = define(i, 3);
            GSOPT_VEC_LOOP
            for (size_t l = 0; l < W; ++l) {
                const double a0 = a[0 * W + l], a1 = a[1 * W + l],
                             a2 = a[2 * W + l];
                const double b0 = b[0 * W + l], b1 = b[1 * W + l],
                             b2 = b[2 * W + l];
                d[0 * W + l] = a1 * b2 - a2 * b1;
                d[1 * W + l] = a2 * b0 - a0 * b2;
                d[2 * W + l] = a0 * b1 - a1 * b0;
            }
            break;
          }
          case Opcode::Reflect: {
            size_t nv, nn;
            const double *v = val(i.operands[0], nv);
            const double *n = val(i.operands[1], nn);
            double dp[W];
            simd::broadcast<W>(dp, 0.0);
            for (size_t c = 0; c < nv; ++c)
                simd::mulAccum<W>(dp, v + c * W, comp(n, nn, c));
            double *d = define(i, nv);
            for (size_t c = 0; c < nv; ++c) {
                simd::map3<W>(d + c * W, v + c * W, dp,
                              comp(n, nn, c),
                              [](double vc, double dd, double nc) {
                                  return vc - 2.0 * dd * nc;
                              });
            }
            break;
          }
          case Opcode::Refract: {
            size_t nv, nn, ne;
            const double *v = val(i.operands[0], nv);
            const double *n = val(i.operands[1], nn);
            const double *etap = val(i.operands[2], ne);
            const double *eta = comp(etap, ne, 0);
            double dp[W];
            simd::broadcast<W>(dp, 0.0);
            for (size_t c = 0; c < nv; ++c)
                simd::mulAccum<W>(dp, v + c * W, comp(n, nn, c));
            double kv[W], coeff[W];
            GSOPT_VEC_LOOP
            for (size_t l = 0; l < W; ++l) {
                kv[l] = 1.0 - eta[l] * eta[l] * (1.0 - dp[l] * dp[l]);
                coeff[l] = eta[l] * dp[l] + std::sqrt(kv[l]);
            }
            double *d = define(i, nv);
            for (size_t c = 0; c < nv; ++c) {
                const double *vc = v + c * W;
                const double *nc = comp(n, nn, c);
                double *dc = d + c * W;
                GSOPT_VEC_LOOP
                for (size_t l = 0; l < W; ++l) {
                    dc[l] = kv[l] >= 0.0
                                ? eta[l] * vc[l] - coeff[l] * nc[l]
                                : 0.0;
                }
            }
            break;
          }
          case Opcode::Clamp: {
            size_t na, nlo, nhi;
            const double *a = val(i.operands[0], na);
            const double *lo = val(i.operands[1], nlo);
            const double *hi = val(i.operands[2], nhi);
            double *d = define(i, na);
            for (size_t c = 0; c < na; ++c) {
                simd::map3<W>(d + c * W, a + c * W, comp(lo, nlo, c),
                              comp(hi, nhi, c),
                              [](double x, double l, double h) {
                                  return std::min(std::max(x, l), h);
                              });
            }
            break;
          }
          case Opcode::Mix: {
            size_t na, nb, nt;
            const double *a = val(i.operands[0], na);
            const double *b = val(i.operands[1], nb);
            const double *t = val(i.operands[2], nt);
            double *d = define(i, na);
            for (size_t c = 0; c < na; ++c) {
                simd::map3<W>(d + c * W, a + c * W, comp(b, nb, c),
                              comp(t, nt, c),
                              [](double x, double y, double tk) {
                                  return x * (1.0 - tk) + y * tk;
                              });
            }
            break;
          }
          case Opcode::Smoothstep: {
            size_t ne0, ne1, nx;
            const double *e0 = val(i.operands[0], ne0);
            const double *e1 = val(i.operands[1], ne1);
            const double *x = val(i.operands[2], nx);
            double *d = define(i, nx);
            for (size_t c = 0; c < nx; ++c) {
                simd::map3<W>(
                    d + c * W, comp(e0, ne0, c), comp(e1, ne1, c),
                    x + c * W, [](double a, double b, double xv) {
                        double t =
                            b != a ? (xv - a) / (b - a) : 0.0;
                        t = std::min(std::max(t, 0.0), 1.0);
                        return t * t * (3.0 - 2.0 * t);
                    });
            }
            break;
          }
          case Opcode::Select: {
            size_t nc, na, nb;
            const double *c0p = val(i.operands[0], nc);
            const double *a = val(i.operands[1], na);
            const double *b = val(i.operands[2], nb);
            const double *c0 = comp(c0p, nc, 0);
            const size_t n = std::max(na, nb);
            double *d = define(i, n);
            for (size_t c = 0; c < n; ++c) {
                simd::map3<W>(d + c * W, c0, comp(a, na, c),
                              comp(b, nb, c),
                              [](double cv, double x, double y) {
                                  return cv != 0.0 ? x : y;
                              });
            }
            break;
          }
          case Opcode::Construct: {
            // Gathered operand components may momentarily exceed the
            // result width (vec3(v4.xyz) shapes): up to 4 operands of
            // up to kStride components each.
            double tmp[4 * kStride * W];
            size_t total = 0;
            for (const Instr *op : i.operands) {
                size_t nv;
                const double *v = val(op, nv);
                if (total + nv > 4 * kStride)
                    throw BatchFallback(
                        "construct wider than 16 components");
                for (size_t c = 0; c < nv; ++c)
                    simd::copy<W>(tmp + (total + c) * W, v + c * W);
                total += nv;
            }
            const size_t want =
                static_cast<size_t>(i.type.componentCount());
            double *d = define(i, want);
            if (total == 1 && want > 1) {
                for (size_t c = 0; c < want; ++c)
                    simd::copy<W>(d + c * W, tmp);
            } else {
                for (size_t c = 0; c < want; ++c) {
                    if (c < total)
                        simd::copy<W>(d + c * W, tmp + c * W);
                    else
                        simd::broadcast<W>(d + c * W, 0.0);
                }
            }
            // int(x) truncates toward zero (see the map engine).
            if (i.type.isInt()) {
                for (size_t c = 0; c < want; ++c)
                    simd::apply<W>(d + c * W, [](double a) {
                        return std::trunc(a);
                    });
            }
            break;
          }
          case Opcode::Extract: {
            size_t na;
            const double *a = val(i.operands[0], na);
            const size_t idx = static_cast<size_t>(i.indices[0]);
            if (idx >= kStride)
                throw BatchFallback("extract index out of strip");
            double *d = define(i, 1);
            simd::copy<W>(d, a + idx * W);
            break;
          }
          case Opcode::Insert: {
            size_t na, nb;
            const double *a = val(i.operands[0], na);
            const double *b = val(i.operands[1], nb);
            const size_t idx = static_cast<size_t>(i.indices[0]);
            if (idx >= kStride)
                throw BatchFallback("insert index out of strip");
            double *d = define(i, na);
            for (size_t c = 0; c < na; ++c)
                simd::copy<W>(d + c * W, a + c * W);
            simd::copy<W>(d + idx * W, comp(b, nb, 0));
            break;
          }
          case Opcode::Swizzle: {
            size_t na;
            const double *a = val(i.operands[0], na);
            const size_t n = i.indices.size();
            double *d = define(i, std::min<size_t>(n, kStride));
            for (size_t c = 0; c < n && c < kStride; ++c) {
                const size_t idx = static_cast<size_t>(i.indices[c]);
                if (idx >= kStride)
                    throw BatchFallback(
                        "swizzle index out of strip");
                simd::copy<W>(d + c * W, a + idx * W);
            }
            break;
          }
          case Opcode::Texture:
          case Opcode::TextureBias:
          case Opcode::TextureLod: {
            size_t nc, nl = 0;
            const double *coord = val(i.operands[0], nc);
            const double *u = comp(coord, nc, 0);
            const double *v = comp(coord, nc, 1);
            // val() sets nl, so it must run before comp() reads it.
            const double *lod = zero_;
            if (i.operands.size() > 1) {
                const double *l = val(i.operands[1], nl);
                lod = comp(l, nl, 0);
            }
            const TextureFn *fn =
                textures_[static_cast<size_t>(i.var->id)];
            double *d = define(i, 4);
            // Masked: a user texture callback must only observe the
            // lanes the map engine would have sampled.
            for (size_t l = 0; l < W; ++l) {
                if (!((m >> l) & 1u))
                    continue;
                const auto rgba =
                    fn ? (*fn)(u[l], v[l], lod[l])
                       : defaultTexture(u[l], v[l], lod[l]);
                d[0 * W + l] = rgba[0];
                d[1 * W + l] = rgba[1];
                d[2 * W + l] = rgba[2];
                d[3 * W + l] = rgba[3];
            }
            break;
          }
          case Opcode::LoadVar: {
            const size_t vid = static_cast<size_t>(i.var->id);
            const size_t n = memSize_[vid];
            if (n > kStride)
                throw BatchFallback(
                    "whole-array LoadVar exceeds register strip");
            const double *s = varMem(vid);
            double *d = define(i, n);
            for (size_t c = 0; c < n; ++c)
                simd::copy<W>(d + c * W, s + c * W);
            break;
          }
          case Opcode::StoreVar: {
            size_t nv;
            const double *v = val(i.operands[0], nv);
            const size_t vid = static_cast<size_t>(i.var->id);
            if (nv != memSize_[vid]) {
                // A store that resizes the variable is representable
                // only when every lane performs it (the SoA layout
                // keeps one size per variable, and a discarded lane's
                // memory must stay frozen at its old shape).
                if (nv > memCapacity_[vid] || m != initialMask_)
                    throw BatchFallback("divergent variable resize");
                memSize_[vid] = nv;
            }
            double *d = varMem(vid);
            if (m == fullMask()) {
                for (size_t c = 0; c < nv; ++c)
                    simd::copy<W>(d + c * W, v + c * W);
            } else {
                for (size_t c = 0; c < nv; ++c) {
                    for (size_t l = 0; l < W; ++l) {
                        if ((m >> l) & 1u)
                            d[c * W + l] = v[c * W + l];
                    }
                }
            }
            break;
          }
          case Opcode::LoadElem: {
            size_t ni;
            const double *idx0 = val(i.operands[0], ni);
            (void)ni;
            const size_t cmp =
                static_cast<size_t>(i.type.componentCount());
            const size_t vid = static_cast<size_t>(i.var->id);
            const size_t msize = memSize_[vid];
            const double *mp = varMem(vid);
            double *d = define(i, cmp);
            // Masked: inactive lanes may carry garbage indices whose
            // double->long cast would be undefined behaviour.
            for (size_t l = 0; l < W; ++l) {
                if (!((m >> l) & 1u))
                    continue;
                const long idx = static_cast<long>(idx0[l]);
                const size_t off = static_cast<size_t>(idx) * cmp;
                for (size_t c = 0; c < cmp; ++c) {
                    const size_t p = off + c;
                    d[c * W + l] = p < msize ? mp[p * W + l] : 0.0;
                }
            }
            break;
          }
          case Opcode::StoreElem: {
            size_t ni, nv;
            const double *idx0 = val(i.operands[0], ni);
            const double *v = val(i.operands[1], nv);
            (void)ni;
            const size_t vid = static_cast<size_t>(i.var->id);
            const size_t msize = memSize_[vid];
            double *mp = varMem(vid);
            for (size_t l = 0; l < W; ++l) {
                if (!((m >> l) & 1u))
                    continue;
                const long idx = static_cast<long>(idx0[l]);
                const size_t off = static_cast<size_t>(idx) * nv;
                for (size_t c = 0; c < nv; ++c) {
                    const size_t p = off + c;
                    if (p < msize)
                        mp[p * W + l] = v[c * W + l];
                }
            }
            break;
          }
          case Opcode::Discard:
            discarded_ |= m;
            break;
        }
    }

    Mask fullMask() const
    {
        return W >= 32 ? ~Mask{0}
                       : static_cast<Mask>((Mask{1} << W) - 1);
    }

    const Module &module_;
    const BatchEnv *env_ = nullptr;
    size_t width_ = 0;
    Mask initialMask_ = 0;
    Mask discarded_ = 0;
    uint32_t epoch_ = 0;
    size_t laneExec_[W] = {};
    governor::StepMeter *meter_ = nullptr; ///< valid only inside run()
    double zero_[W];

    std::unique_ptr<double[]> regs_; ///< idBound x kStride x W
    std::vector<uint8_t> regSize_;
    std::vector<uint32_t> regEpoch_;

    std::unique_ptr<double[]> mem_; ///< variable memory, SoA strips
    std::vector<size_t> memOffset_;   ///< per var, in components
    std::vector<size_t> memCapacity_; ///< per var, in components
    std::vector<size_t> memSize_;     ///< current size, in components
    std::vector<const TextureFn *> textures_;
};

/** Per-lane map-reference execution assembled into a BatchResult —
 * the fallback for non-dense ids and BatchFallback shapes. It calls
 * interpretReference, never interpret: interpret is itself a one-lane
 * BatchRunner, so routing the fallback through it would recurse. */
BatchResult
runReferenceLanes(const Module &module, const BatchEnv &env)
{
    BatchResult result;
    result.width = env.width;
    result.discarded.resize(env.width);
    result.laneExecuted.resize(env.width);
    std::map<std::string, size_t> comps;
    for (size_t l = 0; l < env.width; ++l) {
        const InterpResult r =
            interpretReference(module, env.laneEnv(l));
        result.discarded[l] = r.discarded ? 1 : 0;
        result.laneExecuted[l] = r.executedInstructions;
        result.executedInstructions += r.executedInstructions;
        for (const auto &[name, lanes] : r.outputs) {
            auto it = comps.find(name);
            if (it == comps.end()) {
                comps.emplace(name, lanes.size());
                result.outputs[name].assign(lanes.size() * env.width,
                                            0.0);
            } else if (it->second != lanes.size()) {
                throw std::runtime_error(
                    "interpretBatch: lanes disagree on output size");
            }
            std::vector<double> &soa = result.outputs[name];
            for (size_t c = 0; c < lanes.size(); ++c)
                soa[c * env.width + l] = lanes[c];
        }
    }
    return result;
}

struct EngineBase
{
    virtual ~EngineBase() = default;
    virtual BatchResult run(const BatchEnv &env) = 0;
};

template <size_t W>
struct EngineHolder final : EngineBase
{
    explicit EngineHolder(const Module &m) : engine(m) {}
    BatchResult run(const BatchEnv &env) override
    {
        return engine.run(env);
    }
    Engine<W> engine;
};

size_t
roundUpWidth(size_t width)
{
    for (size_t w : kSupportedBatchWidths) {
        if (w >= width)
            return w;
    }
    throw std::invalid_argument(
        "BatchRunner: width exceeds kMaxBatchWidth");
}

} // namespace

// ======================================================================
// BatchEnv
// ======================================================================

BatchEnv
BatchEnv::broadcast(const InterpEnv &env, size_t width)
{
    if (width == 0 || width > kMaxBatchWidth)
        throw std::invalid_argument(
            "BatchEnv::broadcast: bad width");
    BatchEnv b;
    b.width = width;
    b.uniforms = env.uniforms;
    b.textures = env.textures;
    b.maxLoopIterations = env.maxLoopIterations;
    for (const auto &[name, v] : env.inputs) {
        LaneInput in;
        in.comps = v.size();
        in.soa.resize(v.size() * width);
        for (size_t c = 0; c < v.size(); ++c) {
            for (size_t l = 0; l < width; ++l)
                in.soa[c * width + l] = v[c];
        }
        b.inputs.emplace(name, std::move(in));
    }
    return b;
}

void
BatchEnv::setLaneInput(const std::string &name, size_t lane,
                       const LaneVector &value)
{
    if (lane >= width)
        throw std::invalid_argument("setLaneInput: lane out of range");
    LaneInput &in = inputs[name];
    if (in.soa.empty()) {
        in.comps = value.size();
        in.soa.assign(value.size() * width, 0.0);
    } else if (in.comps != value.size()) {
        throw std::invalid_argument(
            "setLaneInput: component count mismatch across lanes");
    }
    for (size_t c = 0; c < value.size(); ++c)
        in.soa[c * width + lane] = value[c];
}

InterpEnv
BatchEnv::laneEnv(size_t lane) const
{
    if (lane >= width)
        throw std::invalid_argument("laneEnv: lane out of range");
    InterpEnv e;
    e.uniforms = uniforms;
    e.textures = textures;
    e.maxLoopIterations = maxLoopIterations;
    for (const auto &[name, in] : inputs) {
        LaneVector v(in.comps);
        for (size_t c = 0; c < in.comps; ++c)
            v[c] = in.soa[c * width + lane];
        e.inputs.emplace(name, std::move(v));
    }
    return e;
}

// ======================================================================
// BatchResult
// ======================================================================

size_t
BatchResult::outputComps(const std::string &name) const
{
    auto it = outputs.find(name);
    if (it == outputs.end() || width == 0)
        return 0;
    return it->second.size() / width;
}

double
BatchResult::output(const std::string &name, size_t comp,
                    size_t lane) const
{
    return outputs.at(name).at(comp * width + lane);
}

InterpResult
BatchResult::laneResult(size_t lane) const
{
    if (lane >= width)
        throw std::invalid_argument("laneResult: lane out of range");
    InterpResult r;
    r.discarded = discarded[lane] != 0;
    r.executedInstructions = laneExecuted[lane];
    for (const auto &[name, soa] : outputs) {
        const size_t n = soa.size() / width;
        LaneVector v(n);
        for (size_t c = 0; c < n; ++c)
            v[c] = soa[c * width + lane];
        r.outputs.emplace(name, std::move(v));
    }
    return r;
}

// ======================================================================
// BatchRunner
// ======================================================================

struct BatchRunner::Impl
{
    const Module &module;
    bool dense;
    std::unique_ptr<EngineBase> engine;
    size_t engineWidth;
};

BatchRunner::BatchRunner(const Module &module, size_t width)
    : impl_(new Impl{module, detail::denseIdsUsable(module), nullptr,
                     roundUpWidth(width)})
{
    if (impl_->dense) {
        switch (impl_->engineWidth) {
          case 1:
            impl_->engine =
                std::make_unique<EngineHolder<1>>(module);
            break;
          case 4:
            impl_->engine =
                std::make_unique<EngineHolder<4>>(module);
            break;
          case 8:
            impl_->engine =
                std::make_unique<EngineHolder<8>>(module);
            break;
          default:
            impl_->engine =
                std::make_unique<EngineHolder<16>>(module);
            break;
        }
    }
}

BatchRunner::~BatchRunner() = default;

bool
BatchRunner::batched() const
{
    return impl_->dense;
}

BatchResult
BatchRunner::run(const BatchEnv &env)
{
    if (!impl_->dense)
        return runReferenceLanes(impl_->module, env);
    if (env.width > impl_->engineWidth)
        throw std::invalid_argument(
            "BatchRunner::run: env.width exceeds construction width");
    try {
        return impl_->engine->run(env);
    } catch (const BatchFallback &) {
        return runReferenceLanes(impl_->module, env);
    }
}

BatchResult
interpretBatch(const Module &module, const BatchEnv &env)
{
    BatchRunner runner(module, env.width);
    return runner.run(env);
}

} // namespace gsopt::ir
