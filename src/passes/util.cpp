#include "passes/util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <type_traits>

#include "ir/walk.h"
#include "support/rng.h"

namespace gsopt::passes {

using ir::Instr;
using ir::Module;
using ir::Opcode;
using ir::Type;

std::vector<int>
countUses(const Module &module)
{
    std::vector<int> uses(static_cast<size_t>(module.idBound()), 0);
    ir::forEachInstr(module.body, [&uses](const Instr &i) {
        for (const Instr *op : i.operands)
            ++uses[static_cast<size_t>(op->id)];
    });
    // Structured condition references count as uses too.
    ir::forEachNode(const_cast<Module &>(module).body,
                    [&uses](ir::Node &n) {
                        const Instr *cond = nullptr;
                        if (auto *f = ir::dyn_cast<ir::IfNode>(&n))
                            cond = f->cond;
                        else if (auto *l = ir::dyn_cast<ir::LoopNode>(&n))
                            cond = l->condValue;
                        if (cond)
                            ++uses[static_cast<size_t>(cond->id)];
                    });
    return uses;
}

void
Replacements::set(const Instr &from, Instr *to)
{
    const size_t id = static_cast<size_t>(from.id);
    if (id >= to_.size())
        to_.resize(id + 1, nullptr);
    to_[id] = to;
    any_ = true;
}

void
Replacements::apply(Module &module) const
{
    if (!any_)
        return;
    ir::forEachInstr(module.body, [this](Instr &i) { resolveOperands(i); });
    ir::forEachNode(module.body, [this](ir::Node &n) {
        if (auto *f = ir::dyn_cast<ir::IfNode>(&n))
            f->cond = resolve(f->cond);
        else if (auto *l = ir::dyn_cast<ir::LoopNode>(&n))
            l->condValue = resolve(l->condValue);
    });
}

namespace {

static_assert(std::has_unique_object_representations_v<ValueKey> &&
                  sizeof(ValueKey) % sizeof(uint64_t) == 0,
              "ValueKey is compared and hashed as raw words");

/**
 * One Const lane at std::to_string's "%f" resolution: its digits read as
 * an integer (the decimal point always sits six places from the end),
 * with the printed sign reported in @p negative. Renderings of more than
 * 19 digits (|d| >= 1e13) and non-finite ones are hashed instead.
 */
uint64_t
renderLane(double d, bool &negative, bool &hashed)
{
    char buf[400];
    const int n = std::snprintf(buf, sizeof buf, "%f", d);
    negative = buf[0] == '-';
    hashed = false;
    uint64_t digits = 0;
    int count = 0;
    for (const char *p = buf + negative; *p; ++p) {
        if (*p == '.')
            continue;
        if (*p < '0' || *p > '9' || ++count > 19) {
            hashed = true;
            return fnv1a(std::string_view(buf, static_cast<size_t>(n)));
        }
        digits = digits * 10 + static_cast<uint64_t>(*p - '0');
    }
    return digits;
}

/** One cached renderLane result, for the lane whose bit pattern is
 * @c bits. */
struct LaneRendering
{
    uint64_t bits;
    uint64_t digits;
    bool negative;
    bool hashed;
};

/** log2 of the lane cache's entry count. */
constexpr unsigned kLaneCacheBits = 10;

/**
 * renderLane results by bit pattern, per thread (no lock), direct
 * mapped and fixed in size: a pattern that lands on an occupied entry
 * evicts it and is rendered again. The zero-initialised entries hold
 * +0.0's pattern, which laneKey's integer path answers before it looks
 * here, so an unused entry never matches.
 */
thread_local LaneRendering laneCache[1u << kLaneCacheBits];

/** renderLane through the cache, with integers answered directly (an
 * integer prints as "<d>.000000" exactly). */
uint64_t
laneKey(double d, bool &negative, bool &hashed)
{
    if (d == std::trunc(d) && std::fabs(d) < 1e12) {
        negative = std::signbit(d);
        hashed = false;
        return static_cast<uint64_t>(std::fabs(d)) * 1000000u;
    }
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    LaneRendering &e =
        laneCache[(bits * 0x9e3779b97f4a7c15ull) >> (64 - kLaneCacheBits)];
    if (e.bits != bits) {
        e.bits = bits;
        e.digits = renderLane(d, e.negative, e.hashed);
    }
    negative = e.negative;
    hashed = e.hashed;
    return e.digits;
}

} // namespace

bool
ValueKey::operator==(const ValueKey &o) const
{
    return std::memcmp(this, &o, sizeof(ValueKey)) == 0;
}

size_t
ValueKeyHash::operator()(const ValueKey &k) const
{
    uint64_t words[sizeof(ValueKey) / sizeof(uint64_t)];
    std::memcpy(words, &k, sizeof(ValueKey));
    uint64_t h = 0;
    for (uint64_t w : words)
        h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    return static_cast<size_t>(h ^ (h >> 32));
}

ValueKey
valueKey(const Instr &i, int memVersion)
{
    ValueKey k;
    k.op = static_cast<uint16_t>(i.op);
    k.shape = static_cast<uint32_t>(i.type.base) |
              static_cast<uint32_t>(i.type.cols) << 8 |
              static_cast<uint32_t>(i.type.rows) << 16;
    k.arraySize = i.type.arraySize;
    k.operandCount = static_cast<uint8_t>(i.operands.size());
    for (size_t n = 0; n < i.operands.size(); ++n)
        k.operands[n] = i.operands[n]->id;
    if (i.var)
        k.var = i.var->id;
    k.memVersion = memVersion;
    k.indexCount = static_cast<uint8_t>(i.indices.size());
    for (size_t n = 0; n < i.indices.size(); ++n)
        k.indices[n] = i.indices[n];
    k.laneCount = static_cast<uint8_t>(i.constData.size());
    for (size_t n = 0; n < i.constData.size(); ++n) {
        bool negative = false, hashed = false;
        k.lanes[n] = laneKey(i.constData[n], negative, hashed);
        k.laneFlags |=
            static_cast<uint8_t>(negative << n | hashed << (4 + n));
    }
    return k;
}

void
ValueTable::popScope()
{
    for (size_t mark = marks_.back(); log_.size() > mark; log_.pop_back())
        slots_[log_.back()] = Slot{};
    marks_.pop_back();
}

Instr *
ValueTable::findOrInsert(Instr &instr, int memVersion)
{
    if (2 * (log_.size() + 1) > slots_.size())
        grow();
    const ValueKey key = valueKey(instr, memVersion);
    const uint64_t hash = ValueKeyHash{}(key);
    for (size_t s = hash & mask_;; s = (s + 1) & mask_) {
        Slot &slot = slots_[s];
        if (!slot.first) {
            slot = {hash, &instr, memVersion};
            log_.push_back(s);
            return nullptr;
        }
        if (slot.hash == hash &&
            valueKey(*slot.first, slot.memVersion) == key)
            return slot.first;
    }
}

void
ValueTable::grow()
{
    const std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(16, 2 * old.size()), Slot{});
    mask_ = slots_.size() - 1;
    // Re-inserting the live entries in insertion order lays them out as
    // if they had been inserted at this size, so popScope stays exact.
    for (size_t &s : log_) {
        const Slot &entry = old[s];
        for (s = entry.hash & mask_; slots_[s].first; s = (s + 1) & mask_) {
        }
        slots_[s] = entry;
    }
}

Instr *
LocalBuilder::emit(Opcode op, Type type, std::vector<Instr *> operands,
                   ir::Var *var, std::vector<int> indices)
{
    Instr *instr = module_.newInstr();
    instr->op = op;
    instr->type = type;
    instr->operands = operands;
    instr->var = var;
    instr->indices = indices;
    block_.instrs.insert(block_.instrs.begin() + static_cast<long>(pos_),
                         instr);
    ++pos_;
    return instr;
}

Instr *
LocalBuilder::constFloat(double v)
{
    Instr *i = emit(Opcode::Const, Type::floatTy());
    i->constData = {v};
    return i;
}

Instr *
LocalBuilder::constSplat(Type type, double v)
{
    Instr *i = emit(Opcode::Const, type);
    i->constData.assign(static_cast<size_t>(type.componentCount()), v);
    return i;
}

Instr *
LocalBuilder::constVec(Type type, std::vector<double> lanes)
{
    Instr *i = emit(Opcode::Const, type);
    i->constData = std::move(lanes);
    return i;
}

std::optional<double>
splatConstValue(const Instr *instr)
{
    if (!instr)
        return std::nullopt;
    if (instr->op == Opcode::Const && instr->isSplatConst())
        return instr->scalarConst();
    if (instr->op == Opcode::Construct && instr->operands.size() == 1 &&
        instr->operands[0]->op == Opcode::Const &&
        instr->operands[0]->type.isScalar())
        return instr->operands[0]->scalarConst();
    return std::nullopt;
}

namespace {

/** An Instr's inline constant-lane list. */
using Lanes = ir::InlineVec<double, ir::kMaxInstrWidth>;

/** Broadcast-aware lane fetch. */
double
lane(const Lanes &v, size_t i)
{
    return v.size() == 1 ? v[0] : v[i];
}

std::vector<double>
componentwise2(const Lanes &a, const Lanes &b,
               double (*fn)(double, double))
{
    const size_t n = std::max(a.size(), b.size());
    std::vector<double> out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = fn(lane(a, i), lane(b, i));
    return out;
}

} // namespace

std::optional<std::vector<double>>
foldConstInstr(const Instr &instr)
{
    for (const Instr *op : instr.operands) {
        if (!op || op->op != Opcode::Const)
            return std::nullopt;
    }
    auto arg = [&](size_t i) -> const Lanes & {
        return instr.operands[i]->constData;
    };
    const bool is_int = instr.type.isInt();

    auto wrap_int = [is_int](std::vector<double> v) {
        if (is_int) {
            for (double &d : v)
                d = std::trunc(d);
        }
        return v;
    };

    switch (instr.op) {
      case Opcode::Neg: {
        std::vector<double> out = arg(0);
        for (double &d : out)
            d = -d;
        return out;
      }
      case Opcode::Not: {
        std::vector<double> out = arg(0);
        for (double &d : out)
            d = d == 0.0 ? 1.0 : 0.0;
        return out;
      }
      case Opcode::Add:
        return wrap_int(componentwise2(
            arg(0), arg(1), +[](double a, double b) { return a + b; }));
      case Opcode::Sub:
        return wrap_int(componentwise2(
            arg(0), arg(1), +[](double a, double b) { return a - b; }));
      case Opcode::Mul:
        return wrap_int(componentwise2(
            arg(0), arg(1), +[](double a, double b) { return a * b; }));
      case Opcode::Div:
        if (is_int) {
            return componentwise2(arg(0), arg(1),
                                  +[](double a, double b) {
                                      return b != 0.0
                                                 ? std::trunc(a / b)
                                                 : 0.0;
                                  });
        }
        return componentwise2(arg(0), arg(1), +[](double a, double b) {
            return b != 0.0 ? a / b
                            : (a == 0.0
                                   ? std::nan("")
                                   : std::copysign(
                                         std::numeric_limits<
                                             double>::infinity(),
                                         a));
        });
      case Opcode::Mod:
        return componentwise2(arg(0), arg(1), +[](double a, double b) {
            return b != 0.0 ? a - b * std::floor(a / b) : 0.0;
        });
      case Opcode::Lt:
        return std::vector<double>{arg(0)[0] < arg(1)[0] ? 1.0 : 0.0};
      case Opcode::Le:
        return std::vector<double>{arg(0)[0] <= arg(1)[0] ? 1.0 : 0.0};
      case Opcode::Gt:
        return std::vector<double>{arg(0)[0] > arg(1)[0] ? 1.0 : 0.0};
      case Opcode::Ge:
        return std::vector<double>{arg(0)[0] >= arg(1)[0] ? 1.0 : 0.0};
      case Opcode::Eq: {
        bool eq = arg(0) == arg(1);
        return std::vector<double>{eq ? 1.0 : 0.0};
      }
      case Opcode::Ne: {
        bool ne = arg(0) != arg(1);
        return std::vector<double>{ne ? 1.0 : 0.0};
      }
      case Opcode::LogicalAnd:
        return std::vector<double>{
            arg(0)[0] != 0.0 && arg(1)[0] != 0.0 ? 1.0 : 0.0};
      case Opcode::LogicalOr:
        return std::vector<double>{
            arg(0)[0] != 0.0 || arg(1)[0] != 0.0 ? 1.0 : 0.0};
      case Opcode::Sin:
      case Opcode::Cos:
      case Opcode::Tan:
      case Opcode::Asin:
      case Opcode::Acos:
      case Opcode::Atan:
      case Opcode::Exp:
      case Opcode::Log:
      case Opcode::Exp2:
      case Opcode::Log2:
      case Opcode::Sqrt:
      case Opcode::InvSqrt:
      case Opcode::Abs:
      case Opcode::Sign:
      case Opcode::Floor:
      case Opcode::Ceil:
      case Opcode::Fract:
      case Opcode::Radians:
      case Opcode::Degrees: {
        std::vector<double> out = arg(0);
        for (double &d : out) {
            switch (instr.op) {
              case Opcode::Sin: d = std::sin(d); break;
              case Opcode::Cos: d = std::cos(d); break;
              case Opcode::Tan: d = std::tan(d); break;
              case Opcode::Asin: d = std::asin(d); break;
              case Opcode::Acos: d = std::acos(d); break;
              case Opcode::Atan: d = std::atan(d); break;
              case Opcode::Exp: d = std::exp(d); break;
              case Opcode::Log: d = std::log(d); break;
              case Opcode::Exp2: d = std::exp2(d); break;
              case Opcode::Log2: d = std::log2(d); break;
              case Opcode::Sqrt: d = std::sqrt(d); break;
              case Opcode::InvSqrt: d = 1.0 / std::sqrt(d); break;
              case Opcode::Abs: d = std::fabs(d); break;
              case Opcode::Sign:
                d = d > 0.0 ? 1.0 : d < 0.0 ? -1.0 : 0.0;
                break;
              case Opcode::Floor: d = std::floor(d); break;
              case Opcode::Ceil: d = std::ceil(d); break;
              case Opcode::Fract: d = d - std::floor(d); break;
              case Opcode::Radians: d = d * M_PI / 180.0; break;
              case Opcode::Degrees: d = d * 180.0 / M_PI; break;
              default: break;
            }
        }
        return out;
      }
      case Opcode::Atan2:
        return componentwise2(arg(0), arg(1), +[](double y, double x) {
            return std::atan2(y, x);
        });
      case Opcode::Pow:
        return componentwise2(arg(0), arg(1), +[](double a, double b) {
            return std::pow(a, b);
        });
      case Opcode::Min:
        return componentwise2(arg(0), arg(1), +[](double a, double b) {
            return std::min(a, b);
        });
      case Opcode::Max:
        return componentwise2(arg(0), arg(1), +[](double a, double b) {
            return std::max(a, b);
        });
      case Opcode::Step:
        return componentwise2(arg(0), arg(1), +[](double e, double x) {
            return x < e ? 0.0 : 1.0;
        });
      case Opcode::Dot: {
        double sum = 0.0;
        for (size_t i = 0; i < arg(0).size(); ++i)
            sum += arg(0)[i] * lane(arg(1), i);
        return std::vector<double>{sum};
      }
      case Opcode::Length: {
        double sum = 0.0;
        for (double d : arg(0))
            sum += d * d;
        return std::vector<double>{std::sqrt(sum)};
      }
      case Opcode::Distance: {
        double sum = 0.0;
        for (size_t i = 0; i < arg(0).size(); ++i) {
            double d = arg(0)[i] - lane(arg(1), i);
            sum += d * d;
        }
        return std::vector<double>{std::sqrt(sum)};
      }
      case Opcode::Normalize: {
        double sum = 0.0;
        for (double d : arg(0))
            sum += d * d;
        double len = std::sqrt(sum);
        std::vector<double> out = arg(0);
        if (len > 0.0) {
            for (double &d : out)
                d /= len;
        }
        return out;
      }
      case Opcode::Cross: {
        const auto &a = arg(0);
        const auto &b = arg(1);
        return std::vector<double>{a[1] * b[2] - a[2] * b[1],
                                   a[2] * b[0] - a[0] * b[2],
                                   a[0] * b[1] - a[1] * b[0]};
      }
      case Opcode::Clamp: {
        std::vector<double> out = arg(0);
        for (size_t i = 0; i < out.size(); ++i)
            out[i] = std::min(std::max(out[i], lane(arg(1), i)),
                              lane(arg(2), i));
        return out;
      }
      case Opcode::Mix: {
        std::vector<double> out = arg(0);
        for (size_t i = 0; i < out.size(); ++i) {
            double t = lane(arg(2), i);
            out[i] = out[i] * (1.0 - t) + lane(arg(1), i) * t;
        }
        return out;
      }
      case Opcode::Smoothstep: {
        std::vector<double> out = arg(2);
        for (size_t i = 0; i < out.size(); ++i) {
            double e0 = lane(arg(0), i), e1 = lane(arg(1), i);
            double t = e1 != e0 ? (out[i] - e0) / (e1 - e0) : 0.0;
            t = std::min(std::max(t, 0.0), 1.0);
            out[i] = t * t * (3.0 - 2.0 * t);
        }
        return out;
      }
      case Opcode::Select: {
        return instr.operands[0]->scalarConst() != 0.0
                   ? arg(1)
                   : arg(2);
      }
      case Opcode::Construct: {
        std::vector<double> out;
        for (const Instr *op : instr.operands)
            out.insert(out.end(), op->constData.begin(),
                       op->constData.end());
        const size_t want =
            static_cast<size_t>(instr.type.componentCount());
        if (out.size() == 1 && want > 1)
            out.assign(want, out[0]); // splat
        if (out.size() != want)
            return std::nullopt;
        // int(x) truncates toward zero (GLSL 4.4.0 §4.1.10). Construct
        // is also the IR's conversion op, so this is where fractional
        // values must die: the interpreter truncates here too, and the
        // int-arithmetic wrap_int below only ever sees integral lanes.
        return wrap_int(std::move(out));
      }
      case Opcode::Extract:
        return std::vector<double>{
            arg(0)[static_cast<size_t>(instr.indices[0])]};
      case Opcode::Insert: {
        std::vector<double> out = arg(0);
        out[static_cast<size_t>(instr.indices[0])] = arg(1)[0];
        return out;
      }
      case Opcode::Swizzle: {
        std::vector<double> out;
        for (int idx : instr.indices)
            out.push_back(arg(0)[static_cast<size_t>(idx)]);
        return out;
      }
      default:
        return std::nullopt;
    }
}

} // namespace gsopt::passes
