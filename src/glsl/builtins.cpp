#include "glsl/builtins.h"

namespace gsopt::glsl {

namespace {

using ir::Opcode;

constexpr Operand G = Operand::Gen;
constexpr Operand S = Operand::GenOrScalar;
constexpr Operand F = Operand::Float;
constexpr Operand V2 = Operand::Vec2;
constexpr Operand V3 = Operand::Vec3;
constexpr Operand T = Operand::Sampler;

/** The first row of an opcode names it in emitted GLSL (so Texture
 * is spelled texture, not texture2D). */
const Builtin kBuiltins[] = {
    // genType f(genType)
    {"radians", Opcode::Radians, 1, {G}},
    {"degrees", Opcode::Degrees, 1, {G}},
    {"sin", Opcode::Sin, 1, {G}},
    {"cos", Opcode::Cos, 1, {G}},
    {"tan", Opcode::Tan, 1, {G}},
    {"asin", Opcode::Asin, 1, {G}},
    {"acos", Opcode::Acos, 1, {G}},
    {"atan", Opcode::Atan, 1, {G}},
    {"atan", Opcode::Atan2, 2, {G, G}},
    {"exp", Opcode::Exp, 1, {G}},
    {"log", Opcode::Log, 1, {G}},
    {"exp2", Opcode::Exp2, 1, {G}},
    {"log2", Opcode::Log2, 1, {G}},
    {"sqrt", Opcode::Sqrt, 1, {G}},
    {"inversesqrt", Opcode::InvSqrt, 1, {G}},
    {"abs", Opcode::Abs, 1, {G}, Result::Gen, true},
    {"sign", Opcode::Sign, 1, {G}},
    {"floor", Opcode::Floor, 1, {G}},
    {"ceil", Opcode::Ceil, 1, {G}},
    {"fract", Opcode::Fract, 1, {G}},
    {"normalize", Opcode::Normalize, 1, {G}},
    // genType f(genType, genType)
    {"pow", Opcode::Pow, 2, {G, G}},
    {"reflect", Opcode::Reflect, 2, {G, G}},
    // the second operand may be a scalar
    {"mod", Opcode::Mod, 2, {G, S}},
    {"min", Opcode::Min, 2, {G, S}, Result::Gen, true},
    {"max", Opcode::Max, 2, {G, S}, Result::Gen, true},
    // the bounds, the weight or the edges may be scalars
    {"clamp", Opcode::Clamp, 3, {G, S, S}, Result::Gen, true},
    {"mix", Opcode::Mix, 3, {G, G, S}},
    {"step", Opcode::Step, 2, {S, G}},
    {"smoothstep", Opcode::Smoothstep, 3, {S, S, G}},
    {"refract", Opcode::Refract, 3, {G, G, F}},
    // reductions to float
    {"length", Opcode::Length, 1, {G}, Result::Float},
    {"distance", Opcode::Distance, 2, {G, G}, Result::Float},
    {"dot", Opcode::Dot, 2, {G, G}, Result::Float},
    {"cross", Opcode::Cross, 2, {V3, V3}, Result::Vec3},
    // texturing: the bias or LOD is the optional third operand
    {"texture", Opcode::Texture, 2, {T, V2}, Result::Vec4},
    {"texture", Opcode::TextureBias, 3, {T, V2, F}, Result::Vec4},
    {"texture2D", Opcode::Texture, 2, {T, V2}, Result::Vec4},
    {"texture2D", Opcode::TextureBias, 3, {T, V2, F}, Result::Vec4},
    {"textureLod", Opcode::TextureLod, 3, {T, V2, F}, Result::Vec4},
};

} // namespace

Type
Builtin::resultType(const std::vector<Type> &args) const
{
    if (args.size() != arity)
        return Type::voidTy();
    Type gen = Type::voidTy();
    for (size_t k = 0; k < arity; ++k) {
        if (operands[k] == Operand::Gen) {
            gen = args[k];
            if (gen.isArray() || gen.isMatrix() ||
                !(gen.isFloat() || (intOverload && gen.isInt())))
                return Type::voidTy();
            break;
        }
    }
    const Type scalar = gen.scalarType();
    int picked = -1; // GenOrScalar operands: 0 all genType, 1 all scalar
    for (size_t k = 0; k < arity; ++k) {
        const Type &t = args[k];
        bool ok = false;
        switch (operands[k]) {
          case Operand::Gen:
            ok = t == gen;
            break;
          case Operand::GenOrScalar: {
            const bool is_gen = t == gen;
            const bool is_scalar = t == scalar;
            ok = is_gen || is_scalar;
            // A scalar genType fits both ways and picks neither.
            if (is_gen != is_scalar) {
                ok = picked < 0 || picked == is_scalar;
                picked = is_scalar;
            }
            break;
          }
          case Operand::Float:
            ok = t == Type::floatTy();
            break;
          case Operand::Vec2:
            ok = t == Type::vec(2);
            break;
          case Operand::Vec3:
            ok = t == Type::vec(3);
            break;
          case Operand::Sampler:
            ok = t.isSampler();
            break;
        }
        if (!ok)
            return Type::voidTy();
    }
    switch (result) {
      case Result::Gen:
        return gen;
      case Result::Float:
        return Type::floatTy();
      case Result::Vec3:
        return Type::vec(3);
      case Result::Vec4:
        return Type::vec(4);
    }
    return Type::voidTy();
}

const Builtin *
findBuiltin(std::string_view name, size_t arity)
{
    const Builtin *named = nullptr;
    for (const Builtin &b : kBuiltins) {
        if (b.name != name)
            continue;
        if (b.arity == arity)
            return &b;
        named = &b;
    }
    return named;
}

const char *
builtinSpelling(ir::Opcode op)
{
    static const auto spellings = [] {
        // Discard is the last opcode.
        std::array<const char *,
                   static_cast<size_t>(Opcode::Discard) + 1>
            out{};
        for (const Builtin &b : kBuiltins) {
            const char *&s = out[static_cast<size_t>(b.op)];
            if (!s)
                s = b.name.data();
        }
        return out;
    }();
    return spellings[static_cast<size_t>(op)];
}

} // namespace gsopt::glsl
