/**
 * @file
 * The GLSL builtin-function catalogue: one row per (name, arity) of the
 * subset, holding the IR opcode it lowers to and the rule that types
 * its operands. Sema resolves each call to a row and records it on the
 * call node (Expr::builtin); lowering splats and emits from that row;
 * the GLSL back end spells a builtin opcode from the table. So the
 * front end, the lowerer and the emitter share one vocabulary.
 */
#ifndef GSOPT_GLSL_BUILTINS_H
#define GSOPT_GLSL_BUILTINS_H

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "glsl/type.h"
#include "ir/ir.h"

namespace gsopt::glsl {

/** What one operand of a builtin must be. The call's genType is the
 * type of its first Gen operand: a float scalar or vector (or an int
 * one if the row has an int overload). */
enum class Operand : uint8_t {
    Gen,         ///< the genType
    GenOrScalar, ///< the genType or its scalar; every such operand of
                 ///< one call picks the same, and lowering splats it
    Float,       ///< a float scalar
    Vec2,        ///< a vec2
    Vec3,        ///< a vec3
    Sampler,     ///< a sampler uniform
};

/** The type a builtin returns. */
enum class Result : uint8_t {
    Gen,   ///< the genType
    Float, ///< a float scalar (the reductions)
    Vec3,
    Vec4,
};

/** One catalogue row. */
struct Builtin
{
    std::string_view name;
    ir::Opcode op;
    uint8_t arity;
    std::array<Operand, 3> operands;
    Result result = Result::Gen;
    bool intOverload = false; ///< the genType may be an int type

    /** The call's result type for argument types @p args, or Void if
     * they do not fit the row. */
    Type resultType(const std::vector<Type> &args) const;
};

/**
 * The row spelled @p name with @p arity operands. If @p name is a
 * builtin without such a row, some row spelled @p name (whose
 * resultType rejects the call); nullptr if @p name is no builtin.
 */
const Builtin *findBuiltin(std::string_view name, size_t arity);

/** The GLSL name of builtin opcode @p op (its first row's); nullptr
 * for an opcode no builtin lowers to. */
const char *builtinSpelling(ir::Opcode op);

} // namespace gsopt::glsl

#endif // GSOPT_GLSL_BUILTINS_H
