/**
 * @file
 * Semantic analysis for the GLSL subset.
 *
 * Responsibilities:
 *  - build symbol tables and check every name/type rule of the subset;
 *  - annotate every expression with its Type (Expr::type);
 *  - insert implicit int->float conversions as Construct nodes;
 *  - alpha-rename shadowed locals so that, post-sema, every variable name
 *    in a function is unique (this is what lets the lowering stage treat
 *    names as identities without re-implementing scoping); a renamed
 *    spelling (`x_s1`) is interned in the shader's NameTable;
 *  - diagnose constant indices outside a vector, matrix or sized array;
 *  - collect the shader's interface (inputs, outputs, uniforms/samplers),
 *    which the runtime uses for introspection-driven auto-initialisation
 *    exactly as described in the paper (Section IV-B).
 *
 * Scopes key by NameId: one binding per name plus an undo log that
 * leaving a scope unwinds, so a lookup is an index, not a string search
 * through nested maps.
 */
#ifndef GSOPT_GLSL_SEMA_H
#define GSOPT_GLSL_SEMA_H

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "glsl/ast.h"
#include "support/diag.h"

namespace gsopt::glsl {

/** One interface variable of a checked shader. */
struct InterfaceVar
{
    std::string name;
    Type type;
    Qualifier qual = Qualifier::In;
};

/** Summary of a shader's external interface after checking. */
struct ShaderInterface
{
    std::vector<InterfaceVar> inputs;   ///< `in` variables
    std::vector<InterfaceVar> outputs;  ///< `out` variables
    std::vector<InterfaceVar> uniforms; ///< uniforms incl. samplers
};

/**
 * Type-check and annotate a shader AST in place.
 *
 * @returns the shader interface; meaningful only if !diags.hasErrors().
 */
ShaderInterface analyze(Shader &shader, DiagEngine &diags);

/**
 * Result type of a builtin-function call given argument types, or Void if
 * @p name is not a builtin / the argument types do not match. Exposed for
 * reuse by the lowering stage and tests.
 */
Type builtinResultType(std::string_view name,
                       const std::vector<Type> &args);

/**
 * Lanes of a swizzle like "xyz" / "rgb" / "stp" of a vector with
 * @p source_rows lanes; nullopt if @p name is not one.
 */
std::optional<std::vector<int>> decodeSwizzle(std::string_view name,
                                              int source_rows);

/** True if @p name names a builtin function of the subset. */
bool isBuiltinFunction(std::string_view name);

} // namespace gsopt::glsl

#endif // GSOPT_GLSL_SEMA_H
