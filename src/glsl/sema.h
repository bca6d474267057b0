/**
 * @file
 * Semantic analysis for the GLSL subset.
 *
 * Responsibilities:
 *  - build symbol tables and check every name/type rule of the subset;
 *  - annotate every expression with its Type (Expr::type);
 *  - resolve each builtin call to its row of the builtin catalogue
 *    (glsl/builtins.h), whose operand rule accepts or rejects the call
 *    and gives its type, and record the row on the call
 *    (Expr::builtin) so that lowering looks no name up again; a call
 *    that fits no row is retried with every int argument promoted to
 *    float;
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
 * Lanes of a swizzle like "xyz" / "rgb" / "stp" of a vector with
 * @p source_rows lanes; nullopt if @p name is not one.
 */
std::optional<std::vector<int>> decodeSwizzle(std::string_view name,
                                              int source_rows);

} // namespace gsopt::glsl

#endif // GSOPT_GLSL_SEMA_H
