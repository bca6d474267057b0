/**
 * @file
 * AST pretty-printer: renders a (possibly optimised) Shader back to GLSL
 * source text. The output is deterministic, which makes it usable as the
 * textual identity key for the paper's unique-variant counting (Fig 4c).
 */
#ifndef GSOPT_GLSL_PRINTER_H
#define GSOPT_GLSL_PRINTER_H

#include <string>

#include "glsl/ast.h"

namespace gsopt::glsl {

/** Render a full shader (version line, globals, functions). */
std::string printShader(const Shader &shader);

/** Render a single expression of @p shader (tests and debugging). */
std::string printExpr(const Shader &shader, const Expr &e);

/** Render a single statement of @p shader at the given indent level. */
std::string printStmt(const Shader &shader, const Stmt &s, int indent = 0);

} // namespace gsopt::glsl

#endif // GSOPT_GLSL_PRINTER_H
