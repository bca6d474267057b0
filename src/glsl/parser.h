/**
 * @file
 * Recursive-descent parser for the GLSL subset: preprocessed tokens in,
 * Shader AST out. Layout qualifiers and precision qualifiers are accepted
 * and discarded (they do not affect optimization or the performance
 * models).
 */
#ifndef GSOPT_GLSL_PARSER_H
#define GSOPT_GLSL_PARSER_H

#include <vector>

#include "glsl/ast.h"
#include "glsl/token.h"
#include "support/diag.h"

namespace gsopt::glsl {

/** Largest array size a declaration or constructor may spell. */
constexpr long kMaxArraySize = 65536;

/**
 * Parse a token stream into a Shader AST. Nodes go to the returned
 * Shader's arena and identifiers to its NameTable; the tokens are not
 * referenced afterwards.
 *
 * Errors are reported to @p diags; the returned AST is only meaningful if
 * `!diags.hasErrors()`.
 */
Shader parseShader(const std::vector<Token> &tokens, DiagEngine &diags);

} // namespace gsopt::glsl

#endif // GSOPT_GLSL_PARSER_H
