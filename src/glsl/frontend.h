/**
 * @file
 * Convenience facade over the GLSL front end: preprocess + lex + parse +
 * analyze in one call. This is the entry point the optimizer, the driver
 * compilers, and the corpus all use.
 */
#ifndef GSOPT_GLSL_FRONTEND_H
#define GSOPT_GLSL_FRONTEND_H

#include <map>
#include <string>

#include "glsl/ast.h"
#include "glsl/preprocessor.h"
#include "glsl/sema.h"
#include "support/diag.h"

namespace gsopt::glsl {

/**
 * A fully checked shader plus its interface and preprocessed text.
 * Move-only: the AST owns its arena and NameTable.
 */
struct CompiledShader
{
    Shader ast;
    ShaderInterface interface;
    std::string preprocessedText;
    int version = 0;
};

/**
 * Run the complete front end. Throws CompileError on any diagnostic of
 * error severity; warnings on a successful compile are delivered
 * through the support/diag warning sink (setWarningSink), never
 * silently dropped.
 *
 * It is a governed admission point: when ambient resource caps are
 * configured (GSOPT_DEADLINE_MS / GSOPT_BUDGET_*, or
 * governor::ScopedAmbientCaps), each call gets a fresh budget and may
 * throw governor::ResourceExhausted naming the exhausted dimension.
 *
 * @param source     raw GLSL text (may contain directives)
 * @param predefines externally injected macros (übershader specialisation)
 */
CompiledShader compileShader(
    const std::string &source,
    const std::map<std::string, std::string> &predefines = {});

} // namespace gsopt::glsl

#endif // GSOPT_GLSL_FRONTEND_H
