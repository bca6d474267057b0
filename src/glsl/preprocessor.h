/**
 * @file
 * A GLSL preprocessor. GFXBench-style "übershaders" are specialised via
 * `#define` / `#ifdef`, so faithful preprocessing is a prerequisite both
 * for building the corpus families and for the paper's "lines of code
 * after preprocessing" metric (Fig 4a).
 *
 * Supported directives: #version, #extension, #pragma (recorded or
 * ignored), #define (object- and function-like), #undef, #ifdef, #ifndef,
 * #if, #elif, #else, #endif, and backslash line continuations. `defined(X)`
 * and integer constant expressions are supported in #if/#elif. A comment
 * in a directive line counts as one space, as in C; the scan for
 * directives is line by line, so a block comment spanning lines does not
 * hide the directives inside it.
 */
#ifndef GSOPT_GLSL_PREPROCESSOR_H
#define GSOPT_GLSL_PREPROCESSOR_H

#include <map>
#include <string>
#include <vector>

#include "support/diag.h"

namespace gsopt::glsl {

/** Output of a preprocessor run. */
struct PreprocessResult
{
    std::string text;   ///< directive-free GLSL source
    int version = 0;    ///< value of #version, 0 if absent
    std::vector<std::string> extensions; ///< raw #extension lines
};

/**
 * Run the preprocessor.
 *
 * @param source     raw GLSL text
 * @param predefines externally injected macros (name -> replacement);
 *                   an empty replacement defines a flag macro
 * @param diags      receives directive errors
 */
PreprocessResult preprocess(
    const std::string &source,
    const std::map<std::string, std::string> &predefines,
    DiagEngine &diags);

} // namespace gsopt::glsl

#endif // GSOPT_GLSL_PREPROCESSOR_H
