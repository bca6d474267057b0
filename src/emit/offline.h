/**
 * @file
 * The offline optimizer facade — the equivalent of invoking the
 * LunarGlass command-line tool with a set of pass flags: GLSL text in,
 * optimised GLSL text out.
 */
#ifndef GSOPT_EMIT_OFFLINE_H
#define GSOPT_EMIT_OFFLINE_H

#include <map>
#include <memory>
#include <string>

#include "ir/ir.h"
#include "passes/passes.h"

namespace gsopt::emit {

/**
 * Front end + lowering: GLSL source to a verified IR module (no
 * optimization beyond what lowering implies).
 *
 * @param predefines preprocessor macros (übershader specialisation)
 */
std::unique_ptr<ir::Module> compileToIr(
    const std::string &source,
    const std::map<std::string, std::string> &predefines = {});

/**
 * The full source-to-source path: compile, run the flagged pass
 * pipeline, and render back to GLSL. Throws gsopt::CompileError on
 * malformed input.
 */
std::string optimizeShaderSource(
    const std::string &source, passes::FlagSet flags,
    const std::map<std::string, std::string> &predefines = {});

} // namespace gsopt::emit

#endif // GSOPT_EMIT_OFFLINE_H
