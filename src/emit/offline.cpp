#include "emit/offline.h"

#include "emit/emit.h"
#include "glsl/frontend.h"
#include "lower/lower.h"

namespace gsopt::emit {

std::unique_ptr<ir::Module>
compileToIr(const std::string &source,
            const std::map<std::string, std::string> &predefines)
{
    glsl::CompiledShader cs = glsl::compileShader(source, predefines);
    return lower::lowerShader(cs);
}

std::string
optimizeShaderSource(const std::string &source,
                     passes::FlagSet flags,
                     const std::map<std::string, std::string> &predefines)
{
    auto module = compileToIr(source, predefines);
    passes::optimize(*module, flags);
    return emitGlsl(*module);
}

} // namespace gsopt::emit
