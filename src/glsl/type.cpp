#include "glsl/type.h"

namespace gsopt::glsl {

std::string
Type::str() const
{
    if (isArray())
        return elementType().str() + "[" + std::to_string(arraySize) +
               "]";
    if (isMatrix())
        return "mat" + std::to_string(cols);
    // By BaseType: Void, Float, Int, Bool, Sampler2D.
    static const char *const kScalars[] = {"void", "float", "int", "bool",
                                           "sampler2D"};
    static const char *const kVectorPrefixes[] = {"?", "", "i", "b", "?"};
    const auto b = static_cast<size_t>(base);
    if (isVector())
        return std::string(kVectorPrefixes[b]) + "vec" +
               std::to_string(rows);
    return kScalars[b];
}

} // namespace gsopt::glsl
