/**
 * @file
 * The GLSL type system subset used by the shader compiler: void, scalars
 * (float/int/bool), vectors (vec2-4, ivec2-4, bvec2-4), square matrices
 * (mat2-4), sampler2D, and constant-size arrays of any of those.
 *
 * This covers everything the GFXBench-like corpus (and typical fragment
 * shaders) needs; structs and images are deliberately out of scope and are
 * rejected by the parser.
 */
#ifndef GSOPT_GLSL_TYPE_H
#define GSOPT_GLSL_TYPE_H

#include <string>

namespace gsopt::glsl {

/** Fundamental element type. */
enum class BaseType { Void, Float, Int, Bool, Sampler2D };

/**
 * A GLSL type: a base type with column/row shape plus an optional array
 * dimension.
 *
 * Shape encoding: scalars are 1x1; a vecN is cols=1, rows=N; a matN is
 * cols=N, rows=N (column-major, as in GLSL). Samplers and void are 1x1.
 */
struct Type
{
    BaseType base = BaseType::Void;
    int cols = 1;
    int rows = 1;
    /**
     * Array dimension: 0 means "not an array"; a negative value marks an
     * unsized array (`vec4[]`) whose size is resolved from its
     * initialiser during semantic analysis.
     */
    int arraySize = 0;

    // -- Factories ------------------------------------------------------
    static constexpr Type voidTy() { return {BaseType::Void, 1, 1, 0}; }
    static constexpr Type floatTy() { return {BaseType::Float, 1, 1, 0}; }
    static constexpr Type intTy() { return {BaseType::Int, 1, 1, 0}; }
    static constexpr Type boolTy() { return {BaseType::Bool, 1, 1, 0}; }
    static constexpr Type sampler2D() { return {BaseType::Sampler2D, 1, 1, 0}; }
    static constexpr Type vec(int n) { return {BaseType::Float, 1, n, 0}; }
    static constexpr Type ivec(int n) { return {BaseType::Int, 1, n, 0}; }
    static constexpr Type bvec(int n) { return {BaseType::Bool, 1, n, 0}; }
    static constexpr Type mat(int n) { return {BaseType::Float, n, n, 0}; }

    /** Same type with a different array dimension. */
    Type array(int n) const
    {
        Type t = *this;
        t.arraySize = n;
        return t;
    }

    /** The element type of an array (self if not an array). */
    Type elementType() const
    {
        Type t = *this;
        t.arraySize = 0;
        return t;
    }

    // -- Queries --------------------------------------------------------
    bool isArray() const { return arraySize != 0; }
    bool isVoid() const { return base == BaseType::Void; }
    bool isSampler() const { return base == BaseType::Sampler2D; }
    bool isScalar() const
    {
        return !isArray() && cols == 1 && rows == 1 && !isSampler() &&
               !isVoid();
    }
    bool isVector() const { return !isArray() && cols == 1 && rows > 1; }
    bool isMatrix() const { return !isArray() && cols > 1; }
    bool isFloat() const { return base == BaseType::Float; }
    bool isInt() const { return base == BaseType::Int; }
    bool isBool() const { return base == BaseType::Bool; }
    bool isNumeric() const
    {
        return (isFloat() || isInt()) && !isArray() && !isSampler();
    }

    /** Number of scalar components (vec3 -> 3, mat4 -> 16, scalar -> 1). */
    int componentCount() const { return cols * rows; }

    /** The scalar type with the same base (vec3 -> float). */
    Type scalarType() const { return {base, 1, 1, 0}; }

    /** Vector of @p n lanes with the same base type. */
    Type withRows(int n) const { return {base, 1, n, 0}; }

    bool operator==(const Type &o) const
    {
        return base == o.base && cols == o.cols && rows == o.rows &&
               arraySize == o.arraySize;
    }
    bool operator!=(const Type &o) const { return !(*this == o); }

    /** GLSL spelling, e.g. "vec3", "mat4", "float", "int[9]". */
    std::string str() const;
};

} // namespace gsopt::glsl

#endif // GSOPT_GLSL_TYPE_H
