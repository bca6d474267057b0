/**
 * @file
 * Token definitions shared by the GLSL lexer and parser.
 *
 * A token's text is a view into the buffer it was lexed from (for a
 * compile, CompiledShader::preprocessedText), so that buffer must
 * outlive the tokens. Reserved words are classified once, by the lexer,
 * from one constant-initialized table: an identifier token carries its
 * Keyword (Keyword::None for a plain name), and the parser tests kinds
 * instead of comparing spellings.
 */
#ifndef GSOPT_GLSL_TOKEN_H
#define GSOPT_GLSL_TOKEN_H

#include <cstdint>
#include <string_view>

#include "glsl/type.h"
#include "support/diag.h"

namespace gsopt::glsl {

/** Token kinds for the GLSL subset. */
enum class TokKind {
    End,
    Identifier, ///< also type keywords and reserved words
    IntLit,
    FloatLit,
    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semicolon,
    Dot,
    Question,
    Colon,
    // operators
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    PlusPlus,
    MinusMinus,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    EqEq,
    NotEq,
    Less,
    Greater,
    LessEq,
    GreaterEq,
    AmpAmp,
    PipePipe,
    Bang,
};

/**
 * Reserved words of the subset. The type names come first, in the
 * order of typeFromKeyword's table; then precision words, then
 * interpolation words, then the rest.
 */
enum class Keyword : uint8_t {
    None, ///< not a reserved word
    // types
    Void, Float, Int, Bool, Sampler2D,
    Vec2, Vec3, Vec4, IVec2, IVec3, IVec4, BVec2, BVec3, BVec4,
    Mat2, Mat3, Mat4,
    // precision
    Highp, Mediump, Lowp,
    // interpolation
    Flat, Smooth, Noperspective, Invariant,
    // qualifiers and statements
    In, Out, Inout, Uniform, Varying, Const, Layout, Precision,
    If, Else, For, While, Return, Discard, Break, Continue, True, False,
};

/** The reserved word @p word spells (Keyword::None if none). */
Keyword keywordOf(std::string_view word);

inline bool isTypeKeyword(Keyword k)
{
    return k >= Keyword::Void && k <= Keyword::Mat4;
}
inline bool isPrecisionKeyword(Keyword k)
{
    return k >= Keyword::Highp && k <= Keyword::Lowp;
}
/** Precision or interpolation word: accepted and discarded. */
inline bool isIgnoredQualifier(Keyword k)
{
    return k >= Keyword::Highp && k <= Keyword::Invariant;
}

/** The type a type keyword names; Void for any other keyword. */
Type typeFromKeyword(Keyword k);

/** A single lexed token with its spelling and location. */
struct Token
{
    TokKind kind = TokKind::End;
    Keyword keyword = Keyword::None; ///< identifiers only
    std::string_view text; ///< identifier spelling or literal text
    double floatValue = 0.0;
    long intValue = 0;
    SourceLoc loc;

    bool is(TokKind k) const { return kind == k; }
    bool is(Keyword k) const { return keyword == k; }
};

/** Spelling of a token kind for diagnostics ("','", "identifier", ...). */
const char *tokKindName(TokKind kind);

} // namespace gsopt::glsl

#endif // GSOPT_GLSL_TOKEN_H
