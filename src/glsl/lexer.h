/**
 * @file
 * The GLSL lexer. Converts preprocessed source text into a token stream.
 * Comments are stripped; `#` directives must already have been handled by
 * the Preprocessor (a stray `#` is a lex error).
 *
 * Tokens view the source (Token::text) instead of copying it, and each
 * identifier's reserved-word class is looked up once, here, in one
 * constant-initialized table (keywordOf). Numbers convert to the same
 * values as strtod/strtol; an integer literal that does not fit in 32
 * bits is an error.
 */
#ifndef GSOPT_GLSL_LEXER_H
#define GSOPT_GLSL_LEXER_H

#include <string_view>
#include <vector>

#include "glsl/token.h"
#include "support/diag.h"

namespace gsopt::glsl {

/**
 * Lex a whole buffer into tokens (terminated by a TokKind::End token).
 *
 * @param source preprocessed GLSL text; must outlive the tokens
 * @param diags  receives lexical errors (bad characters, bad numbers)
 */
std::vector<Token> lex(std::string_view source, DiagEngine &diags);

} // namespace gsopt::glsl

#endif // GSOPT_GLSL_LEXER_H
