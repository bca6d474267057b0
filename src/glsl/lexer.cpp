#include "glsl/lexer.h"

#include <cctype>
#include <cstdlib>
#include <iterator>
#include <string>

#include "support/governor.h"
#include "support/rng.h"

namespace gsopt::glsl {

namespace {

/** Spellings of the reserved words, in Keyword order. */
constexpr std::string_view kKeywordSpellings[] = {
    "", "void", "float", "int", "bool", "sampler2D", "vec2", "vec3",
    "vec4", "ivec2", "ivec3", "ivec4", "bvec2", "bvec3", "bvec4", "mat2",
    "mat3", "mat4", "highp", "mediump", "lowp", "flat", "smooth",
    "noperspective", "invariant", "in", "out", "inout", "uniform",
    "varying", "const", "layout", "precision", "if", "else", "for",
    "while", "return", "discard", "break", "continue", "true", "false",
};
static_assert(std::size(kKeywordSpellings) ==
              static_cast<size_t>(Keyword::False) + 1);

/** The reserved words in an open-addressed table the compiler builds:
 * keywordOf hashes a word once and compares it with one or two
 * spellings. */
constexpr size_t kKeywordSlots = 128;
struct KeywordTable
{
    Keyword slots[kKeywordSlots] = {};
};

constexpr KeywordTable
buildKeywordTable()
{
    KeywordTable t;
    for (size_t k = 1; k < std::size(kKeywordSpellings); ++k) {
        size_t s = fnv1a(kKeywordSpellings[k]) & (kKeywordSlots - 1);
        while (t.slots[s] != Keyword::None)
            s = (s + 1) & (kKeywordSlots - 1);
        t.slots[s] = static_cast<Keyword>(k);
    }
    return t;
}

constexpr KeywordTable kKeywordTable = buildKeywordTable();

} // namespace

Keyword
keywordOf(std::string_view word)
{
    for (size_t s = fnv1a(word) & (kKeywordSlots - 1);;
         s = (s + 1) & (kKeywordSlots - 1)) {
        const Keyword k = kKeywordTable.slots[s];
        if (k == Keyword::None ||
            kKeywordSpellings[static_cast<size_t>(k)] == word)
            return k;
    }
}

Type
typeFromKeyword(Keyword k)
{
    static constexpr Type kTypes[] = {
        Type::voidTy(), Type::floatTy(), Type::intTy(), Type::boolTy(),
        Type::sampler2D(), Type::vec(2), Type::vec(3), Type::vec(4),
        Type::ivec(2), Type::ivec(3), Type::ivec(4), Type::bvec(2),
        Type::bvec(3), Type::bvec(4), Type::mat(2), Type::mat(3),
        Type::mat(4),
    };
    if (!isTypeKeyword(k))
        return Type::voidTy();
    return kTypes[static_cast<int>(k) - static_cast<int>(Keyword::Void)];
}

const char *
tokKindName(TokKind kind)
{
    static const char *const names[] = {
        "end of input", "identifier", "integer literal", "float literal",
        "'('", "')'", "'{'", "'}'", "'['", "']'", "','", "';'", "'.'",
        "'?'", "':'", "'+'", "'-'", "'*'", "'/'", "'%'", "'++'", "'--'",
        "'='", "'+='", "'-='", "'*='", "'/='", "'=='", "'!='", "'<'",
        "'>'", "'<='", "'>='", "'&&'", "'||'", "'!'",
    };
    static_assert(std::size(names) == static_cast<size_t>(TokKind::Bang) + 1);
    return names[static_cast<size_t>(kind)];
}

namespace {

/** Cursor over the raw source with line/column tracking. */
class Cursor
{
  public:
    explicit Cursor(std::string_view src) : src_(src) {}

    bool atEnd() const { return pos_ >= src_.size(); }
    char peek(size_t ahead = 0) const
    {
        return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
    }
    char advance()
    {
        char c = src_[pos_++];
        if (c == '\n') {
            ++line_;
            col_ = 1;
        } else {
            ++col_;
        }
        return c;
    }
    SourceLoc loc() const { return {line_, col_}; }
    size_t pos() const { return pos_; }

  private:
    std::string_view src_;
    size_t pos_ = 0;
    int line_ = 1;
    int col_ = 1;
};

} // namespace

std::vector<Token>
lex(std::string_view source, DiagEngine &diags)
{
    std::vector<Token> out;
    out.reserve(source.size() / 4 + 1);
    Cursor cur(source);

    // Every emitted token is charged to the ambient budget (the charge
    // path also re-checks the deadline periodically, so a giant source
    // cannot outrun a governed deadline between tokens).
    auto push = [&](TokKind kind, SourceLoc loc,
                    std::string_view text = {}) -> Token & {
        governor::charge(governor::Dim::Tokens, 1, "lex");
        Token &t = out.emplace_back();
        t.kind = kind;
        t.loc = loc;
        t.text = text;
        return t;
    };

    while (!cur.atEnd()) {
        const SourceLoc loc = cur.loc();
        char c = cur.peek();

        if (std::isspace(static_cast<unsigned char>(c))) {
            cur.advance();
            continue;
        }
        // Comments.
        if (c == '/' && cur.peek(1) == '/') {
            while (!cur.atEnd() && cur.peek() != '\n')
                cur.advance();
            continue;
        }
        if (c == '/' && cur.peek(1) == '*') {
            cur.advance();
            cur.advance();
            while (!cur.atEnd() &&
                   !(cur.peek() == '*' && cur.peek(1) == '/')) {
                cur.advance();
            }
            if (cur.atEnd()) {
                diags.error(loc, "unterminated block comment");
            } else {
                cur.advance();
                cur.advance();
            }
            continue;
        }
        // Identifiers and keywords.
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            const size_t start = cur.pos();
            while (!cur.atEnd() &&
                   (std::isalnum(static_cast<unsigned char>(cur.peek())) ||
                    cur.peek() == '_')) {
                cur.advance();
            }
            const auto word = source.substr(start, cur.pos() - start);
            push(TokKind::Identifier, loc, word).keyword = keywordOf(word);
            continue;
        }
        // Numeric literals: ints, floats (with '.', exponent, 'f' suffix).
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' &&
             std::isdigit(static_cast<unsigned char>(cur.peek(1))))) {
            const size_t start = cur.pos();
            bool is_float = false;
            while (!cur.atEnd() &&
                   std::isdigit(static_cast<unsigned char>(cur.peek())))
                cur.advance();
            if (cur.peek() == '.') {
                is_float = true;
                cur.advance();
                while (!cur.atEnd() &&
                       std::isdigit(
                           static_cast<unsigned char>(cur.peek())))
                    cur.advance();
            }
            if (cur.peek() == 'e' || cur.peek() == 'E') {
                is_float = true;
                cur.advance();
                if (cur.peek() == '+' || cur.peek() == '-')
                    cur.advance();
                if (!std::isdigit(static_cast<unsigned char>(cur.peek())))
                    diags.error(cur.loc(), "missing exponent digits");
                while (!cur.atEnd() &&
                       std::isdigit(
                           static_cast<unsigned char>(cur.peek())))
                    cur.advance();
            }
            const auto num = source.substr(start, cur.pos() - start);
            if (cur.peek() == 'f' || cur.peek() == 'F') {
                is_float = true;
                cur.advance();
            } else if (cur.peek() == 'u' || cur.peek() == 'U') {
                cur.advance(); // treat uint literals as int
            }
            // The text is not NUL-terminated: convert a terminated copy,
            // so the values (and overflow saturation) are strtod's and
            // strtol's.
            const std::string digits(num);
            if (is_float) {
                push(TokKind::FloatLit, loc, num).floatValue =
                    std::strtod(digits.c_str(), nullptr);
            } else {
                Token &t = push(TokKind::IntLit, loc, num);
                t.intValue = std::strtol(digits.c_str(), nullptr, 10);
                t.floatValue = static_cast<double>(t.intValue);
                if (t.intValue > 0xFFFFFFFFL)
                    diags.error(loc, "integer literal " + std::string(num) +
                                         " does not fit in 32 bits");
            }
            continue;
        }

        cur.advance();
        // Consume the next character if it is @p n.
        auto next = [&cur](char n) {
            if (cur.peek() != n)
                return false;
            cur.advance();
            return true;
        };
        TokKind kind;
        switch (c) {
          case '(': kind = TokKind::LParen; break;
          case ')': kind = TokKind::RParen; break;
          case '{': kind = TokKind::LBrace; break;
          case '}': kind = TokKind::RBrace; break;
          case '[': kind = TokKind::LBracket; break;
          case ']': kind = TokKind::RBracket; break;
          case ',': kind = TokKind::Comma; break;
          case ';': kind = TokKind::Semicolon; break;
          case '.': kind = TokKind::Dot; break;
          case '?': kind = TokKind::Question; break;
          case ':': kind = TokKind::Colon; break;
          case '%': kind = TokKind::Percent; break;
          case '+':
            kind = next('+')   ? TokKind::PlusPlus
                   : next('=') ? TokKind::PlusAssign
                               : TokKind::Plus;
            break;
          case '-':
            kind = next('-')   ? TokKind::MinusMinus
                   : next('=') ? TokKind::MinusAssign
                               : TokKind::Minus;
            break;
          case '*':
            kind = next('=') ? TokKind::StarAssign : TokKind::Star;
            break;
          case '/':
            kind = next('=') ? TokKind::SlashAssign : TokKind::Slash;
            break;
          case '=': kind = next('=') ? TokKind::EqEq : TokKind::Assign; break;
          case '!': kind = next('=') ? TokKind::NotEq : TokKind::Bang; break;
          case '<': kind = next('=') ? TokKind::LessEq : TokKind::Less; break;
          case '>':
            kind = next('=') ? TokKind::GreaterEq : TokKind::Greater;
            break;
          case '&':
          case '|':
            if (!next(c)) {
                diags.error(loc, std::string("bitwise '") + c +
                                     "' is not supported");
                continue;
            }
            kind = c == '&' ? TokKind::AmpAmp : TokKind::PipePipe;
            break;
          default:
            diags.error(loc, std::string("unexpected character '") + c +
                                 "'");
            continue;
        }
        push(kind, loc);
    }

    out.emplace_back().loc = cur.loc();
    return out;
}

} // namespace gsopt::glsl
