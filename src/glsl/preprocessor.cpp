#include "glsl/preprocessor.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "support/governor.h"
#include "support/strings.h"

namespace gsopt::glsl {

namespace {

/** A macro definition. */
struct Macro
{
    bool functionLike = false;
    std::vector<std::string> params;
    std::string body;
};

/** Transparent, so a name viewed in the source finds its macro. */
using MacroTable = std::map<std::string, Macro, std::less<>>;

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** End of the run of identifier characters at @p i. */
size_t
identEnd(std::string_view s, size_t i)
{
    while (i < s.size() && isIdentChar(s[i]))
        ++i;
    return i;
}

/** First non-space position at or after @p i. */
size_t
skipSpace(std::string_view s, size_t i)
{
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
    return i;
}

/**
 * Append @p text to @p out, handing each identifier to @p word instead
 * of copying it. `word(name, i)` is called with `i` just past the name;
 * it appends the name's replacement to @p out and may advance `i` over
 * what follows the name (an argument list, a `defined` operand).
 */
template <typename Word>
void
rewriteIdents(std::string &out, std::string_view text, Word &&word)
{
    size_t i = 0;
    while (i < text.size()) {
        const size_t start = i;
        while (i < text.size() && !isIdentStart(text[i]))
            ++i;
        out.append(text.substr(start, i - start));
        if (i == text.size())
            break;
        const size_t end = identEnd(text, i);
        const std::string_view name = text.substr(i, end - i);
        i = end;
        word(name, i);
    }
}

constexpr size_t kMaxExpansionBytes = 4u << 20;

/** A binary `#if` operator: its spelling, precedence and value. */
struct BinaryOp
{
    std::string_view spelling;
    int prec;
    long (*apply)(long, long);
};

using ulong = unsigned long;

// Two spellings share a prefix only within one precedence level, and
// there the longer one comes first, so `<` never eats half of `<=`.
// Arithmetic wraps (through ulong), so hostile operands neither
// overflow nor trap (LONG_MIN / -1).
constexpr BinaryOp kBinaryOps[] = {
    {"||", 1, [](long a, long b) -> long { return a != 0 || b != 0; }},
    {"&&", 2, [](long a, long b) -> long { return a != 0 && b != 0; }},
    {"==", 3, [](long a, long b) -> long { return a == b; }},
    {"!=", 3, [](long a, long b) -> long { return a != b; }},
    {"<=", 3, [](long a, long b) -> long { return a <= b; }},
    {">=", 3, [](long a, long b) -> long { return a >= b; }},
    {"<", 3, [](long a, long b) -> long { return a < b; }},
    {">", 3, [](long a, long b) -> long { return a > b; }},
    {"+", 4, [](long a, long b) -> long { return ulong(a) + ulong(b); }},
    {"-", 4, [](long a, long b) -> long { return ulong(a) - ulong(b); }},
    {"*", 5, [](long a, long b) -> long { return ulong(a) * ulong(b); }},
    {"/", 5, [](long a, long b) -> long {
         return b == -1 ? -ulong(a) : b ? a / b : 0;
     }},
    {"%", 5, [](long a, long b) -> long { return b && b != -1 ? a % b : 0; }},
};

/**
 * Precedence-climbing evaluator for #if constant expressions over
 * already macro-expanded text (with `defined(...)` resolved
 * beforehand). Both operands of `||` and `&&` are evaluated.
 */
class CondParser
{
  public:
    CondParser(const std::string &text, DiagEngine &diags)
        : text_(text), diags_(diags)
    {
    }

    long parse()
    {
        long v = parseBinary(1);
        if (skipSpace(text_, pos_) < text_.size())
            error("trailing characters in #if expression");
        return v;
    }

  private:
    bool eat(char c)
    {
        pos_ = skipSpace(text_, pos_);
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }
    /** The operator at the cursor, skipping space; nullptr if none. */
    const BinaryOp *peekBinary()
    {
        pos_ = skipSpace(text_, pos_);
        const std::string_view rest = std::string_view(text_).substr(pos_);
        for (const BinaryOp &op : kBinaryOps)
            if (startsWith(rest, op.spelling))
                return &op;
        return nullptr;
    }
    // Not inlined into itself, which would grow the frame that every
    // nested '(' pays for.
    [[gnu::noinline]] long parseBinary(int minPrec)
    {
        long v = parseUnary();
        while (const BinaryOp *op = peekBinary()) {
            if (op->prec < minPrec)
                break;
            pos_ += op->spelling.size();
            v = op->apply(v, parseBinary(op->prec + 1));
        }
        return v;
    }
    // Nesting recurses through parseUnary and parseBinary only, so
    // operands and errors live in calls of their own: each '(' costs
    // two small frames (43k nested parentheses fit in 8 MiB of stack).
    long parseUnary()
    {
        if (eat('!'))
            return parseUnary() == 0 ? 1 : 0;
        if (eat('-'))
            return -ulong(parseUnary());
        if (eat('+'))
            return parseUnary();
        if (!eat('('))
            return parseOperand();
        long v = parseBinary(1);
        if (!eat(')'))
            error("missing ')' in #if expression");
        return v;
    }
    long parseOperand()
    {
        if (pos_ < text_.size() &&
            std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            char *endp = nullptr;
            long v = std::strtol(text_.c_str() + pos_, &endp, 0);
            pos_ = static_cast<size_t>(endp - text_.c_str());
            return v;
        }
        // Undefined identifiers evaluate to 0, as in C.
        if (pos_ < text_.size() && isIdentStart(text_[pos_])) {
            pos_ = identEnd(text_, pos_);
            return 0;
        }
        error("malformed #if expression");
        pos_ = text_.size();
        return 0;
    }
    void error(const char *message) { diags_.error({}, message); }

    const std::string &text_;
    DiagEngine &diags_;
    size_t pos_ = 0;
};

/** State of one nested conditional block. */
struct CondState
{
    bool parentActive;  ///< enclosing region live?
    bool taken;         ///< some branch of this if-chain already taken
    bool active;        ///< current branch live?
};

/** One preprocess() run: the macro table, conditionals and output. */
class Preprocessor
{
  public:
    Preprocessor(const std::map<std::string, std::string> &predefines,
                 DiagEngine &diags)
        : diags_(diags)
    {
        for (const auto &[name, body] : predefines)
            macros_[name] = Macro{false, {}, body};
    }

    /** Process one logical line (continuations already joined). */
    void line(std::string_view text)
    {
        ++lineNo_;
        if ((lineNo_ & 63) == 0)
            governor::checkDeadline("preprocess");
        const std::string_view stripped = trim(text);
        if (!stripped.empty() && stripped.front() == '#') {
            // A comment in a directive counts as one space.
            bool inBlock = false;
            directive(trim(stripComments(stripped.substr(1), inBlock,
                                         commentFree_)),
                      {lineNo_, 1});
            return;
        }
        if (!active())
            return;
        // With no macro defined there is nothing to expand (nor to
        // charge): expansion would rebuild the line unchanged.
        if (macros_.empty())
            result_.text += text;
        else
            expand(result_.text, text, 0);
        result_.text += '\n';
    }

    PreprocessResult finish()
    {
        if (!conds_.empty())
            diags_.error({lineNo_, 1}, "unterminated #if block");
        return std::move(result_);
    }

  private:
    bool active() const { return conds_.empty() || conds_.back().active; }

    void directive(std::string_view text, SourceLoc loc)
    {
        const size_t sp = identEnd(text, 0);
        const std::string_view head = text.substr(0, sp);
        const std::string_view rest = trim(text.substr(sp));
        if (head == "if" || head == "ifdef" || head == "ifndef") {
            const bool parent = active();
            bool cond = false;
            if (parent && head == "if")
                cond = condition(rest);
            else if (parent)
                cond = (macros_.count(rest) > 0) == (head == "ifdef");
            conds_.push_back({parent, cond, cond});
        } else if (head == "elif" || head == "else" || head == "endif") {
            if (conds_.empty()) {
                diags_.error(loc, "#" + std::string(head) + " without #if");
                return;
            }
            CondState &cs = conds_.back();
            if (head == "endif") {
                conds_.pop_back();
            } else if (head == "else") {
                cs.active = cs.parentActive && !cs.taken;
                cs.taken = true;
            } else if (!cs.parentActive || cs.taken) {
                cs.active = false;
            } else {
                cs.active = cs.taken = condition(rest);
            }
        } else if (head == "pragma") {
            // ignored
        } else if (head != "version" && head != "extension" &&
                   head != "define" && head != "undef") {
            diags_.error(loc, "unknown directive '#" + std::string(head) +
                                  "'");
        } else if (!active()) {
            // skipped with the region
        } else if (head == "version") {
            result_.version =
                std::strtol(std::string(rest).c_str(), nullptr, 10);
        } else if (head == "extension") {
            result_.extensions.emplace_back(rest);
        } else if (head == "undef") {
            if (auto it = macros_.find(rest); it != macros_.end())
                macros_.erase(it);
        } else {
            define(rest, loc);
        }
    }

    void define(std::string_view rest, SourceLoc loc)
    {
        const size_t sp = identEnd(rest, 0);
        const std::string_view name = rest.substr(0, sp);
        if (name.empty()) {
            diags_.error(loc, "#define without a name");
            return;
        }
        Macro m;
        if (sp < rest.size() && rest[sp] == '(') {
            m.functionLike = true;
            const size_t close = rest.find(')', sp);
            if (close == std::string_view::npos) {
                diags_.error(loc, "unterminated macro parameter list");
                return;
            }
            for (size_t p = sp + 1; p <= close;) {
                const size_t comma = std::min(rest.find(',', p), close);
                const std::string_view param =
                    trim(rest.substr(p, comma - p));
                if (!param.empty())
                    m.params.emplace_back(param);
                p = comma + 1;
            }
            m.body = trim(rest.substr(close + 1));
        } else {
            m.body = trim(rest.substr(sp));
        }
        macros_.insert_or_assign(std::string(name), std::move(m));
    }

    /** Value of an #if / #elif expression. */
    bool condition(std::string_view expr)
    {
        std::string resolved;
        rewriteIdents(resolved, expr, [&](std::string_view word, size_t &i) {
            if (word != "defined") {
                resolved += word;
                return;
            }
            // `defined(X)` or `defined X` reads as 1 or 0.
            i = skipSpace(expr, i);
            const bool paren = i < expr.size() && expr[i] == '(';
            i = skipSpace(expr, i + paren);
            const size_t nameEnd = identEnd(expr, i);
            const bool found = macros_.count(expr.substr(i, nameEnd - i));
            i = nameEnd;
            if (paren) {
                i = skipSpace(expr, i);
                i += i < expr.size() && expr[i] == ')';
            }
            resolved += found ? '1' : '0';
        });
        std::string text;
        expand(text, resolved, 0);
        return CondParser(text, diags_).parse() != 0;
    }

    /**
     * Append @p text to @p out with its macros expanded. A line that
     * changed is rescanned; @p depth guards against runaway recursion
     * and the byte count against runaway output growth.
     */
    void expand(std::string &out, std::string_view text, int depth)
    {
        if (exhausted_) {
            out += text; // already diagnosed; stop rewriting entirely
            return;
        }
        if (depth > 32) {
            diags_.error({}, "macro expansion too deep (recursive macro?)");
            out += text;
            return;
        }
        std::string next;
        bool changed = false;
        rewriteIdents(next, text, [&](std::string_view word, size_t &i) {
            changed |= invoke(next, text, word, i);
        });
        if (!changed) {
            out += next;
            return;
        }
        governor::charge(governor::Dim::PreprocBytes, next.size(),
                         "preprocess");
        expandedBytes_ += next.size();
        if (expandedBytes_ > kMaxExpansionBytes) {
            exhausted_ = true;
            diags_.error({}, "macro expansion exceeded " +
                                 std::to_string(kMaxExpansionBytes) +
                                 " bytes (macro bomb?)");
            out += text;
            return;
        }
        expand(out, next, depth + 1);
    }

    /**
     * Append @p word's replacement to @p out: a macro's body (with
     * arguments, read from @p text past @p i, substituted as whole
     * identifiers), else the word itself. True if it was replaced.
     */
    bool invoke(std::string &out, std::string_view text,
                std::string_view word, size_t &i)
    {
        auto it = macros_.find(word);
        if (it == macros_.end()) {
            out += word;
            return false;
        }
        const Macro &m = it->second;
        if (!m.functionLike) {
            out += m.body;
            return true;
        }
        // Function-like: require '(' (else the name is left alone).
        size_t j = skipSpace(text, i);
        if (j >= text.size() || text[j] != '(') {
            out += word;
            return false;
        }
        // Comma-separated arguments at paren depth 0.
        std::vector<std::string_view> args;
        size_t argStart = ++j;
        for (int depth = 1; j < text.size(); ++j) {
            const char c = text[j];
            if (c == '(') {
                ++depth;
            } else if (c == ')' && --depth == 0) {
                break;
            } else if (c == ',' && depth == 1) {
                args.push_back(trim(text.substr(argStart, j - argStart)));
                argStart = j + 1;
            }
        }
        if (j == text.size()) {
            diags_.error({}, "unterminated macro invocation of '" +
                                 std::string(word) + "'");
            out += word;
            return false;
        }
        if (j > argStart || !args.empty())
            args.push_back(trim(text.substr(argStart, j - argStart)));
        if (args.size() != m.params.size()) {
            diags_.error({}, "macro '" + std::string(word) + "' expects " +
                                 std::to_string(m.params.size()) +
                                 " arguments, got " +
                                 std::to_string(args.size()));
            out += word;
            return false;
        }
        rewriteIdents(out, m.body, [&](std::string_view param, size_t &) {
            for (size_t p = 0; p < m.params.size(); ++p) {
                if (m.params[p] == param) {
                    out += '(';
                    out += args[p];
                    out += ')';
                    return;
                }
            }
            out += param;
        });
        i = j + 1;
        return true;
    }

    DiagEngine &diags_;
    MacroTable macros_;
    std::vector<CondState> conds_;
    PreprocessResult result_;
    std::string commentFree_; ///< a directive line, comments replaced
    int lineNo_ = 0;
    /**
     * Expansion work across the whole run. Recursion depth alone cannot
     * stop a non-recursive exponential bomb (#define A B B / #define B
     * C C / ... doubles per rescan, OOMing long before depth 32), so
     * total output bytes are capped too: the built-in cap rejects any
     * bomb with a clean diagnostic even ungoverned, and every produced
     * byte is charged to the ambient governor budget so a (usually
     * much tighter) policy cap raises ResourceExhausted first.
     */
    size_t expandedBytes_ = 0;
    bool exhausted_ = false;
};

} // namespace

PreprocessResult
preprocess(const std::string &source,
           const std::map<std::string, std::string> &predefines,
           DiagEngine &diags)
{
    Preprocessor pp(predefines, diags);
    // Each line is a view of the source; only one ending in '\' is
    // copied, into the buffer that joins it with the lines after it.
    // A '\r' before '\n' is dropped, a trailing '\n' yields a final
    // empty line, and a continuation at end of file counts only if it
    // is non-empty.
    std::string joined;
    bool joining = false;
    for (size_t start = 0;;) {
        const size_t nl = source.find('\n', start);
        std::string_view line = std::string_view(source).substr(
            start, nl == std::string::npos ? std::string::npos : nl - start);
        if (!line.empty() && line.back() == '\r')
            line.remove_suffix(1);
        if (!line.empty() && line.back() == '\\') {
            joined.append(line.substr(0, line.size() - 1));
            joining = true;
        } else if (joining) {
            joined.append(line);
            pp.line(joined);
            joined.clear();
            joining = false;
        } else {
            pp.line(line);
        }
        if (nl == std::string::npos)
            break;
        start = nl + 1;
    }
    if (!joined.empty())
        pp.line(joined);
    return pp.finish();
}

} // namespace gsopt::glsl
