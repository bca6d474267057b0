#include "glsl/preprocessor.h"

#include <cctype>
#include <cstdlib>
#include <optional>

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

using MacroTable = std::map<std::string, Macro>;

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

/**
 * Macro-expansion work accounting across one whole preprocess() run.
 * Recursion depth alone cannot stop a non-recursive exponential bomb
 * (#define A B B / #define B C C / ... doubles per rescan, OOMing long
 * before depth 32), so total output bytes are capped too: the built-in
 * cap rejects any bomb with a clean diagnostic even ungoverned, and
 * every produced byte is charged to the ambient governor budget so a
 * (usually much tighter) policy cap raises ResourceExhausted first.
 */
struct ExpandWork
{
    size_t bytes = 0;
    bool exhausted = false;
};

constexpr size_t kMaxExpansionBytes = 4u << 20;

/**
 * Expand macros in a single line of text. Handles nested function-like
 * invocations by rescanning; @p depth guards against runaway recursion
 * and @p work against runaway output growth.
 */
std::string
expandMacros(const std::string &line, const MacroTable &macros,
             DiagEngine &diags, ExpandWork &work, int depth = 0)
{
    if (work.exhausted)
        return line; // already diagnosed; stop rewriting entirely
    if (depth > 32) {
        diags.error({}, "macro expansion too deep (recursive macro?)");
        return line;
    }
    std::string out;
    size_t i = 0;
    bool changed = false;
    while (i < line.size()) {
        char c = line[i];
        if (!isIdentStart(c)) {
            out += c;
            ++i;
            continue;
        }
        size_t start = i;
        while (i < line.size() && isIdentChar(line[i]))
            ++i;
        std::string word = line.substr(start, i - start);
        auto it = macros.find(word);
        if (it == macros.end()) {
            out += word;
            continue;
        }
        const Macro &m = it->second;
        if (!m.functionLike) {
            out += m.body;
            changed = true;
            continue;
        }
        // Function-like: require '(' (else the name is left alone).
        size_t j = i;
        while (j < line.size() &&
               std::isspace(static_cast<unsigned char>(line[j])))
            ++j;
        if (j >= line.size() || line[j] != '(') {
            out += word;
            continue;
        }
        // Collect comma-separated arguments at paren depth 0.
        std::vector<std::string> args;
        std::string arg;
        int paren_depth = 1;
        ++j;
        while (j < line.size() && paren_depth > 0) {
            char a = line[j];
            if (a == '(') {
                ++paren_depth;
                arg += a;
            } else if (a == ')') {
                --paren_depth;
                if (paren_depth > 0)
                    arg += a;
            } else if (a == ',' && paren_depth == 1) {
                args.push_back(std::string(trim(arg)));
                arg.clear();
            } else {
                arg += a;
            }
            ++j;
        }
        if (paren_depth != 0) {
            diags.error({}, "unterminated macro invocation of '" + word +
                                "'");
            out += word;
            continue;
        }
        if (!arg.empty() || !args.empty())
            args.push_back(std::string(trim(arg)));
        if (args.size() != m.params.size()) {
            diags.error({}, "macro '" + word + "' expects " +
                                std::to_string(m.params.size()) +
                                " arguments, got " +
                                std::to_string(args.size()));
            out += word;
            continue;
        }
        // Substitute parameters as whole identifiers.
        std::string body;
        size_t k = 0;
        while (k < m.body.size()) {
            if (!isIdentStart(m.body[k])) {
                body += m.body[k];
                ++k;
                continue;
            }
            size_t ws = k;
            while (k < m.body.size() && isIdentChar(m.body[k]))
                ++k;
            std::string param = m.body.substr(ws, k - ws);
            bool substituted = false;
            for (size_t p = 0; p < m.params.size(); ++p) {
                if (m.params[p] == param) {
                    body += "(" + args[p] + ")";
                    substituted = true;
                    break;
                }
            }
            if (!substituted)
                body += param;
        }
        out += body;
        i = j;
        changed = true;
    }
    if (changed) {
        governor::charge(governor::Dim::PreprocBytes, out.size(),
                         "preprocess");
        work.bytes += out.size();
        if (work.bytes > kMaxExpansionBytes) {
            work.exhausted = true;
            diags.error({}, "macro expansion exceeded " +
                                std::to_string(kMaxExpansionBytes) +
                                " bytes (macro bomb?)");
            return line;
        }
        return expandMacros(out, macros, diags, work, depth + 1);
    }
    return out;
}

/**
 * Recursive-descent evaluator for #if constant expressions over already
 * macro-expanded text (with `defined(...)` resolved beforehand).
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
        long v = parseOr();
        skipWs();
        if (pos_ < text_.size())
            diags_.error({}, "trailing characters in #if expression");
        return v;
    }

  private:
    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }
    bool eat(const char *tok)
    {
        skipWs();
        size_t len = std::string(tok).size();
        if (text_.compare(pos_, len, tok) == 0) {
            // Don't let '<' match '<='.
            if ((std::string(tok) == "<" || std::string(tok) == ">") &&
                pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
                return false;
            }
            pos_ += len;
            return true;
        }
        return false;
    }
    long parseOr()
    {
        long v = parseAnd();
        while (eat("||"))
            v = (parseAnd() != 0 || v != 0) ? 1 : 0;
        return v;
    }
    long parseAnd()
    {
        long v = parseCmp();
        while (eat("&&")) {
            long r = parseCmp();
            v = (v != 0 && r != 0) ? 1 : 0;
        }
        return v;
    }
    long parseCmp()
    {
        long v = parseAdd();
        for (;;) {
            if (eat("=="))
                v = v == parseAdd();
            else if (eat("!="))
                v = v != parseAdd();
            else if (eat("<="))
                v = v <= parseAdd();
            else if (eat(">="))
                v = v >= parseAdd();
            else if (eat("<"))
                v = v < parseAdd();
            else if (eat(">"))
                v = v > parseAdd();
            else
                break;
        }
        return v;
    }
    long parseAdd()
    {
        long v = parseMul();
        for (;;) {
            if (eat("+"))
                v += parseMul();
            else if (eat("-"))
                v -= parseMul();
            else
                break;
        }
        return v;
    }
    long parseMul()
    {
        long v = parseUnary();
        for (;;) {
            if (eat("*")) {
                v *= parseUnary();
            } else if (eat("/")) {
                long d = parseUnary();
                v = d ? v / d : 0;
            } else if (eat("%")) {
                long d = parseUnary();
                v = d ? v % d : 0;
            } else {
                break;
            }
        }
        return v;
    }
    long parseUnary()
    {
        if (eat("!"))
            return parseUnary() == 0 ? 1 : 0;
        if (eat("-"))
            return -parseUnary();
        if (eat("+"))
            return parseUnary();
        if (eat("(")) {
            long v = parseOr();
            if (!eat(")"))
                diags_.error({}, "missing ')' in #if expression");
            return v;
        }
        skipWs();
        if (pos_ < text_.size() &&
            std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            char *endp = nullptr;
            long v = std::strtol(text_.c_str() + pos_, &endp, 0);
            pos_ = static_cast<size_t>(endp - text_.c_str());
            return v;
        }
        // Undefined identifiers evaluate to 0, as in C.
        if (pos_ < text_.size() && isIdentStart(text_[pos_])) {
            while (pos_ < text_.size() && isIdentChar(text_[pos_]))
                ++pos_;
            return 0;
        }
        diags_.error({}, "malformed #if expression");
        pos_ = text_.size();
        return 0;
    }

    const std::string &text_;
    DiagEngine &diags_;
    size_t pos_ = 0;
};

/** Replace `defined(X)` / `defined X` with 1 or 0. */
std::string
resolveDefined(const std::string &expr, const MacroTable &macros)
{
    std::string out;
    size_t i = 0;
    while (i < expr.size()) {
        if (isIdentStart(expr[i])) {
            size_t start = i;
            while (i < expr.size() && isIdentChar(expr[i]))
                ++i;
            std::string word = expr.substr(start, i - start);
            if (word != "defined") {
                out += word;
                continue;
            }
            while (i < expr.size() &&
                   std::isspace(static_cast<unsigned char>(expr[i])))
                ++i;
            bool paren = i < expr.size() && expr[i] == '(';
            if (paren)
                ++i;
            while (i < expr.size() &&
                   std::isspace(static_cast<unsigned char>(expr[i])))
                ++i;
            size_t ns = i;
            while (i < expr.size() && isIdentChar(expr[i]))
                ++i;
            std::string name = expr.substr(ns, i - ns);
            if (paren) {
                while (i < expr.size() &&
                       std::isspace(
                           static_cast<unsigned char>(expr[i])))
                    ++i;
                if (i < expr.size() && expr[i] == ')')
                    ++i;
            }
            out += macros.count(name) ? "1" : "0";
            continue;
        }
        out += expr[i];
        ++i;
    }
    return out;
}

/** State of one nested conditional block. */
struct CondState
{
    bool parentActive;  ///< enclosing region live?
    bool taken;         ///< some branch of this if-chain already taken
    bool active;        ///< current branch live?
};

} // namespace

PreprocessResult
preprocess(const std::string &source,
           const std::map<std::string, std::string> &predefines,
           DiagEngine &diags)
{
    PreprocessResult result;
    MacroTable macros;
    ExpandWork work;
    for (const auto &[name, body] : predefines)
        macros[name] = Macro{false, {}, body};

    // Merge backslash-continued lines first.
    std::vector<std::string> lines;
    {
        std::string merged;
        for (const std::string &raw : split(source, '\n')) {
            std::string line = raw;
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (!line.empty() && line.back() == '\\') {
                merged += line.substr(0, line.size() - 1);
                continue;
            }
            merged += line;
            lines.push_back(merged);
            merged.clear();
        }
        if (!merged.empty())
            lines.push_back(merged);
    }

    std::vector<CondState> conds;
    auto active = [&]() {
        return conds.empty() || conds.back().active;
    };

    int line_no = 0;
    for (const std::string &line : lines) {
        ++line_no;
        if ((line_no & 63) == 0)
            governor::checkDeadline("preprocess");
        const SourceLoc loc{line_no, 1};
        std::string_view stripped = trim(line);
        if (!stripped.empty() && stripped.front() == '#') {
            std::string directive(trim(stripped.substr(1)));
            std::string head, rest;
            {
                size_t sp = 0;
                while (sp < directive.size() && isIdentChar(directive[sp]))
                    ++sp;
                head = directive.substr(0, sp);
                rest = std::string(trim(directive.substr(sp)));
            }
            if (head == "version") {
                if (active())
                    result.version =
                        std::strtol(rest.c_str(), nullptr, 10);
            } else if (head == "extension") {
                if (active())
                    result.extensions.push_back(rest);
            } else if (head == "pragma") {
                // ignored
            } else if (head == "define") {
                if (active()) {
                    size_t sp = 0;
                    while (sp < rest.size() && isIdentChar(rest[sp]))
                        ++sp;
                    std::string name = rest.substr(0, sp);
                    if (name.empty()) {
                        diags.error(loc, "#define without a name");
                        continue;
                    }
                    Macro m;
                    if (sp < rest.size() && rest[sp] == '(') {
                        m.functionLike = true;
                        size_t close = rest.find(')', sp);
                        if (close == std::string::npos) {
                            diags.error(loc,
                                        "unterminated macro parameter "
                                        "list");
                            continue;
                        }
                        for (auto &p : split(
                                 rest.substr(sp + 1, close - sp - 1),
                                 ',')) {
                            std::string param(trim(p));
                            if (!param.empty())
                                m.params.push_back(param);
                        }
                        m.body = std::string(trim(rest.substr(close + 1)));
                    } else {
                        m.body = std::string(trim(rest.substr(sp)));
                    }
                    macros[name] = std::move(m);
                }
            } else if (head == "undef") {
                if (active())
                    macros.erase(std::string(trim(rest)));
            } else if (head == "ifdef" || head == "ifndef") {
                bool defined = macros.count(std::string(trim(rest))) > 0;
                bool cond = head == "ifdef" ? defined : !defined;
                bool parent = active();
                conds.push_back(
                    {parent, parent && cond, parent && cond});
            } else if (head == "if") {
                bool cond = false;
                if (active()) {
                    std::string expr =
                        expandMacros(resolveDefined(rest, macros),
                                     macros, diags, work);
                    cond = CondParser(expr, diags).parse() != 0;
                }
                bool parent = active();
                conds.push_back(
                    {parent, parent && cond, parent && cond});
            } else if (head == "elif") {
                if (conds.empty()) {
                    diags.error(loc, "#elif without #if");
                    continue;
                }
                CondState &cs = conds.back();
                if (!cs.parentActive || cs.taken) {
                    cs.active = false;
                } else {
                    std::string expr =
                        expandMacros(resolveDefined(rest, macros),
                                     macros, diags, work);
                    cs.active = CondParser(expr, diags).parse() != 0;
                    cs.taken = cs.taken || cs.active;
                }
            } else if (head == "else") {
                if (conds.empty()) {
                    diags.error(loc, "#else without #if");
                    continue;
                }
                CondState &cs = conds.back();
                cs.active = cs.parentActive && !cs.taken;
                cs.taken = true;
            } else if (head == "endif") {
                if (conds.empty()) {
                    diags.error(loc, "#endif without #if");
                    continue;
                }
                conds.pop_back();
            } else {
                diags.error(loc, "unknown directive '#" + head + "'");
            }
            continue;
        }
        if (!active())
            continue;
        // With no macro defined there is nothing to expand (nor to
        // charge): expandMacros would rebuild the line unchanged.
        if (macros.empty())
            result.text += line;
        else
            result.text += expandMacros(line, macros, diags, work);
        result.text += '\n';
    }
    if (!conds.empty())
        diags.error({line_no, 1}, "unterminated #if block");
    return result;
}

} // namespace gsopt::glsl
