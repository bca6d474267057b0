#include "support/strings.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace gsopt {

std::string_view
trim(std::string_view s)
{
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
split(std::string_view s, char delim)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::string
join(const std::vector<std::string> &parts, std::string_view sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

std::string_view
stripComments(std::string_view line, bool &inBlock, std::string &storage)
{
    if (!inBlock && line.find('/') == std::string_view::npos)
        return line;
    storage.assign(inBlock ? 1 : 0, ' ');
    for (size_t i = 0; i < line.size(); ++i) {
        const std::string_view at = line.substr(i, 2);
        if (inBlock) {
            if (at == "*/") {
                inBlock = false;
                ++i;
            }
        } else if (at == "//") {
            storage += ' ';
            break;
        } else if (at == "/*") {
            storage += ' ';
            inBlock = true;
            ++i;
        } else {
            storage += line[i];
        }
    }
    return storage;
}

std::string
replaceAll(std::string s, std::string_view from, std::string_view to)
{
    if (from.empty())
        return s;
    size_t pos = 0;
    while ((pos = s.find(from, pos)) != std::string::npos) {
        s.replace(pos, from.size(), to);
        pos += to.size();
    }
    return s;
}

std::string
formatGlslFloat(double v)
{
    if (!std::isfinite(v)) {
        // GLSL has no literal for inf/nan; emit an expression that folds
        // to the same value on re-parse.
        if (std::isnan(v))
            return "(0.0 / 0.0)";
        return v > 0 ? "(1.0 / 0.0)" : "(-1.0 / 0.0)";
    }
    // Try progressively longer precision until the value round-trips.
    char buf[64];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    std::string s = buf;
    // Ensure the token re-lexes as a float literal.
    if (s.find('.') == std::string::npos &&
        s.find('e') == std::string::npos &&
        s.find("inf") == std::string::npos) {
        s += ".0";
    }
    return s;
}

} // namespace gsopt
