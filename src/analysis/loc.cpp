#include "analysis/loc.h"

#include "support/strings.h"

namespace gsopt::analysis {

namespace {

/** Is this trimmed line only punctuation (braces, parens, semis)? */
bool
isLoneBrackets(std::string_view s)
{
    for (char c : s) {
        if (c != '{' && c != '}' && c != '(' && c != ')' && c != ';' &&
            c != ' ' && c != '\t')
            return false;
    }
    return true;
}

/** Interface/precision declarations are not executable. */
bool
isDeclarationLine(std::string_view s)
{
    for (const char *prefix :
         {"uniform ", "in ", "out ", "varying ", "attribute ",
          "precision ", "layout", "#"}) {
        if (startsWith(s, prefix))
            return true;
    }
    return false;
}

} // namespace

int
executableLines(const std::string &preprocessedSource)
{
    int count = 0;
    bool in_block_comment = false;
    std::string storage;
    for (const std::string &raw : split(preprocessedSource, '\n')) {
        const std::string_view line =
            trim(stripComments(raw, in_block_comment, storage));
        if (line.empty())
            continue;
        if (isLoneBrackets(line))
            continue;
        if (isDeclarationLine(line))
            continue;
        ++count;
    }
    return count;
}

} // namespace gsopt::analysis
