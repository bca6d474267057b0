/**
 * @file
 * Small string utilities shared across the compiler and harness.
 */
#ifndef GSOPT_SUPPORT_STRINGS_H
#define GSOPT_SUPPORT_STRINGS_H

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace gsopt {

/**
 * Append-only text sink: direct append into one reserved std::string.
 *
 * Drop-in for the `std::ostringstream <<` idiom in the printers, minus
 * the costs that made ostringstream the wrong tool on the exploration
 * hot path: no locale machinery, no virtual streambuf dispatch, no
 * stringbuf-to-string copy on str(). Callers reserve the expected size
 * up front (the GLSL emitter estimates from the instruction count), so
 * a whole shader renders into a single allocation.
 */
class StringBuilder
{
  public:
    explicit StringBuilder(size_t reserveBytes = 0)
    {
        text_.reserve(reserveBytes);
    }

    StringBuilder &operator<<(std::string_view v)
    {
        text_.append(v);
        return *this;
    }
    StringBuilder &operator<<(char c)
    {
        text_.push_back(c);
        return *this;
    }
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, char> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    StringBuilder &operator<<(T v)
    {
        char buf[24];
        auto r = std::to_chars(buf, buf + sizeof(buf), v);
        text_.append(buf, static_cast<size_t>(r.ptr - buf));
        return *this;
    }

    /** Append @p n copies of @p c (indentation). */
    StringBuilder &append(size_t n, char c)
    {
        text_.append(n, c);
        return *this;
    }

    bool empty() const { return text_.empty(); }
    size_t size() const { return text_.size(); }
    const std::string &str() const & { return text_; }
    /** Move the built text out (the builder is then empty). */
    std::string take() { return std::move(text_); }

  private:
    std::string text_;
};

/** Strip leading and trailing whitespace. */
std::string_view trim(std::string_view s);

/** Split on a delimiter character; keeps empty fields. */
std::vector<std::string> split(std::string_view s, char delim);

/** Join with a separator. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view sep);

bool startsWith(std::string_view s, std::string_view prefix);

/**
 * One line of GLSL with each comment replaced by one space: a `//`
 * comment runs to the end of the line, a block comment to its closing
 * star-slash. @p inBlock carries a block comment across lines: on entry
 * it says the line begins inside one, on exit whether the line ends
 * inside one. Returns @p line itself if it holds no comment, else a
 * view of @p storage.
 */
std::string_view stripComments(std::string_view line, bool &inBlock,
                               std::string &storage);

/** Replace every occurrence of @p from with @p to. */
std::string replaceAll(std::string s, std::string_view from,
                       std::string_view to);

/**
 * Format a double the way GLSL source should carry it: shortest form that
 * still contains a decimal point or exponent (so it re-lexes as a float).
 */
std::string formatGlslFloat(double v);

} // namespace gsopt

#endif // GSOPT_SUPPORT_STRINGS_H
