#include "tuner/flags.h"

#include <stdexcept>

#include "passes/registry.h"

namespace gsopt::tuner {

size_t
flagCount()
{
    return passes::PassRegistry::instance().count();
}

uint64_t
comboCount()
{
    return passes::PassRegistry::instance().comboCount();
}

const char *
flagName(int bit)
{
    const passes::PassRegistry &reg = passes::PassRegistry::instance();
    if (bit < 0 || static_cast<size_t>(bit) >= reg.count())
        return "?";
    return reg.pass(bit).name.c_str();
}

std::vector<FlagSet>
allFlagSets()
{
    checkExhaustiveFeasible("allFlagSets");
    const uint64_t n = comboCount();
    std::vector<FlagSet> out;
    out.reserve(n);
    for (uint64_t b = 0; b < n; ++b)
        out.push_back(FlagSet(b));
    return out;
}

void
checkExhaustiveFeasible(const char *who)
{
    const size_t n = flagCount();
    if (n > 20) {
        throw std::length_error(
            std::string(who) + ": exhaustive enumeration over " +
            std::to_string(n) +
            " registered passes is infeasible; the exhaustive "
            "pipeline supports at most 20 (a sparse explorer is a "
            "ROADMAP follow-on)");
    }
}

} // namespace gsopt::tuner
