#include "support/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace gsopt {

std::string
Summary::str() const
{
    std::ostringstream os;
    os.precision(4);
    os << "n=" << count << " min=" << min << " q1=" << q1
       << " med=" << median << " q3=" << q3 << " max=" << max
       << " mean=" << mean << " sd=" << stddev;
    return os.str();
}

namespace {

/** percentile() of an already sorted, non-empty @p sorted. */
double
sortedPercentile(const std::vector<double> &sorted, double p)
{
    if (sorted.size() == 1)
        return sorted[0];
    const double rank = (p / 100.0) * (sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

} // namespace

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return sortedPercentile(values, p);
}

Summary
summarize(const std::vector<double> &values)
{
    Summary s;
    if (values.empty())
        return s;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    s.count = sorted.size();
    s.min = sorted.front();
    s.max = sorted.back();
    s.q1 = sortedPercentile(sorted, 25.0);
    s.median = sortedPercentile(sorted, 50.0);
    s.q3 = sortedPercentile(sorted, 75.0);
    double sum = 0.0;
    for (double v : sorted)
        sum += v;
    s.mean = sum / static_cast<double>(sorted.size());
    double var = 0.0;
    for (double v : sorted)
        var += (v - s.mean) * (v - s.mean);
    s.stddev = sorted.size() > 1
                   ? std::sqrt(var / static_cast<double>(sorted.size() - 1))
                   : 0.0;
    return s;
}

std::vector<HistogramBin>
histogram(const std::vector<double> &values, int bins, double lo, double hi)
{
    std::vector<HistogramBin> out;
    if (bins <= 0 || hi <= lo)
        return out;
    const double width = (hi - lo) / bins;
    out.resize(static_cast<size_t>(bins));
    for (int i = 0; i < bins; ++i) {
        out[i].lo = lo + width * i;
        out[i].hi = lo + width * (i + 1);
    }
    for (double v : values) {
        int idx = static_cast<int>((v - lo) / width);
        idx = std::clamp(idx, 0, bins - 1);
        ++out[static_cast<size_t>(idx)].count;
    }
    return out;
}

std::vector<HistogramBin>
histogram(const std::vector<double> &values, int bins)
{
    if (values.empty())
        return {};
    const auto [mn, mx] = std::minmax_element(values.begin(), values.end());
    double lo = *mn, hi = *mx;
    if (hi <= lo)
        hi = lo + 1.0;
    return histogram(values, bins, lo, hi);
}

std::string
renderHistogram(const std::vector<HistogramBin> &bins, int width)
{
    size_t max_count = 1;
    for (const auto &b : bins)
        max_count = std::max(max_count, b.count);
    std::ostringstream os;
    for (const auto &b : bins) {
        const int bar =
            static_cast<int>(static_cast<double>(b.count) * width /
                             static_cast<double>(max_count));
        os.precision(4);
        os << "[" << b.lo << ", " << b.hi << ")\t";
        for (int i = 0; i < bar; ++i)
            os << '#';
        os << ' ' << b.count << "\n";
    }
    return os.str();
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace gsopt
