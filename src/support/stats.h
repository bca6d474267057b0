/**
 * @file
 * Descriptive statistics used by the measurement harness and the
 * experiment analyses: summaries (the numbers behind the paper's violin
 * plots), histograms (Fig 4), and percentile helpers.
 */
#ifndef GSOPT_SUPPORT_STATS_H
#define GSOPT_SUPPORT_STATS_H

#include <cstddef>
#include <string>
#include <vector>

namespace gsopt {

/**
 * Five-number summary plus mean/stddev of a sample. This is exactly the
 * information a violin/box plot in the paper conveys.
 */
struct Summary
{
    size_t count = 0;
    double min = 0.0;
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double stddev = 0.0;

    /** One-line rendering: "n=5 min=.. q1=.. med=.. q3=.. max=.. mean=..". */
    std::string str() const;
};

/** Compute a Summary over a sample (empty input gives a zero Summary). */
Summary summarize(const std::vector<double> &values);

/** Linear-interpolated percentile, p in [0, 100]. */
double percentile(std::vector<double> values, double p);

/** A histogram bin: [lo, hi) with a count. */
struct HistogramBin
{
    double lo = 0.0;
    double hi = 0.0;
    size_t count = 0;
};

/**
 * Fixed-width histogram over [min, max] of the data with @p bins bins.
 * Used to regenerate the paper's Fig 3 (right) and Fig 4 panels.
 */
std::vector<HistogramBin> histogram(const std::vector<double> &values,
                                    int bins);

/** Histogram with explicit range (values outside are clamped to edges). */
std::vector<HistogramBin> histogram(const std::vector<double> &values,
                                    int bins, double lo, double hi);

/** Render a histogram as ASCII rows "[lo, hi) ####### count". */
std::string renderHistogram(const std::vector<HistogramBin> &bins,
                            int width = 50);

/** Arithmetic mean (0 for empty input). */
double mean(const std::vector<double> &values);

} // namespace gsopt

#endif // GSOPT_SUPPORT_STATS_H
