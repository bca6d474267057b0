/**
 * @file
 * Unit tests for the support library: RNG determinism, statistics,
 * string utilities, table rendering and the environment knobs.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "support/diag.h"
#include "support/env.h"
#include "support/retry.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/strings.h"
#include "support/table.h"
#include "test_scratch.h"

namespace gsopt {
namespace {

using testutil::ScopedEnv;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, LabelSeedingIsDeterministic)
{
    Rng a("ARM/shader/rep0"), b("ARM/shader/rep0"),
        c("ARM/shader/rep1");
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, GaussianMeanSigma)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(5.0, 0.1);
    EXPECT_NEAR(sum / n, 5.0, 0.01);
}

TEST(Hash, Fnv1aStable)
{
    EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
    EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
    EXPECT_NE(fnv1a(""), fnv1a(" "));
}

TEST(Stats, SummaryBasics)
{
    Summary s = summarize({1, 2, 3, 4, 5});
    EXPECT_EQ(s.count, 5u);
    EXPECT_DOUBLE_EQ(s.min, 1);
    EXPECT_DOUBLE_EQ(s.max, 5);
    EXPECT_DOUBLE_EQ(s.median, 3);
    EXPECT_DOUBLE_EQ(s.mean, 3);
    EXPECT_DOUBLE_EQ(s.q1, 2);
    EXPECT_DOUBLE_EQ(s.q3, 4);
}

TEST(Stats, SummaryEmpty)
{
    Summary s = summarize({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0);
}

TEST(Stats, PercentileInterpolates)
{
    EXPECT_DOUBLE_EQ(percentile({0, 10}, 50), 5.0);
    EXPECT_DOUBLE_EQ(percentile({0, 10}, 0), 0.0);
    EXPECT_DOUBLE_EQ(percentile({0, 10}, 100), 10.0);
    EXPECT_DOUBLE_EQ(percentile({3}, 75), 3.0);
}

TEST(Stats, HistogramCountsAll)
{
    auto bins = histogram({0.1, 0.2, 0.9, 0.5, 0.55}, 10, 0.0, 1.0);
    ASSERT_EQ(bins.size(), 10u);
    size_t total = 0;
    for (const auto &b : bins)
        total += b.count;
    EXPECT_EQ(total, 5u);
    EXPECT_EQ(bins[1].count, 1u); // 0.1
    EXPECT_EQ(bins[9].count, 1u); // 0.9
}

TEST(Stats, HistogramClampsOutliers)
{
    auto bins = histogram({-5.0, 5.0}, 4, 0.0, 1.0);
    EXPECT_EQ(bins.front().count, 1u);
    EXPECT_EQ(bins.back().count, 1u);
}

TEST(Stats, GeomeanSpeedup)
{
    // +10% and -9.0909..% cancel out.
    EXPECT_NEAR(geomeanSpeedup({0.10, -1.0 / 11.0}), 0.0, 1e-12);
    EXPECT_NEAR(geomeanSpeedup({0.05, 0.05}), 0.05, 1e-12);
}

TEST(Strings, TrimAndSplit)
{
    EXPECT_EQ(trim("  a b  "), "a b");
    EXPECT_EQ(trim(""), "");
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    auto ws = splitWhitespace("  foo\t bar\nbaz ");
    ASSERT_EQ(ws.size(), 3u);
    EXPECT_EQ(ws[2], "baz");
}

TEST(Strings, ReplaceAll)
{
    EXPECT_EQ(replaceAll("aaa", "a", "bb"), "bbbbbb");
    EXPECT_EQ(replaceAll("xyx", "y", ""), "xx");
}

TEST(Strings, FormatGlslFloatRoundTrips)
{
    for (double v : {0.0, 1.0, -2.5, 0.699301, 1e-8, 3.14159265358979,
                     1234567.0}) {
        std::string s = formatGlslFloat(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
        // Must re-lex as a float, not an int.
        EXPECT_TRUE(s.find('.') != std::string::npos ||
                    s.find('e') != std::string::npos)
            << s;
    }
}

TEST(Diag, CollectsAndThrows)
{
    DiagEngine diags;
    diags.warning({1, 2}, "w");
    EXPECT_FALSE(diags.hasErrors());
    diags.checkpoint(); // no throw
    diags.error({3, 4}, "bad");
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_THROW(diags.checkpoint(), CompileError);
    EXPECT_NE(diags.str().find("3:4: error: bad"), std::string::npos);
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"x", TextTable::num(1.5)});
    t.addRow({"longer_name", TextTable::pct(0.0425)});
    std::string s = t.str();
    EXPECT_NE(s.find("longer_name"), std::string::npos);
    EXPECT_NE(s.find("+4.25%"), std::string::npos);
    EXPECT_NE(s.find("1.50"), std::string::npos);
}

// ---- environment knobs ------------------------------------------------

TEST(EnvKnob, UnsetOrEmptyMeansTheDefault)
{
    unsetenv("GSOPT_TEST_KNOB");
    EXPECT_EQ(envInteger("GSOPT_TEST_KNOB", 7), 7u);
    ScopedEnv empty("GSOPT_TEST_KNOB", "");
    EXPECT_EQ(envInteger("GSOPT_TEST_KNOB", 7), 7u);
}

TEST(EnvKnob, ParsesPlainIntegersAtOrAboveTheMinimum)
{
    {
        ScopedEnv v("GSOPT_TEST_KNOB", "42");
        EXPECT_EQ(envInteger("GSOPT_TEST_KNOB", 7), 42u);
    }
    ScopedEnv zero("GSOPT_TEST_KNOB", "0");
    EXPECT_EQ(envInteger("GSOPT_TEST_KNOB", 7, 0), 0u);
}

TEST(EnvKnob, ThreadCountFollowsGsoptThreads)
{
    {
        ScopedEnv v("GSOPT_THREADS", "3");
        EXPECT_EQ(defaultThreadCount(), 3u);
    }
    // CI's default-threads leg sets GSOPT_THREADS to the empty string.
    ScopedEnv empty("GSOPT_THREADS", "");
    const unsigned hw = std::thread::hardware_concurrency();
    EXPECT_EQ(defaultThreadCount(), hw > 0 ? hw : 1u);
}

// Malformed knobs abort with a message naming the variable instead of
// being read as a prefix ("4x" -> 4) or silently replaced by the
// default ("-1", "0", "abc"). Each death test re-runs in a fresh
// process, so defaultRetryPolicy's read-once value is read from the
// variable set here.
class EnvKnobDeath : public ::testing::TestWithParam<const char *>
{
  protected:
    void SetUp() override
    {
        ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    }
};

TEST_P(EnvKnobDeath, GsoptThreadsRejectsGarbage)
{
    ScopedEnv bad("GSOPT_THREADS", GetParam());
    EXPECT_DEATH(defaultThreadCount(),
                 "GSOPT_THREADS: '.*' is not a positive integer");
}

TEST_P(EnvKnobDeath, GsoptRetryAttemptsRejectsGarbage)
{
    ScopedEnv bad("GSOPT_RETRY_ATTEMPTS", GetParam());
    EXPECT_DEATH(defaultRetryPolicy(),
                 "GSOPT_RETRY_ATTEMPTS: '.*' is not a positive integer");
}

INSTANTIATE_TEST_SUITE_P(Garbage, EnvKnobDeath,
                         ::testing::Values("4x", "0", "-1", "abc", " 4",
                                           "99999999999999999999999"));

TEST(EnvKnob, NonNegativeKnobRejectsASign)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv bad("GSOPT_TEST_KNOB", "-1");
    EXPECT_DEATH(envInteger("GSOPT_TEST_KNOB", 0, 0),
                 "GSOPT_TEST_KNOB: '-1' is not a non-negative integer");
}

TEST(EnvKnob, StrictRejectsWordsAndSigns)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *value : {"false", "yes", "-1"}) {
        ScopedEnv bad("GSOPT_STRICT", value);
        EXPECT_DEATH(strictMode(),
                     "GSOPT_STRICT: '.*' is not a non-negative integer")
            << value;
    }
}

TEST(EnvKnob, StrictIsNonZero)
{
    ScopedEnv unset("GSOPT_STRICT", "");
    EXPECT_FALSE(strictMode());
    for (const char *value : {"0", "00"}) {
        ScopedEnv off("GSOPT_STRICT", value);
        EXPECT_FALSE(strictMode()) << value;
    }
    for (const char *value : {"1", "2"}) {
        ScopedEnv on("GSOPT_STRICT", value);
        EXPECT_TRUE(strictMode()) << value;
    }
}

} // namespace
} // namespace gsopt
