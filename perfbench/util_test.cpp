/**
 * @file
 * Self-test of the benchmark's helpers. Expected statistics are the
 * values Python's statistics module gives for the same samples, since
 * run.py and any reader of the results use that module.
 */
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "util.h"

using namespace perfbench;

namespace {

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i)
        v.push_back(static_cast<double>(i)); // unsorted on purpose
    return v;
}

} // namespace

TEST(Stats, MedianMatchesPython)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod)
{
    // statistics.quantiles(data, n=4) for each input.
    const std::vector<std::pair<std::vector<double>, std::vector<double>>>
        cases = {{oneTo(10), {2.75, 5.5, 8.25}},
                 {{5, 1, 9, 3, 7}, {2.0, 5.0, 8.0}},
                 {{2, 1}, {0.75, 1.5, 2.25}}};
    for (const auto &[data, want] : cases) {
        const std::vector<double> got = quartiles(data);
        ASSERT_EQ(got.size(), 3u);
        for (size_t i = 0; i < 3; ++i)
            EXPECT_DOUBLE_EQ(got[i], want[i]);
    }
    EXPECT_THROW(quartiles({1}), std::invalid_argument);
}

TEST(Stats, NearestRankPercentile)
{
    EXPECT_DOUBLE_EQ(percentile(oneTo(100), 90), 90);
    EXPECT_DOUBLE_EQ(percentile(oneTo(10), 100), 10);
    EXPECT_DOUBLE_EQ(percentile(oneTo(3), 1), 1);
    EXPECT_THROW(percentile(oneTo(3), 0), std::invalid_argument);
}

TEST(Stats, TailIsHighestPercentileWithTenBeyond)
{
    Tail t = tail(oneTo(100));
    EXPECT_EQ(t.percentile, 90);
    EXPECT_EQ(t.value, 90);
    EXPECT_EQ(t.beyond, 10u);

    t = tail(oneTo(99)); // p90 has only 9 beyond: falls to the median
    EXPECT_EQ(t.percentile, 50);
    EXPECT_DOUBLE_EQ(t.value, 50);

    t = tail(oneTo(1000));
    EXPECT_EQ(t.percentile, 99);
    EXPECT_EQ(t.value, 990);

    t = tail(oneTo(10000));
    EXPECT_EQ(t.percentile, 99.9);
    EXPECT_EQ(t.value, 9990);
    EXPECT_EQ(t.beyond, 10u);

    t = tail(oneTo(10000), 90); // capped at p90
    EXPECT_EQ(t.percentile, 90);
    EXPECT_EQ(t.value, 9000);

    t = tail({7, 3});
    EXPECT_EQ(t.percentile, 50);
    EXPECT_DOUBLE_EQ(t.value, 5);
}

TEST(Digest, StableAndLengthPrefixed)
{
    EXPECT_EQ(Digest{}.hex(), "cbf29ce484222325");
    EXPECT_EQ(Digest{}.add("gsopt").hex(), "ae53514e4e969b43");
    EXPECT_NE(Digest{}.add("ab").add("c").hex(),
              Digest{}.add("a").add("bc").hex());
    EXPECT_NE(Digest{}.add("").hex(), Digest{}.hex());
}

TEST(Workload, PermutationIsSeededAndComplete)
{
    const auto a = permutation(98, 7);
    EXPECT_EQ(a, permutation(98, 7));
    EXPECT_NE(a, permutation(98, 8));
    auto sorted = a;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], i);
}

TEST(Workload, TuneCycleCoversEveryPairOnce)
{
    const auto c0 = tuneCycle(98, 5, 1, 0);
    EXPECT_EQ(c0, tuneCycle(98, 5, 1, 0));
    EXPECT_NE(c0, tuneCycle(98, 5, 2, 0));
    EXPECT_NE(c0, tuneCycle(98, 5, 1, 1));
    std::set<std::pair<size_t, size_t>> pairs;
    for (const TuneRequest &r : c0) {
        EXPECT_LT(r.shader, 98u);
        EXPECT_LT(r.device, 5u);
        pairs.insert({r.shader, r.device});
    }
    EXPECT_EQ(c0.size(), 490u);
    EXPECT_EQ(pairs.size(), 490u);
}

TEST(Tracer, SelfTimeSubtractsChildren)
{
    Tracer t(true);
    {
        Scope root(t, "root", 1);
        Scope child(t, "child", 1);
    }
    ASSERT_EQ(t.spans().size(), 2u);
    EXPECT_EQ(t.spans()[1].parent, 0);
    const auto total = t.totalMs();
    const auto self = t.selfMs();
    EXPECT_DOUBLE_EQ(self.at("root"),
                     total.at("root") - total.at("child"));
    EXPECT_DOUBLE_EQ(self.at("child"), total.at("child"));

    Tracer off(false);
    {
        Scope s(off, "root");
    }
    EXPECT_TRUE(off.spans().empty());
}
