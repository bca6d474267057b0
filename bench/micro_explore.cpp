/**
 * @file
 * Perf trajectory for the compile-once exploration pipeline over a
 * probe set of corpus shaders: tuner::exploreShader (front end once,
 * passes on clones, fingerprint dedup before the printer) plus the
 * content-addressed driver cache.
 *
 * It prints per-phase wall-clock (front end / lower / passes /
 * fingerprint / print / driver compile / measurement), the campaign
 * totals, and the registry-growth section: exploration cost at N=8 vs
 * N=11 (the full extra-pass catalog registered), where the memoized
 * flag tree must keep *executed* pass runs under 2x the N=8 figure
 * despite walking an 8x larger combination space. Interpreter
 * throughput lives in bench/micro_interp.cpp. Pass --full to run the
 * entire corpus instead of the probe set.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "corpus/corpus.h"
#include "gpu/driver.h"
#include "passes/registry.h"
#include "runtime/framework.h"
#include "tuner/explore.h"

using namespace gsopt;

namespace {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct CampaignTiming
{
    double exploreMs = 0;
    double measureMs = 0;
    double totalMs() const { return exploreMs + measureMs; }
    size_t variants = 0;
    size_t measurements = 0;
};

/** Measure one explored shader on every device (the engine's inner
 * loop). */
double
measureAll(const tuner::Exploration &ex, size_t &measurements)
{
    const double t0 = nowMs();
    for (gpu::DeviceId id : gpu::allDevices()) {
        const gpu::DeviceModel &device = gpu::deviceModel(id);
        runtime::measureShader(ex.preprocessedOriginal, device,
                               ex.shaderName + "/original");
        ++measurements;
        for (size_t v = 0; v < ex.variants.size(); ++v) {
            runtime::measureShader(ex.variants[v].source, device,
                                   ex.shaderName + "/v" +
                                       std::to_string(v));
            ++measurements;
        }
    }
    return nowMs() - t0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool full =
        argc > 1 && std::strcmp(argv[1], "--full") == 0;

    bench::banner("micro_explore",
                  "Campaign per-phase timing: compile-once exploration "
                  "+ driver cache");

    std::vector<corpus::CorpusShader> probe;
    if (full) {
        probe = corpus::corpus();
    } else {
        for (const char *name :
             {"blur/weighted9", "simple/grayscale", "tonemap/aces",
              "toon/bands3", "deferred/lights4", "pbr/full",
              "fxaa/high", "godrays/march32", "ssao/kernel16",
              "uber/car_chase"}) {
            probe.push_back(*corpus::findShader(name));
        }
    }
    std::printf("Probe set: %zu shaders x %llu combos x %zu devices%s\n\n",
                probe.size(),
                static_cast<unsigned long long>(tuner::comboCount()),
                gpu::allDevices().size(),
                full ? " (full corpus)" : "");

    gpu::clearDriverCache();
    tuner::exploreCounters().reset();
    CampaignTiming timing;
    for (const auto &s : probe) {
        const double t0 = nowMs();
        tuner::Exploration ex = tuner::exploreShader(s);
        timing.exploreMs += nowMs() - t0;
        timing.variants += ex.uniqueCount();
        timing.measureMs += measureAll(ex, timing.measurements);
    }
    const tuner::ExploreCounters &c = tuner::exploreCounters();
    const gpu::DriverCacheStats cache = gpu::driverCacheStats();

    auto ms = [](uint64_t ns) {
        return static_cast<double>(ns) / 1e6;
    };
    std::printf("Exploration phases (%zu shaders):\n",
                probe.size());
    std::printf("  front end   : %9.1f ms  (%llu runs)\n",
                ms(c.frontEndNs),
                static_cast<unsigned long long>(c.frontEndRuns.load()));
    std::printf("  lowering    : %9.1f ms  (%llu runs)\n", ms(c.lowerNs),
                static_cast<unsigned long long>(c.lowerRuns.load()));
    std::printf("  pass runs   : %9.1f ms  (%llu combos; %llu passes "
                "executed, %llu memo-shared)\n",
                ms(c.pipelineNs),
                static_cast<unsigned long long>(c.pipelineRuns.load()),
                static_cast<unsigned long long>(c.passRuns.load()),
                static_cast<unsigned long long>(c.passMemoHits.load()));
    std::printf("  fingerprint : %9.1f ms  (%llu computed, %llu dedup "
                "hits)\n",
                ms(c.fingerprintNs),
                static_cast<unsigned long long>(
                    c.fingerprintRuns.load()),
                static_cast<unsigned long long>(
                    c.fingerprintHits.load()));
    std::printf("  print       : %9.1f ms  (%llu runs)\n", ms(c.printNs),
                static_cast<unsigned long long>(c.printRuns.load()));
    std::printf("  arena       : %9.1f MB of IR across all tree "
                "modules\n",
                static_cast<double>(c.arenaBytes.load()) / 1e6);
    std::printf("Driver cache: %llu hits / %llu misses, %9.1f ms "
                "compiling\n\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                ms(cache.compileNs));

    std::printf("Campaign wall-clock: explore %.1f ms, measure %.1f ms, "
                "total %.1f ms (%zu variants, %zu measurements)\n",
                timing.exploreMs, timing.measureMs, timing.totalMs(),
                timing.variants, timing.measurements);

    // ---- registry growth: walked vs executed at N=8 and N=11 -----------
    // Each registered pass doubles the walked space; the memoized tree
    // executes one run per *distinct* (incoming-IR, pass) edge, so a
    // pass that fires on little IR must cost little regardless of N.
    struct GrowthRow
    {
        size_t flags = 0;
        uint64_t walked = 0;
        uint64_t executed = 0;
        uint64_t memoHits = 0;
        size_t variants = 0;
        double exploreMs = 0;
    };
    auto explore_probe = [&probe](GrowthRow &row) {
        tuner::ExploreCounters &c = tuner::exploreCounters();
        const uint64_t pass0 = c.passRuns.load();
        const uint64_t combos0 = c.pipelineRuns.load();
        const uint64_t memo0 = c.passMemoHits.load();
        const double t0 = nowMs();
        for (const auto &s : probe)
            row.variants += tuner::exploreShader(s).uniqueCount();
        row.exploreMs = nowMs() - t0;
        row.flags = tuner::flagCount();
        row.walked = c.pipelineRuns.load() - combos0;
        row.executed = c.passRuns.load() - pass0;
        row.memoHits = c.passMemoHits.load() - memo0;
    };

    // The baseline must really be the paper's 8-pass space: with
    // GSOPT_EXTRA_PASSES set the registry is already wide and the two
    // rows would compare identical runs, vacuously "meeting" the
    // target.
    if (tuner::flagCount() > 8) {
        std::printf("\nRegistry growth section skipped: %zu passes "
                    "already registered (unset GSOPT_EXTRA_PASSES "
                    "for the N=8 vs N=11 comparison)\n",
                    tuner::flagCount());
        return 0;
    }
    GrowthRow base;
    explore_probe(base);
    GrowthRow wide;
    {
        passes::ScopedExtraPasses extras;
        explore_probe(wide);
    }

    std::printf("\nRegistry growth (%zu shaders; catalog passes: "
                "licm, strength_reduce, tex_batch):\n",
                probe.size());
    std::printf("  %-10s %10s %12s %12s %10s %12s\n", "space",
                "walked", "executed", "memo-shared", "variants",
                "explore");
    auto print_row = [](const char *label, const GrowthRow &r) {
        std::printf("  N=%-8zu %10llu %12llu %12llu %10zu %9.1f ms\n",
                    r.flags,
                    static_cast<unsigned long long>(r.walked),
                    static_cast<unsigned long long>(r.executed),
                    static_cast<unsigned long long>(r.memoHits),
                    r.variants, r.exploreMs);
        (void)label;
    };
    print_row("base", base);
    print_row("wide", wide);
    const double executed_ratio =
        base.executed
            ? static_cast<double>(wide.executed) /
                  static_cast<double>(base.executed)
            : 0.0;
    std::printf("  executed-pass-run growth: %.2fx for a %.0fx walked "
                "space  (target < 2x)\n",
                executed_ratio,
                base.walked
                    ? static_cast<double>(wide.walked) /
                          static_cast<double>(base.walked)
                    : 0.0);
    return 0;
}
