/**
 * @file
 * Fig 3 reproduction: (left) the Listing 1 motivating blur shader,
 * before/after optimization, with per-platform percentage gains;
 * (right) the distribution of applying the same full optimization set
 * to every corpus shader on the ARM Mali platform.
 */
#include <algorithm>

#include "bench_common.h"
#include "corpus/corpus.h"
#include "emit/offline.h"

using namespace gsopt;

int
main()
{
    bench::banner("Figure 3",
                  "Motivating example: code before and after "
                  "optimization, percentage gains per platform, and the "
                  "distribution of the same flags across all shaders on "
                  "ARM");

    const auto &eng = bench::engine();
    const auto &r = eng.result("blur/weighted9");

    // ---- Listing 1 / Listing 2 ---------------------------------------
    std::printf("---- Listing 1 (before optimization) ----\n%s\n",
                corpus::motivatingExample().source.c_str());
    std::string optimized = emit::optimizeShaderSource(
        corpus::motivatingExample().source, passes::FlagSet::all(),
        corpus::motivatingExample().defines);
    std::printf("---- Listing 2 (after optimization, all passes) "
                "----\n%s\n",
                optimized.c_str());

    // ---- per-platform gains --------------------------------------------
    TextTable t({"Platform", "GPU", "best speed-up", "best flags"});
    for (gpu::DeviceId dev : gpu::allDevices()) {
        const auto &model = gpu::deviceModel(dev);
        t.addRow({model.vendor, model.name,
                  TextTable::num(r.bestSpeedup(dev), 2) + "%",
                  r.bestFlags(dev).str()});
    }
    std::printf("Per-platform speed-up of the fully optimised "
                "motivating shader vs the original\n(paper: 7-28%% on "
                "desktop, 35-45%% on mobile):\n\n%s\n",
                t.str().c_str());

    // ---- Fig 3 right: distribution on ARM ------------------------------
    auto speedups =
        eng.perShaderSpeedups(gpu::DeviceId::Arm, tuner::FlagSet::all());
    Summary s = summarize(speedups);
    std::printf("Applying ALL optimizations to every shader on "
                "ARM Mali-T880 (paper: gains up\nto ~10%%, losses up to "
                "~30%% — one-size-fits-all often does more harm than "
                "good):\n\n");
    std::printf("  %s\n\n", s.str().c_str());
    std::printf("%s\n",
                renderHistogram(histogram(speedups, 16), 48).c_str());
    return 0;
}
