/**
 * @file
 * Interpreter throughput: the batched SIMT engine's width sweep
 * (W = 1/4/8/16), one representative shader per corpus family. W=1 is
 * the baseline column: it is the scalar engine, the one lane
 * ir::interpret runs. Every width shades the same tile through
 * runtime::interpretTile — the bulk-verification entry point the
 * corpus checks and the fuzz harness use — so the numbers measure the
 * fast path as it is actually consumed, including environment setup
 * and per-lane result extraction. The headline figure is the geomean
 * speedup at the default width over W=1 across all families; the
 * sweep shows where lane-parallelism saturates per family.
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "corpus/corpus.h"
#include "glsl/frontend.h"
#include "lower/lower.h"
#include "passes/passes.h"
#include "runtime/framework.h"

using namespace gsopt;

namespace {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

constexpr size_t kTileW = 64;
constexpr size_t kTileH = 48;
constexpr size_t kFragments = kTileW * kTileH;

/** Best-of-3 wall-clock for one tile configuration, in ms. */
double
timeTile(const ir::Module &module, const glsl::ShaderInterface &iface,
         size_t batchWidth)
{
    runtime::TileOptions opts;
    opts.width = kTileW;
    opts.height = kTileH;
    opts.batchWidth = batchWidth;
    // Warm-up run also verifies the config executes.
    runtime::interpretTile(module, iface, opts);
    double best = 1e300;
    for (int trial = 0; trial < 3; ++trial) {
        const double t0 = nowMs();
        runtime::interpretTile(module, iface, opts);
        best = std::min(best, nowMs() - t0);
    }
    return best;
}

} // namespace

int
main()
{
    bench::banner("micro_interp",
                  "Batched SIMT interpreter width sweep vs W=1 "
                  "(invocations/sec per corpus family)");

    // One representative per family: the first corpus entry of each.
    std::vector<const corpus::CorpusShader *> reps;
    {
        std::map<std::string, bool> seen;
        for (const auto &s : corpus::corpus()) {
            if (!seen[s.family]) {
                seen[s.family] = true;
                reps.push_back(&s);
            }
        }
    }

    const size_t widths[] = {4, 8, 16};
    std::printf("Tile: %zux%zu = %zu fragment invocations per run, "
                "best of 3.\n\n",
                kTileW, kTileH, kFragments);
    std::printf("  %-22s %10s |", "family (shader)", "W=1");
    for (size_t w : widths)
        std::printf("  %7s W=%-2zu", "", w);
    std::printf("\n  %-22s %10s |", "", "Minv/s");
    for (size_t w : widths) {
        std::printf("  %7s %4s", "Minv/s", "x");
        (void)w;
    }
    std::printf("\n");

    double logSum8 = 0.0, logSum16 = 0.0;
    size_t families = 0;
    for (const corpus::CorpusShader *s : reps) {
        glsl::CompiledShader cs =
            glsl::compileShader(s->source, s->defines);
        auto module = lower::lowerShader(cs);
        passes::canonicalize(*module);

        const double baseMs = timeTile(*module, cs.interface, 1);
        const double baseRate =
            static_cast<double>(kFragments) / baseMs / 1e3; // Minv/s
        std::printf("  %-22s %10.2f |", s->family.c_str(), baseRate);
        for (size_t w : widths) {
            const double ms = timeTile(*module, cs.interface, w);
            const double rate =
                static_cast<double>(kFragments) / ms / 1e3;
            std::printf("  %7.2f %4.1f", rate, baseMs / ms);
            if (w == 8)
                logSum8 += std::log(baseMs / ms);
            if (w == 16)
                logSum16 += std::log(baseMs / ms);
        }
        std::printf("   (%s)\n", s->name.c_str());
        ++families;
    }

    const double n = static_cast<double>(families);
    std::printf("\nGeomean speedup over W=1 across %zu families:\n",
                families);
    std::printf("  W=8  : %6.2fx\n", std::exp(logSum8 / n));
    std::printf("  W=16 : %6.2fx  (default width)\n",
                std::exp(logSum16 / n));
    return 0;
}
