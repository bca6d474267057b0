/**
 * @file
 * IR storage microbenchmark: clone and destroy throughput of
 * arena-backed modules, the primitive the exploration flag tree leans
 * on (one clone per executed pass edge).
 *
 * Reports modules/s, us per clone and per destroy, and arena bytes per
 * module.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "corpus/corpus.h"
#include "glsl/frontend.h"
#include "ir/ir.h"
#include "lower/lower.h"
#include "passes/passes.h"

using namespace gsopt;

namespace {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Probe
{
    const char *label;
    std::unique_ptr<ir::Module> module;
};

std::unique_ptr<ir::Module>
lowered(const char *name, bool unrollHoist)
{
    const corpus::CorpusShader &s = *corpus::findShader(name);
    glsl::CompiledShader cs = glsl::compileShader(s.source, s.defines);
    auto m = lower::lowerShader(cs);
    if (unrollHoist) {
        passes::optimize(*m, passes::FlagSet::none()
                                 .with(passes::kUnroll)
                                 .with(passes::kHoist));
    } else {
        passes::canonicalize(*m);
    }
    return m;
}

} // namespace

int
main()
{
    bench::banner("micro_ir",
                  "Arena-backed Module clone/destroy throughput");

    std::vector<Probe> probes;
    probes.push_back(
        {"simple/grayscale", lowered("simple/grayscale", false)});
    probes.push_back({"blur/weighted9", lowered("blur/weighted9", false)});
    probes.push_back({"blur/weighted9 +unroll+hoist",
                      lowered("blur/weighted9", true)});
    probes.push_back({"pbr/full", lowered("pbr/full", false)});
    probes.push_back({"uber/car_chase", lowered("uber/car_chase", false)});

    std::printf("%-30s %7s %9s %11s %9s %9s\n", "module", "instrs",
                "bytes", "clones/s", "us/clone", "us/destroy");
    for (const Probe &p : probes) {
        const ir::Module &m = *p.module;
        // Pick a repetition count that keeps each probe ~50 ms. The
        // clone is destroyed before the next begins — the cache-resident
        // shape the flag tree's clone-apply-drop edges have.
        const int reps = std::max(
            256, static_cast<int>(2'000'000 /
                                  std::max<size_t>(
                                      1, m.instructionCount())));

        double clone_ms = 1e300, destroy_ms = 1e300;
        for (int trial = 0; trial < 3; ++trial) {
            double trial_clone = 0, trial_destroy = 0;
            for (int r = 0; r < reps; ++r) {
                double t0 = nowMs();
                auto clone = m.clone();
                double t1 = nowMs();
                clone.reset();
                trial_clone += t1 - t0;
                trial_destroy += nowMs() - t1;
            }
            clone_ms = std::min(clone_ms, trial_clone);
            destroy_ms = std::min(destroy_ms, trial_destroy);
        }

        const double total_ms = clone_ms + destroy_ms;
        const double per_sec = reps / total_ms * 1000.0;
        std::printf("%-30s %7zu %9zu %11.0f %9.2f %9.2f\n", p.label,
                    m.instructionCount(), m.arenaBytes(), per_sec,
                    clone_ms * 1000.0 / reps,
                    destroy_ms * 1000.0 / reps);
    }
    return 0;
}
