/**
 * @file
 * Campaign scaling trajectory for the sharded work-queue engine: runs
 * the same campaign at 1 and 2 workers plus the machine default
 * (GSOPT_THREADS / hardware_concurrency), reports wall-clock and driver
 * front-end runs per configuration, and verifies the outputs are
 * bit-identical across thread counts (the engine's core invariant —
 * one thread owns each shader's result, deterministic measurement
 * seeds).
 *
 * The driver compile cache is cleared before every configuration so
 * each one pays the same cold-compile work. The shader is the parallel
 * unit (one thread explores it and runs its five device items), so no
 * text is parsed on two threads at once: the front-end count is the
 * same at every worker count, and scaling is pure scheduling.
 *
 * Pass --full to run the entire corpus instead of the probe set.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "corpus/corpus.h"
#include "gpu/driver.h"
#include "support/thread_pool.h"

using namespace gsopt;

namespace {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
identicalResults(const tuner::ExperimentEngine &a,
                 const tuner::ExperimentEngine &b)
{
    if (a.results().size() != b.results().size())
        return false;
    for (size_t i = 0; i < a.results().size(); ++i) {
        const tuner::ShaderResult &ra = a.results()[i];
        const tuner::ShaderResult &rb = b.results()[i];
        const tuner::Exploration &ea = ra.exploration;
        const tuner::Exploration &eb = rb.exploration;
        if (ea.shaderName != eb.shaderName ||
            ea.preprocessedOriginal != eb.preprocessedOriginal ||
            ea.exploredFlagCount != eb.exploredFlagCount ||
            ea.passthroughVariant != eb.passthroughVariant ||
            ea.variantOfCombo != eb.variantOfCombo ||
            ea.variants.size() != eb.variants.size() ||
            ra.byDevice.size() != rb.byDevice.size())
            return false;
        for (size_t v = 0; v < ea.variants.size(); ++v) {
            const tuner::Variant &va = ea.variants[v];
            const tuner::Variant &vb = eb.variants[v];
            if (va.source != vb.source ||
                va.sourceHash != vb.sourceHash ||
                !(va.producers == vb.producers))
                return false;
        }
        for (const auto &[dev, m] : ra.byDevice) {
            auto it = rb.byDevice.find(dev);
            if (it == rb.byDevice.end() || !(m == it->second))
                return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool full =
        argc > 1 && std::strcmp(argv[1], "--full") == 0;

    bench::banner("micro_campaign",
                  "Work-queue campaign scaling: wall-clock vs worker "
                  "count, outputs verified bit-identical");

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

    std::vector<unsigned> configs = {1, 2};
    const unsigned machine = defaultThreadCount();
    if (machine != 1 && machine != 2)
        configs.push_back(machine);

    std::printf("Probe set: %zu shaders x %llu combos x %zu devices "
                "(machine default: %u workers)%s\n\n",
                probe.size(),
                static_cast<unsigned long long>(tuner::comboCount()),
                gpu::allDevices().size(), machine,
                full ? " (full corpus)" : "");

    struct Run
    {
        unsigned threads;
        double wallMs;
        uint64_t frontEndRuns;
    };
    std::vector<Run> runs;
    std::vector<tuner::ExperimentEngine> engines;
    engines.reserve(configs.size());

    for (unsigned threads : configs) {
        gpu::clearDriverCache();
        const double t0 = nowMs();
        engines.emplace_back(probe, threads);
        runs.push_back({threads, nowMs() - t0,
                        gpu::driverCacheStats().frontEndRuns});
    }

    bool all_identical = true;
    for (size_t i = 1; i < engines.size(); ++i)
        all_identical &= identicalResults(engines[0], engines[i]);

    std::printf("Campaign wall-clock by worker count:\n");
    std::printf("  %-10s %12s %10s %11s\n", "workers", "wall",
                "speedup", "front ends");
    for (const Run &r : runs) {
        std::printf("  %-10u %9.1f ms %9.2fx %11llu%s\n", r.threads,
                    r.wallMs, runs[0].wallMs / r.wallMs,
                    static_cast<unsigned long long>(r.frontEndRuns),
                    r.threads == machine ? "  (machine default)" : "");
    }
    std::printf("\nCross-thread-count results: %s\n",
                all_identical ? "bit-identical"
                              : "MISMATCH (engine invariant broken!)");
    return all_identical ? 0 : 1;
}
