/**
 * @file
 * Shared helpers for the per-figure bench binaries: consistent headers,
 * device iteration, and access to the cached experiment campaign.
 *
 * Every binary regenerates one table or figure of the paper and prints
 * the same rows/series the paper reports. The first binary run pays for
 * the measurement campaign (~4 s on one core — see
 * bench/micro_explore.cpp and bench/micro_campaign.cpp for the
 * per-phase and per-worker split; GSOPT_THREADS controls the worker
 * pool); the results are cached as per-shader
 * shards under ./experiment_cache/ for all subsequent runs.
 */
#ifndef GSOPT_BENCH_BENCH_COMMON_H
#define GSOPT_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <string>

#include "gpu/device.h"
#include "support/stats.h"
#include "support/table.h"
#include "tuner/experiment.h"

namespace gsopt::bench {

inline void
banner(const char *figure, const char *what)
{
    std::printf("==================================================="
                "=========================\n");
    std::printf("%s — %s\n", figure, what);
    std::printf("Reproduction of: Crawford & O'Boyle, \"A Cross-platform "
                "Evaluation of Graphics\nShader Compiler Optimization\", "
                "ISPASS 2018.\n");
    std::printf("==================================================="
                "=========================\n\n");
}

inline const tuner::ExperimentEngine &
engine()
{
    std::printf("[campaign] loading or running the full measurement "
                "campaign...\n");
    const auto &e = tuner::ExperimentEngine::instance();
    std::printf("[campaign] %zu shaders x %llu flag combinations x %zu "
                "devices ready\n\n",
                e.results().size(),
                static_cast<unsigned long long>(tuner::comboCount()),
                gpu::allDevices().size());
    return e;
}

} // namespace gsopt::bench

#endif // GSOPT_BENCH_BENCH_COMMON_H
