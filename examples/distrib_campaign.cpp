/**
 * @file
 * Distributed campaign walkthrough: fan a flag-tuning campaign out
 * over worker subprocesses, watch the coordinator merge and verify
 * their shards, then resume over the merged directory.
 *
 *   1. Pick a handful of corpus shaders (one work unit each).
 *   2. Run a CampaignCoordinator with subprocess workers — each
 *      worker is a re-execution of this binary speaking the
 *      support/ipc frame protocol, which is why main() starts with
 *      maybeRunWorker().
 *   3. Print the health report (units and items completed, requeues,
 *      lease expiries...).
 *   4. Run a second coordinator over the same directory: every unit
 *      is satisfied from the merged shards — the resume path.
 *
 * Knobs: GSOPT_DISTRIB_WORKERS, GSOPT_LEASE_MS, and the usual
 * campaign environment. GSOPT_FAULTS fault plans apply to workers
 * too: try GSOPT_FAULTS="worker.item:0.3:8" to watch items retried
 * and, when their retries run out, quarantined. A unit with a
 * quarantined item still delivers its partial shard, which is kept but
 * neither published nor re-queued (so the resume re-runs it, and the
 * example exits 1). A worker death or a torn frame
 * (GSOPT_FAULTS="ipc.send:0.2:5:tear") re-queues the unit instead.
 *
 * Build & run:  ./build/examples/example_distrib_campaign
 */
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "corpus/corpus.h"
#include "tuner/distrib.h"

using namespace gsopt;

int
main()
{
    // Workers are re-executions of this binary: divert before doing
    // anything else. (Forgetting this line is detected — the
    // coordinator kills workers that never complete the handshake.)
    if (tuner::distrib::maybeRunWorker())
        return 0;

    std::vector<corpus::CorpusShader> shaders;
    for (const char *name :
         {"blur/weighted9", "tonemap/aces", "toon/bands3",
          "fxaa/high", "ssao/kernel16", "uber/car_chase"})
        shaders.push_back(*corpus::findShader(name));

    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("gsopt-example-distrib-" + std::to_string(::getpid())))
            .string();

    // -- 2. the distributed run --------------------------------------
    tuner::distrib::Options opts;
    opts.workers = 3; // or leave 0 and set GSOPT_DISTRIB_WORKERS
    opts.transport = tuner::distrib::TransportKind::Subprocess;
    std::printf("Running %zu units on %u subprocess workers...\n",
                shaders.size(), opts.workers);
    tuner::distrib::CampaignCoordinator coordinator(shaders, dir,
                                                    opts);
    const tuner::distrib::DistribHealth &health = coordinator.run();
    std::printf("%s\n", health.summary().c_str());

    // -- 4. resume: the merged directory is a normal shard cache ------
    tuner::distrib::CampaignCoordinator resumed(shaders, dir, opts);
    const tuner::distrib::DistribHealth &again = resumed.run();
    std::printf("Second run over the merged directory: %llu of %llu "
                "units from cache.\n",
                static_cast<unsigned long long>(again.unitsFromCache),
                static_cast<unsigned long long>(again.unitsTotal));

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return health.healthy() && again.unitsFromCache ==
                                   again.unitsTotal
               ? 0
               : 1;
}
