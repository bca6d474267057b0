/**
 * @file
 * Phase-ordering study: does pass *order* buy measurable speed-up
 * beyond the best flag subset? For each probe shader the full 11-pass
 * catalog is registered, the flag lattice is explored exhaustively,
 * and per device two optima are compared: the exhaustive best flag
 * subset (canonical order — the strongest result the paper's lattice
 * can express) against the best ordered plan SequenceSearch finds
 * through a shared PlanExplorer.
 *
 * The second headline is the cost side: every ordered plan walked on
 * one shader shares one content-addressed PlanApplier memo across all
 * five devices, so executed pass runs stay far below the walked-plan
 * step count (ExploreCounters::plansWalked / passRuns deltas printed
 * at the end).
 *
 * Acceptance: at least one (shader, device) pair where the best
 * ordering strictly beats the best flag subset, and memoization holds
 * executed pass runs below the walked plan-step total.
 *
 * Pass --full to run the entire corpus instead of the probe set.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "corpus/corpus.h"
#include "passes/registry.h"
#include "tuner/explore.h"
#include "tuner/search.h"

using namespace gsopt;

int
main(int argc, char **argv)
{
    const bool full =
        argc > 1 && std::strcmp(argv[1], "--full") == 0;

    bench::banner("micro_order",
                  "Best ordered pass plan vs best flag subset per "
                  "(shader, device), N=11");

    // The ordering dimension only exists beyond the paper's eight:
    // licm / strength_reduce / tex_batch open the plans the lattice
    // cannot express.
    passes::ScopedExtraPasses extras;

    std::vector<const corpus::CorpusShader *> probe;
    if (full) {
        for (const auto &s : corpus::corpus())
            probe.push_back(&s);
    } else {
        for (const char *name :
             {"godrays/march64_spectral", "godrays/march32",
              "blur/weighted9", "ssao/kernel16", "composite/hdr_fog",
              "tonemap/aces"}) {
            probe.push_back(corpus::findShader(name));
        }
    }

    tuner::ExploreCounters &counters = tuner::exploreCounters();

    TextTable t({"shader", "device", "best subset", "best plan",
                 "delta", "winning plan"});
    size_t ordering_wins = 0;
    uint64_t plans_walked = 0;
    uint64_t plan_pass_runs = 0;
    uint64_t plan_memo_hits = 0;

    for (const corpus::CorpusShader *shader : probe) {
        tuner::Exploration ex = tuner::exploreShader(*shader);
        tuner::PlanExplorer planner(*shader, ex);

        // Everything from here is plan work: exploration and lowering
        // are already paid for above.
        const uint64_t walked0 = counters.plansWalked;
        const uint64_t runs0 = counters.passRuns;
        const uint64_t hits0 = counters.passMemoHits;

        for (gpu::DeviceId id : gpu::allDevices()) {
            const gpu::DeviceModel &device = gpu::deviceModel(id);

            tuner::MeasurementOracle lattice_oracle(ex, device);
            const double best_subset =
                tuner::ExhaustiveSearch{}
                    .run(lattice_oracle)
                    .bestSpeedupPercent;

            // One planner serves all five devices: plans already
            // walked for an earlier device are cache hits here.
            tuner::MeasurementOracle plan_oracle(ex, device,
                                                 &planner);
            const tuner::SearchOutcome seq =
                tuner::SequenceSearch(16).run(plan_oracle);
            const double best_plan = std::max(
                best_subset, seq.bestSpeedupPercent);

            const double delta = seq.bestSpeedupPercent - best_subset;
            const bool win =
                delta > 0.05 && !seq.bestPlan.isCanonical();
            ordering_wins += win;
            t.addRow({shader->name, gpu::deviceVendor(id),
                      TextTable::num(best_subset, 2) + " %",
                      TextTable::num(best_plan, 2) + " %",
                      (delta >= 0 ? "+" : "") +
                          TextTable::num(delta, 2) + " pp" +
                          (win ? " *" : ""),
                      win ? seq.bestPlan.str() : "-"});
        }

        plans_walked += counters.plansWalked - walked0;
        plan_pass_runs += counters.passRuns - runs0;
        plan_memo_hits += counters.passMemoHits - hits0;
    }

    std::printf("%s\n", t.str().c_str());
    std::printf("Probe set: %zu shaders x %zu devices%s, "
                "N=%zu registered passes\n",
                probe.size(), gpu::allDevices().size(),
                full ? " (full corpus)" : "",
                passes::PassRegistry::instance().count());
    std::printf("Plan exploration cost: %llu plans walked, %llu pass "
                "runs executed, %llu memo hits\n",
                static_cast<unsigned long long>(plans_walked),
                static_cast<unsigned long long>(plan_pass_runs),
                static_cast<unsigned long long>(plan_memo_hits));

    // Memoization bar: every step a walk takes (past the prefix it
    // reuses from the previous plan) is exactly one pass run or one
    // memo hit, so runs/(runs+hits) is the executed fraction — an
    // unmemoized applier would sit at 100%. Cross-order convergence
    // must keep it under half.
    const uint64_t plan_steps = plan_pass_runs + plan_memo_hits;
    const bool memo_ok =
        plan_steps > 0 && plan_pass_runs * 2 < plan_steps;
    const bool ok = ordering_wins >= 1 && memo_ok;
    std::printf(
        "Acceptance (>=1 ordering win beyond the flag lattice, "
        "executed pass runs\nwell below walked plan steps): %s  "
        "(%zu wins, %llu/%llu steps executed = %.0f%%)\n",
        ok ? "PASS" : "FAIL", ordering_wins,
        static_cast<unsigned long long>(plan_pass_runs),
        static_cast<unsigned long long>(plan_steps),
        plan_steps ? 100.0 * static_cast<double>(plan_pass_runs) /
                         static_cast<double>(plan_steps)
                   : 0.0);
    return ok ? 0 : 1;
}
