/**
 * @file
 * Per-shader autotuning — the paper's "smarter techniques to choose
 * when and how to optimize each shader for each platform" (Section II),
 * demonstrated on the motivating blur shader and friends.
 *
 * For each shader the tool explores every flag combination (deduped
 * by output text), measures every unique variant on every simulated
 * GPU, and reports the per-platform winner — compare the winners across
 * platforms to see why one static choice cannot win everywhere.
 *
 * Build & run:  ./build/examples/blur_autotune [shader ...]
 */
#include <cstdio>

#include "corpus/corpus.h"
#include "runtime/framework.h"
#include "support/table.h"
#include "tuner/explore.h"

using namespace gsopt;

namespace {

void
autotune(const corpus::CorpusShader &shader)
{
    std::printf("=== %s ===\n", shader.name.c_str());
    tuner::Exploration ex = tuner::exploreShader(shader);
    std::printf("%llu flag combinations -> %zu unique variants\n\n",
                static_cast<unsigned long long>(tuner::comboCount()),
                ex.uniqueCount());

    TextTable t({"platform", "best flags", "speed-up vs original",
                 "defaults", "all flags"});
    for (gpu::DeviceId id : gpu::allDevices()) {
        const gpu::DeviceModel &device = gpu::deviceModel(id);
        auto original = runtime::measureShader(
            ex.preprocessedOriginal, device, shader.name + "/orig");

        std::vector<double> by_variant;
        for (size_t v = 0; v < ex.variants.size(); ++v) {
            auto timing = runtime::measureShader(
                ex.variants[v].source, device,
                shader.name + "/v" + std::to_string(v));
            by_variant.push_back(
                runtime::speedupPercent(original, timing));
        }
        const tuner::Exploration::BestFlags best =
            ex.bestFlags([&](size_t v) { return by_variant[v]; });
        double defaults = by_variant[static_cast<size_t>(
            ex.variantOf(tuner::FlagSet::lunarGlassDefaults()))];
        double all = by_variant[static_cast<size_t>(
            ex.variantOf(tuner::FlagSet::all()))];
        t.addRow({device.vendor, best.flags.str(),
                  TextTable::num(best.speedup, 2) + "%",
                  TextTable::num(defaults, 2) + "%",
                  TextTable::num(all, 2) + "%"});
    }
    std::printf("%s\n", t.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> names;
    for (int i = 1; i < argc; ++i)
        names.push_back(argv[i]);
    if (names.empty())
        names = {"blur/weighted9", "ssao/kernel16", "tier/dual_heavy"};

    for (const std::string &name : names) {
        const corpus::CorpusShader *shader = corpus::findShader(name);
        if (!shader) {
            std::printf("unknown shader '%s'; available:\n",
                        name.c_str());
            for (const auto &s : corpus::corpus())
                std::printf("  %s\n", s.name.c_str());
            return 1;
        }
        autotune(*shader);
    }
    return 0;
}
