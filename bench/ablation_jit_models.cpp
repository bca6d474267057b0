/**
 * @file
 * Ablation (not a paper figure): how much of the paper's cross-platform
 * story depends on each mechanism in the driver models?
 *
 * For a probe set of corpus shaders this compares the isolated Unroll
 * and Hoist impact under three driver configurations:
 *
 *   full      — the calibrated model (JIT pass set + heuristic budgets
 *               + pressure scheduler);
 *   no-jit    — the vendor JIT applies no optional passes at all
 *               (canonicalise only): offline flags get full credit
 *               everywhere, erasing the NVIDIA/Intel near-zero rows;
 *   no-sched  — the back-end pressure scheduler is disabled by setting
 *               its window to infinity: offline reassociation's long
 *               reduction chains inflate register pressure.
 *
 * The point: the near-zero violins on strong-JIT platforms and the
 * bounded loss tails are *consequences of modelled mechanisms*, not
 * hand-tuned outputs.
 */
#include <cstdio>

#include "bench_common.h"
#include "corpus/corpus.h"
#include "emit/offline.h"
#include "glsl/frontend.h"
#include "runtime/framework.h"
#include "tuner/flags.h"

using namespace gsopt;

namespace {

const char *kProbes[] = {
    "blur/weighted9", "blur/gauss13", "godrays/march32",
    "ssao/kernel16", "tier/dual_heavy", "toon/bands3",
};

double
isolated(const corpus::CorpusShader &shader, const gpu::DeviceModel &dev,
         tuner::FlagSet flags)
{
    std::string base = emit::optimizeShaderSource(
        shader.source, tuner::FlagSet::none(), shader.defines);
    std::string with =
        emit::optimizeShaderSource(shader.source, flags, shader.defines);
    auto t_base = runtime::measureShader(base, dev, shader.name + "/b");
    auto t_with = runtime::measureShader(with, dev, shader.name + "/w");
    return runtime::speedupPercent(t_base, t_with);
}

gpu::DeviceModel
noJit(gpu::DeviceModel d)
{
    d.jitFlags = passes::FlagSet::none();
    d.jitUnrollTrips = 0;
    d.jitHoistArmInstrs = 0;
    return d;
}

gpu::DeviceModel
noSched(gpu::DeviceModel d)
{
    d.schedulerWindow = static_cast<size_t>(1) << 30;
    return d;
}

} // namespace

int
main()
{
    bench::banner("Ablation",
                  "Driver-model mechanisms: isolated Unroll/Hoist "
                  "impact under full / no-JIT / no-scheduler models");

    for (gpu::DeviceId id :
         {gpu::DeviceId::Nvidia, gpu::DeviceId::Arm}) {
        const gpu::DeviceModel &full = gpu::deviceModel(id);
        gpu::DeviceModel nj = noJit(full);
        gpu::DeviceModel ns = noSched(full);
        std::printf("---- %s ----\n", full.vendor.c_str());
        TextTable t({"shader", "flag", "full model", "no JIT passes",
                     "no scheduler"});
        struct Probe
        {
            const char *label;
            tuner::FlagSet flags;
        };
        const Probe probes[] = {
            {"Unroll", tuner::FlagSet::none().with(tuner::kUnroll)},
            {"Hoist", tuner::FlagSet::none().with(tuner::kHoist)},
            {"Unroll+FPReassoc",
             tuner::FlagSet::none()
                 .with(tuner::kUnroll)
                 .with(tuner::kFpReassociate)},
        };
        for (const char *name : kProbes) {
            const corpus::CorpusShader *s = corpus::findShader(name);
            for (const Probe &p : probes) {
                t.addRow({name, p.label,
                          TextTable::num(isolated(*s, full, p.flags),
                                         2) +
                              "%",
                          TextTable::num(isolated(*s, nj, p.flags), 2) +
                              "%",
                          TextTable::num(isolated(*s, ns, p.flags), 2) +
                              "%"});
            }
        }
        std::printf("%s\n", t.str().c_str());
    }

    std::printf(
        "Reading: with the JIT ablated, NVIDIA's near-zero rows become "
        "large positives\n(the offline flags take credit the real "
        "driver would have claimed) — that\nmechanism alone produces "
        "the paper's strong-JIT-platform violins. With the\nscheduler "
        "ablated, the Unroll+FPReassoc rows shift on the "
        "pressure-sensitive Mali\n(reassociated reduction chains "
        "change register pressure in both the baseline\nand the "
        "optimised code), showing measured deltas depend on the "
        "scheduling model.\n");
    return 0;
}
