#include "gpu/device.h"

#include <cstring>
#include <stdexcept>

#include "support/rng.h"

namespace gsopt::gpu {

std::vector<DeviceId>
allDevices()
{
    return {DeviceId::Intel, DeviceId::Amd, DeviceId::Nvidia,
            DeviceId::Arm, DeviceId::Qualcomm};
}

const char *
deviceVendor(DeviceId id)
{
    switch (id) {
      case DeviceId::Intel: return "Intel";
      case DeviceId::Amd: return "AMD";
      case DeviceId::Nvidia: return "NVIDIA";
      case DeviceId::Arm: return "ARM";
      case DeviceId::Qualcomm: return "Qualcomm";
    }
    return "?";
}

namespace {

using passes::FlagSet;

DeviceModel
makeIntel()
{
    // HD Graphics 530 (Skylake GT2), Mesa i965. 24 EUs x SIMD8 at
    // ~1.05 GHz. The i965 compiler of the Mesa 17 era unrolled constant
    // loops and flattened small ifs, but performed no unsafe FP math.
    // 128 GRF per thread makes it moderately pressure-sensitive. The
    // paper singles Intel out as the least noisy platform.
    DeviceModel d;
    d.id = DeviceId::Intel;
    d.name = "HD Graphics 530 (Skylake GT2)";
    d.vendor = "Intel";
    d.isa = IsaKind::Scalar;
    d.clockGhz = 1.05;
    d.shaderUnits = 192;
    d.baseOverheadCycles = 22.0;
    d.texIssueCost = 4.0;
    d.costTranscendental = 8.0;
    d.texLatency = 120.0;
    d.wavesToHideTex = 5.0;
    d.regBudget = 40.0;
    d.spillThreshold = 100.0;
    d.spillCost = 10.0;
    d.maxWaves = 10.0;
    d.noiseSigma = 0.003;
    d.trianglesPerFrame = 1000;
    d.jitFlags = FlagSet::none()
                     .with(passes::kUnroll)
                     .with(passes::kGvn)
                     .with(passes::kHoist)
                     .with(passes::kReassociate);
    d.jitUnrollTrips = 32;
    d.jitUnrollInstrs = 1200;
    d.jitHoistArmInstrs = 10;
    return d;
}

DeviceModel
makeAmd()
{
    // RX 480 (Polaris10), Mesa 17 + LLVM 3.9 "radeonsi". 2304 scalar
    // lanes at 1.27 GHz, 64-wide waves. The Mesa/LLVM stack of that era
    // folded and value-numbered well but did *not* unroll GLSL loops —
    // which is why offline unrolling always pays on AMD in the paper
    // (peaks around +35%).
    DeviceModel d;
    d.id = DeviceId::Amd;
    d.name = "Radeon RX 480 (POLARIS10)";
    d.vendor = "AMD";
    d.isa = IsaKind::Scalar;
    d.clockGhz = 1.27;
    d.shaderUnits = 2304;
    d.baseOverheadCycles = 20.0;
    d.texIssueCost = 4.0;
    d.costTranscendental = 8.0;
    d.texLatency = 140.0;
    d.wavesToHideTex = 6.0;
    d.regBudget = 48.0;
    d.spillThreshold = 110.0;
    d.spillCost = 9.0;
    d.maxWaves = 10.0;
    d.noiseSigma = 0.008;
    d.trianglesPerFrame = 1000;
    d.jitFlags =
        FlagSet::none().with(passes::kGvn).with(passes::kReassociate);
    return d;
}

DeviceModel
makeNvidia()
{
    // GeForce GTX 1080 (Pascal), proprietary driver 375.39. 2560 CUDA
    // cores at ~1.7 GHz. The proprietary JIT is the strongest of the
    // five: it unrolls, value-numbers, reassociates integers, and
    // if-converts on its own, leaving offline passes mostly redundant
    // (the paper's near-zero NVIDIA violins). A huge register file
    // keeps occupancy high until shaders get very large.
    DeviceModel d;
    d.id = DeviceId::Nvidia;
    d.name = "GeForce GTX 1080";
    d.vendor = "NVIDIA";
    d.isa = IsaKind::Scalar;
    d.clockGhz = 1.73;
    d.shaderUnits = 2560;
    d.baseOverheadCycles = 24.0;
    d.texIssueCost = 4.0;
    d.costTranscendental = 4.0; // SFU-assisted
    d.texLatency = 120.0;
    d.wavesToHideTex = 5.0;
    d.regBudget = 64.0;
    d.spillThreshold = 160.0;
    d.spillCost = 8.0;
    d.maxWaves = 16.0;
    d.noiseSigma = 0.008;
    d.trianglesPerFrame = 1000;
    d.jitFlags = FlagSet::none()
                     .with(passes::kUnroll)
                     .with(passes::kGvn)
                     .with(passes::kHoist)
                     .with(passes::kReassociate);
    d.jitUnrollTrips = 32;
    d.jitUnrollInstrs = 1500;
    d.jitHoistArmInstrs = 14;
    return d;
}

DeviceModel
makeArm()
{
    // Mali-T880 MP12 (Midgard), Galaxy S7. A vec4 VLIW machine: up to
    // four float lanes per arithmetic slot, free swizzles, but scalar
    // work wastes lanes unless the compiler packs it (slpEfficiency).
    // The register file is small and spilling falls off a cliff — the
    // mechanism behind the paper's -35% hoist case and the -30% tail in
    // Fig 3. The in-driver compiler re-vectorises insert chains but
    // neither unrolls nor value-numbers aggressively, so the offline
    // default flags all help (ARM's best static set == the defaults).
    DeviceModel d;
    d.id = DeviceId::Arm;
    d.name = "Mali-T880 MP12";
    d.vendor = "ARM";
    d.isa = IsaKind::Vec4;
    d.clockGhz = 0.65;
    d.shaderUnits = 24; // 12 cores x 2 vec4 arithmetic pipes
    d.baseOverheadCycles = 8.0; // vec4-slot units
    d.texIssueCost = 2.0;
    d.costTranscendental = 6.0;
    d.costMov = 0.0; // free swizzles on Midgard
    d.texLatency = 130.0;
    d.wavesToHideTex = 3.0;
    d.regBudget = 8.0;       // vec4 work registers at full occupancy
    d.spillThreshold = 20.0; // vec4 registers before spilling
    d.spillCost = 10.0;
    d.maxWaves = 8.0;
    d.slpEfficiency = 0.75;
    d.schedulerWindow = 120; // in-order VLIW: limited reordering
    d.noiseSigma = 0.015;
    d.trianglesPerFrame = 100; // paper: 100 triangles on mobile
    d.jitFlags = FlagSet::none().with(passes::kCoalesce);
    return d;
}

DeviceModel
makeQualcomm()
{
    // Adreno 530 (HTC 10). Scalar ISA at ~0.624 GHz. The driver
    // compiler of this era folded constants but did not reassociate —
    // which is why the paper's unsafe FP passes peak at +25% here. A
    // small instruction cache penalises unrolled code growth (the -8%
    // unroll case), so unrolling stays out of its best static flags.
    DeviceModel d;
    d.id = DeviceId::Qualcomm;
    d.name = "Adreno 530";
    d.vendor = "Qualcomm";
    d.isa = IsaKind::Scalar;
    d.clockGhz = 0.624;
    d.shaderUnits = 256;
    d.baseOverheadCycles = 18.0;
    d.texIssueCost = 5.0;
    d.costTranscendental = 8.0;
    d.texLatency = 160.0;
    d.wavesToHideTex = 5.0;
    d.regBudget = 32.0;
    d.spillThreshold = 90.0;
    d.spillCost = 10.0;
    d.maxWaves = 8.0;
    d.costBranch = 0.75; // hardware loop support: cheap branches
    d.icacheInstrs = 140.0;
    d.icachePenalty = 0.45;
    d.noiseSigma = 0.02;
    d.trianglesPerFrame = 100;
    // Adreno's compiler unrolls small loops itself but refuses large
    // ones (code growth risks its small i-cache). Offline unrolling
    // therefore only *adds* the big loops — which is exactly where it
    // backfires (the paper's -8% case and its exclusion from the
    // Qualcomm best static flags).
    d.jitFlags = FlagSet::none().with(passes::kUnroll);
    d.jitUnrollTrips = 16;
    d.jitUnrollInstrs = 800;
    return d;
}

} // namespace

const DeviceModel &
deviceModel(DeviceId id)
{
    static const DeviceModel intel = makeIntel();
    static const DeviceModel amd = makeAmd();
    static const DeviceModel nvidia = makeNvidia();
    static const DeviceModel arm = makeArm();
    static const DeviceModel qualcomm = makeQualcomm();
    switch (id) {
      case DeviceId::Intel: return intel;
      case DeviceId::Amd: return amd;
      case DeviceId::Nvidia: return nvidia;
      case DeviceId::Arm: return arm;
      case DeviceId::Qualcomm: return qualcomm;
    }
    throw std::logic_error("unknown device id");
}

uint64_t
deviceModelKey(const DeviceModel &device)
{
    auto bits = [](double v) {
        uint64_t b;
        static_assert(sizeof(b) == sizeof(v), "double is 64-bit");
        std::memcpy(&b, &v, sizeof(b));
        return b;
    };
    uint64_t key = fnv1a(device.name);
    key = hashCombine(key, fnv1a(device.vendor));
    key = hashCombine(key, static_cast<uint64_t>(device.id));
    key = hashCombine(key, static_cast<uint64_t>(device.isa));
    for (double v :
         {device.clockGhz, device.baseOverheadCycles, device.costAddMul,
          device.costDiv, device.costSqrt, device.costTranscendental,
          device.costMov, device.costBranch, device.divergencePenalty,
          device.texIssueCost, device.texLatency, device.wavesToHideTex,
          device.regBudget, device.spillThreshold, device.spillCost,
          device.maxWaves, device.icacheInstrs, device.icachePenalty,
          device.slpEfficiency, device.noiseSigma,
          device.timerQuantumNs}) {
        key = hashCombine(key, bits(v));
    }
    key = hashCombine(key, static_cast<uint64_t>(device.shaderUnits));
    key = hashCombine(key,
                      static_cast<uint64_t>(device.trianglesPerFrame));
    key = hashCombine(key, device.jitFlags.bits);
    key = hashCombine(key,
                      static_cast<uint64_t>(device.jitUnrollTrips));
    key = hashCombine(key,
                      static_cast<uint64_t>(device.jitUnrollInstrs));
    key = hashCombine(key,
                      static_cast<uint64_t>(device.jitHoistArmInstrs));
    key = hashCombine(key,
                      static_cast<uint64_t>(device.schedulerWindow));
    return key;
}

} // namespace gsopt::gpu
