/**
 * @file
 * The five GPU device models of the paper's testbed (Section IV-C).
 *
 * Each model captures the four mechanisms that drive the paper's
 * cross-platform variance:
 *
 *  1. *What the vendor JIT already optimises* — expressed as a set of
 *     our own pass flags that the driver applies to whatever source it
 *     receives. If the JIT unrolls, offline unrolling becomes a near
 *     no-op on that platform; if it cannot reassociate floats (a
 *     conformant driver may not), the offline unsafe passes keep their
 *     value.
 *  2. *ISA shape* — scalar SIMT machines (NVIDIA Pascal, AMD GCN4,
 *     Intel Gen9, Adreno 5xx) pay one slot per scalar lane; the vec4
 *     VLIW machine (Mali Midgard) pays per 4-wide bundle and relies on
 *     packing scalar work into bundles, which LunarGlass-style
 *     scalarisation disrupts.
 *  3. *Register pressure / occupancy* — more live values means fewer
 *     threads in flight, which exposes texture latency; past the
 *     spill threshold, spill traffic is added directly. Mali's small
 *     register file gives it the paper's spill cliffs (hoist: -35%).
 *  4. *Instruction-cache pressure* — Adreno's small i-cache penalises
 *     the code growth of aggressive unrolling (the -8% unroll case).
 *
 * All constants live here so that the calibration is visible and
 * auditable in one place. Absolute times are not meant to match the
 * paper's hardware; the *shape* of the optimization response is.
 */
#ifndef GSOPT_GPU_DEVICE_H
#define GSOPT_GPU_DEVICE_H

#include <cstdint>
#include <string>
#include <vector>

#include "passes/passes.h"

namespace gsopt::gpu {

/** ISA execution style. */
enum class IsaKind {
    Scalar, ///< scalar SIMT: vecN op costs N slots
    Vec4,   ///< vec4 VLIW: up to 4 lanes per slot, packing-sensitive
};

/** Stable identifiers for the paper's five platforms. */
enum class DeviceId { Intel, Amd, Nvidia, Arm, Qualcomm };

/** All five, in the paper's table order. */
std::vector<DeviceId> allDevices();

/** Per-device cost and capacity parameters. */
struct DeviceModel
{
    DeviceId id{};
    std::string name;     ///< marketing name (e.g. "GeForce GTX 1080")
    std::string vendor;   ///< vendor string used in reports
    IsaKind isa = IsaKind::Scalar;

    // -- throughput -----------------------------------------------------
    double clockGhz = 1.0;    ///< shader clock
    int shaderUnits = 256;    ///< scalar lanes (or vec4 units for Vec4)

    // -- fixed pipeline cost per fragment --------------------------------
    /** Varying interpolation setup, depth/ROP export, scheduling: work
     * every fragment pays regardless of the shader body. */
    double baseOverheadCycles = 16.0;

    // -- instruction costs (cycles per slot) ----------------------------
    double costAddMul = 1.0;
    double costDiv = 4.0;     ///< native divide / reciprocal chain
    double costSqrt = 4.0;
    double costTranscendental = 8.0; ///< sin/cos/exp/log/pow
    double costMov = 0.25;    ///< swizzle/extract/construct shuffling
    double costBranch = 2.0;  ///< per structured branch node
    double divergencePenalty = 0.5; ///< extra fraction of the cheaper arm

    // -- texturing --------------------------------------------------------
    double texIssueCost = 1.0;   ///< pipeline issue cost per sample
    double texLatency = 100.0;   ///< raw latency to hide (cycles)
    double wavesToHideTex = 6.0; ///< waves in flight for full hiding

    // -- registers / occupancy -------------------------------------------
    /** Register budget per thread before occupancy degrades (scalar
     * registers, or vec4 registers for Vec4 machines). */
    double regBudget = 64.0;
    /** Hard spill threshold: live values beyond this spill to memory. */
    double spillThreshold = 128.0;
    double spillCost = 8.0;     ///< cycles per spilled value access
    double maxWaves = 16.0;     ///< scheduler limit on waves in flight

    // -- instruction cache --------------------------------------------------
    double icacheInstrs = 1e9;  ///< instructions fitting the i-cache
    double icachePenalty = 0.0; ///< extra cycles per instr beyond that

    // -- vec4 packing (Vec4 machines only) -------------------------------
    /** Fraction of scalar ops the driver manages to pack into bundles
     * when the code still has regular structure (see gpu::codegen). */
    double slpEfficiency = 0.75;

    // -- measurement ------------------------------------------------------
    double noiseSigma = 0.01;     ///< relative gaussian noise per sample
    double timerQuantumNs = 1000; ///< GL_TIME_ELAPSED quantisation
    int trianglesPerFrame = 1000; ///< paper: 1000 desktop, 100 mobile

    /** What the vendor's in-driver compiler does on its own. */
    passes::FlagSet jitFlags;

    /**
     * The JIT's transformation heuristics. Real drivers unroll and
     * if-convert selectively (bounded trip counts, bounded arm sizes);
     * offline tools transform unconditionally. This asymmetry is what
     * lets pre-transformed input end up *worse* than the driver's own
     * choice — the paper's "default LunarGlass flags give average
     * slow-downs" effect.
     */
    long jitUnrollTrips = 0;       ///< max trip count the JIT unrolls
    size_t jitUnrollInstrs = 0;    ///< max unrolled size the JIT allows
    size_t jitHoistArmInstrs = 0;  ///< max if-arm size the JIT flattens

    /**
     * List-scheduler reach: def-use spans longer than this get sunk to
     * the use site before register accounting. Out-of-order desktop
     * compilers reorder aggressively (small window value = more
     * sinking); the in-order VLIW Mali compiler reorders much less, so
     * pressure introduced by offline reassociation tends to stick
     * there.
     */
    size_t schedulerWindow = 48;
};

/** The configured model for one of the paper's devices. */
const DeviceModel &deviceModel(DeviceId id);

/** Short vendor tag ("NVIDIA", "ARM", ...) used in tables. */
const char *deviceVendor(DeviceId id);

/**
 * Exact-bit hash of every field of @p device: each double is hashed
 * through its IEEE-754 bit pattern (not decimal formatting), so a
 * 1-ulp parameter change changes the key. It keys both the driver's
 * binary cache (a tweaked ablation model never aliases a stock one)
 * and, through tuner::deviceSetKey, every campaign shard.
 */
uint64_t deviceModelKey(const DeviceModel &device);

} // namespace gsopt::gpu

#endif // GSOPT_GPU_DEVICE_H
