/**
 * @file
 * The vendor driver compiler model ("the JIT"). A real GL driver
 * receives GLSL *text* — including all the artefacts an offline
 * source-to-source optimizer baked into it — compiles it with whatever
 * optimizations that vendor ships, allocates registers, and produces a
 * machine binary. This module reproduces that contract:
 *
 *   text -> front end -> vendor steps (vendorSteps, DeviceModel::jitFlags)
 *        -> code generation cost model -> occupancy/spill accounting
 *        -> per-fragment cycle estimate
 *
 * Because the vendor pass set is built from the same pass library as
 * the offline tool, "the JIT already does X" falls out naturally: if
 * the device unrolls on its own, offline unrolling converges to the
 * same IR and measures as a no-op on that device.
 */
#ifndef GSOPT_GPU_DRIVER_H
#define GSOPT_GPU_DRIVER_H

#include <string>
#include <vector>

#include "gpu/codegen.h"
#include "gpu/device.h"

namespace gsopt::gpu {

/** The driver's compiled artefact: everything timing needs. */
struct ShaderBinary
{
    CostSummary cost;
    double spilledRegs = 0;     ///< registers beyond the spill threshold
    double occupancyWaves = 0;  ///< waves in flight given live registers
    double texStallCycles = 0;  ///< unhidden texture latency per fragment
    double icacheStallCycles = 0; ///< i-cache pressure penalty
    double cyclesPerFragment = 0; ///< grand total the timer model uses
};

/**
 * Compile GLSL source exactly as the vendor driver would. Throws
 * gsopt::CompileError on invalid source.
 *
 * Compilations are memoised in a process-wide content-addressed cache
 * keyed by (source-text hash, deviceModelKey): across a whole
 * measurement campaign each unique variant text is compiled once per
 * device instead of once per measurement — the real-driver analogue of
 * the GL shader binary cache. The key covers every device parameter,
 * so ablation studies that tweak a model (e.g. disabling its JIT
 * passes) never alias with the stock model. The cache is unbounded: a
 * campaign tops out at a few hundred unique texts x 5 devices.
 * Thread-safe.
 */
ShaderBinary driverCompile(const std::string &glslSource,
                           const DeviceModel &device);

/**
 * One step of the vendor pass pipeline. A device runs the step when
 * @p enabled says so: its jitFlags bit is set, and for the structural
 * steps its heuristic budget is nonzero. @p run applies the pass with
 * that device's parameters and reports whether it changed the module;
 * the driver then canonicalizes only after a change
 * (passes::canonicalizeIfChanged).
 */
struct VendorStep
{
    const char *name;
    bool (*enabled)(const DeviceModel &device);
    bool (*run)(ir::Module &module, const DeviceModel &device);
};

/** The vendor pipeline, in the order every driver model applies it:
 * unroll, hoist, coalesce, reassociate, gvn. It follows the front
 * end's first canonicalize and precedes driverBackEnd. */
const std::vector<VendorStep> &vendorSteps();

/** The driver's back end on a module its vendor passes have run on:
 * pressure scheduling, cost analysis, register allocation, occupancy
 * and stall accounting. Exposed so tests can build reference vendor
 * pipelines. Schedules @p module in place. */
ShaderBinary driverBackEnd(ir::Module &module, const DeviceModel &device);

/** Cumulative cache statistics since process start (or last reset). */
struct DriverCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t entries = 0;
    uint64_t compileNs = 0;  ///< time spent in uncached fills
    /** Driver front-end runs (parse, lower, first canonicalize): the
     * cross-device IR cache's misses, one per distinct text unless
     * two threads compile the same text at once. */
    uint64_t frontEndRuns = 0;
};

DriverCacheStats driverCacheStats();

/** Drop all cached binaries and IR and zero the stats (benchmarks
 * and tests only). */
void clearDriverCache();

/** Timing: nanoseconds to shade one full-screen draw (noise-free). */
double drawTimeNs(const ShaderBinary &binary, const DeviceModel &device,
                  long fragments);

} // namespace gsopt::gpu

#endif // GSOPT_GPU_DRIVER_H
