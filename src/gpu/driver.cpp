#include "gpu/driver.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "emit/offline.h"
#include "passes/passes.h"
#include "support/fault.h"
#include "support/rng.h"
#include "support/time.h"

namespace gsopt::gpu {

namespace {

/** The binary cache: hashCombine(text hash, deviceModelKey) -> binary.
 * Unbounded; hits take the lock shared. */
std::shared_mutex cacheMutex;
std::unordered_map<uint64_t, ShaderBinary> cache;
std::atomic<uint64_t> cacheHits{0};
std::atomic<uint64_t> cacheMisses{0};
std::atomic<uint64_t> cacheCompileNs{0};
std::atomic<uint64_t> frontEndRuns{0};

/** Front-end sharing across devices: the driver's parse+lower of a
 * given text, and the first canonicalize every vendor runs on it, are
 * device-independent, so a campaign compiling one variant on five
 * devices does that work once and clones the canonical IR per device
 * for the vendor pass set. The clone keeps instruction and var ids, so
 * each device continues from exactly the module it would have
 * canonicalized itself. Entries are immutable once inserted (vendor
 * passes always run on a clone). Like the binary cache above it is
 * unbounded — a full campaign tops out at a few hundred unique texts x
 * 5 devices — and clearDriverCache() drops both. */
std::mutex irCacheMutex;
std::unordered_map<uint64_t, std::unique_ptr<ir::Module>> irCache;

/** The driver's device-independent front end: parse, lower, and the
 * first canonicalize. */
std::unique_ptr<ir::Module>
canonicalIr(const std::string &glslSource)
{
    auto module = emit::compileToIr(glslSource);
    passes::canonicalize(*module);
    return module;
}

/** canonicalIr through the cross-device cache; @p textHash is
 * fnv1a(glslSource). */
std::unique_ptr<ir::Module>
frontEndIr(const std::string &glslSource, uint64_t textHash)
{
    {
        std::lock_guard lock(irCacheMutex);
        auto it = irCache.find(textHash);
        if (it != irCache.end())
            return it->second->clone();
    }
    frontEndRuns.fetch_add(1, std::memory_order_relaxed);
    auto module = canonicalIr(glslSource);
    auto result = module->clone();
    {
        std::lock_guard lock(irCacheMutex);
        irCache.try_emplace(textHash, std::move(module));
    }
    return result;
}

/** Vendor pass set + cost model over a module canonicalIr produced. */
ShaderBinary compileIr(ir::Module &module, const DeviceModel &device);

} // namespace

ShaderBinary
driverCompile(const std::string &glslSource, const DeviceModel &device)
{
    const uint64_t textHash = fnv1a(glslSource);
    const uint64_t key = hashCombine(textHash, deviceModelKey(device));
    {
        std::shared_lock lock(cacheMutex);
        auto it = cache.find(key);
        if (it != cache.end()) {
            cacheHits.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    // Miss: front end via the cross-device IR cache (parse and
    // canonicalize each unique text once, vendor passes on a clone),
    // then the vendor pipeline.
    // Flaky real drivers fail here, on actual compiles — never on a
    // binary-cache hit — so the fault site guards only the fill path.
    fault::point("driver.compile", device.name);
    const uint64_t t0 = nowNs();
    auto module = frontEndIr(glslSource, textHash);
    ShaderBinary bin = compileIr(*module, device);
    cacheCompileNs.fetch_add(nowNs() - t0, std::memory_order_relaxed);
    {
        // Another thread may have filled this key while we compiled;
        // its entry is identical (deterministic compile), so keep it.
        std::unique_lock lock(cacheMutex);
        cacheMisses.fetch_add(1, std::memory_order_relaxed);
        cache.try_emplace(key, bin);
    }
    return bin;
}

DriverCacheStats
driverCacheStats()
{
    std::shared_lock lock(cacheMutex);
    return {cacheHits, cacheMisses, cache.size(), cacheCompileNs,
            frontEndRuns};
}

void
clearDriverCache()
{
    {
        std::lock_guard lock(irCacheMutex);
        irCache.clear();
    }
    std::unique_lock lock(cacheMutex);
    cache.clear();
    cacheHits = 0;
    cacheMisses = 0;
    cacheCompileNs = 0;
    frontEndRuns = 0;
}

namespace {

ShaderBinary
compileIr(ir::Module &module, const DeviceModel &device)
{
    // Each step follows the pipeline's step rule: the module entering
    // it is a canonicalize fixpoint, so a step that changes nothing
    // needs no canonicalize after it.
    for (const VendorStep &step : vendorSteps()) {
        if (step.enabled(device))
            passes::canonicalizeIfChanged(module, step.run(module, device));
    }
    return driverBackEnd(module, device);
}

} // namespace

const std::vector<VendorStep> &
vendorSteps()
{
    // Vendor optimization set. Every real driver folds constants and
    // CSEs (canonicalize, already run by canonicalIr); the flags encode
    // what else this vendor's stack can do. Structural transforms
    // (unroll, hoist) apply the vendor's own heuristics' budgets —
    // unlike the offline tool's unconditional versions.
    static const std::vector<VendorStep> steps = {
        {"unroll",
         [](const DeviceModel &d) {
             return d.jitFlags.has(passes::kUnroll) && d.jitUnrollTrips > 0;
         },
         [](ir::Module &m, const DeviceModel &d) {
             return passes::unroll(m, d.jitUnrollTrips, d.jitUnrollInstrs);
         }},
        {"hoist",
         [](const DeviceModel &d) {
             return d.jitFlags.has(passes::kHoist) && d.jitHoistArmInstrs > 0;
         },
         [](ir::Module &m, const DeviceModel &d) {
             return passes::hoist(m, d.jitHoistArmInstrs);
         }},
        {"coalesce",
         [](const DeviceModel &d) {
             return d.jitFlags.has(passes::kCoalesce);
         },
         [](ir::Module &m, const DeviceModel &) {
             return passes::coalesce(m);
         }},
        {"reassociate",
         [](const DeviceModel &d) {
             return d.jitFlags.has(passes::kReassociate);
         },
         [](ir::Module &m, const DeviceModel &) {
             return passes::reassociate(m);
         }},
        {"gvn",
         [](const DeviceModel &d) { return d.jitFlags.has(passes::kGvn); },
         [](ir::Module &m, const DeviceModel &) { return passes::gvn(m); }},
    };
    return steps;
}

ShaderBinary
driverBackEnd(ir::Module &module, const DeviceModel &device)
{
    // Every vendor back end list-schedules for register pressure before
    // allocation; without this, offline reassociation's end-of-block
    // reduction chains would look impossibly expensive.
    passes::scheduleForPressure(module, device.schedulerWindow);

    ShaderBinary bin;
    bin.cost = analyzeModule(module, device);

    // Register allocation: spill anything over the hard threshold.
    bin.spilledRegs =
        std::max(0.0, bin.cost.maxLiveRegs - device.spillThreshold);
    const double spill_cycles = bin.spilledRegs * device.spillCost;

    // Occupancy: the register file supports regBudget live registers
    // per thread at full occupancy; heavier shaders run fewer waves.
    // The allocator spills anything beyond spillThreshold precisely to
    // keep occupancy from collapsing, so the occupancy calculation uses
    // the post-spill register count (the spill traffic is charged
    // above).
    const double resident =
        std::min(bin.cost.maxLiveRegs, device.spillThreshold);
    const double capacity = device.regBudget * device.maxWaves;
    bin.occupancyWaves = std::clamp(
        capacity / std::max(1.0, resident), 1.0, device.maxWaves);

    // Texture latency hiding degrades with occupancy.
    const double hide =
        std::min(1.0, bin.occupancyWaves / device.wavesToHideTex);
    bin.texStallCycles = bin.cost.textureCount * device.texLatency *
                         (1.0 - hide);

    // Instruction-cache pressure (Adreno-style) on code growth.
    const double excess =
        std::max(0.0, static_cast<double>(bin.cost.instructionCount) -
                          device.icacheInstrs);
    bin.icacheStallCycles = excess * device.icachePenalty;

    bin.cyclesPerFragment = device.baseOverheadCycles +
                            bin.cost.issueCycles() + spill_cycles +
                            bin.texStallCycles + bin.icacheStallCycles;
    return bin;
}

double
drawTimeNs(const ShaderBinary &binary, const DeviceModel &device,
           long fragments)
{
    const double throughput =
        static_cast<double>(device.shaderUnits) * device.clockGhz;
    // fragments * cycles / (units * GHz) yields nanoseconds directly.
    return static_cast<double>(fragments) * binary.cyclesPerFragment /
           throughput;
}

} // namespace gsopt::gpu
