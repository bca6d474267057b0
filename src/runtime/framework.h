/**
 * @file
 * The shader measurement framework (paper Section IV-B), reproduced
 * over the simulated devices:
 *
 *  - shaders execute in an *isolated context* (one fragment shader at a
 *    time, nothing else on the queue);
 *  - full-screen triangles clipped to 500x500 quads: 250,000 fragment
 *    invocations per draw against 3 vertex-shader invocations;
 *  - 1000 triangles per frame on desktop, 100 on mobile, drawn
 *    front-to-back; every draw is timed with a GL_TIME_ELAPSED-style
 *    query (noisy, quantised);
 *  - 100 frames per run, 5 runs per shader variant;
 *  - the vertex shader is auto-generated from the fragment shader's
 *    inputs, and uniforms/textures are auto-initialised from the
 *    interface reflection (floats 0.5, ints 1, colourful procedural
 *    texture), exactly as the paper describes.
 */
#ifndef GSOPT_RUNTIME_FRAMEWORK_H
#define GSOPT_RUNTIME_FRAMEWORK_H

#include <string>
#include <vector>

#include "glsl/sema.h"
#include "gpu/device.h"
#include "gpu/driver.h"
#include "ir/interp.h"
#include "ir/interp_batch.h"

namespace gsopt::runtime {

/** Fragments shaded per draw: 500x500 full-screen quad. */
constexpr long kFragmentsPerDraw = 500L * 500L;
/** Frames measured per repetition. */
constexpr int kFramesPerRun = 100;
/** Repetitions per shader variant. */
constexpr int kRepetitions = 5;

/** A timed measurement of one shader variant on one device. */
struct TimingResult
{
    std::vector<double> frameTimesNs; ///< all samples (runs x frames)
    double meanNs = 0; ///< summarize(frameTimesNs) has the rest
    gpu::ShaderBinary binary;         ///< the driver's compilation
};

/**
 * Generate the matching vertex shader for a fragment shader interface
 * (pass-through varyings + full-screen position with depth uniform).
 */
std::string generateVertexShader(const glsl::ShaderInterface &iface);

/**
 * Auto-initialise an interpreter environment from the interface:
 * floats/vecs to 0.5, ints to 1, matrices to identity-ish, samplers to
 * the default colourful pattern. Used by tests and the examples to run
 * shaders functionally.
 */
ir::InterpEnv defaultEnvironment(const glsl::ShaderInterface &iface);

/**
 * Memoised defaultEnvironment: one build per distinct interface
 * signature, then the same (immutable) environment is returned by
 * reference forever. The bulk consumers — corpus sweeps, fuzz probe
 * loops, per-variant verification — ask for the same shader's
 * environment thousands of times; rebuilding the maps each call was
 * pure overhead in those loops. Thread-safe; the returned reference is
 * stable for the process lifetime. Callers that want to perturb the
 * environment copy it first (it is shared!).
 */
const ir::InterpEnv &
defaultEnvironmentCached(const glsl::ShaderInterface &iface);

/**
 * Options for interpretTile: tile geometry and engine selection.
 * batchWidth 0 selects the scalar reference path (one
 * ir::interpretReference per fragment, the independent map engine);
 * any other value runs the batched SIMT engine with that many lanes per
 * batch. Both paths produce bit-identical results.
 */
struct TileOptions
{
    size_t width = 16;
    size_t height = 16;
    size_t batchWidth = ir::kBatchWidth;
};

/** Aggregate result of shading one tile. Sums are accumulated in
 * row-major fragment order on both engine paths, so they are
 * bit-comparable between scalar and batched runs. */
struct TileResult
{
    size_t fragments = 0;
    size_t discardedFragments = 0;
    size_t executedInstructions = 0;
    /** All components of all non-discarded fragments finite. */
    bool allFinite = true;
    /** Per output: per-component sum over all fragments. */
    std::map<std::string, ir::LaneVector> outputSums;
};

/**
 * Shade a width x height tile of fragments with the framework's
 * auto-initialised bindings, varying each float input across the tile
 * like an interpolated varying (component 0 sweeps u = (x+0.5)/width,
 * component 1 sweeps v = (y+0.5)/height, remaining components keep the
 * auto-init value). This is the bulk-verification entry point: the
 * corpus functional checks and the benchmarks drive whole tiles
 * through one BatchRunner instead of one interpret() per fragment.
 */
TileResult interpretTile(const ir::Module &module,
                         const glsl::ShaderInterface &iface,
                         const TileOptions &opts = {});

/**
 * Run the full measurement protocol for one shader on one device.
 *
 * @param glslSource fragment shader text (post- or pre-optimization)
 * @param device     target device model
 * @param label      seed label making the noise deterministic per
 *                   (shader, device, variant) triple
 */
TimingResult measureShader(const std::string &glslSource,
                           const gpu::DeviceModel &device,
                           const std::string &label);

/** Percentage speed-up of variant vs baseline mean times (+ is faster). */
double speedupPercent(const TimingResult &baseline,
                      const TimingResult &variant);

} // namespace gsopt::runtime

#endif // GSOPT_RUNTIME_FRAMEWORK_H
