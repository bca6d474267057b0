/**
 * @file
 * Batched SIMT interpreter: evaluate W fragment invocations of a module
 * in one pass over the instruction stream.
 *
 * A scalar engine pays the per-instruction costs — region walk,
 * opcode dispatch, register-file bookkeeping — once per invocation.
 * The measurement protocol and the differential fuzzer are inherently
 * wide (a 500x500 draw is 250,000 invocations of the same
 * module; a fuzz seed probes many environments per variant), so this
 * engine restructures the register file as structure-of-arrays over W
 * invocations ("lanes"): each (Instr::id, component) owns one
 * contiguous strip of W doubles, the instruction stream is walked once
 * per batch, and the per-lane arithmetic loops are flat, restrict-
 * qualified, and auto-vectorizable (support/simd.h).
 *
 * Divergence follows the classic GPU SIMT model: control flow carries a
 * per-lane execution mask instead of branching per lane. `if` runs both
 * arms under complementary masks (empty masks are skipped), generic
 * loops iterate while any lane's condition holds with exited lanes
 * masked off, and `discard` removes lanes from every enclosing mask
 * permanently — a discarded lane's variable memory freezes exactly
 * where a scalar run of that lane stopped executing. Pure value
 * computations run full-width (inactive lanes compute unobserved
 * garbage, which is safe over IEEE doubles); only side effects —
 * variable stores, texture callbacks, discard, the dynamic instruction
 * count — are masked.
 *
 * This is also the scalar engine: `ir::interpret()` is one width-1
 * lane of it.
 *
 * Equivalence contract: for every lane, outputs, the discard flag, and
 * the per-lane executed-instruction count are bit-identical to running
 * the map reference `ir::interpretReference()` on that lane's scalar
 * environment. The golden and fuzz suites pin this across the corpus
 * and the full pass registry.
 * `InterpResult::executedInstructions` generalises to the per-lane-
 * summed dynamic count: on divergence-free shaders the batch total is
 * exactly W times the scalar count; masked-off lanes never count.
 *
 * Modules whose ids are not dense (hand-assembled test IR) and the rare
 * shapes the SoA layout cannot represent (per-lane divergent variable
 * *resizes*, which well-typed GLSL never produces) fall back to the
 * map reference engine lane by lane; results are identical either way.
 */
#ifndef GSOPT_IR_INTERP_BATCH_H
#define GSOPT_IR_INTERP_BATCH_H

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/interp.h"
#include "ir/ir.h"

namespace gsopt::ir {

/** Hard upper bound on lanes per batch (mask fits a uint32_t). */
constexpr size_t kMaxBatchWidth = 16;

/** Default batch width: the micro_interp W-sweep improves monotonically
 * through W=16 on every corpus family (wider batches amortise the
 * instruction-stream walk further and fill vector units), so the
 * default is the maximum. */
constexpr size_t kBatchWidth = 16;

/** Engine widths that have compiled lane-loop instantiations. A batch
 * of n lanes runs on the smallest supported width >= n. */
constexpr size_t kSupportedBatchWidths[] = {1, 4, 8, 16};

/**
 * Execution environment for one batch of W fragments.
 *
 * Inputs vary per lane and are stored as SoA strips; uniforms are truly
 * uniform — one value broadcast to every lane at initialisation, never
 * per-lane — and textures are shared callbacks, exactly mirroring the
 * GPU programming model the paper measures.
 */
struct BatchEnv
{
    /** One per-lane input: `soa[c * width + lane]` holds component c of
     * lane `lane`; `comps` components per lane. */
    struct LaneInput
    {
        size_t comps = 0;
        std::vector<double> soa;
    };

    /** Number of active lanes (1..kMaxBatchWidth). */
    size_t width = kBatchWidth;
    std::map<std::string, LaneInput> inputs;
    std::map<std::string, LaneVector> uniforms; ///< broadcast once
    std::map<std::string, TextureFn> textures;
    long maxLoopIterations = 4096;

    /** All lanes identical to @p env (uniforms/textures shared). */
    static BatchEnv broadcast(const InterpEnv &env, size_t width);

    /** Overwrite one lane of one input (first call for a name fixes its
     * component count; later lanes must match). */
    void setLaneInput(const std::string &name, size_t lane,
                      const LaneVector &value);

    /** The scalar environment lane @p lane is equivalent to. */
    InterpEnv laneEnv(size_t lane) const;
};

/** Result of one batched run. */
struct BatchResult
{
    size_t width = 0;
    /** Per output: SoA strip of `comps * width` doubles,
     * `soa[c * width + lane]`. */
    std::map<std::string, std::vector<double>> outputs;
    /** Per-lane discard flags. */
    std::vector<uint8_t> discarded;
    /** Per-lane dynamic instruction counts: instructions executed while
     * the lane was in the active mask (bit-identical to the reference
     * engine's count for that lane's environment). */
    std::vector<size_t> laneExecuted;
    /** Sum of laneExecuted: the batched generalisation of
     * InterpResult::executedInstructions. */
    size_t executedInstructions = 0;

    /** Component count of one output lane. */
    size_t outputComps(const std::string &name) const;

    /** One output component of one lane. */
    double output(const std::string &name, size_t comp,
                  size_t lane) const;

    /** Lane @p lane reshaped as a scalar InterpResult (ir::interpret's
     * result, and what the tests compare against
     * ir::interpretReference with the lane's scalar environment). */
    InterpResult laneResult(size_t lane) const;
};

/**
 * A reusable batched executor for one module: the register file, the
 * variable memory, and the dense-id precheck are paid once, then
 * `run()` evaluates one batch of fragments per call (the tile paths
 * call it thousands of times per module). Not thread-safe; make one
 * per thread.
 */
class BatchRunner
{
  public:
    /** @p width lanes per batch (rounded up to a supported width). */
    explicit BatchRunner(const Module &module,
                         size_t width = kBatchWidth);
    ~BatchRunner();

    BatchRunner(const BatchRunner &) = delete;
    BatchRunner &operator=(const BatchRunner &) = delete;

    /** False when the module fell back to the map reference engine
     * (non-dense ids); results are identical, just not batched. */
    bool batched() const;

    /** Evaluate lanes [0, env.width) of @p env. env.width must not
     * exceed the construction width. */
    BatchResult run(const BatchEnv &env);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** One-shot convenience: construct a runner and evaluate one batch. */
BatchResult interpretBatch(const Module &module, const BatchEnv &env);

} // namespace gsopt::ir

#endif // GSOPT_IR_INTERP_BATCH_H
