/**
 * @file
 * Scalar interpreter entry points for IR modules.
 *
 * Executes a shader module for one fragment given concrete input,
 * uniform, and texture bindings, producing the values of all output
 * variables. The test suite uses it as the ground truth for optimization
 * correctness: for every pass (and every combination of passes), the
 * optimised module must compute the same outputs as the original, up to
 * floating-point reassociation tolerance.
 *
 * Two engines implement the IR semantics: the batched SoA engine
 * (ir/interp_batch.h), of which interpret() runs one lane, and the
 * small map-based engine behind interpretReference(), which is the
 * independent reference the batched engine is pinned against and its
 * scalar fallback.
 *
 * One function, evalPure(), evaluates every pure opcode on its
 * operands' lanes. It has three callers: the reference engine, the
 * constant folder (passes::foldConstInstr) and lowering's evaluator of
 * const initialisers, so compile-time folding and the reference follow
 * the same rules. The batched engine keeps its own copy on purpose: it
 * is the second implementation the reference is checked against.
 */
#ifndef GSOPT_IR_INTERP_H
#define GSOPT_IR_INTERP_H

#include <array>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "support/governor.h"

namespace gsopt::ir {

/** Runtime value: one double per component. */
using LaneVector = std::vector<double>;

/**
 * A texture callback: (u, v, lod) -> RGBA. The default is a smooth
 * procedural pattern so that nearby coordinates give nearby colours (as
 * with the paper's "colourfully-patterned" default texture).
 */
using TextureFn =
    std::function<std::array<double, 4>(double, double, double)>;

/** Execution environment for one fragment. */
struct InterpEnv
{
    /** Values for Input vars (by name). */
    std::map<std::string, LaneVector> inputs;
    /** Values for Uniform vars (by name); matrices flattened
     * column-major, arrays element-major. */
    std::map<std::string, LaneVector> uniforms;
    /** Per-sampler texture functions (by name); optional. */
    std::map<std::string, TextureFn> textures;
    /** Iteration cap for generic (non-canonical) loops. */
    long maxLoopIterations = 4096;
};

/** Result of interpreting one fragment. */
struct InterpResult
{
    std::map<std::string, LaneVector> outputs;
    bool discarded = false;
    /** Dynamic instruction count (one per executed instruction). */
    size_t executedInstructions = 0;
};

/**
 * A read-only view of one value's lanes: a LaneVector, or a Const
 * instruction's inline constData.
 */
class LaneSpan
{
  public:
    LaneSpan() = default;
    LaneSpan(const LaneVector &v) : data_(v.data()), size_(v.size()) {}
    LaneSpan(const InlineVec<double, kMaxInstrWidth> &v)
        : data_(v.data()), size_(v.size())
    {
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const double *begin() const { return data_; }
    const double *end() const { return data_ + size_; }
    double operator[](size_t i) const { return data_[i]; }

  private:
    const double *data_ = nullptr;
    size_t size_ = 0;
};

/** One instruction's operand lanes, in operand order. */
using OperandLanes = InlineVec<LaneSpan, kMaxInstrWidth>;

/**
 * Evaluate the pure instruction @p i on its operands' lanes @p args,
 * writing the result lanes to @p out (which must not alias @p args).
 * Reads i.op, i.type, i.indices and i.constData, never i.operands, so a
 * caller may pass an unlinked Instr. A scalar operand of a
 * componentwise op broadcasts to every lane; `int` results of Div and
 * Construct truncate toward zero.
 *
 * Returns false, leaving @p out untouched, for the impure opcodes:
 * memory access, texturing and discard.
 */
bool evalPure(const Instr &i, const OperandLanes &args, LaneVector &out);

/** The default procedural texture (smooth RGBA pattern in [0,1]). */
std::array<double, 4> defaultTexture(double u, double v, double lod);

/**
 * Execute the module. Missing inputs/uniforms default to 0.5 per
 * component (the measurement framework's auto-initialisation rule);
 * missing samplers use defaultTexture.
 *
 * Implementation: one lane of the batched engine — a width-1
 * BatchRunner over BatchEnv::broadcast(env, 1), returning lane 0.
 * Modules whose ids did not come from Module::nextId()/newVar
 * (hand-assembled test IR) fall back to the map-based reference engine
 * automatically.
 *
 * Throws std::runtime_error on malformed modules or runaway loops.
 */
InterpResult interpret(const Module &module, const InterpEnv &env);

/**
 * The map-based interpreter (`unordered_map<const Instr*, LaneVector>`
 * value storage). It shares no code with the batched engine beyond
 * LoopGuard, the step meter and defaultTexture, so it serves as the
 * independent golden reference: every batched lane must match it bit
 * for bit (outputs, discard flag, executed-instruction count), and the
 * golden and fuzz suites pin that. It is also the batched engine's
 * scalar fallback.
 */
InterpResult interpretReference(const Module &module,
                                const InterpEnv &env);

namespace detail {
/**
 * True when dense slot indexing is valid for @p module: every Instr::id
 * unique and below idBound(), every referenced Var at vars[Var::id].
 * The batched SoA engine (ir/interp_batch.h) checks it once per
 * runner and falls back to the map engine when it fails.
 */
bool denseIdsUsable(const Module &module);

/**
 * The shared runaway-guard for generic (non-canonical) loops, used by
 * both engines (map and batched SoA) — one implementation instead of
 * per-engine copies. It enforces the legacy per-loop
 * InterpEnv::maxLoopIterations trip cap (kept working as an alias of
 * the old hard-coded guards) and re-checks the governed wall-clock
 * deadline on every trip, so a slow loop cannot outrun
 * GSOPT_DEADLINE_MS between the amortised instruction-budget flushes.
 * The governed work bound itself (Dim::InterpSteps) counts executed
 * instructions, not trips — see governor::StepMeter at the engines'
 * instruction dispatch.
 */
class LoopGuard
{
  public:
    explicit LoopGuard(long maxTrips) : maxTrips_(maxTrips) {}

    void tick()
    {
        if (++trips_ > maxTrips_)
            throw std::runtime_error("interp: runaway generic loop");
        governor::checkDeadline("interp");
    }

  private:
    long trips_ = 0;
    long maxTrips_;
};
} // namespace detail

} // namespace gsopt::ir

#endif // GSOPT_IR_INTERP_H
