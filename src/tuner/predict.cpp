#include "tuner/predict.h"

#include <algorithm>

#include "passes/registry.h"

namespace gsopt::tuner {

namespace {

/** Unrolled-size (trip count x body instructions) above which the
 * i-cache-limited Adreno stops profiting from lone unrolling. The
 * prediction withholds kUnroll past this bound and the candidate list
 * offers the {Unroll, Reassociate} pair instead — the two sites must
 * stay exact complements, so they share this constant. */
constexpr size_t kAdrenoUnrollSizeLimit = 150;

size_t
unrolledSize(const ShaderFeatures &f)
{
    return static_cast<size_t>(f.maxTripCount) * f.loopBodyInstrs;
}

} // namespace

FlagSet
predictFlags(gpu::DeviceId device, const ShaderFeatures &f)
{
    FlagSet flags;
    // The unsafe FP passes pay on every platform except ARM's vec4
    // machine, where scalar grouping fights the vectoriser.
    if (device != gpu::DeviceId::Arm)
        flags = flags.with(kFpReassociate);
    // Constant divisions fold everywhere once turned into multiplies.
    if (f.hasConstDiv)
        flags = flags.with(kDivToMul);
    // Unrolling: on weak-JIT platforms (AMD, ARM) it pays directly; on
    // strong-JIT desktops it still pays *as an enabler* — the offline
    // unsafe passes can only see through a loop the offline tool has
    // unrolled, even if the driver would unroll it later anyway. Only
    // the i-cache-limited Adreno needs a size guard.
    if (f.hasConstLoop) {
        if (device != gpu::DeviceId::Qualcomm ||
            unrolledSize(f) < kAdrenoUnrollSizeLimit)
            flags = flags.with(kUnroll);
    }
    // Hoisting pays only on ARM, and only for small branchy shaders
    // (big flattened blocks blow the register file).
    if (device == gpu::DeviceId::Arm && f.branches > 0 &&
        f.instrs < 120)
        flags = flags.with(kHoist);
    // Coalesce is near-free and helps the vec4 machine.
    flags = flags.with(kCoalesce);

    // -- catalog passes, when registered (bits beyond the paper's 8) --
    // The rules read the device's JIT model rather than hard-coding
    // vendors: what a driver already does offline work cannot improve.
    const passes::PassRegistry &reg = passes::PassRegistry::instance();
    const gpu::DeviceModel &dm = gpu::deviceModel(device);
    // LICM pays where the loop actually survives to execution: the
    // driver never unrolls it (no JIT unroll, or over its budget), so
    // the invariant subtree really recomputes every trip.
    const int licmBit = reg.bitOf("licm");
    if (licmBit >= 0 && f.loopInvariantInstrs > 0 &&
        (!dm.jitFlags.has(kUnroll) ||
         unrolledSize(f) > dm.jitUnrollInstrs))
        flags = flags.with(licmBit);
    // Strength reduction: a pow->multiply chain trades a
    // transcendental-unit op for add/mul-class ops on every model;
    // integer multiply chains only matter where no JIT reassociation
    // cleans up index arithmetic anyway.
    const int srBit = reg.bitOf("strength_reduce");
    if (srBit >= 0 &&
        (f.powConstChains > 0 ||
         (f.intMulPow2 > 0 && !dm.jitFlags.has(kReassociate))))
        flags = flags.with(srBit);
    // Fetch batching is the mobile win: the tile-based parts run no
    // JIT GVN, so a cross-block duplicate fetch really issues twice.
    const int tbBit = reg.bitOf("tex_batch");
    if (tbBit >= 0 && f.dupFetches > 0 && !dm.jitFlags.has(kGvn))
        flags = flags.with(tbBit);
    return flags;
}

std::vector<FlagSet>
predictCandidates(gpu::DeviceId device, const ShaderFeatures &f)
{
    std::vector<FlagSet> out;
    out.push_back(predictFlags(device, f));
    // Known two-flag interaction the single prediction cannot express
    // and single-flag refinement cannot reach: on the i-cache-limited
    // Adreno, unrolling a big constant loop hurts on its own, but the
    // {Unroll, Reassociate} pair pays — integer reassociation folds
    // the replicated induction arithmetic back down. Offer the pair
    // both on top of the prediction (when the predicted passes keep
    // their value alongside it) and bare (when their code growth
    // would squander the i-cache win).
    if (device == gpu::DeviceId::Qualcomm && f.hasConstLoop &&
        unrolledSize(f) >= kAdrenoUnrollSizeLimit) {
        out.push_back(out.front().with(kUnroll).with(kReassociate));
        out.push_back(
            FlagSet::none().with(kUnroll).with(kReassociate));
    }
    return out;
}

namespace {

/** Append @p plan unless an equal plan is already listed. */
void
pushUnique(std::vector<passes::PassPlan> &out, passes::PassPlan plan)
{
    if (std::find(out.begin(), out.end(), plan) == out.end())
        out.push_back(std::move(plan));
}

/** @p plan with pass @p bit moved to the front (added if absent). */
passes::PassPlan
withPassFirst(passes::PassPlan plan, int bit)
{
    auto it = std::find(plan.bits.begin(), plan.bits.end(), bit);
    if (it != plan.bits.end())
        plan.bits.erase(it);
    plan.bits.insert(plan.bits.begin(), bit);
    return plan;
}

} // namespace

std::vector<passes::PassPlan>
predictPlanCandidates(gpu::DeviceId device, const ShaderFeatures &f)
{
    using passes::PassPlan;
    std::vector<PassPlan> out;
    const std::vector<FlagSet> lattice = predictCandidates(device, f);
    for (const FlagSet &fs : lattice)
        pushUnique(out, PassPlan::canonicalOf(fs.bits));

    const passes::PassRegistry &reg = passes::PassRegistry::instance();
    const gpu::DeviceModel &dm = gpu::deviceModel(device);

    // Ordering win measured by bench/micro_order: licm *before* unroll
    // hoists the invariant subtrees out first, which can shrink an
    // over-budget loop body under unroll's instruction cap — the
    // canonical order (unroll leads the pipeline) never sees the
    // smaller body, so no flag subset reaches the fully unrolled,
    // invariant-free code. Worth probing wherever a constant loop
    // carries invariants and the unrolled result would actually run
    // (the JIT won't redo the work on the weak-JIT mobile parts).
    const int licmBit = reg.bitOf("licm");
    if (licmBit >= 0 && f.hasConstLoop && f.loopInvariantInstrs > 0) {
        // The bare pair first: it isolates the ordering effect, where
        // a full candidate set can dilute it (e.g. post-unroll FP
        // reassociation raising pressure on spill-sensitive parts).
        pushUnique(out, PassPlan{{licmBit, kUnroll}});
        for (const FlagSet &fs : lattice) {
            const FlagSet want =
                fs.with(licmBit).with(kUnroll);
            pushUnique(out, withPassFirst(
                                PassPlan::canonicalOf(want.bits),
                                licmBit));
        }
    }
    // tex_batch early on the no-GVN mobile parts: batching duplicate
    // fetches while the loop is still rolled keeps the dedup window
    // one body long; after unroll the replicas sit in distinct
    // iterations where the dominance-scoped pass must prove a lot more
    // to collapse them.
    const int tbBit = reg.bitOf("tex_batch");
    if (tbBit >= 0 && f.dupFetches > 0 && !dm.jitFlags.has(kGvn)) {
        pushUnique(out,
                   withPassFirst(PassPlan::canonicalOf(
                                     lattice.front().with(tbBit).bits),
                                 tbBit));
    }
    return out;
}

void
FamilyPrior::add(const std::string &family, gpu::DeviceId device,
                 const std::string &shaderName, FlagSet bestFlags)
{
    table_[family][device].push_back({shaderName, bestFlags});
}

FlagSet
FamilyPrior::seedFor(const std::string &family, gpu::DeviceId device,
                     const std::string &excludeShader) const
{
    auto fam = table_.find(family);
    if (fam == table_.end())
        return FlagSet::none();
    auto dev = fam->second.find(device);
    if (dev == fam->second.end())
        return FlagSet::none();

    std::vector<size_t> votes(flagCount(), 0);
    size_t members = 0;
    for (const Entry &e : dev->second) {
        if (e.shader == excludeShader)
            continue;
        ++members;
        for (size_t bit = 0; bit < votes.size(); ++bit)
            votes[bit] += e.flags.has(static_cast<int>(bit));
    }
    FlagSet seed;
    if (members == 0)
        return seed;
    for (size_t bit = 0; bit < votes.size(); ++bit) {
        // Strict majority: a flag only half the siblings want is as
        // likely to hurt the specialisation being seeded as to help.
        if (votes[bit] * 2 > members)
            seed = seed.with(static_cast<int>(bit));
    }
    return seed;
}

} // namespace gsopt::tuner
