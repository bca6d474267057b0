#include "tuner/search.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "runtime/framework.h"
#include "support/diag.h"
#include "support/rng.h"
#include "tuner/features.h"

namespace gsopt::tuner {

MeasurementOracle::MeasurementOracle(const Exploration &exploration,
                                     const gpu::DeviceModel &device,
                                     PlanExplorer *planner)
    : exploration_(exploration), device_(device), planner_(planner),
      variantMeanNs_(exploration.variants.size(),
                     std::numeric_limits<double>::quiet_NaN())
{
    if (planner_ && &planner_->exploration() != &exploration_) {
        throw std::logic_error(
            "MeasurementOracle: planner explores a different "
            "Exploration than the oracle measures");
    }
}

double
MeasurementOracle::originalMeanNs()
{
    // An explicit flag, not a `< 0` sentinel: a legitimate zero or
    // degenerate mean must still be measured exactly once, not
    // re-measured on every query.
    if (!measuredOriginal_) {
        measuredOriginal_ = true;
        originalMeanNs_ =
            runtime::measureShader(exploration_.preprocessedOriginal,
                                   device_,
                                   exploration_.shaderName +
                                       "/original")
                .meanNs;
    }
    return originalMeanNs_;
}

double
MeasurementOracle::measureVariant(size_t v)
{
    // Plan exploration appends variants after construction; late
    // arrivals start unmeasured like everyone else.
    if (v >= variantMeanNs_.size()) {
        variantMeanNs_.resize(exploration_.variants.size(),
                              std::numeric_limits<double>::quiet_NaN());
    }
    if (std::isnan(variantMeanNs_[v])) {
        variantMeanNs_[v] =
            runtime::measureShader(exploration_.variants[v].source,
                                   device_,
                                   exploration_.shaderName + "/v" +
                                       std::to_string(v))
                .meanNs;
        ++measured_;
    }
    return variantMeanNs_[v];
}

double
MeasurementOracle::measure(FlagSet flags)
{
    return measureVariant(
        static_cast<size_t>(exploration_.variantOf(flags)));
}

double
MeasurementOracle::measure(const passes::PassPlan &plan)
{
    const int v = planner_ ? planner_->ensure(plan)
                           : exploration_.variantOf(plan);
    return measureVariant(static_cast<size_t>(v));
}

double
MeasurementOracle::baselineOrWarn()
{
    const double base = originalMeanNs();
    if (base <= 0.0 && !warnedBaseline_) {
        warnedBaseline_ = true;
        warn("non-positive baseline mean (" + std::to_string(base) +
             " ns) for '" + exploration_.shaderName + "' on " +
             device_.vendor + "; all speed-ups report 0");
    }
    return base;
}

double
MeasurementOracle::speedupOf(FlagSet flags)
{
    const double base = baselineOrWarn();
    if (base <= 0.0)
        return 0.0;
    return (base - measure(flags)) / base * 100.0;
}

double
MeasurementOracle::speedupOf(const passes::PassPlan &plan)
{
    const double base = baselineOrWarn();
    if (base <= 0.0)
        return 0.0;
    return (base - measure(plan)) / base * 100.0;
}

namespace {

/** Shared bookkeeping: probe a combination, maintain the incumbent
 * and the budget curve. Ties keep the earlier (or smaller) set. */
struct Tracker
{
    MeasurementOracle &oracle;
    SearchOutcome out;
    size_t startMeasurements; ///< oracle spend before this strategy

    explicit Tracker(MeasurementOracle &o)
        : oracle(o), startMeasurements(o.measurementsTaken())
    {
        out.bestSpeedupPercent = -1e30;
    }

    /** Distinct measurements this strategy has paid for (oracle delta,
     * so a pre-warmed or shared oracle never inflates the count). */
    size_t spent() const
    {
        return oracle.measurementsTaken() - startMeasurements;
    }

    double probe(FlagSet flags)
    {
        const size_t before = oracle.measurementsTaken();
        const double speedup = oracle.speedupOf(flags);
        const bool better =
            speedup > out.bestSpeedupPercent + 1e-12 ||
            (speedup > out.bestSpeedupPercent - 1e-12 &&
             flags.count() < out.bestFlags.count());
        if (better) {
            out.bestSpeedupPercent = speedup;
            out.bestFlags = flags;
            out.bestPlan = passes::PassPlan::canonicalOf(flags.bits);
        }
        recordBudget(before, better);
        return speedup;
    }

    /** Plan-space probe: same incumbent/curve bookkeeping, ties kept
     * by the shorter plan. The flag incumbent tracks the plan's member
     * set so lattice-only consumers stay coherent. */
    double probePlan(const passes::PassPlan &plan)
    {
        const size_t before = oracle.measurementsTaken();
        const double speedup = oracle.speedupOf(plan);
        const bool better =
            speedup > out.bestSpeedupPercent + 1e-12 ||
            (speedup > out.bestSpeedupPercent - 1e-12 &&
             plan.length() < out.bestPlan.length());
        if (better) {
            out.bestSpeedupPercent = speedup;
            out.bestFlags = FlagSet(plan.mask());
            out.bestPlan = plan;
        }
        recordBudget(before, better);
        return speedup;
    }

    void recordBudget(size_t beforeMeasurements, bool improved)
    {
        if (oracle.measurementsTaken() > beforeMeasurements) {
            out.bestByBudget.push_back(out.bestSpeedupPercent);
        } else if (improved && !out.bestByBudget.empty()) {
            // Free probe (variant-cache hit) that still improved the
            // incumbent — possible via the minimal-flag-set tie-break
            // or on a pre-warmed oracle. Record it at the current
            // budget index instead of leaving it invisible until the
            // next paid measurement.
            out.bestByBudget.back() = out.bestSpeedupPercent;
        }
    }

    SearchOutcome finish()
    {
        out.measurementsUsed = spent();
        return std::move(out);
    }
};

/**
 * Single-flag-flip hill climb from @p start: each round probes every
 * one-bit neighbour of the incumbent (adding unset flags *and*
 * dropping set ones — predictions can over-shoot as well as
 * under-shoot) and moves to the best strictly-improving one. Probes
 * stop once the tracker has paid @p budget distinct measurements.
 */
void
refineByFlips(Tracker &t, FlagSet start, double startSpeedup,
              size_t budget)
{
    const int n = static_cast<int>(t.oracle.flagCount());
    FlagSet incumbent = start;
    double incumbent_speedup = startSpeedup;
    for (;;) {
        int best_bit = -1;
        double best_speedup = incumbent_speedup;
        for (int bit = 0; bit < n; ++bit) {
            if (t.spent() >= budget)
                break;
            const FlagSet cand = incumbent.has(bit)
                                     ? incumbent.without(bit)
                                     : incumbent.with(bit);
            const double s = t.probe(cand);
            if (s > best_speedup + 1e-12) {
                best_speedup = s;
                best_bit = bit;
            }
        }
        if (best_bit < 0)
            break;
        incumbent = incumbent.has(best_bit)
                        ? incumbent.without(best_bit)
                        : incumbent.with(best_bit);
        incumbent_speedup = best_speedup;
    }
}

} // namespace

SearchOutcome
ExhaustiveSearch::run(MeasurementOracle &oracle) const
{
    Tracker t(oracle);
    const uint64_t n = oracle.comboCount();
    for (uint64_t combo = 0; combo < n; ++combo)
        t.probe(FlagSet(combo));
    SearchOutcome out = t.finish();

    // Report the winner under ShaderResult::bestFlags' exact rule
    // (first variant index on strict ties, then minimal producer) so
    // the exhaustive strategy reproduces the campaign verdict even
    // when quantised timers make distinct variants tie exactly.
    const Exploration &ex = oracle.exploration();
    int best_variant = 0;
    double best = -1e30;
    for (size_t v = 0; v < ex.variants.size(); ++v) {
        // Plan-only variants (no producing flag set) are outside the
        // lattice this strategy sweeps.
        if (ex.variants[v].producers.empty())
            continue;
        const double s =
            oracle.speedupOf(ex.variants[v].producers.front());
        if (s > best) {
            best = s;
            best_variant = static_cast<int>(v);
        }
    }
    out.bestSpeedupPercent = best;
    out.bestFlags = minimalProducer(
        ex.variants[static_cast<size_t>(best_variant)].producers);
    out.bestPlan = passes::PassPlan::canonicalOf(out.bestFlags.bits);
    return out;
}

SearchOutcome
GreedyFlagSearch::run(MeasurementOracle &oracle) const
{
    Tracker t(oracle);
    const int n = static_cast<int>(oracle.flagCount());
    FlagSet incumbent = FlagSet::none();
    double incumbent_speedup = t.probe(incumbent);

    for (;;) {
        int best_bit = -1;
        double best_speedup = incumbent_speedup;
        for (int bit = 0; bit < n; ++bit) {
            if (incumbent.has(bit))
                continue;
            const double s = t.probe(incumbent.with(bit));
            if (s > best_speedup + 1e-12) {
                best_speedup = s;
                best_bit = bit;
            }
        }
        if (best_bit < 0)
            break;
        incumbent = incumbent.with(best_bit);
        incumbent_speedup = best_speedup;
    }
    return t.finish();
}

std::string
RandomSearch::name() const
{
    return "random(" + std::to_string(budget_) + ")";
}

SearchOutcome
RandomSearch::run(MeasurementOracle &oracle) const
{
    Tracker t(oracle);
    Rng rng(hashCombine(seed_, fnv1a(oracle.exploration().shaderName)));
    t.probe(FlagSet::none());
    // A degenerate baseline (zero/negative mean) makes every speedup
    // query return 0 without spending a measurement; sampling could
    // then never reach the budget, so stop at the baseline probe.
    if (oracle.originalMeanNs() <= 0.0)
        return t.finish();
    while (t.spent() < budget_) {
        const size_t before = oracle.measurementsTaken();
        t.probe(FlagSet(rng.below(oracle.comboCount())));
        if (oracle.measurementsTaken() == before) {
            // Duplicate draw: the combo mapped to an already-measured
            // variant, so the probe was free and the budget unspent.
            // Once every unique variant is measured no future draw
            // can pay — stop instead of spinning forever.
            if (oracle.measurementsTaken() >=
                oracle.exploration().uniqueCount())
                break;
        }
    }
    return t.finish();
}

SearchOutcome
PredictedSearch::run(MeasurementOracle &oracle) const
{
    Tracker t(oracle);
    const ShaderFeatures &f = featuresOf(oracle.exploration());
    const std::vector<FlagSet> candidates =
        predictCandidates(oracle.device().id, f);

    FlagSet best = candidates.front();
    double best_speedup = t.probe(best);
    if (oracle.originalMeanNs() <= 0.0)
        return t.finish();
    for (size_t i = 1; i < candidates.size(); ++i) {
        if (t.spent() >= refineBudget_)
            break;
        const double s = t.probe(candidates[i]);
        if (s > best_speedup + 1e-12) {
            best_speedup = s;
            best = candidates[i];
        }
    }
    refineByFlips(t, best, best_speedup, refineBudget_);
    return t.finish();
}

SearchOutcome
TransferSeededSearch::run(MeasurementOracle &oracle) const
{
    Tracker t(oracle);
    const Exploration &ex = oracle.exploration();
    FlagSet seed;
    if (prior_) {
        // Leave-one-out: the shader being searched never seeds itself
        // with its own campaign verdict.
        seed = prior_->seedFor(ex.family, oracle.device().id,
                               ex.shaderName);
    }
    const double s = t.probe(seed);
    if (oracle.originalMeanNs() <= 0.0)
        return t.finish();
    refineByFlips(t, seed, s, refineBudget_);
    return t.finish();
}

std::string
SequenceSearch::name() const
{
    return "sequence(" + std::to_string(budget_) + ")";
}

SearchOutcome
SequenceSearch::run(MeasurementOracle &oracle) const
{
    using passes::PassPlan;
    Tracker t(oracle);
    const bool ordered = oracle.canExplorePlans();

    // Passthrough baseline first, like every budgeted strategy.
    t.probePlan(PassPlan{});
    if (oracle.originalMeanNs() <= 0.0)
        return t.finish();

    // Ranked measurement-free candidates: the lattice prediction plus
    // the per-device ordering rules micro_order validated.
    const ShaderFeatures &f = featuresOf(oracle.exploration());
    for (const PassPlan &plan :
         predictPlanCandidates(oracle.device().id, f)) {
        if (t.spent() >= budget_)
            break;
        if (!ordered && !plan.isCanonical())
            continue;
        t.probePlan(plan);
    }

    // Random restarts: a random pass subset in a random order, each
    // refined by local adjacent swaps over the restart's incumbent
    // (first-improvement, so one cheap swap can redirect the whole
    // descent). Deterministic: the stream is keyed by (seed, shader).
    Rng rng(
        hashCombine(seed_, fnv1a(oracle.exploration().shaderName)));
    for (size_t restart = 0;
         restart < restarts_ && t.spent() < budget_; ++restart) {
        PassPlan incumbent =
            PassPlan::canonicalOf(rng.below(oracle.comboCount()));
        if (ordered) {
            // Fisher-Yates over the drawn subset.
            for (size_t i = incumbent.bits.size(); i > 1; --i) {
                std::swap(incumbent.bits[i - 1],
                          incumbent.bits[rng.below(i)]);
            }
        }
        double incumbent_speedup = t.probePlan(incumbent);
        if (!ordered)
            continue;
        bool improved = true;
        while (improved && t.spent() < budget_) {
            improved = false;
            for (size_t i = 0; i + 1 < incumbent.bits.size() &&
                               t.spent() < budget_;
                 ++i) {
                PassPlan cand = incumbent;
                std::swap(cand.bits[i], cand.bits[i + 1]);
                const double s = t.probePlan(cand);
                if (s > incumbent_speedup + 1e-12) {
                    incumbent = std::move(cand);
                    incumbent_speedup = s;
                    improved = true;
                    break;
                }
            }
        }
    }
    return t.finish();
}

std::vector<std::unique_ptr<SearchStrategy>>
defaultStrategies(size_t randomBudget, uint64_t randomSeed,
                  std::shared_ptr<const FamilyPrior> prior,
                  size_t refineBudget)
{
    std::vector<std::unique_ptr<SearchStrategy>> out;
    out.push_back(std::make_unique<ExhaustiveSearch>());
    out.push_back(std::make_unique<GreedyFlagSearch>());
    out.push_back(
        std::make_unique<RandomSearch>(randomBudget, randomSeed));
    out.push_back(std::make_unique<PredictedSearch>(refineBudget));
    if (prior) {
        out.push_back(std::make_unique<TransferSeededSearch>(
            std::move(prior), refineBudget));
    }
    return out;
}

} // namespace gsopt::tuner
