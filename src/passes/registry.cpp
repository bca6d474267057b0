/**
 * @file
 * PassRegistry implementation plus the built-in registration of the
 * paper's eight LunarGlass flags. The stage functions here are the
 * former fixed kStages[] table: each apply() includes the trailing
 * canonicalisation the linear pipeline performs after the pass
 * (canonicalizeIfChanged: only when the pass changed something), so
 * the PlanApplier walk of a canonical plan replays exactly what
 * optimize() does.
 */
#include "passes/registry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "passes/passes.h"
#include "support/rng.h"
#include "support/strings.h"

namespace gsopt::passes {

namespace {

std::mutex &
registryMutex()
{
    static std::mutex m;
    return m;
}

[[noreturn]] void
registryDie(const char *what)
{
    std::fprintf(stderr, "PassRegistry: %s\n", what);
    std::abort();
}

} // namespace

const std::vector<PassDescriptor> &
extraPassCatalog()
{
    // Stage contract: like the built-ins, each apply() carries the
    // trailing canonicalisation so the plan walk replays exactly what
    // optimize() does. It follows the step rule (passes.h):
    // canonicalize only if the pass reported a change, which is exact
    // because every stage's input is a canonicalize fixpoint.
    static const std::vector<PassDescriptor> catalog = [] {
        std::vector<PassDescriptor> c;
        PassDescriptor d;
        d.id = "licm";
        d.name = "LICM";
        d.apply = [](ir::Module &m) { canonicalizeIfChanged(m, licm(m)); };
        c.push_back(d);
        d.id = "strength_reduce";
        d.name = "Strength Reduce";
        d.apply = [](ir::Module &m) {
            canonicalizeIfChanged(m, strengthReduce(m));
        };
        c.push_back(d);
        d.id = "tex_batch";
        d.name = "Tex Batch";
        d.apply = [](ir::Module &m) { canonicalizeIfChanged(m, texBatch(m)); };
        c.push_back(d);
        return c;
    }();
    return catalog;
}

int
registerExtraPass(const std::string &id)
{
    for (const PassDescriptor &d : extraPassCatalog()) {
        if (d.id == id)
            return PassRegistry::instance().add(d.id, d.name, d.apply);
    }
    return -1;
}

ScopedExtraPasses::ScopedExtraPasses()
{
    PassRegistry &reg = PassRegistry::instance();
    for (const PassDescriptor &d : extraPassCatalog()) {
        if (reg.bitOf(d.id) < 0)
            bits_.push_back(reg.add(d.id, d.name, d.apply));
    }
}

ScopedExtraPasses::~ScopedExtraPasses()
{
    for (auto it = bits_.rbegin(); it != bits_.rend(); ++it)
        PassRegistry::instance().remove(*it);
}

PassRegistry::PassRegistry()
{
    // Hard cap (see add()); reserving it keeps descriptor addresses —
    // and the c_str()s flagName() hands out — stable across add().
    passes_.reserve(63);
    // The paper's eight flags, in their historical *bit* order
    // (BuiltinPassBit). Pipeline positions encode the independent
    // historical *application* order: Unroll, Hoist, Coalesce,
    // Reassociate, FP Reassociate, Div to Mul, GVN, ADCE.
    struct Builtin
    {
        const char *id;
        const char *name;
        void (*apply)(ir::Module &);
        int position;
    };
    const Builtin builtins[] = {
        {"adce", "ADCE",
         [](ir::Module &m) { canonicalizeIfChanged(m, adce(m)); },
         7},
        {"coalesce", "Coalesce",
         [](ir::Module &m) { canonicalizeIfChanged(m, coalesce(m)); },
         2},
        {"gvn", "GVN",
         [](ir::Module &m) { canonicalizeIfChanged(m, gvn(m)); },
         6},
        {"reassociate", "Reassociate",
         [](ir::Module &m) { canonicalizeIfChanged(m, reassociate(m)); },
         3},
        {"unroll", "Unroll",
         [](ir::Module &m) { canonicalizeIfChanged(m, unroll(m)); },
         0},
        {"hoist", "Hoist",
         [](ir::Module &m) { canonicalizeIfChanged(m, hoist(m)); },
         1},
        {"fp_reassociate", "FP Reassociate",
         [](ir::Module &m) {
             canonicalizeIfChanged(m, fpReassociate(m));
             // A second application catches chains exposed by the
             // first (e.g. factorised groups whose inner sums fold).
             canonicalizeIfChanged(m, fpReassociate(m));
         },
         4},
        {"div_to_mul", "Div to Mul",
         [](ir::Module &m) { canonicalizeIfChanged(m, divToMul(m)); },
         5},
    };
    for (const Builtin &b : builtins) {
        PassDescriptor d;
        d.id = b.id;
        d.name = b.name;
        d.apply = b.apply;
        d.bit = static_cast<int>(passes_.size());
        d.position = b.position;
        passes_.push_back(std::move(d));
    }
    // GSOPT_EXTRA_PASSES: opt-in start-up registration of catalog
    // passes ("licm,tex_batch" or "all"). Registered inline — not via
    // add() — because this runs inside instance()'s static
    // construction. Unknown names die loudly: a typo silently running
    // the 256-combination space would invalidate whatever experiment
    // asked for the wider one.
    if (const char *env = std::getenv("GSOPT_EXTRA_PASSES")) {
        // Tokenise: comma-separated, whitespace-trimmed, empty tokens
        // (trailing commas) skipped, duplicates harmless.
        std::vector<std::string> tokens;
        for (const std::string &raw : split(env, ',')) {
            std::string tok(trim(raw));
            if (!tok.empty())
                tokens.push_back(std::move(tok));
        }
        auto in_catalog = [](const std::string &id) {
            for (const PassDescriptor &d : extraPassCatalog()) {
                if (d.id == id)
                    return true;
            }
            return false;
        };
        bool all = false;
        for (const std::string &tok : tokens) {
            if (tok == "all") {
                all = true;
            } else if (!in_catalog(tok)) {
                std::fprintf(stderr,
                             "PassRegistry: GSOPT_EXTRA_PASSES names "
                             "'%s', not in the extra-pass catalog\n",
                             tok.c_str());
                std::abort();
            }
        }
        auto wanted = [&](const std::string &id) {
            if (all)
                return true;
            for (const std::string &tok : tokens) {
                if (tok == id)
                    return true;
            }
            return false;
        };
        for (const PassDescriptor &extra : extraPassCatalog()) {
            if (!wanted(extra.id))
                continue;
            PassDescriptor d = extra;
            d.bit = static_cast<int>(passes_.size());
            d.position = static_cast<int>(passes_.size());
            passes_.push_back(std::move(d));
        }
    }
    rebuildPipeline();
}

PassRegistry &
PassRegistry::instance()
{
    static PassRegistry registry;
    return registry;
}

const PassDescriptor &
PassRegistry::pass(int bit) const
{
    if (bit < 0 || static_cast<size_t>(bit) >= passes_.size())
        registryDie("pass bit out of range");
    return passes_[static_cast<size_t>(bit)];
}

int
PassRegistry::bitOf(const std::string &id) const
{
    for (const PassDescriptor &d : passes_) {
        if (d.id == id)
            return d.bit;
    }
    return -1;
}

int
PassRegistry::add(std::string id, std::string name,
                  std::function<void(ir::Module &)> apply, int position)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    if (bitOf(id) >= 0)
        registryDie("duplicate pass id");
    if (passes_.size() >= 63)
        registryDie("flag space exhausted (max 63 gated passes)");
    PassDescriptor d;
    d.id = std::move(id);
    d.name = std::move(name);
    d.apply = std::move(apply);
    d.bit = static_cast<int>(passes_.size());
    d.position =
        position < 0 ? static_cast<int>(passes_.size()) : position;
    passes_.push_back(std::move(d));
    rebuildPipeline();
    return passes_.back().bit;
}

void
PassRegistry::remove(int bit)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    if (passes_.size() <= static_cast<size_t>(kBuiltinPassCount))
        registryDie("cannot remove built-in passes");
    if (bit != static_cast<int>(passes_.size()) - 1)
        registryDie("passes must be removed in LIFO order");
    passes_.pop_back();
    rebuildPipeline();
}

void
PassRegistry::rebuildPipeline()
{
    pipeline_.clear();
    pipeline_.reserve(passes_.size());
    for (const PassDescriptor &d : passes_)
        pipeline_.push_back(&d);
    std::stable_sort(pipeline_.begin(), pipeline_.end(),
                     [](const PassDescriptor *a,
                        const PassDescriptor *b) {
                         return a->position < b->position;
                     });
}

uint64_t
PassPlan::mask() const
{
    uint64_t m = 0;
    for (int b : bits)
        m |= 1ull << b;
    return m;
}

PassPlan
PassPlan::canonicalOf(uint64_t mask)
{
    PassPlan plan;
    for (const PassDescriptor *d : PassRegistry::instance().pipeline()) {
        if (mask & (1ull << d->bit))
            plan.bits.push_back(d->bit);
    }
    return plan;
}

void
forEachLatticePlan(const std::function<void(const PassPlan &)> &visit)
{
    // Leaf i of the skip-first tree applies pipeline stage s iff bit
    // (n - 1 - s) of i is set. From leaf i - 1 to leaf i the trailing
    // set bits of i - 1 clear — the plan's last ctz(i) stages — and
    // the stage of the bit that sets is appended.
    const auto &pipeline = PassRegistry::instance().pipeline();
    const size_t n = pipeline.size();
    const uint64_t leaves = PassRegistry::instance().comboCount();
    PassPlan plan;
    plan.bits.reserve(n);
    visit(plan);
    for (uint64_t i = 1; i < leaves; ++i) {
        const size_t t = static_cast<size_t>(__builtin_ctzll(i));
        plan.bits.resize(plan.bits.size() - t);
        plan.bits.push_back(pipeline[n - 1 - t]->bit);
        visit(plan);
    }
}

std::vector<PassPlan>
latticePlans()
{
    std::vector<PassPlan> plans;
    forEachLatticePlan(
        [&plans](const PassPlan &plan) { plans.push_back(plan); });
    return plans;
}

bool
PassPlan::isCanonical() const
{
    return bits == canonicalOf(mask()).bits;
}

bool
PassPlan::valid(std::string *why) const
{
    const PassRegistry &reg = PassRegistry::instance();
    uint64_t seen = 0;
    for (int b : bits) {
        if (b < 0 || static_cast<size_t>(b) >= reg.count()) {
            if (why)
                *why = "pass bit " + std::to_string(b) +
                       " is not registered";
            return false;
        }
        if (seen & (1ull << b)) {
            if (why)
                *why = "pass '" + reg.pass(b).id + "' appears twice";
            return false;
        }
        seen |= 1ull << b;
    }
    return true;
}

std::string
PassPlan::str() const
{
    if (bits.empty())
        return "-";
    const PassRegistry &reg = PassRegistry::instance();
    std::string s;
    for (size_t i = 0; i < bits.size(); ++i) {
        if (i)
            s += '>';
        s += reg.pass(bits[i]).id;
    }
    return s;
}

bool
PassPlan::parse(const std::string &text, PassPlan &out)
{
    PassPlan plan;
    if (text != "-") {
        const PassRegistry &reg = PassRegistry::instance();
        for (const std::string &raw : split(text, '>')) {
            std::string id(trim(raw));
            int bit = reg.bitOf(id);
            if (bit < 0)
                return false;
            plan.bits.push_back(bit);
        }
    }
    if (!plan.valid())
        return false;
    out = std::move(plan);
    return true;
}

uint64_t
PassRegistry::signature() const
{
    uint64_t sig = fnv1a("pass-registry");
    sig = hashCombine(sig, passes_.size());
    for (const PassDescriptor &d : passes_) {
        sig = hashCombine(sig, fnv1a(d.id));
        sig = hashCombine(sig, static_cast<uint64_t>(d.bit));
        sig = hashCombine(sig, static_cast<uint64_t>(d.position));
    }
    return sig;
}

} // namespace gsopt::passes
