/**
 * @file
 * The LunarGlass-style pass pipeline, driven by the pass registry:
 * canonicalisation always runs; each registered gated pass applies in
 * registry pipeline order when its bit of the FlagSet is selected
 * (FlagSet's registry-sized members live here too). The registry
 * is the single source of truth for that order — optimize() applies
 * it, and canonical plans (PassPlan::canonicalOf) list it, which is
 * what guarantees the PlanApplier walk of a canonical plan reproduces
 * the linear pipeline bit-for-bit (and that newly registered passes
 * flow through both paths with no further changes).
 */
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ir/verifier.h"
#include "ir/walk.h"
#include "passes/passes.h"
#include "passes/registry.h"
#include "support/governor.h"
#include "support/rng.h"
#include "support/time.h"

namespace gsopt::passes {

FlagSet
FlagSet::all()
{
    const size_t n = PassRegistry::instance().count();
    return FlagSet(n >= 64 ? ~0ull : (1ull << n) - 1);
}

std::string
FlagSet::str() const
{
    if (bits == 0)
        return "{none}";
    const PassRegistry &reg = PassRegistry::instance();
    std::string out = "{";
    for (int b = 0; b < static_cast<int>(reg.count()); ++b) {
        if (!has(b))
            continue;
        if (out.size() > 1)
            out += ",";
        out += reg.pass(b).name;
    }
    return out + "}";
}

namespace {

/**
 * Hash of a module's instruction-id labelling: the id sequence in
 * structural order plus the id allocation bound. ir::fingerprint is
 * deliberately id-agnostic (it numbers values by position so printed
 * text dedups correctly), but some passes make id-sensitive decisions
 * — reassociate sorts rebuilt chains by Instr::id, fp_reassociate
 * orders commutative operands by id — and a mutating pass draws fresh
 * ids from nextId(). Memo sharing is only sound between modules that
 * agree on *both* structure and ids, so the edge key carries this
 * hash alongside the structural fingerprint. (In practice fp-equal
 * tree modules are id-equal too — they arise from no-op pass edges on
 * id-preserving clones — so this costs no hit rate.)
 */
uint64_t
idSequenceHash(const ir::Module &m)
{
    uint64_t h = 0xcbf29ce484222325ull;
    h = hashCombine(h, static_cast<uint64_t>(m.idBound()));
    ir::forEachInstr(m.body, [&h](const ir::Instr &i) {
        h = hashCombine(h, static_cast<uint64_t>(i.id));
    });
    return h;
}

/** Memo key: content-address of an apply edge in the plan tree. */
struct PassEdgeKey
{
    uint64_t moduleFp;
    uint64_t idHash;
    int passBit;

    bool operator==(const PassEdgeKey &o) const
    {
        return moduleFp == o.moduleFp && idHash == o.idHash &&
               passBit == o.passBit;
    }
};

struct PassEdgeKeyHash
{
    size_t operator()(const PassEdgeKey &k) const
    {
        return static_cast<size_t>(
            hashCombine(k.moduleFp, k.idHash) ^
            (0x9e3779b97f4a7c15ull *
             static_cast<uint64_t>(k.passBit + 1)));
    }
};

} // namespace

/**
 * Memo + ownership behind PlanApplier. Modules are immutable once
 * created (a pass mutates only the fresh clone it is handed), so the
 * memo can safely hand the same result module to every edge that
 * shares its key; downstream consumers only read it and clone from it.
 */
struct PlanApplier::Impl
{
    FlagTreeStats stats;
    std::unordered_map<PassEdgeKey, Node, PassEdgeKeyHash> memo;
    /** Owners of the tree's modules (alive for the applier's life). */
    std::vector<std::unique_ptr<ir::Module>> owned;
    /** The previous walk: path[0] is the root, path[i + 1] the node
     * after step walked[i]. */
    std::vector<Node> path;
    std::vector<int> walked;

    uint64_t fingerprintTimed(const ir::Module &m)
    {
        const uint64_t t0 = nowNs();
        const uint64_t fp = ir::fingerprint(m);
        stats.fingerprintNs += nowNs() - t0;
        ++stats.fingerprintRuns;
        return fp;
    }
};

PlanApplier::PlanApplier() : impl_(std::make_unique<Impl>()) {}
PlanApplier::~PlanApplier() = default;

PlanApplier::Node
PlanApplier::root(const ir::Module &base)
{
    auto m = base.clone();
    canonicalize(*m);
    ir::verifyOrDie(*m, "after optimize pipeline");
    Node node{m.get(), impl_->fingerprintTimed(*m),
              idSequenceHash(*m)};
    impl_->stats.arenaBytes += m->arenaBytes();
    impl_->owned.push_back(std::move(m));
    impl_->path.assign(1, node);
    impl_->walked.clear();
    return node;
}

PlanApplier::Node
PlanApplier::walk(const PassPlan &plan)
{
    Impl &s = *impl_;
    if (s.path.empty()) {
        std::fprintf(stderr, "PlanApplier::walk before root()\n");
        std::abort();
    }
    size_t keep = 0;
    while (keep < s.walked.size() && keep < plan.bits.size() &&
           s.walked[keep] == plan.bits[keep])
        ++keep;
    s.path.resize(keep + 1);
    s.walked.resize(keep);
    for (size_t i = keep; i < plan.bits.size(); ++i) {
        // Grow the path only once a step has succeeded, so a step the
        // governor aborts leaves a consistent prefix behind.
        const Node next = apply(s.path.back(), plan.bits[i]);
        s.path.push_back(next);
        s.walked.push_back(plan.bits[i]);
    }
    return s.path.back();
}

PlanApplier::Node
PlanApplier::apply(const Node &from, int passBit)
{
    // The single choke point for every walked pass step, so one probe
    // makes a 20k-combo exploration abortable mid-walk. Memo hits are
    // walked steps too: they advance the same exploration.
    governor::charge(governor::Dim::PassSteps, 1, "passes");
    governor::checkDeadline("passes");
    // Memoized on (incoming fingerprint, incoming id labelling, pass).
    const PassEdgeKey key{from.fingerprint, from.idHash, passBit};
    auto it = impl_->memo.find(key);
    if (it == impl_->memo.end()) {
        const PassDescriptor &pass = PassRegistry::instance().pass(passBit);
        auto on = from.module->clone();
        pass.apply(*on);
        // Every module is verified right after its last mutation;
        // sharing below never re-mutates, so this covers all the
        // leaves that reuse it.
        ir::verifyOrDie(*on, "after optimize pipeline");
        ++impl_->stats.passRuns;
        const uint64_t onFp = impl_->fingerprintTimed(*on);
        impl_->stats.arenaBytes += on->arenaBytes();
        it = impl_->memo
                 .emplace(key, Node{on.get(), onFp, idSequenceHash(*on)})
                 .first;
        impl_->owned.push_back(std::move(on));
    } else {
        ++impl_->stats.passMemoHits;
    }
    return it->second;
}

const FlagTreeStats &
PlanApplier::stats() const
{
    return impl_->stats;
}

void
optimize(ir::Module &module, FlagSet flags)
{
    canonicalize(module);
    for (const PassDescriptor *pass :
         PassRegistry::instance().pipeline()) {
        if (flags.has(pass->bit)) {
            governor::charge(governor::Dim::PassSteps, 1, "passes");
            governor::checkDeadline("passes");
            pass->apply(module);
        }
    }
    ir::verifyOrDie(module, "after optimize pipeline");
}

void
forEachPlan(const ir::Module &base, const std::vector<PassPlan> &plans,
            const std::function<void(const PassPlan &,
                                     const ir::Module &, uint64_t)> &sink,
            FlagTreeStats *stats)
{
    PlanApplier applier;
    applier.root(base);
    for (const PassPlan &plan : plans) {
        std::string why;
        if (!plan.valid(&why)) {
            std::fprintf(stderr, "forEachPlan: invalid plan '%s': %s\n",
                         plan.str().c_str(), why.c_str());
            std::abort();
        }
        const PlanApplier::Node node = applier.walk(plan);
        sink(plan, *node.module, node.fingerprint);
    }
    if (stats)
        *stats = applier.stats();
}

} // namespace gsopt::passes
