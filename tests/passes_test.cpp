/**
 * @file
 * Unit tests for the optimization passes, plus the interpreter-backed
 * equivalence property: every flag combination must preserve shader
 * semantics on a battery of inputs.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <unordered_map>

#include "campaign_texts.h"
#include "corpus/corpus.h"
#include "emit/offline.h"
#include "gpu/driver.h"
#include "ir/dump.h"
#include "ir/interp.h"
#include "ir/verifier.h"
#include "ir/walk.h"
#include "passes/passes.h"
#include "passes/registry.h"
#include "passes/util.h"
#include "support/rng.h"

namespace gsopt {
namespace {

using ir::InterpEnv;

std::unique_ptr<ir::Module>
build(const std::string &src)
{
    return emit::compileToIr(src);
}

size_t
countOps(const ir::Module &m, ir::Opcode op)
{
    size_t n = 0;
    ir::forEachInstr(m.body, [&](const ir::Instr &i) { n += i.op == op; });
    return n;
}

size_t
loopCount(const ir::Module &m)
{
    size_t n = 0;
    ir::forEachNode(const_cast<ir::Module &>(m).body,
                    [&](ir::Node &node) {
                        n += node.kind() == ir::NodeKind::Loop;
                    });
    return n;
}

size_t
ifCount(const ir::Module &m)
{
    size_t n = 0;
    ir::forEachNode(const_cast<ir::Module &>(m).body,
                    [&](ir::Node &node) {
                        n += node.kind() == ir::NodeKind::If;
                    });
    return n;
}

// --------------------------------------------------------- canonicalize

TEST(Canonicalize, FoldsConstantExpressions)
{
    auto m = build("out float c; void main() { c = 2.0 * 3.0 + "
                   "sqrt(16.0); }");
    passes::canonicalize(*m);
    // Single store of a single constant.
    EXPECT_EQ(m->instructionCount(), 2u);
    EXPECT_DOUBLE_EQ(ir::interpret(*m, {}).outputs.at("c")[0], 10.0);

    // reflect/refract fold too, to the reference interpreter's value.
    m = build("out vec3 c; void main() { c = reflect(vec3(1.0, -2.0, "
              "0.5), vec3(0.0, 0.6, 0.8)) + refract(vec3(0.6, -0.8, "
              "0.0), vec3(0.0, 1.0, 0.0), 0.75); }");
    const auto want = ir::interpretReference(*m, {}).outputs.at("c");
    passes::canonicalize(*m);
    EXPECT_EQ(m->instructionCount(), 2u) << ir::dump(*m);
    EXPECT_EQ(ir::interpretReference(*m, {}).outputs.at("c"), want);
}

TEST(Canonicalize, ForwardsStoresToLoads)
{
    auto m = build(R"(
        in float x;
        out float c;
        void main() {
            float a = x * 2.0;
            float b = a;
            c = b;
        }
    )");
    passes::canonicalize(*m);
    // After forwarding + DCE: load x, const, mul, store c.
    EXPECT_LE(m->instructionCount(), 4u);
    EXPECT_EQ(countOps(*m, ir::Opcode::StoreVar), 1u);
}

TEST(Canonicalize, LocalCseRemovesDuplicates)
{
    auto m = build(R"(
        in vec2 uv;
        out vec4 c;
        void main() {
            float a = uv.x * uv.y;
            float b = uv.x * uv.y;
            c = vec4(a + b);
        }
    )");
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Mul), 1u);
}

TEST(Canonicalize, RemovesDeadCode)
{
    auto m = build(R"(
        in float x;
        out float c;
        void main() {
            float unused = sin(x) * cos(x);
            c = x;
        }
    )");
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Sin), 0u);
    EXPECT_EQ(countOps(*m, ir::Opcode::Cos), 0u);
}

TEST(Canonicalize, FoldsConstantIf)
{
    auto m = build(R"(
        in float x;
        out float c;
        void main() {
            if (2.0 > 1.0) { c = x; } else { c = -x; }
        }
    )");
    passes::canonicalize(*m);
    EXPECT_EQ(ifCount(*m), 0u);
    InterpEnv env;
    env.inputs["x"] = {3.0};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 3.0);
}

TEST(Canonicalize, FoldsConstArrayIndexing)
{
    auto m = build(R"(
        out float c;
        const float w[3] = float[](1.0, 2.0, 4.0);
        void main() { c = w[0] + w[2]; }
    )");
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::LoadElem), 0u);
    EXPECT_DOUBLE_EQ(ir::interpret(*m, {}).outputs.at("c")[0], 5.0);
}

TEST(Canonicalize, DoesNotRemoveIdentityMultiply)
{
    // x*1 removal belongs to the FP-reassociation *flag*, not the
    // always-on canonicaliser (flags must keep their measurable effect).
    auto m = build("in float x; out float c; void main() { c = x * "
                   "1.0; }");
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Mul), 1u);
}

// --------------------------------------------------------------- unroll

TEST(Unroll, FullyUnrollsCanonicalLoop)
{
    auto m = build(R"(
        out float c;
        uniform float u;
        void main() {
            float s = 0.0;
            for (int i = 0; i < 4; i++) { s += u * float(i); }
            c = s;
        }
    )");
    passes::canonicalize(*m);
    ASSERT_EQ(loopCount(*m), 1u);
    EXPECT_TRUE(passes::unroll(*m));
    EXPECT_EQ(loopCount(*m), 0u);
    passes::canonicalize(*m);
    InterpEnv env;
    env.uniforms["u"] = {2.0};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0],
                     2.0 * (0 + 1 + 2 + 3));
}

TEST(Unroll, NestedLoopsFlattenCompletely)
{
    auto m = build(R"(
        out float c;
        void main() {
            float s = 0.0;
            for (int i = 0; i < 3; i++) {
                for (int j = 0; j < 2; j++) { s += 1.0; }
            }
            c = s;
        }
    )");
    passes::unroll(*m);
    EXPECT_EQ(loopCount(*m), 0u);
    passes::canonicalize(*m);
    EXPECT_DOUBLE_EQ(ir::interpret(*m, {}).outputs.at("c")[0], 6.0);
}

TEST(Unroll, LeavesDynamicLoops)
{
    auto m = build(R"(
        uniform int n;
        out float c;
        void main() {
            float s = 0.0;
            for (int i = 0; i < n; i++) { s += 1.0; }
            c = s;
        }
    )");
    EXPECT_FALSE(passes::unroll(*m));
    EXPECT_EQ(loopCount(*m), 1u);
}

TEST(Unroll, EnablesConstantWeightFolding)
{
    // The motivating-example mechanism: after unrolling, the const
    // weight table indexes become literals and fold to constants.
    auto m = build(R"(
        out float c;
        const float w[3] = float[](0.25, 0.5, 0.25);
        void main() {
            float total = 0.0;
            for (int i = 0; i < 3; i++) { total += w[i]; }
            c = total;
        }
    )");
    passes::unroll(*m);
    passes::canonicalize(*m);
    // total is now a compile-time 1.0: only the store remains.
    EXPECT_EQ(m->instructionCount(), 2u);
}

// ---------------------------------------------------------------- hoist

TEST(Hoist, FlattensAssignmentsToSelects)
{
    auto m = build(R"(
        in float x;
        out float c;
        void main() {
            float r = 0.0;
            if (x > 0.5) { r = x * 2.0; } else { r = x * 3.0; }
            c = r;
        }
    )");
    passes::canonicalize(*m);
    ASSERT_EQ(ifCount(*m), 1u);
    EXPECT_TRUE(passes::hoist(*m));
    EXPECT_EQ(ifCount(*m), 0u);
    EXPECT_GE(countOps(*m, ir::Opcode::Select), 1u);
    for (double x : {0.2, 0.7}) {
        InterpEnv env;
        env.inputs["x"] = {x};
        double expect = x > 0.5 ? x * 2.0 : x * 3.0;
        EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0],
                         expect);
    }
}

TEST(Hoist, OneArmedIfUsesPreValue)
{
    auto m = build(R"(
        in float x;
        out float c;
        void main() {
            float r = 7.0;
            if (x > 0.5) { r = 1.0; }
            c = r;
        }
    )");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::hoist(*m));
    EXPECT_EQ(ifCount(*m), 0u);
    InterpEnv env;
    env.inputs["x"] = {0.1};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 7.0);
    env.inputs["x"] = {0.9};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 1.0);
}

TEST(Hoist, RefusesTextureAndDiscard)
{
    auto m = build(R"(
        uniform sampler2D t;
        in vec2 uv;
        in float x;
        out vec4 c;
        void main() {
            vec4 r = vec4(0.0);
            if (x > 0.5) { r = texture(t, uv); }
            if (x > 0.9) { discard; }
            c = r;
        }
    )");
    passes::canonicalize(*m);
    passes::hoist(*m);
    EXPECT_EQ(ifCount(*m), 2u); // neither if may be flattened
}

TEST(Hoist, NestedIfsFlattenBottomUp)
{
    auto m = build(R"(
        in float x;
        out float c;
        void main() {
            float r = 0.0;
            if (x > 0.25) {
                r = 1.0;
                if (x > 0.75) { r = 2.0; }
            }
            c = r;
        }
    )");
    passes::canonicalize(*m);
    passes::hoist(*m);
    EXPECT_EQ(ifCount(*m), 0u);
    for (double x : {0.1, 0.5, 0.9}) {
        InterpEnv env;
        env.inputs["x"] = {x};
        double expect = x > 0.25 ? (x > 0.75 ? 2.0 : 1.0) : 0.0;
        EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0],
                         expect)
            << x;
    }
}

// ------------------------------------------------------------- coalesce

TEST(Coalesce, InsertChainBecomesConstruct)
{
    auto m = build(R"(
        in float a;
        out vec4 c;
        void main() {
            vec4 v;
            v.x = a;
            v.y = a * 2.0;
            v.z = a * 3.0;
            v.w = 1.0;
            c = v;
        }
    )");
    passes::canonicalize(*m);
    ASSERT_GE(countOps(*m, ir::Opcode::Insert), 3u);
    EXPECT_TRUE(passes::coalesce(*m));
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Insert), 0u);
    InterpEnv env;
    env.inputs["a"] = {2.0};
    auto out = ir::interpret(*m, env).outputs.at("c");
    EXPECT_DOUBLE_EQ(out[2], 6.0);
    EXPECT_DOUBLE_EQ(out[3], 1.0);
}

TEST(Coalesce, ConstructOfExtractsBecomesSwizzle)
{
    auto m = build(R"(
        in vec4 v;
        out vec4 c;
        void main() {
            c = vec4(v.w, v.z, v.y, v.x);
        }
    )");
    passes::canonicalize(*m);
    passes::coalesce(*m);
    EXPECT_GE(countOps(*m, ir::Opcode::Swizzle), 1u);
    EXPECT_EQ(countOps(*m, ir::Opcode::Construct), 0u);
}

// ------------------------------------------------------------------ gvn

TEST(Gvn, EliminatesRedundancyAcrossBranches)
{
    auto m = build(R"(
        in float x;
        in float y;
        out float c;
        void main() {
            float common = x * y + 1.0;
            float r = 0.0;
            if (x > 0.5) {
                r = (x * y + 1.0) * 2.0;
            } else {
                r = (x * y + 1.0) * 3.0;
            }
            c = r + common;
        }
    )");
    passes::canonicalize(*m);
    size_t before = countOps(*m, ir::Opcode::Mul);
    EXPECT_TRUE(passes::gvn(*m));
    passes::canonicalize(*m);
    EXPECT_LT(countOps(*m, ir::Opcode::Mul), before);
    InterpEnv env;
    env.inputs["x"] = {0.8};
    env.inputs["y"] = {0.5};
    double common = 0.8 * 0.5 + 1.0;
    EXPECT_NEAR(ir::interpret(*m, env).outputs.at("c")[0],
                common * 2.0 + common, 1e-12);
}

TEST(Gvn, RespectsMemoryVersions)
{
    auto m = build(R"(
        in float x;
        out float c;
        void main() {
            float a = x;
            float first = a * 2.0;
            a = a + 1.0;
            float second = a * 2.0;
            c = first + second;
        }
    )");
    passes::gvn(*m); // must NOT merge first and second
    passes::canonicalize(*m);
    InterpEnv env;
    env.inputs["x"] = {1.0};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0],
                     2.0 + 4.0);
}

// ------------------------------------------------------------ value keys

// The string keys canonicalize's CSE and GVN built before ValueKey,
// kept verbatim: ValueKey must reproduce exactly their equivalence.
std::string
referenceCseKey(const ir::Instr &i)
{
    std::string key = std::to_string(static_cast<int>(i.op));
    key += "/" + i.type.str();
    for (const ir::Instr *op : i.operands)
        key += ":" + std::to_string(op->id);
    if (i.var)
        key += "@" + std::to_string(i.var->id);
    for (int idx : i.indices)
        key += "." + std::to_string(idx);
    for (double d : i.constData)
        key += "," + std::to_string(d);
    return key;
}

std::string
referenceGvnKey(const ir::Instr &i, int memVersion)
{
    std::string key = std::to_string(static_cast<int>(i.op));
    key += "/" + i.type.str();
    for (const ir::Instr *op : i.operands)
        key += ":" + std::to_string(op->id);
    if (i.var) {
        key += "@" + std::to_string(i.var->id);
        if (i.op == ir::Opcode::LoadVar || i.op == ir::Opcode::LoadElem)
            key += "v" + std::to_string(memVersion);
    }
    for (int idx : i.indices)
        key += "." + std::to_string(idx);
    for (double d : i.constData)
        key += "," + std::to_string(d);
    return key;
}

bool
isLoad(const ir::Instr &i)
{
    return i.op == ir::Opcode::LoadVar || i.op == ir::Opcode::LoadElem;
}

/** Canonicalize's CSE candidates (its isNumerable). */
bool
isCseCandidate(const ir::Instr &i)
{
    if (ir::hasSideEffects(i.op))
        return false;
    return !isLoad(i) || i.var->isReadOnly();
}

/**
 * Collects (reference string, ValueKey) pairs and checks that the two
 * partition them identically: equal strings <=> equal keys.
 */
class KeyEquivalence
{
  public:
    void add(const std::string &reference, const passes::ValueKey &key)
    {
        ++compared_;
        auto [s, fresh_string] = byString_.emplace(reference, key);
        auto [k, fresh_key] = byKey_.emplace(key, reference);
        if (!fresh_string)
            ++merges_;
        if (s->second != key || k->second != reference) {
            if (mismatches_++ == 0)
                first_ = reference + " vs " + k->second;
        }
    }

    /** Start a new scope (a block): keys only ever meet within one. */
    void reset()
    {
        byString_.clear();
        byKey_.clear();
    }

    size_t compared() const { return compared_; }
    size_t merges() const { return merges_; }
    size_t mismatches() const { return mismatches_; }
    const std::string &firstMismatch() const { return first_; }

  private:
    std::unordered_map<std::string, passes::ValueKey> byString_;
    std::unordered_map<passes::ValueKey, std::string, passes::ValueKeyHash>
        byKey_;
    size_t compared_ = 0;
    size_t merges_ = 0;
    size_t mismatches_ = 0;
    std::string first_;
};

/** Feed every block of @p m to the CSE and GVN checkers. */
void
addModuleKeys(ir::Module &m, KeyEquivalence &cse, KeyEquivalence &gvn)
{
    ir::forEachNode(m.body, [&](ir::Node &n) {
        auto *b = ir::dyn_cast<ir::Block>(&n);
        if (!b)
            return;
        cse.reset();
        gvn.reset();
        for (const ir::Instr *i : b->instrs) {
            if (isCseCandidate(*i))
                cse.add(referenceCseKey(*i), passes::valueKey(*i));
            if (ir::hasSideEffects(i->op))
                continue;
            // Loads of one var at several memory versions.
            for (int version : {0, 1, 2}) {
                const int used = i->var && isLoad(*i) ? version : 0;
                gvn.add(referenceGvnKey(*i, version),
                        passes::valueKey(*i, used));
            }
        }
    });
}

void
expectNoMismatch(const KeyEquivalence &check, const std::string &what)
{
    EXPECT_EQ(check.mismatches(), 0u)
        << what << ": first " << check.firstMismatch();
}

TEST(ValueKey, MatchesStringKeysOnCorpusAndDriverStages)
{
    // Every corpus shader, lowered, then through every vendor driver
    // step on all five devices (gpu::vendorSteps).
    KeyEquivalence cse, gvn;
    for (const auto &shader : corpus::corpus()) {
        auto base = emit::compileToIr(shader.source, shader.defines);
        addModuleKeys(*base, cse, gvn);
        passes::canonicalize(*base);
        addModuleKeys(*base, cse, gvn);
        for (gpu::DeviceId id : gpu::allDevices()) {
            const gpu::DeviceModel &d = gpu::deviceModel(id);
            auto m = base->clone();
            for (const gpu::VendorStep &step : gpu::vendorSteps()) {
                if (!step.enabled(d))
                    continue;
                step.run(*m, d);
                addModuleKeys(*m, cse, gvn);
                passes::canonicalize(*m);
                addModuleKeys(*m, cse, gvn);
            }
            passes::scheduleForPressure(*m, d.schedulerWindow);
            addModuleKeys(*m, cse, gvn);
        }
    }
    expectNoMismatch(cse, "CSE");
    expectNoMismatch(gvn, "GVN");
    EXPECT_GT(cse.compared(), 10000u);
    // Lowered code is full of equal values; the keys must see them.
    EXPECT_GT(cse.merges(), 0u);
    EXPECT_GT(gvn.merges(), cse.merges());
}

ir::Instr *
constInstr(ir::Module &m, ir::Block &b, ir::Type type,
           std::vector<double> lanes)
{
    ir::Instr *i = m.newInstr();
    i->op = ir::Opcode::Const;
    i->type = type;
    for (double d : lanes)
        i->constData.push_back(d);
    b.instrs.push_back(i);
    return i;
}

TEST(ValueKey, ConstLanesCompareAtToStringResolution)
{
    ir::Module m;
    ir::Block b;
    const ir::Type f = ir::Type::floatTy();
    auto key = [&](double d) {
        return passes::valueKey(*constInstr(m, b, f, {d}));
    };
    // The %f collisions the string key had, kept on purpose.
    EXPECT_EQ(key(1e-7), key(0.0));
    EXPECT_EQ(key(5.3846893227178126e-09), key(0.0));
    EXPECT_EQ(key(0.70710677928277232), key(0.70710678182113929));
    EXPECT_EQ(key(-1e-7), key(-0.0));
    // Distinct renderings stay distinct.
    EXPECT_NE(key(-0.0), key(0.0));
    EXPECT_NE(key(0.5), key(0.500001));
    EXPECT_NE(key(3.0), key(-3.0));
    EXPECT_NE(key(1e20), key(std::nextafter(1e20, 2e20)));
    EXPECT_NE(key(std::numeric_limits<double>::infinity()),
              key(-std::numeric_limits<double>::infinity()));

    // Types: four lanes as mat2, vec4 or ivec4 are different values.
    const ir::Type mat2 = ir::Type::mat(2);
    const ir::Type vec4 = ir::Type::vec(4);
    const std::vector<double> lanes = {1.0, 0.0, 0.0, 1.0};
    auto typed = [&](ir::Type t) {
        return passes::valueKey(*constInstr(m, b, t, lanes));
    };
    EXPECT_NE(typed(mat2), typed(vec4));
    EXPECT_EQ(typed(mat2), typed(mat2));
    EXPECT_NE(typed(vec4), typed(ir::Type::ivec(4)));
    EXPECT_NE(typed(vec4), typed(vec4.array(1)));

    // Everything above, plus seeded near-ties around each rounding
    // boundary and values across magnitudes, against the reference.
    Rng rng(20261017);
    for (int n = 0; n < 4000; ++n) {
        const double scale = std::pow(10.0, rng.uniform(-9.0, 15.0));
        const double x = std::round(rng.uniform(-1.0, 1.0) * scale *
                                    1e6) /
                             1e6 +
                         5e-7;
        for (double d : {x, std::nextafter(x, 0.0), x * 1.0000001,
                         std::nextafter(x, 1e300), -x})
            constInstr(m, b, f, {d, x});
    }
    constInstr(m, b, f, {std::nan("")});
    constInstr(m, b, f, {std::nan("")});
    KeyEquivalence check;
    for (const ir::Instr *i : b.instrs)
        check.add(referenceCseKey(*i), passes::valueKey(*i));
    expectNoMismatch(check, "hand-built block");
    EXPECT_GT(check.merges(), 0u);
}

TEST(ValueKey, LaneCacheEvictionKeepsKeys)
{
    // laneKey caches non-integer renderings in a fixed direct-mapped
    // table of 1024 entries; 12,289 distinct non-integer pairs evict one
    // another, and keying them again in reverse order (lookups that
    // miss or find another pattern's entry) must give the same keys.
    ir::Module m;
    ir::Block b;
    const ir::Type f = ir::Type::floatTy();
    const int count = 3 * 4096 + 1;
    std::vector<passes::ValueKey> first;
    for (int k = 0; k < count; ++k)
        first.push_back(passes::valueKey(
            *constInstr(m, b, f, {k / 7.0 + 0.5, -k * 1e-3 - 0.25})));
    KeyEquivalence check;
    for (int k = count - 1; k >= 0; --k) {
        const ir::Instr &i = *b.instrs[static_cast<size_t>(k)];
        const passes::ValueKey again = passes::valueKey(i);
        ASSERT_EQ(again, first[static_cast<size_t>(k)]) << "constant " << k;
        check.add(referenceCseKey(i), again);
    }
    // Every pair renders differently at %f, so no two keys merge.
    expectNoMismatch(check, "evicted lanes");
    EXPECT_EQ(check.merges(), 0u);
}

TEST(ValueTable, PoppedScopeLeavesOuterEntriesFound)
{
    ir::Module m;
    ir::Block b;
    const ir::Type f = ir::Type::floatTy();
    auto home = [](const ir::Instr &i) {
        return passes::ValueKeyHash{}(passes::valueKey(i)) & 0xffff;
    };
    // Eight outer values, and for each an inner value with the same low
    // 16 hash bits: the same home slot at any table size up to 65536,
    // so every inner insert probes past its outer entry.
    std::vector<ir::Instr *> outer, inner;
    for (int k = 0; k < 8; ++k)
        outer.push_back(constInstr(m, b, f, {k + 0.25}));
    ir::Instr *probe = constInstr(m, b, f, {0.0});
    for (const ir::Instr *o : outer) {
        for (int n = 1;; ++n) {
            probe->constData[0] = -n;
            if (home(*probe) == home(*o)) {
                inner.push_back(constInstr(m, b, f, {-1.0 * n}));
                break;
            }
        }
    }
    auto copy = [&](const ir::Instr *i) {
        return constInstr(m, b, i->type, i->constData);
    };

    passes::ValueTable table;
    for (ir::Instr *o : outer)
        EXPECT_EQ(table.findOrInsert(*o), nullptr);
    table.pushScope();
    for (ir::Instr *i : inner)
        EXPECT_EQ(table.findOrInsert(*i), nullptr);
    // Enough more inserts to grow the table inside the scope.
    for (int k = 0; k < 64; ++k)
        EXPECT_EQ(table.findOrInsert(*constInstr(m, b, f, {1000.0 + k})),
                  nullptr);
    for (size_t k = 0; k < outer.size(); ++k) {
        EXPECT_EQ(table.findOrInsert(*copy(outer[k])), outer[k]);
        EXPECT_EQ(table.findOrInsert(*copy(inner[k])), inner[k]);
    }
    table.popScope();
    for (size_t k = 0; k < outer.size(); ++k) {
        EXPECT_EQ(table.findOrInsert(*copy(outer[k])), outer[k]);
        ir::Instr *again = copy(inner[k]);
        EXPECT_EQ(table.findOrInsert(*again), nullptr);
        EXPECT_EQ(table.findOrInsert(*copy(inner[k])), again);
    }
    EXPECT_EQ(table.findOrInsert(*constInstr(m, b, f, {1000.0})), nullptr);
}

TEST(ValueTable, LoadsUnderDifferentMemoryVersionsStayApart)
{
    ir::Module m;
    ir::Block b;
    ir::Var *v = m.newVar("v", ir::Type::floatTy(), ir::VarKind::Local);
    auto load = [&] {
        ir::Instr *i = m.newInstr();
        i->op = ir::Opcode::LoadVar;
        i->type = v->type;
        i->var = v;
        b.instrs.push_back(i);
        return i;
    };
    ir::Instr *before = load(), *after = load();
    passes::ValueTable table;
    EXPECT_EQ(table.findOrInsert(*before, 0), nullptr);
    EXPECT_EQ(table.findOrInsert(*after, 1), nullptr);
    EXPECT_EQ(table.findOrInsert(*load(), 0), before);
    EXPECT_EQ(table.findOrInsert(*load(), 1), after);
}

// -------------------------------------------------------- the step rule
// Each pipeline step canonicalizes only when its pass reported a change
// (passes::canonicalizeIfChanged). That is exact iff canonicalize ends
// in a fixpoint and a pass that reports no change leaves the module as
// it found it; both are checked here on every module a campaign feeds
// the driver (gpu_test checks the vendor steps and the whole driver).

/** Every pass the registry can register, as the raw Module -> changed?
 * function its stage wraps. */
const std::vector<std::pair<std::string, bool (*)(ir::Module &)>> &
rawPasses()
{
    static const std::vector<std::pair<std::string, bool (*)(ir::Module &)>>
        table = {
            {"adce", +[](ir::Module &m) { return passes::adce(m); }},
            {"coalesce", +[](ir::Module &m) { return passes::coalesce(m); }},
            {"gvn", +[](ir::Module &m) { return passes::gvn(m); }},
            {"reassociate",
             +[](ir::Module &m) { return passes::reassociate(m); }},
            {"unroll", +[](ir::Module &m) { return passes::unroll(m); }},
            {"hoist", +[](ir::Module &m) { return passes::hoist(m); }},
            {"fp_reassociate",
             +[](ir::Module &m) { return passes::fpReassociate(m); }},
            {"div_to_mul", +[](ir::Module &m) { return passes::divToMul(m); }},
            {"licm", +[](ir::Module &m) { return passes::licm(m); }},
            {"strength_reduce",
             +[](ir::Module &m) { return passes::strengthReduce(m); }},
            {"tex_batch", +[](ir::Module &m) { return passes::texBatch(m); }},
        };
    return table;
}

/** The driver's front-end module for @p text: lowered, canonicalized. */
std::unique_ptr<ir::Module>
frontEnd(const std::string &text)
{
    auto m = emit::compileToIr(text);
    passes::canonicalize(*m);
    return m;
}

TEST(StepRule, CanonicalizeEndsInAFixpoint)
{
    const auto &texts = testutil::campaignTexts();
    ASSERT_GE(texts.size(), 708u);
    for (const auto &[where, text] : texts) {
        auto m = frontEnd(text);
        const std::string before = ir::dump(*m);
        EXPECT_FALSE(passes::canonicalize(*m)) << where;
        EXPECT_TRUE(ir::dump(*m) == before) << where;
    }
}

TEST(StepRule, PassReportingNoChangeLeavesModuleUnchanged)
{
    // The table covers every built-in and every catalog pass.
    const passes::PassRegistry &reg = passes::PassRegistry::instance();
    std::set<std::string> ids;
    for (int bit = 0; bit < passes::kBuiltinPassCount; ++bit)
        ids.insert(reg.pass(bit).id);
    for (const passes::PassDescriptor &d : passes::extraPassCatalog())
        ids.insert(d.id);
    std::set<std::string> covered;
    for (const auto &entry : rawPasses())
        covered.insert(entry.first);
    ASSERT_EQ(covered, ids);

    size_t unchanged = 0, changed = 0;
    for (const auto &[where, text] : testutil::campaignTexts()) {
        const auto base = frontEnd(text);
        const std::string before = ir::dump(*base);
        for (const auto &[id, pass] : rawPasses()) {
            auto m = base->clone();
            if (pass(*m)) {
                ++changed;
                continue;
            }
            ++unchanged;
            EXPECT_TRUE(ir::dump(*m) == before) << id << " on " << where;
        }
    }
    // Most steps change nothing (the paper's Fig 4c); both sides run.
    EXPECT_GT(unchanged, changed);
    EXPECT_GT(changed, 0u);
}

// ------------------------------------------------------------ reassociate

TEST(Reassociate, FoldsIntChains)
{
    auto m = build(R"(
        uniform int k;
        out float c;
        void main() {
            int a = k + 2 + 3 + 4;
            c = float(a);
        }
    )");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::reassociate(*m));
    passes::canonicalize(*m);
    // k + 9: exactly one integer add remains.
    size_t int_adds = 0;
    ir::forEachInstr(m->body, [&](const ir::Instr &i) {
        int_adds += i.op == ir::Opcode::Add && i.type.isInt();
    });
    EXPECT_EQ(int_adds, 1u);
    InterpEnv env;
    env.uniforms["k"] = {5.0};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 14.0);
}

TEST(Reassociate, RemovesFloatAddZero)
{
    auto m = build("in float x; out float c; void main() { c = x + "
                   "0.0; }");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::reassociate(*m));
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Add), 0u);
}

// --------------------------------------------------------- fpReassociate

TEST(FpReassociate, FactorsCommonMultiplier)
{
    auto m = build(R"(
        in vec4 a;
        in vec4 b;
        in vec4 k;
        out vec4 c;
        void main() { c = a * k + b * k; }
    )");
    passes::canonicalize(*m);
    size_t before = countOps(*m, ir::Opcode::Mul);
    ASSERT_EQ(before, 2u);
    EXPECT_TRUE(passes::fpReassociate(*m));
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Mul), 1u); // k*(a+b)
    InterpEnv env;
    env.inputs["a"] = {1.0, 1.0, 1.0, 1.0};
    env.inputs["b"] = {2.0, 2.0, 2.0, 2.0};
    env.inputs["k"] = {3.0, 3.0, 3.0, 3.0};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 9.0);
}

TEST(FpReassociate, CancelsAddSub)
{
    auto m = build("in float a; in float b; out float c; void main() "
                   "{ c = a + b - a; }");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::fpReassociate(*m));
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Add), 0u);
    EXPECT_EQ(countOps(*m, ir::Opcode::Sub), 0u);
    InterpEnv env;
    env.inputs["a"] = {123.0};
    env.inputs["b"] = {7.0};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 7.0);
}

TEST(FpReassociate, TriplesBecomeMultiply)
{
    auto m = build("in float a; out float c; void main() { c = a + a "
                   "+ a; }");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::fpReassociate(*m));
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Add), 0u);
    EXPECT_EQ(countOps(*m, ir::Opcode::Mul), 1u);
    InterpEnv env;
    env.inputs["a"] = {2.5};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 7.5);
}

TEST(FpReassociate, GroupsScalarsBeforeVectors)
{
    // f1*(f2*v) -> (f1*f2)*v: one vector multiply instead of two.
    auto m = build(R"(
        in float f1;
        in float f2;
        in vec4 v;
        out vec4 c;
        void main() { c = f1 * (f2 * v); }
    )");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::fpReassociate(*m));
    passes::canonicalize(*m);
    size_t vec_muls = 0, scalar_muls = 0;
    ir::forEachInstr(m->body, [&](const ir::Instr &i) {
        if (i.op == ir::Opcode::Mul) {
            if (i.type.isVector())
                ++vec_muls;
            else
                ++scalar_muls;
        }
    });
    EXPECT_EQ(vec_muls, 1u);
    EXPECT_EQ(scalar_muls, 1u);
}

TEST(FpReassociate, GroupsConstants)
{
    // 3.0*(0.5*v) -> 1.5*v with the constant folded at compile time.
    auto m = build(R"(
        in vec4 v;
        out vec4 c;
        void main() { c = 3.0 * (0.5 * v); }
    )");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::fpReassociate(*m));
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Mul), 1u);
    InterpEnv env;
    env.inputs["v"] = {2.0, 2.0, 2.0, 2.0};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 3.0);
}

TEST(FpReassociate, RemovesMultiplyByOne)
{
    auto m = build("in vec4 v; out vec4 c; void main() { c = v * 1.0; "
                   "}");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::fpReassociate(*m));
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Mul), 0u);
}

// --------------------------------------------------------------- divToMul

TEST(DivToMul, ConstantDivisorBecomesMultiply)
{
    auto m = build("in vec4 v; out vec4 c; void main() { c = v / 4.0; "
                   "}");
    passes::canonicalize(*m);
    EXPECT_TRUE(passes::divToMul(*m));
    passes::canonicalize(*m);
    EXPECT_EQ(countOps(*m, ir::Opcode::Div), 0u);
    EXPECT_EQ(countOps(*m, ir::Opcode::Mul), 1u);
    InterpEnv env;
    env.inputs["v"] = {8.0, 8.0, 8.0, 8.0};
    EXPECT_DOUBLE_EQ(ir::interpret(*m, env).outputs.at("c")[0], 2.0);
}

TEST(DivToMul, LeavesDynamicDivisor)
{
    auto m = build("in vec4 v; in float d; out vec4 c; void main() { "
                   "c = v / d; }");
    passes::canonicalize(*m);
    EXPECT_FALSE(passes::divToMul(*m));
    EXPECT_EQ(countOps(*m, ir::Opcode::Div), 1u);
}

// ------------------------------------------------------------------ adce

TEST(Adce, IsNoOpAfterCanonicalize)
{
    // The paper's observation VI-D1: ADCE never changes the output once
    // trivially dead code is gone.
    const char *sources[] = {
        "in float x; out float c; void main() { float dead = sin(x); "
        "c = x; }",
        R"(
            in vec2 uv; uniform sampler2D t; out vec4 c;
            void main() {
                vec4 a = texture(t, uv);
                float unused = dot(a.rgb, vec3(1.0));
                c = a;
            }
        )",
        R"(
            in float x; out float c;
            void main() {
                float s = 0.0;
                for (int i = 0; i < 4; i++) { s += x; }
                c = s;
            }
        )",
    };
    for (const char *src : sources) {
        auto m = build(src);
        passes::canonicalize(*m);
        EXPECT_FALSE(passes::adce(*m)) << src;
    }
}

TEST(Adce, AloneRemovesDeadCode)
{
    // Without canonicalisation first, ADCE does remove dead code (it is
    // a real implementation, not a stub).
    auto m = build("in float x; out float c; void main() { float dead "
                   "= sin(x); c = x; }");
    EXPECT_TRUE(passes::adce(*m));
    EXPECT_EQ(countOps(*m, ir::Opcode::Sin), 0u);
}

// ----------------------------------------------- pipeline equivalence

/** Shaders exercising every pass interaction. */
const char *kEquivalenceShaders[] = {
    // Blur-like loop with const weights (the motivating example shape).
    R"(
        out vec4 fragColor;
        in vec2 uv;
        uniform sampler2D tex;
        uniform vec4 ambient;
        const vec4 weights[5] = vec4[](vec4(0.1), vec4(0.2), vec4(0.4),
                                       vec4(0.2), vec4(0.1));
        const vec2 offsets[5] = vec2[](vec2(-0.02), vec2(-0.01),
                                       vec2(0.0), vec2(0.01),
                                       vec2(0.02));
        void main() {
            float weightTotal = 0.0;
            fragColor = vec4(0.0);
            for (int i = 0; i < 5; i++) {
                weightTotal += weights[i][0];
                fragColor += weights[i] *
                             texture(tex, uv + offsets[i]) * 3.0 *
                             ambient;
            }
            fragColor /= weightTotal;
        }
    )",
    // Branchy lighting with reuse across branches.
    R"(
        in vec3 normal;
        in vec3 lightDir;
        in float gloss;
        out vec4 color;
        void main() {
            float nl = dot(normalize(normal), normalize(lightDir));
            float d = max(nl, 0.0);
            vec3 base = vec3(0.2, 0.3, 0.4);
            if (gloss > 0.5) {
                base = base * d + vec3(pow(d, 8.0));
            } else {
                base = base * d;
            }
            color = vec4(base, 1.0);
        }
    )",
    // Integer indexing, swizzle stores, ternaries.
    R"(
        in vec2 uv;
        out vec4 c;
        void main() {
            vec4 v = vec4(0.0);
            v.x = uv.x > 0.5 ? uv.y : 1.0 - uv.y;
            v.yz = uv * 2.0;
            v.w = 1.0;
            int k = 3;
            c = v * float(k + 1 + 0);
        }
    )",
    // Matrices + functions.
    R"(
        uniform mat3 rot;
        in vec3 p;
        out vec4 c;
        vec3 apply(vec3 v) { return rot * v; }
        void main() {
            vec3 q = apply(p) + apply(vec3(1.0, 0.0, 0.0));
            c = vec4(q, 1.0);
        }
    )",
    // Division-heavy, constant grouping opportunities.
    R"(
        in vec4 v;
        in float s;
        out vec4 c;
        void main() {
            vec4 a = v / 2.0;
            vec4 b = 4.0 * (0.25 * v);
            vec4 d = s * (2.0 * v);
            c = (a + b - a) + d / 8.0;
        }
    )",
    // Dynamic loop kept generic.
    R"(
        uniform int taps;
        in float x;
        out float c;
        void main() {
            float s = 0.0;
            for (int i = 0; i < taps; i++) { s = s * 0.5 + x; }
            c = s;
        }
    )",
};

class FlagEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(FlagEquivalence, AllFlagCombosPreserveSemantics)
{
    const int shader_idx = GetParam();
    const std::string src = kEquivalenceShaders[shader_idx];

    auto reference = build(src);
    passes::canonicalize(*reference);

    // Probe points: a few fragment positions and uniform settings.
    std::vector<InterpEnv> envs;
    for (double ux : {0.1, 0.6}) {
        for (double uy : {0.3, 0.9}) {
            InterpEnv env;
            env.inputs["uv"] = {ux, uy};
            env.inputs["x"] = {ux};
            env.inputs["p"] = {ux, uy, 0.5};
            env.inputs["normal"] = {0.3, 0.9, uy};
            env.inputs["lightDir"] = {ux, 0.5, 0.2};
            env.inputs["gloss"] = {uy};
            env.inputs["v"] = {ux, uy, 0.25, 1.0};
            env.inputs["s"] = {uy};
            env.uniforms["taps"] = {3.0};
            env.uniforms["ambient"] = {0.8, 0.7, 0.6, 1.0};
            env.uniforms["rot"] = {0.0, 1.0, 0.0, -1.0, 0.0,
                                   0.0, 0.0, 0.0, 1.0};
            envs.push_back(std::move(env));
        }
    }

    std::vector<ir::InterpResult> want;
    for (const auto &env : envs)
        want.push_back(ir::interpret(*reference, env));

    // Registry-sized, not the historical literal 256: a registered
    // extra pass widens this equivalence property automatically.
    const uint64_t combos =
        passes::PassRegistry::instance().comboCount();
    for (uint64_t bits = 0; bits < combos; ++bits) {
        const passes::FlagSet flags(bits);

        auto m = build(src);
        passes::optimize(*m, flags);

        for (size_t e = 0; e < envs.size(); ++e) {
            auto got = ir::interpret(*m, envs[e]);
            ASSERT_EQ(got.discarded, want[e].discarded);
            for (const auto &[name, lanes] : want[e].outputs) {
                const auto &g = got.outputs.at(name);
                ASSERT_EQ(g.size(), lanes.size());
                for (size_t k = 0; k < lanes.size(); ++k) {
                    EXPECT_NEAR(g[k], lanes[k],
                                1e-6 * (1.0 + std::fabs(lanes[k])))
                        << "shader " << shader_idx << " flags " << bits
                        << " output " << name << "[" << k << "]";
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllShaders, FlagEquivalence,
                         ::testing::Range(0, 6));

} // namespace
} // namespace gsopt
