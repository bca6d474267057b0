/**
 * @file
 * Randomised property tests: a seeded generator produces random (but
 * well-typed) fragment shaders, and every one of them must
 *
 *   1. survive the full optimization pipeline under EVERY flag
 *      combination of the FULL pass registry — the built-in eight plus
 *      the whole extra-pass catalog (licm, strength_reduce, tex_batch),
 *      2048 combinations by default — with identical semantics vs the
 *      reference interpretation of the unoptimised shader,
 *   2. interpret identically on both engines — the batched SIMT
 *      engine evaluates all probe environments as lanes of ONE run per
 *      distinct optimised module (the fast path), and a rotating lane
 *      is re-checked bit-identically on the map-based reference
 *      engine — and
 *   3. round-trip through the GLSL back end into the driver path
 *      (emit, re-parse, re-interpret batched) for every distinct
 *      variant.
 *
 * Batching is what pays for width here: the walk probes 8 environments
 * per distinct module (previously 2) at one batched interpretation per
 * engine check instead of one scalar run per environment, so the
 * nightly seed budget rises with flat wall-clock.
 *
 * The generator favours the constructs the passes rewrite: additive and
 * multiplicative chains with shared subterms, constant divisions,
 * component writes, branchy assignments, constant-trip loops — and the
 * catalog-pass fodder: nested constant-trip loops with invariant
 * subtrees (including trip counts `unroll` declines), pow-by-small-int
 * and integer multiply/index chains, and duplicate texture fetches
 * across block boundaries.
 *
 * The lattice plan walk memoizes apply edges and checks each module
 * once per distinct structural fingerprint, so depth scales with the
 * number of *distinct* variants, not 2^N. Seed count comes from the
 * GSOPT_FUZZ_ITERS environment knob: the tier-1 default stays small;
 * the nightly CI job runs the 200+ the acceptance bar asks for.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>
#include <unordered_set>

#include <unistd.h>

#include "campaign_texts.h"
#include "emit/emit.h"
#include "emit/offline.h"
#include "glsl/frontend.h"
#include "ir/interp.h"
#include "ir/interp_batch.h"
#include "ir/verifier.h"
#include "lower/lower.h"
#include "passes/passes.h"
#include "passes/registry.h"
#include "support/governor.h"
#include "support/ipc.h"
#include "support/rng.h"
#include "support/time.h"
#include "tuner/flags.h"

namespace gsopt {
namespace {

/** Seeds to fuzz: GSOPT_FUZZ_ITERS, defaulting to a quick tier-1 run. */
int
fuzzSeedCount()
{
    if (const char *env = std::getenv("GSOPT_FUZZ_ITERS")) {
        const int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    return 12;
}

/** Emit a random float expression over the in-scope float scalars. */
std::string
randomScalarExpr(Rng &rng, const std::vector<std::string> &scalars,
                 int depth)
{
    if (depth <= 0 || rng.below(4) == 0) {
        switch (rng.below(3)) {
          case 0:
            return scalars[rng.below(scalars.size())];
          case 1: {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.3f",
                          rng.uniform(-2.0, 2.0));
            return buf;
          }
          default:
            return scalars[rng.below(scalars.size())];
        }
    }
    std::string a = randomScalarExpr(rng, scalars, depth - 1);
    std::string b = randomScalarExpr(rng, scalars, depth - 1);
    switch (rng.below(9)) {
      case 0:
        return "(" + a + " + " + b + ")";
      case 1:
        return "(" + a + " - " + b + ")";
      case 2:
        return "(" + a + " * " + b + ")";
      case 3: {
        // Division by a non-zero constant (DivToMul fodder).
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f",
                      rng.uniform(0.5, 4.0));
        return "(" + a + " / " + buf + ")";
      }
      case 4:
        return "min(" + a + ", " + b + ")";
      case 5:
        return "max(" + a + ", " + b + ")";
      case 6:
        return "(" + a + " + " + b + " - " + a + ")"; // cancellation
      case 7: {
        // pow by a small constant integer exponent (strength_reduce
        // fodder); the base is kept positive so the reference and the
        // multiply chain agree away from pow's undefined region.
        const int k = 2 + static_cast<int>(rng.below(3));
        return "pow(abs(" + a + ") + 0.5, " + std::to_string(k) +
               ".0)";
      }
      default:
        return "(" + a + " * 1.0 + 0.0)"; // identity fodder
    }
}

/** Build one random shader; seeded and deterministic. */
std::string
randomShader(uint64_t seed)
{
    Rng rng(seed);
    std::ostringstream os;
    os << "#version 450\n";
    os << "in vec2 uv;\n";
    os << "in float tone;\n";
    os << "uniform float gain;\n";
    os << "uniform sampler2D tex;\n";
    os << "out vec4 fragColor;\n";
    os << "void main() {\n";

    std::vector<std::string> scalars = {"uv.x", "uv.y", "tone",
                                        "gain"};
    const int n_vars = 2 + static_cast<int>(rng.below(4));
    for (int i = 0; i < n_vars; ++i) {
        std::string name = "s" + std::to_string(i);
        os << "    float " << name << " = "
           << randomScalarExpr(rng, scalars, 3) << ";\n";
        scalars.push_back(name);
    }

    // Maybe a duplicate texture fetch pair: one dominating fetch plus
    // a re-fetch of the same coordinates later (and, below, possibly
    // one more inside a branch or loop) — tex_batch fodder that
    // block-local CSE cannot reach.
    const bool dup_fetch = rng.below(2) == 0;
    if (dup_fetch) {
        os << "    vec4 t0 = texture(tex, uv);\n";
        scalars.push_back("t0.x");
        scalars.push_back("t0.w");
    }

    // Maybe an integer strength-reduction chain: int scaling by small
    // and power-of-two factors plus an index-style refold.
    if (rng.below(2) == 0) {
        const int f1 = 2 + static_cast<int>(rng.below(4)); // 2..5
        const int f2 = 1 + static_cast<int>(rng.below(4)); // 1..4
        os << "    int q = int(" << scalars[rng.below(scalars.size())]
           << " * 8.0 + 9.0);\n";
        os << "    int qr = q * " << f1 << " + q * " << f2 << ";\n";
        os << "    int qs = q * " << (rng.below(2) ? 4 : 2) << ";\n";
        os << "    float qf = float(qr + qs) * 0.03;\n";
        scalars.push_back("qf");
    }

    // Maybe a constant-trip loop accumulating a chain, with an
    // invariant subtree (licm fodder). Half the time the trip count is
    // over unroll's 64-trip budget — the loops unroll declines are
    // exactly where licm must hold its own.
    if (rng.below(3) != 0) {
        const int trips =
            rng.below(2) == 0
                ? 2 + static_cast<int>(rng.below(6))
                : 66 + static_cast<int>(rng.below(24));
        os << "    float acc = 0.0;\n";
        os << "    for (int i = 0; i < " << trips << "; i++) {\n";
        os << "        float inv = "
           << randomScalarExpr(rng, scalars, 2) << ";\n";
        if (dup_fetch && rng.below(2) == 0)
            os << "        inv = inv + texture(tex, uv).y;\n";
        os << "        acc += " << randomScalarExpr(rng, scalars, 1)
           << " * float(i + 1) + inv;\n";
        // Maybe nest a small inner loop with its own invariant.
        if (rng.below(2) == 0) {
            const int inner = 2 + static_cast<int>(rng.below(4));
            os << "        for (int j = 0; j < " << inner
               << "; j++) {\n";
            os << "            acc += inv * 0.125 + float(j) * "
               << "0.0625;\n";
            os << "        }\n";
        }
        os << "    }\n";
        scalars.push_back("acc");
    }

    // Maybe a branchy assignment (hoist fodder).
    if (rng.below(2) == 0) {
        os << "    float branchy = 0.25;\n";
        os << "    if (" << scalars[rng.below(scalars.size())]
           << " > 0.4) {\n";
        os << "        branchy = " << randomScalarExpr(rng, scalars, 2);
        if (dup_fetch)
            os << " + texture(tex, uv).z";
        os << ";\n";
        os << "    } else {\n";
        os << "        branchy = " << randomScalarExpr(rng, scalars, 2)
           << ";\n";
        os << "    }\n";
        scalars.push_back("branchy");
    }

    // Component writes (coalesce fodder) + optional texture: a plain,
    // a biased or an explicit-LOD fetch, with a per-fragment bias/LOD.
    os << "    vec4 v = vec4(0.0);\n";
    for (int lane = 0; lane < 4; ++lane) {
        os << "    v." << "xyzw"[lane] << " = "
           << randomScalarExpr(rng, scalars, 2) << ";\n";
    }
    if (rng.below(2) == 0) {
        static const char *const kFetches[] = {
            "texture(tex, uv)",
            "texture(tex, uv, uv.x * 2.0)",
            "textureLod(tex, uv, uv.y * 3.0)",
        };
        os << "    v = v * 0.5 + " << kFetches[rng.below(3)]
           << " * 0.5;\n";
    }
    os << "    fragColor = v;\n";
    os << "}\n";
    return os.str();
}

class RandomShader : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomShader, FullRegistryTreePreservesSemantics)
{
    // The full registry: built-ins plus every catalog pass.
    passes::ScopedExtraPasses extras;
    const passes::PassRegistry &reg = passes::PassRegistry::instance();
    ASSERT_GE(reg.count(), 11u);

    const uint64_t seed = 0xf00dULL + static_cast<uint64_t>(GetParam());
    const std::string src = randomShader(seed);

    auto reference = emit::compileToIr(src);

    // 8 probe environments, evaluated as the 8 lanes of one batch.
    constexpr size_t kProbeLanes = 8;
    ir::BatchEnv benv;
    benv.width = kProbeLanes;
    for (size_t l = 0; l < kProbeLanes; ++l) {
        const double x =
            0.15 + 0.7 * static_cast<double>(l) / (kProbeLanes - 1);
        benv.setLaneInput("uv", l, {x, 1.0 - x});
        benv.setLaneInput("tone", l, {0.3 + x});
    }
    benv.uniforms["gain"] = {1.25};
    std::vector<ir::InterpEnv> envs;
    for (size_t l = 0; l < kProbeLanes; ++l)
        envs.push_back(benv.laneEnv(l));

    // Ground truth: the golden map-based engine on the unoptimised IR.
    std::vector<ir::InterpResult> want;
    for (const auto &env : envs)
        want.push_back(ir::interpretReference(*reference, env));

    auto check_against_reference = [&](const ir::BatchResult &got,
                                       const char *what) {
        for (size_t e = 0; e < envs.size(); ++e) {
            for (const auto &[name, lanes] : want[e].outputs) {
                ASSERT_EQ(got.outputComps(name), lanes.size());
                for (size_t k = 0; k < lanes.size(); ++k) {
                    ASSERT_NEAR(got.output(name, k, e), lanes[k],
                                1e-6 * (1.0 + std::fabs(lanes[k])))
                        << what << " seed " << seed << " env " << e
                        << " output " << name << "[" << k << "]\n"
                        << src;
                }
            }
        }
    };

    uint64_t combos = 0;
    std::unordered_set<uint64_t> seen;
    passes::forEachPlan(
        *reference, passes::latticePlans(),
        [&](const passes::PassPlan &plan, const ir::Module &module,
            uint64_t fingerprint) {
            ++combos;
            if (!seen.insert(fingerprint).second)
                return; // distinct modules only: the walk memoizes
            SCOPED_TRACE("flags mask " +
                         std::to_string(plan.mask()));

            // (1) semantics vs the unoptimised reference run: one
            // batched interpretation covers all 8 environments.
            const ir::BatchResult batch =
                ir::interpretBatch(module, benv);
            check_against_reference(batch, "optimized");

            // (2) two-engine bit-identity on a rotating probe lane:
            // the batched lane and the map-based reference must agree
            // bit-for-bit (outputs, discard, and the per-lane dynamic
            // instruction count).
            const size_t lane =
                static_cast<size_t>(fingerprint % kProbeLanes);
            const auto ref =
                ir::interpretReference(module, envs[lane]);
            const auto blane = batch.laneResult(lane);
            ASSERT_EQ(blane.discarded, ref.discarded);
            ASSERT_EQ(blane.executedInstructions,
                      ref.executedInstructions)
                << "batched lane count diverged, seed " << seed;
            ASSERT_EQ(blane.outputs, ref.outputs)
                << "batched/reference divergence, seed " << seed
                << " lane " << lane;

            // (3) driver path: emit, re-parse, re-interpret batched.
            const std::string text = emit::emitGlsl(module);
            auto reparsed = emit::compileToIr(text);
            check_against_reference(
                ir::interpretBatch(*reparsed, benv), "round-trip");
        });
    EXPECT_EQ(combos, reg.comboCount()) << "walk must cover 2^N";
    EXPECT_GE(seen.size(), 1u);
}

TEST_P(RandomShader, RandomPlanWalkPreservesSemantics)
{
    // The ordering dimension: beyond the canonical-order lattice the
    // last test sweeps, every *permutation* of every subset must also
    // preserve semantics. Each seed draws K random plans — a random
    // subset of the full registry in a random order — and walks them
    // through the shared-memo plan applier, holding each distinct
    // result to the same three properties: reference-interp
    // bit-identity, batched-lane cross-check, GLSL round trip.
    passes::ScopedExtraPasses extras;
    const passes::PassRegistry &reg = passes::PassRegistry::instance();
    ASSERT_GE(reg.count(), 11u);

    const uint64_t seed = 0xf00dULL + static_cast<uint64_t>(GetParam());
    const std::string src = randomShader(seed);
    auto reference = emit::compileToIr(src);

    constexpr size_t kProbeLanes = 8;
    ir::BatchEnv benv;
    benv.width = kProbeLanes;
    for (size_t l = 0; l < kProbeLanes; ++l) {
        const double x =
            0.15 + 0.7 * static_cast<double>(l) / (kProbeLanes - 1);
        benv.setLaneInput("uv", l, {x, 1.0 - x});
        benv.setLaneInput("tone", l, {0.3 + x});
    }
    benv.uniforms["gain"] = {1.25};
    std::vector<ir::InterpEnv> envs;
    for (size_t l = 0; l < kProbeLanes; ++l)
        envs.push_back(benv.laneEnv(l));

    std::vector<ir::InterpResult> want;
    for (const auto &env : envs)
        want.push_back(ir::interpretReference(*reference, env));

    auto check_against_reference = [&](const ir::BatchResult &got,
                                       const char *what,
                                       const std::string &plan) {
        for (size_t e = 0; e < envs.size(); ++e) {
            for (const auto &[name, lanes] : want[e].outputs) {
                ASSERT_EQ(got.outputComps(name), lanes.size());
                for (size_t k = 0; k < lanes.size(); ++k) {
                    ASSERT_NEAR(got.output(name, k, e), lanes[k],
                                1e-6 * (1.0 + std::fabs(lanes[k])))
                        << what << " seed " << seed << " plan " << plan
                        << " env " << e << " output " << name << "["
                        << k << "]\n"
                        << src;
                }
            }
        }
    };

    // K random plans per seed: GSOPT_FUZZ_PLANS scales the nightly
    // depth the same way GSOPT_FUZZ_ITERS scales seed count.
    int k_plans = 6;
    if (const char *env = std::getenv("GSOPT_FUZZ_PLANS")) {
        const int n = std::atoi(env);
        if (n > 0)
            k_plans = n;
    }
    Rng rng(hashCombine(seed, fnv1a("random-plan-walk")));
    std::vector<passes::PassPlan> plans;
    for (int p = 0; p < k_plans; ++p) {
        passes::PassPlan plan =
            passes::PassPlan::canonicalOf(rng.below(reg.comboCount()));
        for (size_t i = plan.bits.size(); i > 1; --i)
            std::swap(plan.bits[i - 1], plan.bits[rng.below(i)]);
        ASSERT_TRUE(plan.valid());
        plans.push_back(std::move(plan));
    }

    size_t walked = 0;
    std::unordered_set<uint64_t> seen;
    passes::forEachPlan(
        *reference, plans,
        [&](const passes::PassPlan &plan, const ir::Module &module,
            uint64_t fingerprint) {
            ++walked;
            if (!seen.insert(fingerprint).second)
                return; // distinct results only: the memo shares
            SCOPED_TRACE("plan " + plan.str());

            const ir::BatchResult batch =
                ir::interpretBatch(module, benv);
            check_against_reference(batch, "plan", plan.str());

            const size_t lane =
                static_cast<size_t>(fingerprint % kProbeLanes);
            const auto ref =
                ir::interpretReference(module, envs[lane]);
            const auto blane = batch.laneResult(lane);
            ASSERT_EQ(blane.discarded, ref.discarded);
            ASSERT_EQ(blane.executedInstructions,
                      ref.executedInstructions)
                << "batched lane count diverged, seed " << seed
                << " plan " << plan.str();
            ASSERT_EQ(blane.outputs, ref.outputs)
                << "batched/reference divergence, seed " << seed
                << " plan " << plan.str() << " lane " << lane;

            const std::string text = emit::emitGlsl(module);
            auto reparsed = emit::compileToIr(text);
            check_against_reference(ir::interpretBatch(*reparsed, benv),
                                    "round-trip", plan.str());
        });
    EXPECT_EQ(walked, plans.size());
    EXPECT_GE(seen.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomShader,
                         ::testing::Range(0, fuzzSeedCount()));

// ------------------------------------------------- hostile inputs

/** Hostile inputs to sweep: GSOPT_FUZZ_HOSTILE=1 selects the nightly
 * 200-input bar, the tier-1 default keeps one of each shape. */
int
hostileInputCount()
{
    if (const char *env = std::getenv("GSOPT_FUZZ_HOSTILE")) {
        if (*env && *env != '0')
            return 200;
    }
    return 16;
}

/**
 * Adversarial generator: inputs built to hang, overflow, or exhaust a
 * naive compiler — macro bombs (recursive and exponential), nesting
 * bombs (expression and block), runaway loops (canonical and generic),
 * oversized sources, and degenerate tokens. Deterministic per index;
 * sizes jitter so the sweep probes both sides of every cap.
 */
std::string
hostileShader(uint64_t index)
{
    Rng rng(hashCombine(0xbadf00dULL, index));
    std::ostringstream os;
    os << "#version 450\n";
    switch (index % 8) {
      case 0: { // recursive macro bomb (mutual expansion cycle)
        os << "#define PING PONG PONG\n";
        os << "#define PONG PING PING\n";
        os << "out vec4 fragColor;\n";
        os << "void main() { float x = PING; fragColor = vec4(x); }\n";
        break;
      }
      case 1: { // exponential (non-recursive) macro bomb
        const int levels = 18 + static_cast<int>(rng.below(10));
        os << "#define E0 x\n";
        for (int i = 1; i <= levels; ++i)
            os << "#define E" << i << " E" << (i - 1) << " E"
               << (i - 1) << "\n";
        os << "out vec4 fragColor;\n";
        os << "void main() { float E" << levels
           << "; fragColor = vec4(0.0); }\n";
        break;
      }
      case 2: { // expression paren-nesting bomb
        const size_t depth = 600 + rng.below(40000);
        os << "out vec4 fragColor;\n";
        os << "void main() { float x = ";
        os << std::string(depth, '(') << "1.0"
           << std::string(depth, ')');
        os << "; fragColor = vec4(x); }\n";
        break;
      }
      case 3: { // block-nesting bomb
        const size_t depth = 600 + rng.below(30000);
        os << "out vec4 fragColor;\n";
        os << "void main() " << std::string(depth, '{');
        os << "fragColor = vec4(1.0);" << std::string(depth, '}');
        os << "\n";
        break;
      }
      case 4: { // giant canonical for loop: bound the work, not trips
        const long trips =
            50'000'000L + static_cast<long>(rng.below(50'000'000));
        os << "out vec4 fragColor;\n";
        os << "void main() {\n    float acc = 0.0;\n";
        os << "    for (int i = 0; i < " << trips
           << "; i++) { acc += 0.5; }\n";
        os << "    fragColor = vec4(acc);\n}\n";
        break;
      }
      case 5: { // giant generic while loop
        os << "out vec4 fragColor;\n";
        os << "void main() {\n    float x = 0.0;\n";
        os << "    while (x < " << (50000 + rng.below(100000))
           << ".0) { x = x + 0.001; }\n";
        os << "    fragColor = vec4(x);\n}\n";
        break;
      }
      case 6: { // giant source: tens of thousands of statements
        const size_t stmts = 5000 + rng.below(40000);
        os << "out vec4 fragColor;\n";
        os << "void main() {\n    float s0 = 0.5;\n";
        for (size_t i = 1; i < stmts; ++i)
            os << "    float s" << i << " = s" << (i - 1)
               << " * 1.0001 + 0.5;\n";
        os << "    fragColor = vec4(s" << (stmts - 1) << ");\n}\n";
        break;
      }
      default: { // degenerate tokens: huge identifier, huge literal
        const std::string big(5000 + rng.below(200000), 'a');
        os << "out vec4 fragColor;\n";
        os << "void main() {\n";
        os << "    float " << big << " = 0."
           << std::string(1000 + rng.below(100000), '3') << ";\n";
        os << "    fragColor = vec4(" << big << ");\n}\n";
        break;
      }
    }
    return os.str();
}

TEST(HostileFuzz, EveryInputTerminatesWithinTheDeadline)
{
    // The resilience bar: under a governed budget every hostile input
    // must terminate promptly with exactly one of (a) a successful
    // compile+run, (b) clean diagnostics, or (c) ResourceExhausted.
    // Hangs, crashes, OOMs, and any other exception are failures —
    // gtest surfaces a stray exception as one.
    const int n = hostileInputCount();
    for (int i = 0; i < n; ++i) {
        SCOPED_TRACE("hostile input " + std::to_string(i));
        const std::string src = hostileShader(static_cast<uint64_t>(i));

        governor::Caps caps;
        caps.deadlineMs = 4000;
        caps[governor::Dim::PreprocBytes] = 8u << 20;
        caps[governor::Dim::Tokens] = 400'000;
        caps[governor::Dim::IrInstrs] = 2'000'000;
        caps[governor::Dim::ArenaBytes] = 256u << 20;
        caps[governor::Dim::InterpSteps] = 2'000'000;
        governor::ScopedBudget scope(caps);

        const uint64_t t0 = nowNs();
        try {
            glsl::CompiledShader compiled;
            bool rejected = false;
            try {
                compiled = glsl::compileShader(src);
            } catch (const CompileError &e) {
                rejected = true;
                EXPECT_FALSE(e.diagnostics().empty())
                    << "rejection must carry a diagnostic";
            }
            if (!rejected) {
                auto module = lower::lowerShader(compiled);
                ir::InterpEnv env;
                // The legacy trip cap out of the way: the budget (work
                // and wall clock) is what must stop runaway loops.
                env.maxLoopIterations = 1'000'000'000L;
                ir::interpret(*module, env);
            }
        } catch (const governor::ResourceExhausted &e) {
            EXPECT_NE(std::string(e.what()).find("resource exhausted"),
                      std::string::npos);
        }
        // Prompt termination: well under the deadline plus slack even
        // on sanitizer builds.
        EXPECT_LT(nowNs() - t0, 60'000'000'000ull)
            << "hostile input must not crawl";
    }
}

TEST(HostileGen, IsDeterministicAndCoversEveryShape)
{
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(hostileShader(i), hostileShader(i));
    EXPECT_NE(hostileShader(0).find("PING"), std::string::npos);
    EXPECT_NE(hostileShader(1).find("#define E1 "), std::string::npos);
    EXPECT_NE(hostileShader(2).find("((((("), std::string::npos);
    EXPECT_NE(hostileShader(3).find("{{{{{"), std::string::npos);
    EXPECT_NE(hostileShader(4).find("for (int i = 0; i < "),
              std::string::npos);
    EXPECT_NE(hostileShader(5).find("while (x < "), std::string::npos);
    EXPECT_NE(hostileShader(6).find("float s4999"), std::string::npos);
    EXPECT_NE(hostileShader(7).find("aaaaaaaa"), std::string::npos);
}

// ------------------------------------------------ front-end mutants

/** Where @p text spells `[N]`, N a decimal literal: (offset, length)
 * of each. */
std::vector<std::pair<size_t, size_t>>
indexLiterals(const std::string &text)
{
    std::vector<std::pair<size_t, size_t>> out;
    for (size_t i = 0; i < text.size(); ++i) {
        size_t j = i + 1;
        while (text[i] == '[' && j < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[j])))
            ++j;
        if (j > i + 1 && j < text.size() && text[j] == ']')
            out.emplace_back(i, j + 1 - i);
    }
    return out;
}

TEST(FrontEndMutants, ConstantIndicesEndInDiagnosticsOrValidIr)
{
    // Every `[N]` literal of every 7th campaign text, spelled 0, 7, -1
    // and 2^32 + 2 in turn: out-of-range indices and sizes once crashed
    // the lowerer, failed IR verification, or were truncated silently.
    // Each mutant must compile to verified IR or be rejected with a
    // CompileError; anything else (another exception, a crash) fails.
    const auto &texts = testutil::campaignTexts();
    size_t mutants = 0, rejected = 0;
    for (size_t t = 0; t < texts.size(); t += 7) {
        const std::string &text = texts[t].text;
        for (const auto &[at, len] : indexLiterals(text)) {
            for (const char *value : {"0", "7", "-1", "4294967298"}) {
                const std::string src = text.substr(0, at) + "[" + value +
                                        "]" + text.substr(at + len);
                ++mutants;
                SCOPED_TRACE(texts[t].where + " with " +
                             text.substr(at, len) + " -> [" + value + "]");
                try {
                    auto module = emit::compileToIr(src);
                    EXPECT_TRUE(ir::verify(*module).empty());
                } catch (const CompileError &) {
                    ++rejected;
                }
            }
        }
    }
    if (tuner::flagCount() == 8) {
        EXPECT_EQ(mutants, 172u); // the paper's eight passes' texts
    }
    EXPECT_GT(rejected, 0u);
}

TEST(RandomShaderGen, IsDeterministic)
{
    EXPECT_EQ(randomShader(7), randomShader(7));
    EXPECT_NE(randomShader(7), randomShader(8));
}

TEST(RandomShaderGen, EmitsTheCatalogPassFodder)
{
    // Across a window of seeds the generator must exercise every
    // construct class the new passes rewrite; a generator regression
    // that silently stops emitting one would hollow out the property.
    bool pow_chain = false, int_chain = false, dup_fetch = false;
    bool big_loop = false, nested_loop = false;
    for (uint64_t s = 0; s < 32; ++s) {
        const std::string src = randomShader(0xf00dULL + s);
        pow_chain |= src.find("pow(abs(") != std::string::npos;
        int_chain |= src.find("int q") != std::string::npos;
        dup_fetch |= src.find("t0") != std::string::npos;
        for (int trips = 66; trips < 90; ++trips)
            big_loop |= src.find("i < " + std::to_string(trips)) !=
                        std::string::npos;
        nested_loop |= src.find("int j") != std::string::npos;
    }
    EXPECT_TRUE(pow_chain);
    EXPECT_TRUE(int_chain);
    EXPECT_TRUE(dup_fetch);
    EXPECT_TRUE(big_loop);
    EXPECT_TRUE(nested_loop);
}

// ================================================================
// IPC frame protocol (support/ipc): the wire layer of the
// distributed campaign. Properties: every payload round-trips bit
// exactly (through the in-memory decoder and through a real pipe);
// oversized and "negative" lengths are rejected before allocation;
// and no single-byte corruption anywhere in a frame is ever decoded
// as a frame — it either throws ProtocolError or leaves the decoder
// waiting for more bytes. GSOPT_FUZZ_IPC=1 selects the nightly depth
// (more frames, payloads up to 4 MiB, intended for the ASan job).
// ================================================================

/** Nightly depth knob for the frame fuzzer. */
bool
ipcFuzzDeep()
{
    const char *env = std::getenv("GSOPT_FUZZ_IPC");
    return env && *env && *env != '0';
}

std::string
randomPayload(Rng &rng, size_t size)
{
    std::string bytes(size, '\0');
    for (char &c : bytes)
        c = static_cast<char>(rng.below(256));
    return bytes;
}

TEST(IpcFrameFuzz, PayloadsRoundTripThroughDecoder)
{
    std::vector<size_t> sizes = {0,    1,    7,     24,
                                 1000, 4096, 65536, 1u << 20};
    if (ipcFuzzDeep())
        sizes.push_back(4u << 20);
    Rng rng(0x19c);
    for (size_t size : sizes) {
        const uint32_t type = static_cast<uint32_t>(rng.below(1000));
        const std::string payload = randomPayload(rng, size);
        const std::string wire = ipc::encodeFrame(type, payload);
        ASSERT_EQ(wire.size(), ipc::kHeaderBytes + size);

        ipc::FrameDecoder decoder;
        // Feed in awkward chunks to exercise partial-header and
        // partial-payload states.
        ipc::Frame frame;
        size_t fed = 0;
        while (fed < wire.size()) {
            const size_t chunk =
                std::min<size_t>(1 + rng.below(8191), wire.size() - fed);
            EXPECT_FALSE(decoder.next(frame));
            decoder.feed(wire.data() + fed, chunk);
            fed += chunk;
        }
        ASSERT_TRUE(decoder.next(frame)) << "size " << size;
        EXPECT_EQ(frame.type, type);
        EXPECT_TRUE(frame.payload == payload);
        EXPECT_FALSE(decoder.midFrame());
    }
}

TEST(IpcFrameFuzz, PayloadsRoundTripThroughAPipe)
{
    std::vector<size_t> sizes = {0, 1, 513, 65536};
    if (ipcFuzzDeep())
        sizes.push_back(4u << 20);
    Rng rng(0x91e);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::vector<std::pair<uint32_t, std::string>> sent;
    for (size_t size : sizes)
        sent.emplace_back(static_cast<uint32_t>(rng.below(100)),
                          randomPayload(rng, size));
    // Writer thread: a 4 MiB frame does not fit a pipe buffer, so
    // write and read must overlap (exactly as coordinator/worker do).
    std::thread writer([&] {
        for (const auto &[type, payload] : sent)
            ipc::writeFrame(fds[1], type, payload);
        ::close(fds[1]);
    });
    ipc::Frame frame;
    for (const auto &[type, payload] : sent) {
        ASSERT_TRUE(ipc::readFrame(fds[0], frame));
        EXPECT_EQ(frame.type, type);
        EXPECT_TRUE(frame.payload == payload);
    }
    EXPECT_FALSE(ipc::readFrame(fds[0], frame)); // clean EOF
    writer.join();
    ::close(fds[0]);
}

TEST(IpcFrameFuzz, OversizedAndNegativeLengthsRejectedPreAllocation)
{
    // Craft headers by hand: magic/type valid, length hostile.
    for (uint64_t length :
         {ipc::kMaxFramePayload + 1, uint64_t(1) << 40,
          ~uint64_t(0) /* "negative" as signed */}) {
        std::string header = ipc::encodeFrame(3, "xy").substr(
            0, ipc::kHeaderBytes);
        std::memcpy(&header[8], &length, sizeof(length));
        ipc::FrameDecoder decoder;
        decoder.feed(header.data(), header.size());
        ipc::Frame frame;
        EXPECT_THROW(decoder.next(frame), ipc::ProtocolError)
            << "length " << length;
    }
}

TEST(IpcFrameFuzz, MidFrameEofIsAProtocolError)
{
    const std::string wire = ipc::encodeFrame(5, "half a frame");
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::write(fds[1], wire.data(), wire.size() / 2),
              static_cast<ssize_t>(wire.size() / 2));
    ::close(fds[1]);
    ipc::Frame frame;
    EXPECT_THROW(ipc::readFrame(fds[0], frame), ipc::ProtocolError);
    ::close(fds[0]);
}

TEST(IpcFrameFuzz, NoSingleByteFlipDecodesAsAFrame)
{
    const int frames = ipcFuzzDeep() ? 256 : 24;
    Rng rng(0xf11b);
    for (int i = 0; i < frames; ++i) {
        const uint32_t type = static_cast<uint32_t>(rng.below(7)) + 1;
        const std::string payload =
            randomPayload(rng, rng.below(2048));
        const std::string wire = ipc::encodeFrame(type, payload);
        for (int flip = 0; flip < 64; ++flip) {
            std::string bad = wire;
            const size_t pos = rng.below(bad.size());
            const uint8_t bit = 1u << rng.below(8);
            bad[pos] = static_cast<char>(
                static_cast<uint8_t>(bad[pos]) ^ bit);
            ipc::FrameDecoder decoder;
            decoder.feed(bad.data(), bad.size());
            ipc::Frame frame;
            // The flip must never yield a decoded frame: corruption
            // throws, and a grown length field merely starves the
            // decoder. Silence is the one unacceptable outcome.
            try {
                EXPECT_FALSE(decoder.next(frame))
                    << "frame " << i << " flip at byte " << pos;
            } catch (const ipc::ProtocolError &) {
                // detected — good
            }
        }
    }
}

} // namespace
} // namespace gsopt
