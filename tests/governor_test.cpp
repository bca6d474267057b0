/**
 * @file
 * Resource-governance tests: per-dimension budgets trip with the right
 * structured reason, deadlines fire through the stall-fault watchdog,
 * hostile inputs (macro/nesting bombs) degrade to clean diagnostics,
 * quarantine reasons round-trip through the schema-16 shard format,
 * and a governed campaign with generous budgets is byte-identical to
 * an ungoverned run while a stalled campaign quarantines the affected
 * items and resumes cleanly from the shards that survived.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "corpus/corpus.h"
#include "emit/offline.h"
#include "glsl/frontend.h"
#include "gpu/device.h"
#include "ir/interp.h"
#include "passes/passes.h"
#include "runtime/framework.h"
#include "support/fault.h"
#include "support/governor.h"
#include "support/rng.h"
#include "support/time.h"
#include "test_scratch.h"
#include "tuner/experiment.h"

namespace gsopt {
namespace {

namespace fs = std::filesystem;
using governor::Caps;
using governor::Dim;

/** Masks any ambient GSOPT_FAULTS plan (the CI fault job installs one
 * process-wide); restored on scope exit. */
fault::ScopedFaultPlan
quiesce()
{
    return fault::ScopedFaultPlan(fault::FaultPlan{});
}

/** Caps with a single dimension set. */
Caps
only(Dim d, uint64_t cap)
{
    Caps c;
    c[d] = cap;
    return c;
}

using testutil::ScratchDir;

const char *kTinyShader = "#version 450\n"
                          "out vec4 fragColor;\n"
                          "void main() { fragColor = vec4(0.25); }\n";

/** Saves, clears, and restores every governor env knob, so fromEnv
 * tests see a clean slate even under the governed CI leg's ambient
 * GSOPT_DEADLINE_MS / GSOPT_BUDGET_* environment. */
class ClearGovernorEnv
{
  public:
    ClearGovernorEnv()
    {
        for (const char *name : kKnobs) {
            const char *v = std::getenv(name);
            saved_.emplace_back(name, v ? std::string(v) : std::string(),
                                v != nullptr);
            unsetenv(name);
        }
    }
    ~ClearGovernorEnv()
    {
        for (const auto &[name, value, wasSet] : saved_) {
            if (wasSet)
                setenv(name, value.c_str(), 1);
            else
                unsetenv(name);
        }
    }

  private:
    static constexpr const char *kKnobs[] = {
        "GSOPT_DEADLINE_MS",          "GSOPT_BUDGET_PREPROC_BYTES",
        "GSOPT_BUDGET_TOKENS",        "GSOPT_BUDGET_PARSE_DEPTH",
        "GSOPT_BUDGET_SEMA_DEPTH",    "GSOPT_BUDGET_IR_INSTRS",
        "GSOPT_BUDGET_ARENA_BYTES",   "GSOPT_BUDGET_PASS_STEPS",
        "GSOPT_BUDGET_INTERP_STEPS"};
    std::vector<std::tuple<const char *, std::string, bool>> saved_;
};

// ------------------------------------------------ budget mechanics

TEST(Governor, CapsAnyAndDimNames)
{
    EXPECT_FALSE(Caps{}.any());
    Caps c;
    c.deadlineMs = 5;
    EXPECT_TRUE(c.any());
    EXPECT_TRUE(only(Dim::ArenaBytes, 1).any());
    EXPECT_STREQ(governor::dimName(Dim::PreprocBytes), "preproc-bytes");
    EXPECT_STREQ(governor::dimName(Dim::InterpSteps), "interp-steps");
}

TEST(Governor, FromEnvReadsEveryKnob)
{
    // setenv/getenv without worker threads in flight: safe.
    ClearGovernorEnv clean; // mask any ambient governed-CI knobs
    setenv("GSOPT_DEADLINE_MS", "250", 1);
    setenv("GSOPT_BUDGET_TOKENS", "123", 1);
    setenv("GSOPT_BUDGET_ARENA_BYTES", "4096", 1);
    const Caps c = Caps::fromEnv();
    unsetenv("GSOPT_DEADLINE_MS");
    unsetenv("GSOPT_BUDGET_TOKENS");
    unsetenv("GSOPT_BUDGET_ARENA_BYTES");
    EXPECT_EQ(c.deadlineMs, 250u);
    EXPECT_EQ(c[Dim::Tokens], 123u);
    EXPECT_EQ(c[Dim::ArenaBytes], 4096u);
    EXPECT_EQ(c[Dim::PassSteps], 0u);
}

TEST(Governor, RequestBudgetInstallsFromAmbientCapsOnly)
{
    {
        // All-unlimited ambient caps: admission installs nothing.
        governor::ScopedAmbientCaps ambient{Caps{}};
        governor::ScopedRequestBudget request;
        EXPECT_EQ(request.installed(), nullptr);
        EXPECT_EQ(governor::current(), nullptr);
    }
    {
        governor::ScopedAmbientCaps ambient(only(Dim::Tokens, 10));
        governor::ScopedRequestBudget request;
        ASSERT_NE(request.installed(), nullptr);
        EXPECT_EQ(governor::current(), request.installed());
        EXPECT_EQ(request.installed()->caps()[Dim::Tokens], 10u);
        // A nested request defers to the outer budget's authority.
        governor::ScopedRequestBudget inner;
        EXPECT_EQ(inner.installed(), nullptr);
        EXPECT_EQ(governor::current(), request.installed());
    }
    EXPECT_EQ(governor::current(), nullptr);
}

TEST(Governor, StepMeterFlushesChargesAndSettles)
{
    governor::ScopedBudget scope(only(Dim::InterpSteps, 100));
    governor::StepMeter meter(Dim::InterpSteps, "unit");
    ASSERT_TRUE(meter.active());
    for (int i = 0; i < 100; ++i)
        meter.tick();
    EXPECT_NO_THROW(meter.flush());
    meter.tick(50);
    EXPECT_THROW(meter.flush(), governor::ResourceExhausted);
    // The throwing flush still counted its units.
    EXPECT_EQ(scope.budget().used(Dim::InterpSteps), 150u);
    meter.tick(7);
    meter.settle(); // no-throw accounting past the cap
    EXPECT_EQ(scope.budget().used(Dim::InterpSteps), 157u);
}

// ---------------------------------------- per-dimension trip tests

/** Expect @p fn to throw ResourceExhausted on @p dim at @p stage. */
template <typename Fn>
void
expectExhausted(Dim dim, const char *stage, Fn &&fn)
{
    try {
        fn();
        FAIL() << "expected ResourceExhausted on "
               << governor::dimName(dim);
    } catch (const governor::ResourceExhausted &e) {
        EXPECT_STREQ(e.dimension(), governor::dimName(dim));
        EXPECT_STREQ(e.stage(), stage);
        EXPECT_GT(e.used(), e.limit());
        EXPECT_NE(std::string(e.what()).find("resource exhausted"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find(governor::dimName(dim)),
                  std::string::npos);
    }
}

TEST(GovernorDims, PreprocBytesTripInExpansion)
{
    governor::ScopedBudget scope(only(Dim::PreprocBytes, 16));
    const std::string src = "#version 450\n"
                            "#define QUAD(x) x x x x\n"
                            "out vec4 fragColor;\n"
                            "void main() { float q = 0.0 QUAD(+ 1.0)"
                            "; fragColor = vec4(q); }\n";
    expectExhausted(Dim::PreprocBytes, "preprocess", [&] {
        glsl::compileShader(src);
    });
}

TEST(GovernorDims, TokenCapTripsInLexer)
{
    governor::ScopedBudget scope(only(Dim::Tokens, 8));
    expectExhausted(Dim::Tokens, "lex", [&] {
        glsl::compileShader(kTinyShader);
    });
}

TEST(GovernorDims, ParseDepthCapTripsOnNestedExpressions)
{
    governor::ScopedBudget scope(only(Dim::ParseDepth, 8));
    const std::string src =
        "#version 450\nout vec4 fragColor;\nvoid main() { float x = " +
        std::string(24, '(') + "1.0" + std::string(24, ')') +
        "; fragColor = vec4(x); }\n";
    expectExhausted(Dim::ParseDepth, "parse", [&] {
        glsl::compileShader(src);
    });
}

TEST(GovernorDims, SemaDepthCapTripsOnDeepTrees)
{
    governor::ScopedBudget scope(only(Dim::SemaDepth, 8));
    // Parse depth stays unlimited here; the deep tree reaches sema.
    std::string expr = "1.0";
    for (int i = 0; i < 24; ++i)
        expr = "(" + expr + " + 1.0)";
    const std::string src =
        "#version 450\nout vec4 fragColor;\nvoid main() { float x = " +
        expr + "; fragColor = vec4(x); }\n";
    expectExhausted(Dim::SemaDepth, "sema", [&] {
        glsl::compileShader(src);
    });
}

TEST(GovernorDims, IrInstrCapTripsInLowering)
{
    governor::ScopedBudget scope(only(Dim::IrInstrs, 1));
    expectExhausted(Dim::IrInstrs, "ir",
                    [&] { emit::compileToIr(kTinyShader); });
}

TEST(GovernorDims, ArenaByteCapTripsOnAllocation)
{
    governor::ScopedBudget scope(only(Dim::ArenaBytes, 64));
    expectExhausted(Dim::ArenaBytes, "arena",
                    [&] { emit::compileToIr(kTinyShader); });
}

TEST(GovernorDims, PassStepCapTripsMidPipeline)
{
    auto module = emit::compileToIr(kTinyShader);
    governor::ScopedBudget scope(only(Dim::PassSteps, 1));
    expectExhausted(Dim::PassSteps, "passes", [&] {
        passes::optimize(*module, passes::FlagSet(0x3));
    });
}

TEST(GovernorDims, InterpStepCapTripsOnExecution)
{
    const std::string src =
        "#version 450\nout vec4 fragColor;\nvoid main() {\n"
        "    float acc = 0.0;\n"
        "    for (int i = 0; i < 200; i++) { acc += 0.5; }\n"
        "    fragColor = vec4(acc);\n"
        "}\n";
    auto module = emit::compileToIr(src);
    governor::ScopedBudget scope(only(Dim::InterpSteps, 64));
    ir::InterpEnv env;
    expectExhausted(Dim::InterpSteps, "interp",
                    [&] { ir::interpret(*module, env); });
}

TEST(GovernorDims, DeadlineTripsInsideARunawayLoop)
{
    // A generic loop whose work bound is astronomically large: only
    // the wall-clock deadline can stop it. The per-trip deadline check
    // in the shared loop guard must fire within milliseconds.
    const std::string src =
        "#version 450\nout vec4 fragColor;\nvoid main() {\n"
        "    float x = 0.0;\n"
        "    while (x < 100000.0) { x = x + 0.001; }\n"
        "    fragColor = vec4(x);\n"
        "}\n";
    auto module = emit::compileToIr(src);
    Caps caps;
    caps.deadlineMs = 20;
    governor::ScopedBudget scope(caps);
    ir::InterpEnv env;
    env.maxLoopIterations = 1'000'000'000L; // the trip cap is not it
    const uint64_t t0 = nowNs();
    try {
        ir::interpret(*module, env);
        FAIL() << "expected deadline exhaustion";
    } catch (const governor::ResourceExhausted &e) {
        EXPECT_STREQ(e.dimension(), "deadline");
        EXPECT_EQ(e.limit(), 20u);
    }
    EXPECT_LT(nowNs() - t0, 5'000'000'000ull) << "must die promptly";
}

// ------------------------------------- hostile inputs, ungoverned

/** The diagnostics of a source the front end must reject. */
std::string
rejectionOf(const std::string &src)
{
    try {
        glsl::compileShader(src);
    } catch (const CompileError &e) {
        std::string out;
        for (const Diagnostic &d : e.diagnostics())
            out += d.str() + "\n";
        return out;
    }
    ADD_FAILURE() << "accepted";
    return {};
}

TEST(HostileInputs, RecursiveMacroBombDiagnosesCleanly)
{
    governor::ScopedAmbientCaps ambient{Caps{}};
    const std::string src =
        "#version 450\n"
        "#define PING PONG PONG\n"
        "#define PONG PING PING\n"
        "out vec4 fragColor;\n"
        "void main() { float x = PING; fragColor = vec4(x); }\n";
    const std::string errors = rejectionOf(src);
    EXPECT_NE(errors.find("macro expansion"), std::string::npos)
        << errors;
}

TEST(HostileInputs, ExponentialMacroBombHitsTheByteCap)
{
    // Non-recursive doubling chain: E24 expands to 2^24 copies of a
    // token — gigabytes if left alone. The built-in output-byte cap
    // must reject it with a diagnostic, ungoverned, without eating
    // the memory first.
    governor::ScopedAmbientCaps ambient{Caps{}};
    std::string src = "#version 450\n#define E0 x\n";
    for (int i = 1; i <= 24; ++i) {
        src += "#define E" + std::to_string(i) + " E" +
               std::to_string(i - 1) + " E" + std::to_string(i - 1) +
               "\n";
    }
    src += "out vec4 fragColor;\n"
           "void main() { float E24; fragColor = vec4(0.0); }\n";
    const uint64_t t0 = nowNs();
    const std::string errors = rejectionOf(src);
    EXPECT_NE(errors.find("macro expansion exceeded"),
              std::string::npos)
        << errors;
    EXPECT_NE(errors.find("macro bomb"), std::string::npos);
    EXPECT_LT(nowNs() - t0, 30'000'000'000ull);
}

TEST(HostileInputs, ParenNestingBombDiagnosesCleanly)
{
    governor::ScopedAmbientCaps ambient{Caps{}};
    const std::string src =
        "#version 450\nout vec4 fragColor;\nvoid main() { float x = " +
        std::string(30000, '(') + "1.0" + std::string(30000, ')') +
        "; fragColor = vec4(x); }\n";
    const std::string errors = rejectionOf(src);
    EXPECT_NE(errors.find("nesting too deep"), std::string::npos)
        << errors;
}

TEST(HostileInputs, BlockNestingBombDiagnosesCleanly)
{
    governor::ScopedAmbientCaps ambient{Caps{}};
    std::string src = "#version 450\nout vec4 fragColor;\nvoid main() ";
    for (int i = 0; i < 20000; ++i)
        src += "{";
    src += "fragColor = vec4(1.0);";
    for (int i = 0; i < 20000; ++i)
        src += "}";
    src += "\n";
    const std::string errors = rejectionOf(src);
    EXPECT_NE(errors.find("nesting too deep"), std::string::npos)
        << errors;
}

// -------------------------------------------- stall-fault watchdog

TEST(Stall, ParsesAsAFaultMode)
{
    const fault::FaultPlan plan =
        fault::FaultPlan::parse("runtime.measure:1:1:stall");
    ASSERT_EQ(plan.sites.size(), 1u);
    EXPECT_EQ(plan.sites[0].mode, fault::Mode::Stall);
}

TEST(Stall, TripsTheMeasureDeadline)
{
    governor::ScopedAmbientCaps ambient([] {
        Caps c;
        c.deadlineMs = 100;
        return c;
    }());
    fault::ScopedFaultPlan plan("runtime.measure:1:1:stall");
    const gpu::DeviceModel &dev = gpu::deviceModel(gpu::DeviceId::Arm);
    const uint64_t t0 = nowNs();
    try {
        runtime::measureShader(kTinyShader, dev, "governor/stall");
        FAIL() << "expected the deadline watchdog to fire";
    } catch (const governor::ResourceExhausted &e) {
        EXPECT_STREQ(e.dimension(), "deadline");
        EXPECT_STREQ(e.stage(), "runtime.measure");
        EXPECT_EQ(e.limit(), 100u);
    }
    // The stall sleeps just past the deadline, not forever.
    EXPECT_LT(nowNs() - t0, 10'000'000'000ull);
}

TEST(Stall, UngovernedStallDegradesToABoundedDelay)
{
    // Without a deadline a stall is just a (bounded) slow call: the
    // measurement completes and its protocol output is untouched.
    governor::ScopedAmbientCaps ambient{Caps{}};
    const fault::ScopedFaultPlan noFaults = quiesce();
    const gpu::DeviceModel &dev = gpu::deviceModel(gpu::DeviceId::Arm);
    const auto clean =
        runtime::measureShader(kTinyShader, dev, "governor/unstalled");
    fault::ScopedFaultPlan plan("runtime.measure:1:1:stall");
    const auto stalled =
        runtime::measureShader(kTinyShader, dev, "governor/unstalled");
    EXPECT_EQ(clean.meanNs, stalled.meanNs);
    EXPECT_EQ(clean.frameTimesNs, stalled.frameTimesNs);
}

// --------------------------------- schema-16 quarantine round trip

tuner::ShaderResult
tinyResult()
{
    tuner::ShaderResult r;
    r.exploration.shaderName = "tiny/shader";
    r.exploration.family = "tiny";
    r.exploration.preprocessedOriginal = "void main() {}";
    r.exploration.originalSource = "void main(){}";
    r.exploration.exploredFlagCount = 8;
    tuner::Variant v0;
    v0.source = "void main() { /* v0 */ }";
    v0.sourceHash = fnv1a(v0.source);
    v0.producers = {tuner::FlagSet(0), tuner::FlagSet(1)};
    r.exploration.variants = {v0};
    r.exploration.variantOfCombo = {{0, 0}, {1, 0}};
    r.exploration.passthroughVariant = 0;
    tuner::DeviceMeasurement m;
    m.originalMeanNs = 100.0;
    m.variantMeanNs = {90.0};
    r.byDevice.emplace(gpu::DeviceId::Intel, m);
    return r;
}

template <typename T>
void
appendPod(std::string &s, const T &v)
{
    s.append(reinterpret_cast<const char *>(&v), sizeof(T));
}

void
appendString(std::string &s, const std::string &str)
{
    appendPod(s, static_cast<uint64_t>(str.size()));
    s += str;
}

/** saveShard's on-disk layout without the tmp-rename protocol, for
 * crafting bodies whose content hash is correct so only structural
 * validation can reject them. */
void
writeRawShard(const std::string &path, uint64_t key,
              const std::string &body)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    const uint64_t hash = fnv1a(body);
    f.write(reinterpret_cast<const char *>(&key), sizeof(key));
    f.write(reinterpret_cast<const char *>(&hash), sizeof(hash));
    f.write(body.data(), static_cast<std::streamsize>(body.size()));
}

TEST(ShardQuarantine, ReasonsRoundTripThroughSaveAndLoad)
{
    const fault::ScopedFaultPlan noFaults = quiesce();
    ScratchDir dir("qroundtrip");
    const std::string path = dir.path() + "/q.bin";

    tuner::ShaderResult r = tinyResult();
    r.quarantined = {gpu::DeviceId::Amd, gpu::DeviceId::Qualcomm};
    r.quarantineReason[gpu::DeviceId::Amd] =
        "resource exhausted: deadline cap 100 exceeded at "
        "runtime.measure (used 103)";
    // Qualcomm deliberately has no reason entry: reason-less
    // quarantine (older producers) must round-trip too.
    tuner::ExperimentEngine::saveShard(path, 16, r);

    tuner::ShaderResult out;
    ASSERT_TRUE(tuner::ExperimentEngine::loadShard(path, 16, out));
    EXPECT_EQ(tuner::serializeShardBody(out),
              tuner::serializeShardBody(r));
    EXPECT_EQ(out.quarantined, r.quarantined);
    ASSERT_EQ(out.quarantineReason.size(), 1u);
    EXPECT_NE(out.quarantineReason.at(gpu::DeviceId::Amd)
                  .find("deadline"),
              std::string::npos);

    // The quarantine-aware accessor names the reason.
    try {
        out.measurement(gpu::DeviceId::Amd);
        FAIL() << "expected out_of_range";
    } catch (const std::out_of_range &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("quarantined"), std::string::npos);
        EXPECT_NE(what.find("deadline"), std::string::npos);
    }
}

TEST(ShardQuarantine, StructurallyInvalidSectionsAreRejected)
{
    const fault::ScopedFaultPlan noFaults = quiesce();
    ScratchDir dir("qreject");
    const std::string path = dir.path() + "/bad.bin";
    tuner::ShaderResult out;

    // (a) A device that is both measured and quarantined.
    tuner::ShaderResult overlap = tinyResult();
    overlap.quarantined = {gpu::DeviceId::Intel}; // also in byDevice
    writeRawShard(path, 16, tuner::serializeShardBody(overlap));
    EXPECT_FALSE(tuner::ExperimentEngine::loadShard(path, 16, out));

    // (b) Duplicate device rows inside a hand-built 'Q' section.
    std::string dup = tuner::serializeShardBody(tinyResult());
    appendPod(dup, static_cast<char>('Q'));
    appendPod(dup, static_cast<uint64_t>(2));
    appendPod(dup, static_cast<int>(gpu::DeviceId::Amd));
    appendString(dup, "first");
    appendPod(dup, static_cast<int>(gpu::DeviceId::Amd));
    appendString(dup, "second");
    writeRawShard(path, 16, dup);
    EXPECT_FALSE(tuner::ExperimentEngine::loadShard(path, 16, out));

    // (c) Unknown section tag.
    std::string unknown = tuner::serializeShardBody(tinyResult());
    unknown += 'X';
    writeRawShard(path, 16, unknown);
    EXPECT_FALSE(tuner::ExperimentEngine::loadShard(path, 16, out));

    // (d) A 'P' section after a 'Q' section (order violation).
    tuner::ShaderResult qr = tinyResult();
    qr.quarantined = {gpu::DeviceId::Amd};
    std::string misordered = tuner::serializeShardBody(qr);
    appendPod(misordered, static_cast<char>('P'));
    appendPod(misordered, static_cast<uint64_t>(1));
    appendString(misordered, "gvn");
    appendPod(misordered, static_cast<int64_t>(0));
    writeRawShard(path, 16, misordered);
    EXPECT_FALSE(tuner::ExperimentEngine::loadShard(path, 16, out));

    // A pristine quarantine-annotated shard still loads.
    writeRawShard(path, 16, tuner::serializeShardBody(qr));
    EXPECT_TRUE(tuner::ExperimentEngine::loadShard(path, 16, out));
}

// ----------------------------------------- governed campaign runs

std::vector<corpus::CorpusShader>
pairCorpus()
{
    std::vector<corpus::CorpusShader> shaders;
    for (const char *name : {"simple/color_fill", "simple/grayscale"}) {
        const corpus::CorpusShader *s = corpus::findShader(name);
        EXPECT_NE(s, nullptr) << name;
        shaders.push_back(*s);
    }
    return shaders;
}

std::vector<std::string>
campaignBodies(const tuner::ExperimentEngine &engine)
{
    std::vector<std::string> bodies;
    for (const auto &r : engine.results())
        bodies.push_back(tuner::serializeShardBody(r));
    return bodies;
}

TEST(GovernedCampaign, GenerousBudgetsAreByteIdentical)
{
    const fault::ScopedFaultPlan noFaults = quiesce();
    const auto shaders = pairCorpus();

    std::vector<std::string> reference;
    {
        governor::ScopedAmbientCaps ungoverned{Caps{}};
        tuner::ExperimentEngine engine(shaders, /*threads=*/1);
        ASSERT_TRUE(engine.health().healthy());
        reference = campaignBodies(engine);
    }

    // Generous-but-finite budgets on every dimension plus a deadline:
    // every worker item runs governed, and the campaign bytes must not
    // move by a single bit.
    Caps caps;
    caps.deadlineMs = 60'000;
    for (int i = 0; i < governor::kDimCount; ++i)
        caps.dim[i] = 1ull << 40;
    caps[Dim::ParseDepth] = 1024;
    caps[Dim::SemaDepth] = 1024;
    governor::ScopedAmbientCaps ambient(caps);
    tuner::ExperimentEngine governed(shaders, /*threads=*/2);
    ASSERT_TRUE(governed.health().healthy())
        << governed.health().summary();
    EXPECT_EQ(campaignBodies(governed), reference);
}

TEST(GovernedCampaign, StalledItemsQuarantineAndResumeCleanly)
{
    const fault::ScopedFaultPlan noFaults = quiesce();
    const auto shaders = pairCorpus();
    const size_t n_dev = gpu::allDevices().size();
    ScratchDir dir("stall_campaign");

    std::vector<std::string> reference;
    {
        governor::ScopedAmbientCaps ungoverned{Caps{}};
        tuner::ExperimentEngine engine(shaders, /*threads=*/1);
        ASSERT_TRUE(engine.health().healthy());
        reference = campaignBodies(engine);
    }

    // Checkpoint the first shader's shard ahead of the storm.
    {
        governor::ScopedAmbientCaps ungoverned{Caps{}};
        std::vector<corpus::CorpusShader> first = {shaders[0]};
        tuner::ExperimentEngine engine(first, /*threads=*/1,
                                       dir.path());
        ASSERT_TRUE(engine.health().healthy());
    }

    // Every measurement stalls past the per-item deadline: the cached
    // shader loads untouched, every item of the other shader dies on
    // the watchdog and is quarantined with the structured reason — and
    // the campaign still completes instead of hanging.
    {
        governor::ScopedAmbientCaps ambient([] {
            Caps c;
            c.deadlineMs = 400;
            return c;
        }());
        fault::ScopedFaultPlan plan("runtime.measure:1:1:stall");
        tuner::ExperimentEngine engine(shaders, /*threads=*/1,
                                       dir.path());
        const tuner::CampaignHealth &health = engine.health();
        EXPECT_FALSE(health.healthy());
        ASSERT_EQ(health.quarantined.size(), n_dev);
        for (const auto &q : health.quarantined) {
            EXPECT_EQ(q.shader, "simple/grayscale");
            EXPECT_NE(q.error.find("deadline"), std::string::npos)
                << q.error;
            EXPECT_EQ(q.attempts, 1)
                << "exhaustion must not burn retries";
        }
        const auto &ok = engine.result("simple/color_fill");
        EXPECT_TRUE(ok.quarantined.empty());
        EXPECT_EQ(ok.byDevice.size(), n_dev);
        const auto &bad = engine.result("simple/grayscale");
        EXPECT_EQ(bad.quarantined.size(), n_dev);
        EXPECT_EQ(bad.quarantineReason.size(), n_dev);
        for (const auto &[dev, why] : bad.quarantineReason)
            EXPECT_NE(why.find("deadline"), std::string::npos) << why;
    }

    // Faults and budgets off: the campaign resumes from the surviving
    // shard and re-runs only the quarantined shader, reproducing the
    // clean bytes exactly.
    governor::ScopedAmbientCaps ungoverned{Caps{}};
    tuner::ExperimentEngine resumed(shaders, /*threads=*/1, dir.path());
    EXPECT_TRUE(resumed.health().healthy());
    EXPECT_EQ(resumed.health().itemsCompleted, n_dev)
        << "only the quarantined shader re-runs";
    EXPECT_EQ(campaignBodies(resumed), reference);
}

} // namespace
} // namespace gsopt
