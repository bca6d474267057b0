/**
 * @file
 * Fault-tolerance torture harness: the deterministic fault-injection
 * registry (support/fault), bounded retry (support/retry), and the
 * campaign runtime's resilience contract — under injected driver,
 * measurement, worker, and shard-IO faults a campaign must produce
 * shard bytes *byte-identical* to a fault-free run (transients are
 * retried away; torn checkpoints are never published; unrecoverable
 * items are quarantined, never silently wrong), and a campaign killed
 * mid-run must resume from its completed shards instead of re-running
 * them. GSOPT_TORTURE_ITERS widens the randomized-plan sweep (nightly
 * CI runs a deep pass alongside the fuzz job).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "gpu/driver.h"
#include "runtime/framework.h"
#include "support/diag.h"
#include "support/fault.h"
#include "support/ipc.h"
#include "support/retry.h"
#include "support/rng.h"
#include "test_scratch.h"
#include "tuner/experiment.h"
#include "tuner/explore.h"

namespace gsopt {
namespace {

namespace fs = std::filesystem;

// --------------------------------------------------------- helpers

using testutil::ScopedEnv;
using testutil::ScratchDir;

/** Masks any ambient GSOPT_FAULTS plan (the CI fault job installs
 * one process-wide) for tests that assert fault-free behaviour; the
 * ambient plan is restored on scope exit. */
fault::ScopedFaultPlan
quiesce()
{
    return fault::ScopedFaultPlan(fault::FaultPlan{});
}

std::vector<corpus::CorpusShader>
miniCorpus()
{
    std::vector<corpus::CorpusShader> shaders;
    for (const char *name :
         {"simple/color_fill", "simple/grayscale", "blur/weighted9",
          "tonemap/aces"}) {
        const corpus::CorpusShader *s = corpus::findShader(name);
        EXPECT_NE(s, nullptr) << name;
        shaders.push_back(*s);
    }
    return shaders;
}

/** Per-shader serialized bodies of a campaign over @p shaders. */
std::vector<std::string>
campaignBodies(const tuner::ExperimentEngine &engine)
{
    std::vector<std::string> bodies;
    for (const auto &r : engine.results())
        bodies.push_back(tuner::serializeShardBody(r));
    return bodies;
}

/** The fault-free reference campaign (computed once, shared). */
const std::vector<std::string> &
referenceBodies()
{
    static const std::vector<std::string> bodies = [] {
        const fault::ScopedFaultPlan noAmbientFaults = quiesce();
        tuner::ExperimentEngine engine(miniCorpus(), /*threads=*/1);
        EXPECT_TRUE(engine.health().healthy());
        return campaignBodies(engine);
    }();
    return bodies;
}

int
tortureIters()
{
    if (const char *env = std::getenv("GSOPT_TORTURE_ITERS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return static_cast<int>(n);
    }
    return 3;
}

// -------------------------------------------- fault registry units

TEST(FaultPlan, ParsesSitesRatesSeedsAndModes)
{
    const fault::FaultPlan plan = fault::FaultPlan::parse(
        "driver.compile:0.25:7,shard.write:1:9,"
        "runtime.measure:0.5:3:delay");
    ASSERT_EQ(plan.sites.size(), 3u);
    EXPECT_EQ(plan.sites[0].site, "driver.compile");
    EXPECT_DOUBLE_EQ(plan.sites[0].rate, 0.25);
    EXPECT_EQ(plan.sites[0].seed, 7u);
    EXPECT_EQ(plan.sites[0].mode, fault::Mode::Throw);
    // shard.write defaults to tearing, the natural write failure.
    EXPECT_EQ(plan.sites[1].mode, fault::Mode::Tear);
    EXPECT_EQ(plan.sites[2].mode, fault::Mode::Delay);
}

TEST(FaultPlan, RejectsGarbage)
{
    EXPECT_THROW(fault::FaultPlan::parse("nonsense.site:0.5:1"),
                 std::invalid_argument);
    EXPECT_THROW(fault::FaultPlan::parse("driver.compile:2:1"),
                 std::invalid_argument);
    EXPECT_THROW(fault::FaultPlan::parse("driver.compile:0.5"),
                 std::invalid_argument);
    EXPECT_THROW(fault::FaultPlan::parse("driver.compile:0.5:1:wat"),
                 std::invalid_argument);
}

TEST(FaultRegistry, InactiveWithoutPlanAndScopedRestore)
{
    const fault::ScopedFaultPlan noAmbientFaults = quiesce();
    EXPECT_FALSE(fault::active());
    EXPECT_NO_THROW(fault::point("driver.compile"));
    EXPECT_EQ(fault::tearPoint("shard.write", 100), 100u);
    EXPECT_FALSE(fault::triggered("shard.read"));
    {
        fault::ScopedFaultPlan outer("driver.compile:1:1");
        EXPECT_TRUE(fault::active());
        EXPECT_THROW(fault::point("driver.compile"),
                     fault::TransientError);
        // Unarmed sites stay quiet even while a plan is active.
        EXPECT_NO_THROW(fault::point("runtime.measure"));
        {
            fault::ScopedFaultPlan inner("runtime.measure:1:1");
            EXPECT_THROW(fault::point("runtime.measure"),
                         fault::TransientError);
            // The inner plan replaced the outer wholesale.
            EXPECT_NO_THROW(fault::point("driver.compile"));
        }
        EXPECT_THROW(fault::point("driver.compile"),
                     fault::TransientError);
    }
    EXPECT_FALSE(fault::active());
}

TEST(FaultRegistry, DrawsAreDeterministicPerSeed)
{
    auto pattern = [](uint64_t seed) {
        fault::FaultPlan plan;
        fault::SiteConfig cfg;
        cfg.site = "shard.read";
        cfg.rate = 0.5;
        cfg.seed = seed;
        plan.sites.push_back(cfg);
        fault::ScopedFaultPlan scoped(plan);
        std::string bits;
        for (int i = 0; i < 64; ++i)
            bits += fault::triggered("shard.read") ? '1' : '0';
        return bits;
    };
    const std::string a = pattern(42), b = pattern(42),
                      c = pattern(43);
    EXPECT_EQ(a, b);              // same seed, same injections
    EXPECT_NE(a, c);              // different seed, different stream
    EXPECT_NE(a.find('1'), std::string::npos); // rate 0.5 does fire
    EXPECT_NE(a.find('0'), std::string::npos); // ... and does miss
}

TEST(FaultRegistry, TearPointReturnsStrictPrefixAndCounts)
{
    fault::ScopedFaultPlan plan("shard.write:1:5");
    for (int i = 0; i < 16; ++i) {
        const size_t n = fault::tearPoint("shard.write", 1000);
        EXPECT_LT(n, 1000u);
    }
    const fault::SiteStats stats = fault::siteStats("shard.write");
    EXPECT_EQ(stats.evaluations, 16u);
    EXPECT_EQ(stats.injected, 16u);
    EXPECT_EQ(fault::siteStats("driver.compile").evaluations, 0u);
}

// ------------------------------------------------------ retry units

TEST(Retry, SucceedsAfterTransientFailures)
{
    RetryPolicy policy;
    policy.maxAttempts = 4;
    policy.baseDelayUs = 1; // keep the test fast
    int calls = 0, attempts = 0;
    const int result = retryTransient(
        policy, "test/flaky",
        [&] {
            if (++calls < 3)
                throw fault::TransientError("flaky");
            return 99;
        },
        &attempts);
    EXPECT_EQ(result, 99);
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(attempts, 3);
}

TEST(Retry, ExhaustsAndRethrowsTransient)
{
    RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.baseDelayUs = 1;
    int calls = 0, attempts = 0;
    EXPECT_THROW(retryTransient(
                     policy, "test/always",
                     [&]() -> int {
                         ++calls;
                         throw fault::TransientError("always");
                     },
                     &attempts),
                 fault::TransientError);
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(attempts, 3);
}

TEST(Retry, NonTransientPropagatesImmediately)
{
    RetryPolicy policy;
    policy.maxAttempts = 5;
    policy.baseDelayUs = 1;
    int calls = 0;
    EXPECT_THROW(retryTransient(policy, "test/real",
                                [&]() -> int {
                                    ++calls;
                                    throw std::logic_error("real bug");
                                }),
                 std::logic_error);
    EXPECT_EQ(calls, 1);
}

TEST(Retry, MeasurementsAbsorbFaultsBitIdentically)
{
    const fault::ScopedFaultPlan noAmbientFaults = quiesce();
    const gpu::DeviceModel &dev =
        gpu::deviceModel(gpu::DeviceId::Nvidia);
    const std::string src = "#version 450\n"
                            "out vec4 frag;\n"
                            "void main() { frag = vec4(0.25); }\n";
    const auto clean = runtime::measureShader(src, dev, "fault/unit");
    {
        // Heavy transient rates on both the driver and the harness:
        // the internal bounded retries must absorb them and reproduce
        // the exact same timing protocol output.
        fault::ScopedFaultPlan plan(
            "driver.compile:0.5:11,runtime.measure:0.5:13");
        gpu::clearDriverCache(); // force real compiles under faults
        const auto faulted =
            runtime::measureShader(src, dev, "fault/unit");
        EXPECT_EQ(clean.meanNs, faulted.meanNs);
        EXPECT_EQ(clean.frameTimesNs, faulted.frameTimesNs);
        EXPECT_GT(fault::siteStats("runtime.measure").evaluations, 0u);
    }
}

// ------------------------------------------- shard IO crash safety

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
    v0.producers = {tuner::FlagSet(0), tuner::FlagSet(2)};
    tuner::Variant v1;
    v1.source = "void main() { /* v1 */ }";
    v1.sourceHash = fnv1a(v1.source);
    v1.producers = {tuner::FlagSet(1)};
    r.exploration.variants = {v0, v1};
    r.exploration.variantOfCombo = {{0, 0}, {1, 1}, {2, 0}};
    r.exploration.passthroughVariant = 0;
    tuner::DeviceMeasurement m;
    m.originalMeanNs = 100.0;
    m.variantMeanNs = {90.0, 110.0};
    r.byDevice.emplace(gpu::DeviceId::Intel, m);
    m.originalMeanNs = 200.0;
    m.variantMeanNs = {150.0, 210.0};
    r.byDevice.emplace(gpu::DeviceId::Arm, m);
    return r;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    return data;
}

TEST(ShardIO, RoundTripsAndPublishesAtomically)
{
    const fault::ScopedFaultPlan noAmbientFaults = quiesce();
    ScratchDir dir("roundtrip");
    const std::string path = dir.path() + "/tiny.bin";
    const tuner::ShaderResult r = tinyResult();
    tuner::ExperimentEngine::saveShard(path, 0xabcdefull, r);
    EXPECT_TRUE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp")); // published, not parked

    tuner::ShaderResult out;
    ASSERT_TRUE(
        tuner::ExperimentEngine::loadShard(path, 0xabcdefull, out));
    EXPECT_EQ(tuner::serializeShardBody(out),
              tuner::serializeShardBody(r));

    // A different key is someone else's shard: reject, don't parse.
    EXPECT_FALSE(
        tuner::ExperimentEngine::loadShard(path, 0x1234ull, out));
}

TEST(ShardIO, TornWriteNeverClobbersThePublishedShard)
{
    const fault::ScopedFaultPlan noAmbientFaults = quiesce();
    ScratchDir dir("torn");
    const std::string path = dir.path() + "/tiny.bin";
    const tuner::ShaderResult r = tinyResult();
    tuner::ExperimentEngine::saveShard(path, 1, r);
    const std::string before = readFile(path);
    ASSERT_FALSE(before.empty());

    // Every subsequent checkpoint attempt tears mid-body: the .tmp is
    // abandoned, the published bytes must not change.
    tuner::ShaderResult r2 = tinyResult();
    r2.byDevice.begin()->second.originalMeanNs = 12345.0;
    {
        fault::ScopedFaultPlan plan("shard.write:1:3");
        tuner::ExperimentEngine::saveShard(path, 1, r2);
    }
    EXPECT_EQ(readFile(path), before);
    EXPECT_TRUE(fs::exists(path + ".tmp")); // simulated mid-write crash

    // The torn .tmp must itself never load as a shard.
    tuner::ShaderResult out;
    EXPECT_FALSE(
        tuner::ExperimentEngine::loadShard(path + ".tmp", 1, out));
}

TEST(ShardIO, InjectedReadFaultIsACacheMiss)
{
    const fault::ScopedFaultPlan noAmbientFaults = quiesce();
    ScratchDir dir("readfault");
    const std::string path = dir.path() + "/tiny.bin";
    tuner::ExperimentEngine::saveShard(path, 1, tinyResult());
    fault::ScopedFaultPlan plan("shard.read:1:3");
    tuner::ShaderResult out;
    EXPECT_FALSE(tuner::ExperimentEngine::loadShard(path, 1, out));
}

/** The corruption matrix: every mutant of shard file @p good (key
 * @p key) must fail both loadShard (from a file in @p dir) and
 * parseShard, while @p good itself still loads. */
void
expectEveryMutantRejected(const std::string &good, uint64_t key,
                          const std::string &dir)
{
    const std::string path = dir + "/good.bin";
    const std::string mutant = dir + "/mutant.bin";
    ASSERT_GT(good.size(), 16u);
    std::ofstream(path, std::ios::binary) << good;

    auto write_mutant = [&](const std::string &bytes) {
        std::ofstream f(mutant,
                        std::ios::binary | std::ios::trunc);
        f.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size()));
    };
    tuner::ShaderResult out;

    // Truncation at every byte boundary — header fields, string
    // lengths, counts, device blocks, everything.
    for (size_t len = 0; len < good.size(); ++len) {
        write_mutant(good.substr(0, len));
        EXPECT_FALSE(
            tuner::ExperimentEngine::loadShard(mutant, key, out))
            << "truncated at " << len;
        EXPECT_FALSE(tuner::parseShard(good.substr(0, len), key, out))
            << "truncated at " << len;
    }

    // Every single-byte flip must be caught (key, content hash, or
    // body-hash mismatch — fnv1a detects any one-byte change). Flips
    // inside the key bytes legitimately warn as stale shards; swallow
    // the noise.
    testing::internal::CaptureStderr();
    for (size_t pos = 0; pos < good.size(); ++pos) {
        std::string bad = good;
        bad[pos] = static_cast<char>(bad[pos] ^ 0xff);
        write_mutant(bad);
        EXPECT_FALSE(
            tuner::ExperimentEngine::loadShard(mutant, key, out))
            << "flipped byte " << pos;
        EXPECT_FALSE(tuner::parseShard(bad, key, out))
            << "flipped byte " << pos;
    }
    testing::internal::GetCapturedStderr();

    // Random garbage of assorted sizes.
    Rng rng(2026);
    for (int i = 0; i < 64; ++i) {
        std::string junk(rng.below(512), '\0');
        for (char &c : junk)
            c = static_cast<char>(rng.below(256));
        write_mutant(junk);
        EXPECT_FALSE(
            tuner::ExperimentEngine::loadShard(mutant, key, out))
            << "garbage iter " << i;
        EXPECT_FALSE(tuner::parseShard(junk, key, out))
            << "garbage iter " << i;
    }

    // The unmodified file still loads (the matrix isn't vacuous).
    EXPECT_TRUE(tuner::ExperimentEngine::loadShard(path, key, out));
    EXPECT_TRUE(tuner::parseShard(good, key, out));
}

TEST(ShardIO, CorruptionMatrixAlwaysLoadsFalse)
{
    const fault::ScopedFaultPlan noAmbientFaults = quiesce();
    ScratchDir dir("corrupt");
    expectEveryMutantRejected(tuner::shardFileBytes(77, tinyResult()), 77,
                              dir.path());
}

/** A unit whose exploration failed still delivers a shard: zero
 * variants, zero combos, no measurements, every item in 'Q'. It
 * round-trips, survives the corruption matrix, and nothing looser
 * parses. */
TEST(ShardIO, FailedExplorationShardRoundTrips)
{
    const fault::ScopedFaultPlan noAmbientFaults = quiesce();
    corpus::CorpusShader broken;
    broken.name = "broken/unparseable";
    broken.family = "broken";
    broken.source = "this is not GLSL at all {";
    tuner::ShaderResult r;
    const tuner::CampaignHealth health = tuner::runShaderUnit(broken, r);
    ASSERT_EQ(health.quarantined.size(), gpu::allDevices().size());
    ASSERT_TRUE(r.exploration.variants.empty());
    ASSERT_EQ(r.exploration.passthroughVariant, 0);

    const std::string good = tuner::shardFileBytes(99, r);
    tuner::ShaderResult out;
    ASSERT_TRUE(tuner::parseShard(good, 99, out));
    EXPECT_EQ(tuner::serializeShardBody(out),
              tuner::serializeShardBody(r));
    EXPECT_EQ(out.quarantined, r.quarantined);
    EXPECT_EQ(out.quarantineReason, r.quarantineReason);

    ScratchDir dir("failed_exploration");
    expectEveryMutantRejected(good, 99, dir.path());

    // Re-hashed bodies: without 'Q', with a measurement, or with a
    // passthrough past the (empty) variant table, the shape is corrupt.
    tuner::ShaderResult noQ = r;
    noQ.quarantined.clear();
    noQ.quarantineReason.clear();
    EXPECT_FALSE(tuner::parseShard(tuner::shardFileBytes(99, noQ), 99, out));
    tuner::ShaderResult measured = r;
    const gpu::DeviceId dev = *measured.quarantined.begin();
    measured.quarantined.erase(dev);
    measured.byDevice[dev].originalMeanNs = 1.0;
    EXPECT_FALSE(
        tuner::parseShard(tuner::shardFileBytes(99, measured), 99, out));
    tuner::ShaderResult pastEnd = r;
    pastEnd.exploration.passthroughVariant = 1;
    EXPECT_FALSE(
        tuner::parseShard(tuner::shardFileBytes(99, pastEnd), 99, out));
}

/** Every device id a shard names must be a configured device, named at
 * most once across its measurements and its 'Q' section. These bodies
 * carry a correct hash, so only that validation can reject them. */
TEST(ShardIO, UnknownOrDuplicateDeviceIdsRejected)
{
    const fault::ScopedFaultPlan noAmbientFaults = quiesce();
    const gpu::DeviceId unknown = static_cast<gpu::DeviceId>(42);
    const tuner::ShaderResult good = tinyResult();
    tuner::ShaderResult out;
    ASSERT_TRUE(tuner::parseShard(tuner::shardFileBytes(5, good), 5, out));

    tuner::ShaderResult measured = good;
    measured.byDevice.emplace(unknown,
                              good.byDevice.at(gpu::DeviceId::Arm));
    EXPECT_FALSE(
        tuner::parseShard(tuner::shardFileBytes(5, measured), 5, out));

    tuner::ShaderResult quarantined = good;
    quarantined.quarantined.insert(unknown);
    quarantined.quarantineReason[unknown] = "no such device";
    EXPECT_FALSE(
        tuner::parseShard(tuner::shardFileBytes(5, quarantined), 5, out));

    // A map cannot hold a device twice, so relabel one entry in the
    // bytes: the bodies with Arm and with the unknown id differ only in
    // that entry's id, which becomes Intel's, the other entry's.
    tuner::ShaderResult relabelled = good;
    relabelled.byDevice.erase(gpu::DeviceId::Arm);
    relabelled.byDevice.emplace(unknown,
                                good.byDevice.at(gpu::DeviceId::Arm));
    const std::string body = tuner::serializeShardBody(good);
    const std::string other = tuner::serializeShardBody(relabelled);
    ASSERT_EQ(body.size(), other.size());
    std::string duplicate = body;
    size_t patched = 0;
    for (size_t i = 0; i < body.size(); ++i) {
        if (body[i] != other[i]) {
            duplicate[i] = static_cast<char>(gpu::DeviceId::Intel);
            ++patched;
        }
    }
    ASSERT_EQ(patched, 1u);
    EXPECT_FALSE(tuner::parseShard(
        ipc::Pack().u64(5).u64(fnv1a(duplicate)).take() + duplicate, 5,
        out));
}

/** tinyResult() plus the schema-15 plan section: one producer-less
 * plan-only variant, referenced by an ordered-plan annotation. */
tuner::ShaderResult
planAnnotatedResult()
{
    tuner::ShaderResult r = tinyResult();
    tuner::Variant v2;
    v2.source = "void main() { /* plan-only text */ }";
    v2.sourceHash = fnv1a(v2.source);
    // No producers on purpose: no flag combination reaches this text,
    // only the plan annotation below keeps it structurally valid.
    r.exploration.variants.push_back(v2);
    for (auto &[dev, m] : r.byDevice)
        m.variantMeanNs.push_back(95.0 + m.originalMeanNs / 100.0);
    r.exploration.variantOfPlan = {{"adce>gvn", 2}, {"gvn>unroll", 0}};
    return r;
}

/** Write a shard file by hand: key, body hash, body — the saveShard
 * layout without the tmp-rename protocol, for crafting bodies whose
 * hash is *correct* so only structural validation can reject them. */
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

TEST(ShardIO, StaleKeyMissesCleanlyAndSaysSo)
{
    // The shard key folds in the schema version, registry signature,
    // device set, and shader source — so a shard from any older schema
    // arrives here as a key mismatch. The contract: a clean cache miss
    // with a warning on the support/diag channel, never a crash and
    // never a silent wrong-key hit.
    const fault::ScopedFaultPlan noAmbientFaults = quiesce();
    ScratchDir dir("stalekey");
    const std::string path = dir.path() + "/tiny.bin";
    tuner::ExperimentEngine::saveShard(path, 14, tinyResult());

    tuner::ShaderResult out;
    out.exploration.shaderName = "sentinel/untouched";
    testing::internal::CaptureStderr();
    EXPECT_FALSE(tuner::ExperimentEngine::loadShard(path, 15, out));
    const std::string warning = testing::internal::GetCapturedStderr();
    EXPECT_NE(warning.find("key mismatch"), std::string::npos)
        << warning;
    EXPECT_NE(warning.find("cache miss"), std::string::npos)
        << warning;
    // The miss must not leak a partial parse into the output.
    EXPECT_EQ(out.exploration.shaderName, "sentinel/untouched");

    // The matching key still loads, and quietly.
    testing::internal::CaptureStderr();
    EXPECT_TRUE(tuner::ExperimentEngine::loadShard(path, 14, out));
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(ShardIO, StaleKeyWarningGoesToTheWarningSink)
{
    // Shard warnings travel the support/diag warning channel: with a
    // sink installed they reach it, and nothing reaches stderr.
    const fault::ScopedFaultPlan noAmbientFaults = quiesce();
    ScratchDir dir("stalesink");
    const std::string path = dir.path() + "/tiny.bin";
    tuner::ExperimentEngine::saveShard(path, 14, tinyResult());

    std::vector<Diagnostic> caught;
    setWarningSink([&](const Diagnostic &d) { caught.push_back(d); });
    tuner::ShaderResult out;
    testing::internal::CaptureStderr();
    const bool loaded = tuner::ExperimentEngine::loadShard(path, 15, out);
    const std::string stderr_text = testing::internal::GetCapturedStderr();
    setWarningSink(nullptr);

    EXPECT_FALSE(loaded);
    EXPECT_EQ(stderr_text, "");
    ASSERT_EQ(caught.size(), 1u);
    EXPECT_EQ(caught[0].severity, Severity::Warning);
    EXPECT_NE(caught[0].message.find("key mismatch"), std::string::npos)
        << caught[0].message;
}

TEST(ShardIO, PlanAnnotatedShardRoundTripsAndSurvivesTheMatrix)
{
    const fault::ScopedFaultPlan noAmbientFaults = quiesce();
    ScratchDir dir("plancorrupt");
    const std::string path = dir.path() + "/plan.bin";
    const std::string mutant = dir.path() + "/mutant.bin";
    const tuner::ShaderResult r = planAnnotatedResult();
    tuner::ExperimentEngine::saveShard(path, 88, r);

    // Round trip: the plan section and the producer-less variant it
    // references come back byte-identical.
    tuner::ShaderResult out;
    ASSERT_TRUE(tuner::ExperimentEngine::loadShard(path, 88, out));
    EXPECT_EQ(tuner::serializeShardBody(out),
              tuner::serializeShardBody(r));
    ASSERT_EQ(out.exploration.variantOfPlan.size(), 2u);
    EXPECT_EQ(out.exploration.variantOfPlan.at("adce>gvn"), 2);
    EXPECT_TRUE(out.exploration.variants[2].producers.empty());

    // The plan section widens the byte surface; the corruption matrix
    // must hold over all of it. Truncation everywhere...
    const std::string good = readFile(path);
    ASSERT_GT(good.size(), 16u);
    auto write_mutant = [&](const std::string &bytes) {
        std::ofstream f(mutant, std::ios::binary | std::ios::trunc);
        f.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size()));
    };
    for (size_t len = 0; len < good.size(); ++len) {
        write_mutant(good.substr(0, len));
        EXPECT_FALSE(
            tuner::ExperimentEngine::loadShard(mutant, 88, out))
            << "truncated at " << len;
        EXPECT_FALSE(tuner::parseShard(good.substr(0, len), 88, out))
            << "truncated at " << len;
    }
    // ...and every single-byte flip (key-byte flips warn as stale
    // shards; swallow the noise).
    testing::internal::CaptureStderr();
    for (size_t pos = 0; pos < good.size(); ++pos) {
        std::string bad = good;
        bad[pos] = static_cast<char>(bad[pos] ^ 0xff);
        write_mutant(bad);
        EXPECT_FALSE(
            tuner::ExperimentEngine::loadShard(mutant, 88, out))
            << "flipped byte " << pos;
        EXPECT_FALSE(tuner::parseShard(bad, 88, out))
            << "flipped byte " << pos;
    }
    testing::internal::GetCapturedStderr();

    // Structural corruption the content hash cannot catch — bodies
    // re-hashed after tampering, so only the loader's validation
    // stands between them and a poisoned cache.
    // (a) A producer-less variant with the plan section stripped:
    // nothing references the orphan text.
    tuner::ShaderResult orphan = planAnnotatedResult();
    orphan.exploration.variantOfPlan.clear();
    writeRawShard(mutant, 88, tuner::serializeShardBody(orphan));
    EXPECT_FALSE(tuner::ExperimentEngine::loadShard(mutant, 88, out));
    EXPECT_FALSE(tuner::parseShard(readFile(mutant), 88, out));
    // (b) A plan annotation pointing past the variant table.
    tuner::ShaderResult dangling = planAnnotatedResult();
    dangling.exploration.variantOfPlan["unroll>hoist"] = 99;
    writeRawShard(mutant, 88, tuner::serializeShardBody(dangling));
    EXPECT_FALSE(tuner::ExperimentEngine::loadShard(mutant, 88, out));
    EXPECT_FALSE(tuner::parseShard(readFile(mutant), 88, out));
    // (c) Trailing garbage after a well-formed plan section.
    writeRawShard(mutant, 88,
                  tuner::serializeShardBody(r) + std::string(7, 'x'));
    EXPECT_FALSE(tuner::ExperimentEngine::loadShard(mutant, 88, out));
    EXPECT_FALSE(tuner::parseShard(readFile(mutant), 88, out));

    // The pristine shard still loads after all of that.
    EXPECT_TRUE(tuner::ExperimentEngine::loadShard(path, 88, out));
    EXPECT_TRUE(tuner::parseShard(good, 88, out));
}

// -------------------------------------------- campaign resilience

TEST(Campaign, QuarantinesUnrecoverableItemsAndCompletes)
{
    const fault::ScopedFaultPlan noAmbientFaults = quiesce();
    std::vector<corpus::CorpusShader> shaders;
    shaders.push_back(*corpus::findShader("simple/color_fill"));
    corpus::CorpusShader broken;
    broken.name = "broken/unparseable";
    broken.family = "broken";
    broken.source = "this is not GLSL at all {";
    shaders.push_back(broken);

    // A non-transient failure (real compile error) is quarantined
    // immediately — no retries wasted — and the rest of the campaign
    // completes untouched.
    tuner::ExperimentEngine engine(shaders, /*threads=*/2);
    const tuner::CampaignHealth &health = engine.health();
    EXPECT_FALSE(health.healthy());
    const size_t n_dev = gpu::allDevices().size();
    EXPECT_EQ(health.quarantined.size(), n_dev);
    for (const auto &q : health.quarantined) {
        EXPECT_EQ(q.shader, "broken/unparseable");
        EXPECT_EQ(q.attempts, 1);
    }
    EXPECT_FALSE(health.summary().empty());

    // The healthy shader is fully usable...
    const auto &ok = engine.result("simple/color_fill");
    EXPECT_TRUE(ok.quarantined.empty());
    EXPECT_EQ(ok.byDevice.size(), n_dev);
    // ... and the quarantined one is addressable, flagged, and throws
    // a quarantine-aware error instead of returning garbage.
    const auto &bad = engine.result("broken/unparseable");
    EXPECT_EQ(bad.quarantined.size(), n_dev);
    try {
        bad.bestSpeedup(gpu::DeviceId::Intel);
        FAIL() << "expected out_of_range";
    } catch (const std::out_of_range &e) {
        EXPECT_NE(std::string(e.what()).find("quarantined"),
                  std::string::npos);
    }
}

TEST(Campaign, WorkerFaultsQuarantineEveryItem)
{
    std::vector<corpus::CorpusShader> shaders;
    shaders.push_back(*corpus::findShader("simple/color_fill"));
    fault::ScopedFaultPlan plan("worker.item:1:1");
    tuner::ExperimentEngine engine(shaders, /*threads=*/1);
    const size_t n_dev = gpu::allDevices().size();
    EXPECT_EQ(engine.health().quarantined.size(), n_dev);
    EXPECT_EQ(engine.health().itemsCompleted, 0u);
    // Transient faults were retried before giving up.
    for (const auto &q : engine.health().quarantined)
        EXPECT_EQ(q.attempts, defaultRetryPolicy().maxAttempts);
}

TEST(Campaign, StrictModeRestoresFailFast)
{
    std::vector<corpus::CorpusShader> shaders;
    shaders.push_back(*corpus::findShader("simple/color_fill"));
    ScopedEnv strict("GSOPT_STRICT", "1");
    fault::ScopedFaultPlan plan("worker.item:1:1");
    EXPECT_THROW(tuner::ExperimentEngine(shaders, /*threads=*/1),
                 fault::TransientError);
}

TEST(Campaign, ParallelCampaignRunsEachDriverFrontEndOnce)
{
    // The shader is the campaign's parallel unit: one thread compiles
    // all of a shader's texts, so a parallel campaign never parses one
    // text on two threads at once. It does exactly the serial run's
    // driver front-end work: one run per distinct text.
    const fault::ScopedFaultPlan noAmbientFaults = quiesce();
    const auto shaders = miniCorpus();
    auto front_end_runs = [&](unsigned threads, size_t &texts) {
        gpu::clearDriverCache();
        tuner::ExperimentEngine engine(shaders, threads);
        EXPECT_TRUE(engine.health().healthy());
        const uint64_t runs = gpu::driverCacheStats().frontEndRuns;
        std::set<std::string> distinct;
        texts = 0;
        for (const auto &r : engine.results()) {
            distinct.insert(r.exploration.preprocessedOriginal);
            for (const auto &v : r.exploration.variants)
                distinct.insert(v.source);
            texts += 1 + r.exploration.variants.size();
        }
        // No text is shared across these shaders, so the distinct
        // texts are the originals plus the distinct variants.
        EXPECT_EQ(distinct.size(), texts);
        return runs;
    };
    size_t serial_texts = 0;
    size_t parallel_texts = 0;
    const uint64_t serial = front_end_runs(1, serial_texts);
    const uint64_t parallel = front_end_runs(4, parallel_texts);
    EXPECT_EQ(serial, serial_texts);
    EXPECT_EQ(parallel, serial);
    EXPECT_EQ(parallel_texts, serial_texts);
    gpu::clearDriverCache();
}

// ------------------------------------------------- torture harness

TEST(Torture, FaultedCampaignBytesMatchFaultFreeRun)
{
    const fault::ScopedFaultPlan noAmbientFaults = quiesce();
    const auto shaders = miniCorpus();
    const auto &reference = referenceBodies();
    const int iters = tortureIters();

    for (int iter = 0; iter < iters; ++iter) {
        // Randomized-but-deterministic plan: rates drawn per
        // iteration, every site armed. Rates are kept under the
        // retry budget so transients never exhaust into quarantine
        // (quarantine has its own tests above); the assertion here is
        // the hard one — byte identity.
        Rng rng(0x70a7u + static_cast<uint64_t>(iter));
        auto rate = [&](double cap) {
            return rng.uniform() * cap;
        };
        char spec[256];
        std::snprintf(
            spec, sizeof(spec),
            "driver.compile:%.3f:%d,runtime.measure:%.3f:%d,"
            "worker.item:%.3f:%d,shard.write:%.3f:%d,"
            "shard.read:%.3f:%d",
            rate(0.25), 100 + iter, rate(0.25), 200 + iter,
            rate(0.08), 300 + iter, rate(0.9), 400 + iter,
            rate(0.9), 500 + iter);
        SCOPED_TRACE(std::string("plan: ") + spec);

        ScratchDir dir("torture_" + std::to_string(iter));
        {
            fault::ScopedFaultPlan plan(spec);
            gpu::clearDriverCache(); // compiles really run -> fault
            tuner::ExperimentEngine faulted(shaders, /*threads=*/1,
                                            dir.path());
            ASSERT_TRUE(faulted.health().healthy())
                << faulted.health().summary();
            const auto bodies = campaignBodies(faulted);
            ASSERT_EQ(bodies.size(), reference.size());
            for (size_t i = 0; i < bodies.size(); ++i)
                EXPECT_EQ(bodies[i], reference[i]) << shaders[i].name;
        }
        // Faults off: resume over whatever shards survived the torn
        // writes. Partial checkpoints must either be whole or absent,
        // never wrong — the resumed campaign reproduces the exact
        // fault-free bytes.
        tuner::ExperimentEngine resumed(shaders, /*threads=*/1,
                                        dir.path());
        EXPECT_TRUE(resumed.health().healthy());
        const auto bodies = campaignBodies(resumed);
        for (size_t i = 0; i < bodies.size(); ++i)
            EXPECT_EQ(bodies[i], reference[i]) << shaders[i].name;
    }
}

TEST(Torture, KilledCampaignResumesFromCompletedShards)
{
    const fault::ScopedFaultPlan noAmbientFaults = quiesce();
    const auto shaders = miniCorpus();
    const auto &reference = referenceBodies();
    const size_t n_dev = gpu::allDevices().size();
    ScratchDir dir("kill_resume");

    // "Kill" the campaign partway: strict mode turns the first
    // injected worker fault into a run-aborting throw, exactly like a
    // SIGKILL between two items. Single-threaded, the claim order is
    // items in order, so a seed firing mid-queue leaves a prefix of
    // shards checkpointed.
    {
        ScopedEnv strict("GSOPT_STRICT", "1");
        fault::ScopedFaultPlan plan("worker.item:0.08:20260807");
        EXPECT_THROW(tuner::ExperimentEngine(shaders, /*threads=*/1,
                                             dir.path()),
                     fault::TransientError);
    }
    size_t shards_on_disk = 0;
    for (const auto &entry : fs::directory_iterator(dir.path())) {
        if (entry.path().extension() == ".bin")
            ++shards_on_disk;
    }
    // The kill must land mid-run for the test to mean anything.
    ASSERT_GT(shards_on_disk, 0u);
    ASSERT_LT(shards_on_disk, shaders.size());

    // Resume without faults: completed shards load, only the
    // remainder is explored/measured again.
    const auto &counters = tuner::exploreCounters();
    const uint64_t explored_before = counters.frontEndRuns.load();
    tuner::ExperimentEngine resumed(shaders, /*threads=*/1,
                                    dir.path());
    const uint64_t explored_after = counters.frontEndRuns.load();
    EXPECT_EQ(explored_after - explored_before,
              shaders.size() - shards_on_disk)
        << "resume must not re-explore checkpointed shards";
    EXPECT_TRUE(resumed.health().healthy());
    EXPECT_EQ(resumed.health().itemsCompleted,
              (shaders.size() - shards_on_disk) * n_dev)
        << "resume must not re-measure checkpointed shards";

    const auto bodies = campaignBodies(resumed);
    ASSERT_EQ(bodies.size(), reference.size());
    for (size_t i = 0; i < bodies.size(); ++i)
        EXPECT_EQ(bodies[i], reference[i]) << shaders[i].name;

    // All shards are now checkpointed; a further resume is pure load.
    const uint64_t explored_resume2 = counters.frontEndRuns.load();
    tuner::ExperimentEngine resumed2(shaders, /*threads=*/1,
                                     dir.path());
    EXPECT_EQ(counters.frontEndRuns.load(), explored_resume2);
    EXPECT_EQ(resumed2.health().itemsCompleted, 0u);
}

TEST(Campaign, OrphanSweepSkipsLiveTmpAndReapsDeadFiles)
{
    const fault::ScopedFaultPlan noAmbientFaults = quiesce();
    const auto shaders = miniCorpus();
    ScratchDir dir("sweep");
    tuner::ExperimentEngine first(shaders, /*threads=*/1, dir.path());

    // A live shard's in-flight .tmp (a checkpoint in progress on
    // another worker) must survive the sweep; dead keys — old
    // schemas, dropped shaders — are reaped, .tmp or not.
    std::string live_bin;
    for (const auto &entry : fs::directory_iterator(dir.path())) {
        if (entry.path().extension() == ".bin")
            live_bin = entry.path().string();
    }
    ASSERT_FALSE(live_bin.empty());
    const std::string live_tmp = live_bin + ".tmp";
    const std::string dead_bin = dir.path() + "/dead-0000.bin";
    const std::string dead_tmp = dead_bin + ".tmp";
    for (const std::string &p : {live_tmp, dead_bin, dead_tmp})
        std::ofstream(p, std::ios::binary) << "x";

    tuner::ExperimentEngine second(shaders, /*threads=*/1,
                                   dir.path());
    EXPECT_TRUE(fs::exists(live_bin));
    EXPECT_TRUE(fs::exists(live_tmp));
    EXPECT_FALSE(fs::exists(dead_bin));
    EXPECT_FALSE(fs::exists(dead_tmp));
}

} // namespace
} // namespace gsopt
