/**
 * @file
 * Distributed-campaign equivalence and fault-matrix suite.
 *
 * The load-bearing property: a coordinator/worker campaign — any
 * worker count, either transport, any assignment order, with or
 * without injected faults — publishes a shard directory *byte
 * identical* (md5 per file) to a plain single-process
 * ExperimentEngine run over the same shaders. Faults may delay units
 * or quarantine them (partial completion), but every byte that lands
 * in the merged directory must be correct: torn, truncated, garbage,
 * wrong-key, and duplicate deliveries are exercised one by one
 * through a scripted transport, and en masse through randomized fault
 * plans over the real transports.
 *
 * This binary hosts subprocess workers (re-executions of itself), so
 * main() diverts into maybeRunWorker() before gtest sees argv.
 * GSOPT_TORTURE_ITERS widens the randomized sweeps (nightly CI).
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus.h"
#include "support/fault.h"
#include "support/rng.h"
#include "test_md5.h"
#include "test_scratch.h"
#include "tuner/distrib.h"
#include "tuner/experiment.h"

namespace gsopt {
namespace {

namespace fs = std::filesystem;
using testutil::md5Hex;
using testutil::ScopedEnv;
using testutil::ScratchDir;
using tuner::ExperimentEngine;
namespace distrib = tuner::distrib;

// --------------------------------------------------------- helpers

/** Masks any ambient GSOPT_FAULTS plan for phases that must not see
 * injected faults; restored on scope exit. */
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

int
tortureIters()
{
    if (const char *env = std::getenv("GSOPT_TORTURE_ITERS"))
        return std::max(1, std::atoi(env));
    return 3;
}

std::string
readFile(const fs::path &p)
{
    std::ifstream f(p, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
    return bytes;
}

/** filename -> md5 of file bytes, for a whole directory. */
std::map<std::string, std::string>
dirDigest(const std::string &dir)
{
    std::map<std::string, std::string> out;
    for (const auto &entry : fs::directory_iterator(dir))
        out[entry.path().filename().string()] =
            md5Hex(readFile(entry.path()));
    return out;
}

/** The golden: what a plain single-process cached engine run leaves
 * in its shard directory. Computed once per process (fault-free). */
const std::map<std::string, std::string> &
referenceDigest()
{
    static const std::map<std::string, std::string> ref = [] {
        auto quiet = quiesce();
        ScratchDir dir("distrib_reference");
        ExperimentEngine engine(miniCorpus(), /*threads=*/1,
                                dir.path());
        return dirDigest(dir.path());
    }();
    return ref;
}

/** Correct full shard file bytes for one shader, as a worker would
 * ship them. */
std::string
validUnitBytes(const corpus::CorpusShader &shader)
{
    auto quiet = quiesce();
    const uint64_t key =
        tuner::shardKey(shader, tuner::deviceSetKey());
    return distrib::executeUnit(shader, key, 1);
}

/** Every published file must be byte-identical to the reference copy
 * of the same name (subset equality; full equality when the run was
 * healthy). */
void
expectSubsetOfReference(const std::string &dir)
{
    for (const auto &[name, digest] : dirDigest(dir)) {
        auto it = referenceDigest().find(name);
        ASSERT_NE(it, referenceDigest().end())
            << "published unknown shard " << name;
        EXPECT_EQ(digest, it->second) << name;
    }
}

// ------------------------------------------------ scripted transport

/** A WorkerTransport the test scripts event by event: assign() calls
 * a hook which typically queues canned deliveries; poll() drains the
 * queue. Lets the fault matrix hit coordinator edges (torn bytes,
 * duplicates, silent workers) deterministically, with no threads. */
class FakeTransport final : public distrib::WorkerTransport
{
  public:
    explicit FakeTransport(unsigned workers) : liveFlags(workers, true)
    {
    }

    unsigned workerCount() const override
    {
        return static_cast<unsigned>(liveFlags.size());
    }
    bool live(unsigned w) const override { return liveFlags[w]; }

    bool assign(unsigned w, const distrib::WireUnit &unit) override
    {
        if (!liveFlags[w])
            return false;
        assignments++;
        if (onAssign)
            onAssign(w, unit);
        return true;
    }

    distrib::TransportEvent poll(int timeoutMs) override
    {
        if (events.empty()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::min(timeoutMs, 2)));
            return {};
        }
        distrib::TransportEvent ev = std::move(events.front());
        events.pop_front();
        return ev;
    }

    void reap(unsigned w) override
    {
        liveFlags[w] = false;
        reaps++;
    }
    bool revive(unsigned w) override
    {
        if (reviveFails)
            return false;
        liveFlags[w] = true;
        return true;
    }
    void shutdown() override {}

    void pushResult(unsigned w, uint64_t unit, std::string bytes,
                    bool stale = false)
    {
        distrib::TransportEvent ev;
        ev.kind = distrib::TransportEvent::Kind::Result;
        ev.worker = w;
        ev.unit = unit;
        ev.bytes = std::move(bytes);
        ev.stale = stale;
        events.push_back(std::move(ev));
    }
    void pushError(unsigned w, uint64_t unit, std::string msg)
    {
        distrib::TransportEvent ev;
        ev.kind = distrib::TransportEvent::Kind::UnitError;
        ev.worker = w;
        ev.unit = unit;
        ev.bytes = std::move(msg);
        events.push_back(std::move(ev));
    }
    void pushDeath(unsigned w)
    {
        distrib::TransportEvent ev;
        ev.kind = distrib::TransportEvent::Kind::WorkerDied;
        ev.worker = w;
        events.push_back(std::move(ev));
    }

    std::function<void(unsigned, const distrib::WireUnit &)> onAssign;
    std::deque<distrib::TransportEvent> events;
    std::vector<bool> liveFlags;
    int assignments = 0;
    int reaps = 0;
    bool reviveFails = false;
};

// ----------------------------------------------------- equivalence

/** Merged shard directories are byte-identical to the single-process
 * campaign for every worker count, both transports, and randomized
 * assignment orders. */
TEST(DistribEquivalence, InProcessAnyWorkerCountAnyOrder)
{
    auto quiet = quiesce();
    for (unsigned workers : {1u, 2u, 4u}) {
        for (uint64_t seed : {0ull, 0x5eedull, 0xfeedull}) {
            ScratchDir dir("equiv_inproc_" + std::to_string(workers) +
                           "_" + std::to_string(seed));
            distrib::Options opts;
            opts.workers = workers;
            opts.transport = distrib::TransportKind::InProcess;
            opts.scheduleSeed = seed;
            distrib::CampaignCoordinator coord(miniCorpus(),
                                               dir.path(), opts);
            const distrib::DistribHealth &h = coord.run();
            EXPECT_TRUE(h.healthy()) << h.summary();
            EXPECT_EQ(h.unitsCompleted, miniCorpus().size());
            EXPECT_EQ(dirDigest(dir.path()), referenceDigest())
                << "workers=" << workers << " seed=" << seed;
        }
    }
}

/** The real distribution shape: fork/exec'd workers over pipes. CI
 * runs this test with GSOPT_DISTRIB_WORKERS=4 and again under an
 * ambient GSOPT_FAULTS plan covering the ipc.* sites. */
TEST(DistribEquivalence, SubprocessWorkersMatchSingleProcess)
{
    for (unsigned workers : {1u, 4u}) {
        ScratchDir dir("equiv_subproc_" + std::to_string(workers));
        distrib::Options opts;
        opts.workers = workers;
        opts.transport = distrib::TransportKind::Subprocess;
        opts.scheduleSeed = 0x1234;
        opts.maxAssignments = 8; // ambient fault plans may cost lives
        distrib::CampaignCoordinator coord(miniCorpus(), dir.path(),
                                           opts);
        const distrib::DistribHealth &h = coord.run();
        EXPECT_TRUE(h.healthy()) << h.summary();
        EXPECT_EQ(dirDigest(dir.path()), referenceDigest())
            << "workers=" << workers;
    }
}

/** A coordinator started over a partial shard directory re-runs only
 * the missing units — and accepts shards a plain engine wrote (the
 * formats are one and the same). */
TEST(DistribEquivalence, ResumesOverPartialDirectory)
{
    auto quiet = quiesce();
    ScratchDir dir("resume");
    const auto shaders = miniCorpus();
    {
        const std::vector<corpus::CorpusShader> half(shaders.begin(),
                                                     shaders.begin() +
                                                         2);
        ExperimentEngine engine(half, /*threads=*/1, dir.path());
    }
    distrib::Options opts;
    opts.workers = 2;
    distrib::CampaignCoordinator coord(shaders, dir.path(), opts);
    const distrib::DistribHealth &h = coord.run();
    EXPECT_TRUE(h.healthy()) << h.summary();
    EXPECT_EQ(h.unitsFromCache, 2u);
    EXPECT_EQ(h.unitsCompleted, 2u);
    EXPECT_EQ(dirDigest(dir.path()), referenceDigest());
}

/** Worker-side key verification: a unit whose key does not match the
 * worker's own computation is refused (environment drift guard). */
TEST(DistribEquivalence, WorkerRefusesMismatchedShardKey)
{
    auto quiet = quiesce();
    const auto shaders = miniCorpus();
    EXPECT_THROW(distrib::executeUnit(shaders[0], 0xdeadbeefull, 1),
                 std::runtime_error);
}

/** A resume over a complete directory has nothing to run, so it
 * starts no workers: with GSOPT_DISTRIB_WORKER_FDS set, constructing a
 * SubprocessTransport here would abort the process. */
TEST(DistribEquivalence, CompleteResumeStartsNoWorkers)
{
    auto quiet = quiesce();
    ScratchDir dir("complete_resume");
    const auto shaders = miniCorpus();
    { ExperimentEngine engine(shaders, /*threads=*/1, dir.path()); }
    ScopedEnv insideWorker("GSOPT_DISTRIB_WORKER_FDS", "3,4");
    distrib::Options opts;
    opts.workers = 2;
    opts.transport = distrib::TransportKind::Subprocess;
    distrib::CampaignCoordinator coord(shaders, dir.path(), opts);
    const distrib::DistribHealth &h = coord.run();
    EXPECT_EQ(h.unitsTotal, shaders.size());
    EXPECT_EQ(h.unitsFromCache, h.unitsTotal);
    EXPECT_EQ(dirDigest(dir.path()), referenceDigest());
}

/** The coordinator's orphan sweep removes only dead shards: a file or
 * directory that is not a shard is someone else's and survives. */
TEST(DistribEquivalence, SweepRemovesOnlyDeadShards)
{
    auto quiet = quiesce();
    ScratchDir dir("sweep");
    const std::string foreign = dir.path() + "/notes.txt";
    const std::string subdir = dir.path() + "/keep";
    const std::string dead_bin = dir.path() + "/dead-0000.bin";
    const std::string dead_tmp = dir.path() + "/dead-0001.bin.tmp";
    for (const std::string &p : {foreign, dead_bin, dead_tmp})
        std::ofstream(p, std::ios::binary) << "x";
    fs::create_directories(subdir);

    distrib::Options opts;
    opts.workers = 2;
    distrib::CampaignCoordinator coord(miniCorpus(), dir.path(), opts);
    const distrib::DistribHealth &h = coord.run();
    EXPECT_TRUE(h.healthy()) << h.summary();
    EXPECT_TRUE(fs::exists(foreign));
    EXPECT_TRUE(fs::is_directory(subdir));
    EXPECT_FALSE(fs::exists(dead_bin));
    EXPECT_FALSE(fs::exists(dead_tmp));
    fs::remove(foreign);
    fs::remove(subdir);
    EXPECT_EQ(dirDigest(dir.path()), referenceDigest());
}

/** A worker's failed unit names the failing item's reason. */
TEST(DistribFaults, FailedUnitCarriesTheItemReason)
{
    const auto shaders = miniCorpus();
    const uint64_t key =
        tuner::shardKey(shaders[0], tuner::deviceSetKey());
    fault::ScopedFaultPlan plan("worker.item:1:1");
    try {
        distrib::executeUnit(shaders[0], key, 1);
        FAIL() << "a unit whose every item fails must throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("unit failed: ", 0), 0u) << what;
        EXPECT_NE(what.find("injected fault at worker.item"),
                  std::string::npos)
            << what;
    }
}

// ---------------------------------------------------- fault matrix

/** Torn delivery: the coordinator must reject the truncated shard,
 * re-queue the unit, and publish only the full-bytes retry. */
TEST(DistribFaults, TruncatedDeliveryRejectedThenRetried)
{
    auto quiet = quiesce();
    const auto shaders = miniCorpus();
    const std::vector<corpus::CorpusShader> one{shaders[2]};
    const std::string good = validUnitBytes(shaders[2]);

    ScratchDir dir("torn");
    FakeTransport fake(1);
    int deliveries = 0;
    fake.onAssign = [&](unsigned w, const distrib::WireUnit &u) {
        deliveries++;
        if (deliveries == 1)
            fake.pushResult(w, u.id, good.substr(0, good.size() / 2));
        else
            fake.pushResult(w, u.id, good);
    };
    distrib::Options opts;
    opts.workers = 1;
    distrib::CampaignCoordinator coord(one, dir.path(), opts);
    const distrib::DistribHealth &h = coord.run(fake);
    EXPECT_TRUE(h.healthy()) << h.summary();
    EXPECT_EQ(h.shardsRejected, 1u);
    EXPECT_EQ(h.unitsRequeued, 1u);
    EXPECT_EQ(h.unitsCompleted, 1u);
    expectSubsetOfReference(dir.path());
    EXPECT_EQ(dirDigest(dir.path()).size(), 1u);
}

/** Garbage and wrong-key deliveries both die at merge verification —
 * nothing corrupt is ever published. */
TEST(DistribFaults, GarbageAndWrongKeyDeliveriesRejected)
{
    auto quiet = quiesce();
    const auto shaders = miniCorpus();
    const std::vector<corpus::CorpusShader> one{shaders[0]};
    const std::string good = validUnitBytes(shaders[0]);
    const std::string wrongKey = validUnitBytes(shaders[1]);

    ScratchDir dir("garbage");
    FakeTransport fake(1);
    int deliveries = 0;
    fake.onAssign = [&](unsigned w, const distrib::WireUnit &u) {
        deliveries++;
        if (deliveries == 1) {
            std::string garbage(good.size(), '\x5a');
            fake.pushResult(w, u.id, garbage);
        } else if (deliveries == 2) {
            // Valid shard file for a *different* shader: checksum
            // passes, key check must not.
            fake.pushResult(w, u.id, wrongKey);
        } else {
            fake.pushResult(w, u.id, good);
        }
    };
    distrib::Options opts;
    opts.workers = 1;
    opts.maxAssignments = 5;
    distrib::CampaignCoordinator coord(one, dir.path(), opts);
    const distrib::DistribHealth &h = coord.run(fake);
    EXPECT_TRUE(h.healthy()) << h.summary();
    EXPECT_EQ(h.shardsRejected, 2u);
    EXPECT_EQ(h.unitsCompleted, 1u);
    expectSubsetOfReference(dir.path());
    EXPECT_EQ(dirDigest(dir.path()).size(), 1u);
}

/** Duplicate delivery (a lease race resolved twice): merge-if-absent
 * keeps exactly one copy and counts the duplicate. */
TEST(DistribFaults, DuplicateDeliveryDiscarded)
{
    auto quiet = quiesce();
    const auto shaders = miniCorpus();
    const std::vector<corpus::CorpusShader> one{shaders[1]};
    const std::string good = validUnitBytes(shaders[1]);

    ScratchDir dir("dup");
    FakeTransport fake(2);
    fake.onAssign = [&](unsigned w, const distrib::WireUnit &u) {
        // A reaped worker's late delivery lands first (stale), then
        // the current assignee's copy of the same unit.
        fake.pushResult(1 - w, u.id, good, /*stale=*/true);
        fake.pushResult(w, u.id, good);
    };
    distrib::Options opts;
    opts.workers = 2;
    distrib::CampaignCoordinator coord(one, dir.path(), opts);
    const distrib::DistribHealth &h = coord.run(fake);
    EXPECT_TRUE(h.healthy()) << h.summary();
    EXPECT_EQ(h.unitsCompleted, 1u);
    EXPECT_EQ(h.duplicateDeliveries, 1u);
    expectSubsetOfReference(dir.path());
    EXPECT_EQ(dirDigest(dir.path()).size(), 1u);
}

/** A worker that dies mid-unit: the unit is re-queued, the slot is
 * revived, and the campaign still completes byte-identically. */
TEST(DistribFaults, WorkerDeathRequeuesUnit)
{
    auto quiet = quiesce();
    const auto shaders = miniCorpus();
    const std::vector<corpus::CorpusShader> one{shaders[3]};
    const std::string good = validUnitBytes(shaders[3]);

    ScratchDir dir("death");
    FakeTransport fake(1);
    int deliveries = 0;
    fake.onAssign = [&](unsigned w, const distrib::WireUnit &u) {
        deliveries++;
        if (deliveries == 1) {
            fake.liveFlags[w] = false;
            fake.pushDeath(w);
        } else {
            fake.pushResult(w, u.id, good);
        }
    };
    distrib::Options opts;
    opts.workers = 1;
    distrib::CampaignCoordinator coord(one, dir.path(), opts);
    const distrib::DistribHealth &h = coord.run(fake);
    EXPECT_TRUE(h.healthy()) << h.summary();
    EXPECT_EQ(h.unitsRequeued, 1u);
    EXPECT_GE(h.workersRestarted, 1u);
    EXPECT_EQ(dirDigest(dir.path()).size(), 1u);
    expectSubsetOfReference(dir.path());
}

/** A silent worker (no result, no heartbeat) trips its lease: the
 * worker is reaped and the unit handed to a replacement. */
TEST(DistribFaults, LeaseExpiryReapsSilentWorker)
{
    auto quiet = quiesce();
    const auto shaders = miniCorpus();
    const std::vector<corpus::CorpusShader> one{shaders[0]};
    const std::string good = validUnitBytes(shaders[0]);

    ScratchDir dir("lease");
    FakeTransport fake(1);
    int deliveries = 0;
    fake.onAssign = [&](unsigned w, const distrib::WireUnit &u) {
        deliveries++;
        if (deliveries == 1)
            return; // silence: no result, no heartbeat
        fake.pushResult(w, u.id, good);
    };
    distrib::Options opts;
    opts.workers = 1;
    opts.leaseMs = 60;
    distrib::CampaignCoordinator coord(one, dir.path(), opts);
    const distrib::DistribHealth &h = coord.run(fake);
    EXPECT_TRUE(h.healthy()) << h.summary();
    EXPECT_GE(h.leaseExpiries, 1u);
    EXPECT_EQ(fake.reaps, 1);
    EXPECT_EQ(h.unitsCompleted, 1u);
    expectSubsetOfReference(dir.path());
}

/** A unit that fails every assignment is quarantined after the bound,
 * and the campaign completes on the partial results — the healthy
 * units' shards are all published and correct. */
TEST(DistribFaults, PoisonUnitQuarantinedCampaignCompletes)
{
    auto quiet = quiesce();
    const auto shaders = miniCorpus();
    ScratchDir dir("poison");
    FakeTransport fake(2);
    const std::string poison = shaders[1].name;
    fake.onAssign = [&](unsigned w, const distrib::WireUnit &u) {
        if (u.shader.name == poison)
            fake.pushError(w, u.id, "injected poison unit");
        else
            fake.pushResult(w, u.id, validUnitBytes(u.shader));
    };
    distrib::Options opts;
    opts.workers = 2;
    opts.maxAssignments = 3;
    distrib::CampaignCoordinator coord(shaders, dir.path(), opts);
    const distrib::DistribHealth &h = coord.run(fake);
    EXPECT_FALSE(h.healthy());
    ASSERT_EQ(h.quarantined.size(), 1u);
    EXPECT_EQ(h.quarantined[0].shader, poison);
    EXPECT_EQ(h.quarantined[0].assignments, 3);
    EXPECT_EQ(h.unitsCompleted, shaders.size() - 1);
    expectSubsetOfReference(dir.path());
    EXPECT_EQ(dirDigest(dir.path()).size(), shaders.size() - 1);
}

/** GSOPT_STRICT=1 turns the first quarantine into a thrown error. */
TEST(DistribFaults, StrictModeFailsFastOnQuarantine)
{
    auto quiet = quiesce();
    ScopedEnv strict("GSOPT_STRICT", "1");
    const auto shaders = miniCorpus();
    const std::vector<corpus::CorpusShader> one{shaders[2]};
    ScratchDir dir("strict");
    FakeTransport fake(1);
    fake.onAssign = [&](unsigned w, const distrib::WireUnit &u) {
        fake.pushError(w, u.id, "injected poison unit");
    };
    distrib::Options opts;
    opts.workers = 1;
    opts.maxAssignments = 2;
    distrib::CampaignCoordinator coord(one, dir.path(), opts);
    EXPECT_THROW(coord.run(fake), std::runtime_error);
}

/** Every slot dead and unrevivable: the coordinator must terminate
 * (quarantining what it could not place), not spin. */
TEST(DistribFaults, NoLiveWorkersTerminates)
{
    auto quiet = quiesce();
    const auto shaders = miniCorpus();
    ScratchDir dir("dead_pool");
    FakeTransport fake(2);
    fake.liveFlags[0] = fake.liveFlags[1] = false;
    fake.reviveFails = true;
    distrib::Options opts;
    opts.workers = 2;
    distrib::CampaignCoordinator coord(shaders, dir.path(), opts);
    const distrib::DistribHealth &h = coord.run(fake);
    EXPECT_FALSE(h.healthy());
    EXPECT_EQ(h.quarantined.size(), shaders.size());
    EXPECT_TRUE(dirDigest(dir.path()).empty());
}

/** In-process workers cannot heartbeat, so a stalled unit trips the
 * lease for real; its late (stale) delivery is still merged or
 * discarded safely, never corrupted. */
TEST(DistribFaults, StalledInProcessUnitExpiresAndRecovers)
{
    const auto shaders = miniCorpus();
    const std::vector<corpus::CorpusShader> one{shaders[0]};
    ScratchDir dir("stall");
    fault::ScopedFaultPlan plan(
        fault::FaultPlan::parse("worker.item:1.0:21:stall"));
    distrib::Options opts;
    opts.workers = 1;
    opts.leaseMs = 80;
    opts.maxAssignments = 50; // stalls keep completing eventually
    distrib::CampaignCoordinator coord(one, dir.path(), opts);
    const distrib::DistribHealth &h = coord.run();
    EXPECT_GE(h.leaseExpiries, 1u);
    EXPECT_EQ(dirDigest(dir.path()).size(), h.healthy() ? 1u : 0u);
    {
        auto quiet = quiesce();
        expectSubsetOfReference(dir.path());
    }
}

// ------------------------------------------- subprocess fault shapes

/** Deterministic worker kill mid-unit at the transport level: assign,
 * SIGKILL via reap(), revive, reassign — the replacement worker must
 * deliver the exact bytes. */
TEST(DistribSubprocess, KilledWorkerRevivesAndDelivers)
{
    auto quiet = quiesce();
    const auto shaders = miniCorpus();
    const corpus::CorpusShader &shader = shaders[0];
    const uint64_t key =
        tuner::shardKey(shader, tuner::deviceSetKey());

    auto transport = distrib::makeSubprocessTransport(1);
    distrib::WireUnit unit;
    unit.id = 7;
    unit.key = key;
    unit.heartbeatMs = 50;
    unit.shader = shader;

    ASSERT_TRUE(transport->assign(0, unit));
    transport->reap(0); // SIGKILL mid-unit
    EXPECT_FALSE(transport->live(0));
    ASSERT_TRUE(transport->revive(0));
    ASSERT_TRUE(transport->assign(0, unit));

    const std::string expected = validUnitBytes(shader);
    bool delivered = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
        distrib::TransportEvent ev = transport->poll(100);
        if (ev.kind == distrib::TransportEvent::Kind::Result) {
            EXPECT_EQ(ev.unit, 7u);
            EXPECT_EQ(md5Hex(ev.bytes), md5Hex(expected));
            delivered = true;
            break;
        }
        ASSERT_NE(ev.kind, distrib::TransportEvent::Kind::WorkerDied);
    }
    EXPECT_TRUE(delivered);
    transport->shutdown();
}

/** Randomized fault torture over the real transports: ipc tears and
 * failures, shard-write tears, worker faults. Whatever completes must
 * be byte-identical to the reference; a quiesced re-run over the same
 * directory finishes the job and converges to full equality. */
TEST(DistribFaults, TortureConvergesToReferenceBytes)
{
    const auto shaders = miniCorpus();
    const int iters = tortureIters();
    for (int iter = 0; iter < iters; ++iter) {
        ScratchDir dir("torture_" + std::to_string(iter));
        Rng rng(0x7011e7 + iter);
        const std::string spec =
            "ipc.send:0.12:" + std::to_string(rng.below(1000)) +
            ":tear,ipc.recv:0.10:" +
            std::to_string(rng.below(1000)) +
            ",shard.write:0.20:" + std::to_string(rng.below(1000)) +
            ":tear,worker.item:0.08:" +
            std::to_string(rng.below(1000));
        {
            fault::ScopedFaultPlan plan(fault::FaultPlan::parse(spec));
            distrib::Options opts;
            opts.workers = 3;
            opts.maxAssignments = 6;
            opts.scheduleSeed = 0x7357 + iter;
            distrib::CampaignCoordinator coord(shaders, dir.path(),
                                               opts);
            const distrib::DistribHealth &h = coord.run();
            EXPECT_EQ(h.unitsCompleted + h.unitsFromCache +
                          h.quarantined.size(),
                      h.unitsTotal)
                << h.summary();
        }
        auto quiet = quiesce();
        expectSubsetOfReference(dir.path());
        // Converge: a fault-free resume completes the remainder.
        distrib::Options opts;
        opts.workers = 2;
        distrib::CampaignCoordinator coord(shaders, dir.path(), opts);
        const distrib::DistribHealth &h = coord.run();
        EXPECT_TRUE(h.healthy()) << h.summary();
        EXPECT_EQ(dirDigest(dir.path()), referenceDigest())
            << "iter " << iter << " plan " << spec;
    }
}

/** Subprocess workers under an inherited fault plan (children parse
 * GSOPT_FAULTS at startup; the parent set it only for them): worker
 * deaths and torn sends must never corrupt the merged directory. */
TEST(DistribSubprocess, ChildFaultPlanNeverCorruptsMergedDir)
{
    auto quiet = quiesce(); // parent side stays clean
    const auto shaders = miniCorpus();
    ScratchDir dir("child_faults");
    ScopedEnv faults("GSOPT_FAULTS",
                     "ipc.send:0.05:41:tear,worker.item:0.10:43");
    distrib::Options opts;
    opts.workers = 2;
    opts.transport = distrib::TransportKind::Subprocess;
    opts.maxAssignments = 8;
    distrib::CampaignCoordinator coord(shaders, dir.path(), opts);
    const distrib::DistribHealth &h = coord.run();
    EXPECT_EQ(h.unitsCompleted + h.unitsFromCache +
                  h.quarantined.size(),
              h.unitsTotal)
        << h.summary();
    expectSubsetOfReference(dir.path());
    if (h.healthy()) {
        EXPECT_EQ(dirDigest(dir.path()), referenceDigest());
    }
}

} // namespace
} // namespace gsopt

/** This binary is re-executed as its own worker pool: divert into the
 * worker loop before gtest parses anything. */
int
main(int argc, char **argv)
{
    if (gsopt::tuner::distrib::maybeRunWorker())
        return 0;
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
