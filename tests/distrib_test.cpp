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

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus.h"
#include "support/diag.h"
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

/** Shaders with at least one quarantined item: the units that ended
 * neither completed nor cached. */
size_t
shadersWithQuarantinedItems(const distrib::DistribHealth &h)
{
    std::set<std::string> shaders;
    for (const tuner::QuarantinedItem &q : h.quarantined)
        shaders.insert(q.shader);
    return shaders.size();
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
/** The item report of a unit whose every device item completed at the
 * first attempt: what an honest worker sends with clean bytes. */
tuner::CampaignHealth
cleanReport()
{
    tuner::CampaignHealth h;
    h.itemsCompleted = gpu::allDevices().size();
    return h;
}

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
                    bool stale = false,
                    tuner::CampaignHealth health = cleanReport())
    {
        distrib::TransportEvent ev;
        ev.kind = distrib::TransportEvent::Kind::Result;
        ev.worker = w;
        ev.unit = unit;
        ev.bytes = std::move(bytes);
        ev.stale = stale;
        ev.health = std::move(health);
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

/** The pipe transport's wire, put back over in-process workers: every
 * delivered shard crosses the ipc.send and ipc.recv fault sites. A
 * tear truncates the bytes (merge validation must reject them); a
 * throw turns the delivery into a unit error. */
class WireFaults final : public distrib::WorkerTransport
{
  public:
    explicit WireFaults(std::unique_ptr<distrib::WorkerTransport> inner)
        : inner_(std::move(inner))
    {
    }

    unsigned workerCount() const override
    {
        return inner_->workerCount();
    }
    bool live(unsigned w) const override { return inner_->live(w); }
    bool assign(unsigned w, const distrib::WireUnit &unit) override
    {
        return inner_->assign(w, unit);
    }

    distrib::TransportEvent poll(int timeoutMs) override
    {
        distrib::TransportEvent ev = inner_->poll(timeoutMs);
        if (ev.kind != distrib::TransportEvent::Kind::Result)
            return ev;
        try {
            size_t n = fault::tearPoint("ipc.send", ev.bytes.size());
            fault::point("ipc.send");
            if (n == ev.bytes.size()) {
                n = fault::tearPoint("ipc.recv", ev.bytes.size());
                fault::point("ipc.recv");
            }
            ev.bytes.resize(n);
        } catch (const std::exception &e) {
            ev.kind = distrib::TransportEvent::Kind::UnitError;
            ev.bytes = e.what();
        }
        return ev;
    }

    void reap(unsigned w) override { inner_->reap(w); }
    bool revive(unsigned w) override { return inner_->revive(w); }
    void shutdown() override { inner_->shutdown(); }

  private:
    std::unique_ptr<distrib::WorkerTransport> inner_;
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
 * runs this test on its own and again under an ambient GSOPT_FAULTS
 * plan covering the ipc.* sites. */
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

/** Subprocess deliveries carry their item health, so a distributed
 * campaign counts items like a local one. Children start without the
 * ambient fault plan: a retry would be a real one. */
TEST(DistribEquivalence, SubprocessHealthCountsItems)
{
    auto quiet = quiesce();
    ScopedEnv noChildFaults("GSOPT_FAULTS", "");
    const auto shaders = miniCorpus();
    ScratchDir dir("subproc_health");
    distrib::Options opts;
    opts.workers = 2;
    opts.transport = distrib::TransportKind::Subprocess;
    distrib::CampaignCoordinator coord(shaders, dir.path(), opts);
    const distrib::DistribHealth &h = coord.run();
    EXPECT_TRUE(h.healthy()) << h.summary();
    EXPECT_EQ(h.itemsCompleted, shaders.size() * gpu::allDevices().size());
    EXPECT_EQ(h.itemRetries, 0u);
    EXPECT_EQ(dirDigest(dir.path()), referenceDigest());
}

/** Units are assigned in input order; a schedule seed shuffles that
 * one list. */
TEST(DistribEquivalence, UnitsRunInInputOrderOrOneShuffle)
{
    auto quiet = quiesce();
    const auto shaders = miniCorpus();
    std::vector<std::string> input;
    for (const corpus::CorpusShader &s : shaders)
        input.push_back(s.name);
    std::map<std::string, std::string> bytes;
    for (const corpus::CorpusShader &s : shaders)
        bytes[s.name] = validUnitBytes(s);
    auto order = [&](uint64_t seed) {
        ScratchDir dir("order_" + std::to_string(seed));
        FakeTransport fake(1);
        std::vector<std::string> assigned;
        fake.onAssign = [&](unsigned w, const distrib::WireUnit &u) {
            assigned.push_back(u.shader.name);
            fake.pushResult(w, u.id, bytes[u.shader.name]);
        };
        distrib::Options opts;
        opts.workers = 1;
        opts.scheduleSeed = seed;
        distrib::CampaignCoordinator coord(shaders, dir.path(), opts);
        EXPECT_TRUE(coord.run(fake).healthy());
        return assigned;
    };
    // simple/grayscale shares its family with simple/color_fill, so a
    // representatives-first order would move it last.
    EXPECT_EQ(order(0), input);
    bool grayscaleNotLast = false;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        std::vector<std::string> shuffled = order(seed);
        EXPECT_EQ(shuffled, order(seed)) << "seed " << seed;
        grayscaleNotLast |= shuffled.back() != "simple/grayscale";
        std::sort(shuffled.begin(), shuffled.end());
        std::vector<std::string> sorted = input;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(shuffled, sorted) << "seed " << seed;
    }
    EXPECT_TRUE(grayscaleNotLast);
}

/** The engine's in-process campaign hands deliveries over without a
 * wire: with both ipc sites armed to always fire, it runs healthy and
 * never probes them. */
TEST(DistribEquivalence, EngineRunsNeverProbeIpc)
{
    const auto &reference = referenceDigest();
    ScratchDir dir("engine_no_ipc");
    fault::ScopedFaultPlan plan("ipc.send:1:1:tear,ipc.recv:1:2");
    {
        ExperimentEngine engine(miniCorpus(), /*threads=*/2, dir.path());
        EXPECT_TRUE(engine.health().healthy())
            << engine.health().summary();
    }
    EXPECT_EQ(fault::siteStats("ipc.send").evaluations, 0u);
    EXPECT_EQ(fault::siteStats("ipc.recv").evaluations, 0u);
    EXPECT_EQ(dirDigest(dir.path()), reference);
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

/** A worker's failed items ride in its shard's 'Q' section, each
 * with the item's reason; the unit itself does not throw. */
TEST(DistribFaults, FailedUnitCarriesTheItemReason)
{
    const auto shaders = miniCorpus();
    const uint64_t key =
        tuner::shardKey(shaders[0], tuner::deviceSetKey());
    std::string bytes;
    {
        fault::ScopedFaultPlan plan("worker.item:1:1");
        bytes = distrib::executeUnit(shaders[0], key, 1);
    }
    tuner::ShaderResult r;
    ASSERT_TRUE(tuner::parseShard(bytes, key, r));
    EXPECT_TRUE(r.byDevice.empty());
    EXPECT_EQ(r.quarantined.size(), gpu::allDevices().size());
    ASSERT_EQ(r.quarantineReason.size(), gpu::allDevices().size());
    for (const auto &[dev, why] : r.quarantineReason)
        EXPECT_NE(why.find("injected fault at worker.item"),
                  std::string::npos)
            << why;
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

/** Garbage, wrong-key and misreported deliveries all die at merge
 * verification — nothing corrupt is ever published. */
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
        } else if (deliveries == 3) {
            // The right bytes with an item report that quarantines an
            // item the shard measured: worker and shard disagree.
            tuner::CampaignHealth lie;
            lie.itemsCompleted = gpu::allDevices().size() - 1;
            lie.quarantined.push_back(
                {"", gpu::DeviceId::Intel, "not in the shard", 1});
            fake.pushResult(w, u.id, good, false, lie);
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
    EXPECT_EQ(h.shardsRejected, 3u);
    EXPECT_EQ(h.unitsCompleted, 1u);
    expectSubsetOfReference(dir.path());
    EXPECT_EQ(dirDigest(dir.path()).size(), 1u);
}

/** A worker's item report is input from outside the process: one that
 * lists a quarantined device twice, counts more items than the unit has,
 * claims more retries than the retry policy allows, or quarantines an
 * item it never attempted is rejected like bad bytes, and none of its
 * counters reach the campaign's health. */
TEST(DistribFaults, LyingItemReportsRejected)
{
    auto quiet = quiesce();
    const corpus::CorpusShader &shader =
        *corpus::findShader("simple/color_fill");
    const std::vector<corpus::CorpusShader> one{shader};
    const uint64_t key = tuner::shardKey(shader, tuner::deviceSetKey());
    const std::string good = validUnitBytes(shader);
    tuner::ShaderResult partial;
    ASSERT_TRUE(tuner::parseShard(good, key, partial));
    const gpu::DeviceId dev = partial.byDevice.begin()->first;
    partial.byDevice.erase(dev);
    partial.quarantined.insert(dev);
    partial.quarantineReason[dev] = "injected item failure";
    const std::string partialBytes = tuner::shardFileBytes(key, partial);
    const uint64_t devices = gpu::allDevices().size();

    tuner::CampaignHealth twice;
    twice.itemsCompleted = devices - 2;
    twice.quarantined.assign(2, {"", dev, "injected item failure", 1});
    tuner::CampaignHealth inflated = cleanReport();
    inflated.itemsCompleted = 1000;
    tuner::CampaignHealth retried = cleanReport();
    retried.itemRetries = 1'000'000;
    tuner::CampaignHealth unattempted;
    unattempted.itemsCompleted = devices - 1;
    unattempted.quarantined.push_back({"", dev, "injected item failure", 0});
    const std::vector<std::pair<std::string, tuner::CampaignHealth>> lies =
        {{partialBytes, twice},
         {good, inflated},
         {good, retried},
         {partialBytes, unattempted}};

    ScratchDir dir("lying");
    FakeTransport fake(1);
    size_t deliveries = 0;
    fake.onAssign = [&](unsigned w, const distrib::WireUnit &u) {
        if (deliveries < lies.size())
            fake.pushResult(w, u.id, lies[deliveries].first, false,
                            lies[deliveries].second);
        else
            fake.pushResult(w, u.id, good);
        deliveries++;
    };
    distrib::Options opts;
    opts.workers = 1;
    opts.maxAssignments = static_cast<int>(lies.size()) + 1;
    distrib::CampaignCoordinator coord(one, dir.path(), opts);
    const distrib::DistribHealth &h = coord.run(fake);
    EXPECT_TRUE(h.healthy()) << h.summary();
    EXPECT_EQ(h.shardsRejected, lies.size());
    EXPECT_EQ(h.unitsCompleted, 1u);
    EXPECT_EQ(h.itemsCompleted, devices);
    EXPECT_EQ(h.itemRetries, 0u);
    EXPECT_EQ(h.itemsQuarantined, 0u);
    EXPECT_EQ(dirDigest(dir.path()).size(), 1u);
    expectSubsetOfReference(dir.path());
}

/** A shard must account for every configured device, measured or
 * quarantined. A delivery that lacks one device's measurement, with a
 * report claiming every item completed, is rejected and re-queued;
 * only the full retry is published. */
TEST(DistribFaults, DeliveryMissingADeviceRejectedThenRetried)
{
    auto quiet = quiesce();
    const corpus::CorpusShader &shader =
        *corpus::findShader("simple/color_fill");
    const std::vector<corpus::CorpusShader> one{shader};
    const uint64_t key = tuner::shardKey(shader, tuner::deviceSetKey());
    const std::string good = validUnitBytes(shader);
    tuner::ShaderResult missing;
    ASSERT_TRUE(tuner::parseShard(good, key, missing));
    missing.byDevice.erase(gpu::DeviceId::Qualcomm);
    const std::string missingBytes = tuner::shardFileBytes(key, missing);
    tuner::ShaderResult parsed; // coverage is the merge gate's check
    ASSERT_TRUE(tuner::parseShard(missingBytes, key, parsed));

    ScratchDir dir("missing_device");
    FakeTransport fake(1);
    int deliveries = 0;
    fake.onAssign = [&](unsigned w, const distrib::WireUnit &u) {
        deliveries++;
        fake.pushResult(w, u.id, deliveries == 1 ? missingBytes : good);
    };
    distrib::Options opts;
    opts.workers = 1;
    distrib::CampaignCoordinator coord(one, dir.path(), opts);
    const distrib::DistribHealth &h = coord.run(fake);
    EXPECT_TRUE(h.healthy()) << h.summary();
    EXPECT_EQ(h.shardsRejected, 1u);
    EXPECT_EQ(h.unitsRequeued, 1u);
    EXPECT_EQ(h.unitsCompleted, 1u);
    EXPECT_EQ(deliveries, 2);
    EXPECT_EQ(dirDigest(dir.path()).size(), 1u);
    expectSubsetOfReference(dir.path());
}

/** A read fault on the coordinator's side is local, not the worker's:
 * the merge gate parses the delivered bytes in memory and re-reads no
 * file, so an always-firing shard.read rejects and re-queues nothing. */
TEST(DistribFaults, LocalReadFaultIsNotARejectedDelivery)
{
    const auto &reference = referenceDigest();
    const auto shaders = miniCorpus();
    ScratchDir dir("local_read_fault");
    fault::ScopedFaultPlan plan("shard.read:1:5");
    distrib::Options opts;
    opts.workers = 2;
    distrib::CampaignCoordinator coord(shaders, dir.path(), opts);
    const distrib::DistribHealth &h = coord.run();
    EXPECT_TRUE(h.healthy()) << h.summary();
    EXPECT_EQ(h.shardsRejected, 0u);
    EXPECT_EQ(h.unitsRequeued, 0u);
    EXPECT_EQ(h.unitsCompleted, shaders.size());
    EXPECT_EQ(dirDigest(dir.path()), reference);
}

/** A failed publish is the coordinator's own fault, not the worker's:
 * the delivery is accepted and its result kept, nothing is rejected or
 * re-queued, a warning names the shard, and the shard re-runs on
 * resume. */
TEST(DistribFaults, LocalWriteFailureIsNotARejectedDelivery)
{
    const auto shaders = miniCorpus();
    const std::vector<corpus::CorpusShader> one{shaders[0]};
    const std::string good = validUnitBytes(shaders[0]);
    const uint64_t key = tuner::shardKey(shaders[0], tuner::deviceSetKey());
    tuner::ShaderResult expected;
    ASSERT_TRUE(tuner::parseShard(good, key, expected));

    ScratchDir dir("local_write_fault");
    FakeTransport fake(1);
    fake.onAssign = [&](unsigned w, const distrib::WireUnit &u) {
        fake.pushResult(w, u.id, good);
    };
    distrib::Options opts;
    opts.workers = 1;
    distrib::CampaignCoordinator coord(one, dir.path(), opts);
    std::vector<std::string> warnings;
    setWarningSink(
        [&](const Diagnostic &d) { warnings.push_back(d.message); });
    {
        fault::ScopedFaultPlan plan("shard.write:1:5");
        coord.run(fake);
    }
    setWarningSink(nullptr);
    const distrib::DistribHealth &h = coord.health();
    EXPECT_TRUE(h.healthy()) << h.summary();
    EXPECT_EQ(h.shardsRejected, 0u);
    EXPECT_EQ(h.unitsRequeued, 0u);
    EXPECT_EQ(h.unitsCompleted, 1u);
    EXPECT_EQ(fake.assignments, 1);
    EXPECT_EQ(tuner::serializeShardBody(coord.results()[0]),
              tuner::serializeShardBody(expected));
    EXPECT_TRUE(dirDigest(dir.path()).empty());
    EXPECT_TRUE(std::any_of(warnings.begin(), warnings.end(),
                            [](const std::string &w) {
                                return w.find("re-runs on resume") !=
                                       std::string::npos;
                            }));

    auto quiet = quiesce();
    distrib::CampaignCoordinator resumed(one, dir.path(), opts);
    const distrib::DistribHealth &again = resumed.run(fake);
    EXPECT_EQ(again.unitsFromCache, 0u);
    EXPECT_EQ(again.unitsCompleted, 1u);
    EXPECT_EQ(dirDigest(dir.path()).size(), 1u);
    expectSubsetOfReference(dir.path());
}

/** A partial delivery (an item in 'Q') joins the results but is never
 * published, and never re-queued: its items were already retried inside
 * the unit. The next run re-runs the shader. */
TEST(DistribFaults, PartialDeliveryIsNotPublished)
{
    auto quiet = quiesce();
    const corpus::CorpusShader &shader =
        *corpus::findShader("simple/color_fill");
    const std::vector<corpus::CorpusShader> one{shader};
    const uint64_t key = tuner::shardKey(shader, tuner::deviceSetKey());
    tuner::ShaderResult partial;
    ASSERT_TRUE(tuner::parseShard(validUnitBytes(shader), key, partial));
    const gpu::DeviceId dev = partial.byDevice.begin()->first;
    partial.byDevice.erase(dev);
    partial.quarantined.insert(dev);
    partial.quarantineReason[dev] = "injected item failure";
    tuner::CampaignHealth items;
    items.itemsCompleted = partial.byDevice.size();
    items.quarantined.push_back({"", dev, "injected item failure", 3});

    ScratchDir dir("partial");
    FakeTransport fake(1);
    fake.onAssign = [&](unsigned w, const distrib::WireUnit &u) {
        fake.pushResult(w, u.id, tuner::shardFileBytes(key, partial),
                        false, items);
    };
    distrib::Options opts;
    opts.workers = 1;
    distrib::CampaignCoordinator coord(one, dir.path(), opts);
    const distrib::DistribHealth &h = coord.run(fake);
    EXPECT_EQ(fake.assignments, 1);
    EXPECT_EQ(h.unitsRequeued, 0u);
    EXPECT_EQ(h.shardsRejected, 0u);
    EXPECT_EQ(h.unitsCompleted, 0u);
    EXPECT_EQ(h.itemsCompleted, gpu::allDevices().size() - 1);
    ASSERT_EQ(h.quarantined.size(), 1u);
    EXPECT_EQ(h.quarantined[0].shader, shader.name);
    EXPECT_EQ(h.quarantined[0].device, dev);
    EXPECT_EQ(h.quarantined[0].attempts, 3);
    EXPECT_TRUE(dirDigest(dir.path()).empty());
    EXPECT_EQ(coord.results()[0].quarantined, std::set<gpu::DeviceId>{dev});
    EXPECT_EQ(tuner::serializeShardBody(coord.results()[0]),
              tuner::serializeShardBody(partial));

    ExperimentEngine resumed(one, /*threads=*/1, dir.path());
    EXPECT_TRUE(resumed.health().healthy());
    EXPECT_EQ(resumed.health().itemsCompleted, gpu::allDevices().size());
    expectSubsetOfReference(dir.path());
}

/** Duplicate delivery (a lease race resolved twice): the first
 * accepted copy stands and the duplicate is counted. */
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

/** A unit that fails every assignment has each of its device items
 * quarantined after the bound, with its assignments and last error,
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
    ASSERT_EQ(h.quarantined.size(), gpu::allDevices().size());
    for (const tuner::QuarantinedItem &q : h.quarantined) {
        EXPECT_EQ(q.shader, poison);
        EXPECT_EQ(q.attempts, 3);
        EXPECT_EQ(q.error, "injected poison unit");
    }
    const tuner::ShaderResult &r = coord.results()[1];
    EXPECT_EQ(r.exploration.shaderName, poison);
    EXPECT_EQ(r.quarantined.size(), gpu::allDevices().size());
    EXPECT_TRUE(r.byDevice.empty());
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

/** Under GSOPT_STRICT=1 the first failure of any kind aborts the run:
 * no unit is re-queued and no further unit is assigned. */
TEST(DistribFaults, StrictModeAbortsOnTheFirstFailureOfAnyKind)
{
    auto quiet = quiesce();
    ScopedEnv strict("GSOPT_STRICT", "1");
    const auto shaders = miniCorpus();
    const std::vector<corpus::CorpusShader> two{shaders[0], shaders[1]};
    const uint64_t key = tuner::shardKey(shaders[0], tuner::deviceSetKey());
    tuner::ShaderResult partial;
    ASSERT_TRUE(
        tuner::parseShard(validUnitBytes(shaders[0]), key, partial));
    const gpu::DeviceId dev = partial.byDevice.begin()->first;
    partial.byDevice.erase(dev);
    partial.quarantined.insert(dev);
    tuner::CampaignHealth items;
    items.itemsCompleted = partial.byDevice.size();
    items.quarantined.push_back({"", dev, "", 1});
    const std::string partialBytes = tuner::shardFileBytes(key, partial);

    const std::vector<
        std::pair<std::string, std::function<void(FakeTransport &,
                                                  unsigned, uint64_t)>>>
        failures = {
            {"rejected bytes",
             [](FakeTransport &f, unsigned w, uint64_t id) {
                 f.pushResult(w, id, "garbage");
             }},
            {"unit error",
             [](FakeTransport &f, unsigned w, uint64_t id) {
                 f.pushError(w, id, "injected unit error");
             }},
            {"worker death",
             [](FakeTransport &f, unsigned w, uint64_t) {
                 f.pushDeath(w);
             }},
            {"partial delivery",
             [&](FakeTransport &f, unsigned w, uint64_t id) {
                 f.pushResult(w, id, partialBytes, false, items);
             }},
        };
    for (const auto &[kind, inject] : failures) {
        ScratchDir dir("strict_first");
        FakeTransport fake(1);
        fake.onAssign = [&](unsigned w, const distrib::WireUnit &u) {
            inject(fake, w, u.id);
        };
        distrib::Options opts;
        opts.workers = 1;
        distrib::CampaignCoordinator coord(two, dir.path(), opts);
        EXPECT_THROW(coord.run(fake), std::runtime_error) << kind;
        EXPECT_EQ(fake.assignments, 1) << kind;
        EXPECT_TRUE(dirDigest(dir.path()).empty()) << kind;
    }
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
    EXPECT_EQ(h.quarantined.size(),
              shaders.size() * gpu::allDevices().size());
    for (const tuner::QuarantinedItem &q : h.quarantined)
        EXPECT_EQ(q.attempts, 0) << q.shader;
    EXPECT_TRUE(dirDigest(dir.path()).empty());
}

/** An in-process worker heartbeats while its unit runs, so a unit far
 * slower than the lease (every item stalls) is neither reaped nor
 * re-queued: it completes on its first assignment. */
TEST(DistribFaults, SlowInProcessUnitHeartbeatsThroughItsLease)
{
    const auto shaders = miniCorpus();
    const std::vector<corpus::CorpusShader> one{shaders[0]};
    ScratchDir dir("stall");
    fault::ScopedFaultPlan plan(
        fault::FaultPlan::parse("worker.item:1.0:21:stall"));
    distrib::Options opts;
    opts.workers = 1;
    opts.leaseMs = 80;
    distrib::CampaignCoordinator coord(one, dir.path(), opts);
    const auto start = std::chrono::steady_clock::now();
    const distrib::DistribHealth &h = coord.run();
    EXPECT_GT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(4 * opts.leaseMs));
    EXPECT_EQ(h.leaseExpiries, 0u);
    EXPECT_EQ(h.unitsRequeued, 0u);
    EXPECT_EQ(h.duplicateDeliveries, 0u);
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

/** Randomized fault torture over in-process workers behind the wire
 * decorator: ipc tears and failures, shard-write tears, worker faults.
 * Whatever completes must be byte-identical to the reference; a
 * quiesced re-run over the same directory finishes the job and
 * converges to full equality. */
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
            WireFaults wire(distrib::makeInProcessTransport(3));
            const distrib::DistribHealth &h = coord.run(wire);
            EXPECT_EQ(h.unitsCompleted + h.unitsFromCache +
                          shadersWithQuarantinedItems(h),
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
                  shadersWithQuarantinedItems(h),
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
