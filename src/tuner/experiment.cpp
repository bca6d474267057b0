#include "tuner/experiment.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>

#include "passes/registry.h"
#include "runtime/framework.h"
#include "support/diag.h"
#include "support/fault.h"
#include "support/governor.h"
#include "support/ipc.h"
#include "support/retry.h"
#include "support/rng.h"
#include "support/stats.h"
#include "tuner/distrib.h"

namespace gsopt::tuner {

namespace {

/** Bump when the measurement schema, a pass, or a cost model changes:
 * anything that can alter variants or timings without touching the
 * corpus or device parameters. */
/* 13: sharded per-shader cache, N-bit flag sets (wider producer
 * serialisation), combo->variant map replaces the fixed array. */
/* 14: Exploration carries the übershader family id (cross-shader
 * transfer seeding). */
/* 15: ordered-plan annotations — bodies may carry a trailing
 * variantOfPlan section (absent for pure flag-lattice campaigns, so
 * canonical bodies are byte-identical to schema 14) and plan-only
 * variants may have zero producers. The version is part of every
 * shard key, so schema-14 shards miss cleanly and re-run. */
/* 16: tagged trailing sections — the schema-15 plan section gains a
 * 'P' tag byte and a 'Q' quarantine section (device + structured
 * reason) follows it, each written only when non-empty, so healthy
 * flag-lattice bodies stay byte-identical to 14/15. */
constexpr uint64_t kSchemaVersion = 16;

} // namespace

uint64_t
deviceSetKey()
{
    uint64_t key = kSchemaVersion;
    key = hashCombine(key, passes::PassRegistry::instance().signature());
    for (gpu::DeviceId id : gpu::allDevices())
        key = hashCombine(key, gpu::deviceModelKey(gpu::deviceModel(id)));
    return key;
}

uint64_t
shardKey(const corpus::CorpusShader &shader, uint64_t setKey)
{
    uint64_t key = setKey;
    key = hashCombine(key, fnv1a(shader.name));
    key = hashCombine(key, fnv1a(shader.source));
    for (const auto &[k, v] : shader.defines) {
        key = hashCombine(key, fnv1a(k));
        key = hashCombine(key, fnv1a(v));
    }
    return key;
}

std::string
shardFileName(const corpus::CorpusShader &shader, uint64_t key)
{
    std::string name = shader.name;
    std::replace(name.begin(), name.end(), '/', '_');
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(key));
    return name + "-" + hex + ".bin";
}

const DeviceMeasurement &
ShaderResult::measurement(gpu::DeviceId dev) const
{
    auto it = byDevice.find(dev);
    if (it != byDevice.end())
        return it->second;
    const std::string name = exploration.shaderName.empty()
                                 ? "<unexplored>"
                                 : exploration.shaderName;
    if (quarantined.count(dev)) {
        std::string msg =
            "measurement for '" + name + "' on device " +
            std::to_string(static_cast<int>(dev)) +
            " was quarantined by the fault-tolerant campaign";
        auto why = quarantineReason.find(dev);
        if (why != quarantineReason.end())
            msg += ": " + why->second;
        msg += " (see ExperimentEngine::health())";
        throw std::out_of_range(msg);
    }
    throw std::out_of_range("no measurement for '" + name +
                            "' on device " +
                            std::to_string(static_cast<int>(dev)));
}

std::string
CampaignHealth::summary() const
{
    std::string out =
        "campaign health: " + std::to_string(unitsTotal) + " units (" +
        std::to_string(unitsFromCache) + " cached, " +
        std::to_string(unitsCompleted) + " completed), " +
        std::to_string(itemsCompleted) + " items ok, " +
        std::to_string(quarantined.size()) + " quarantined, " +
        std::to_string(itemRetries) + " item retries, " +
        std::to_string(unitsRequeued) + " requeues, " +
        std::to_string(shardsRejected) + " shards rejected, " +
        std::to_string(duplicateDeliveries) + " duplicates, " +
        std::to_string(leaseExpiries) + " lease expiries, " +
        std::to_string(workersRestarted) + " worker restarts\n";
    for (const QuarantinedItem &q : quarantined) {
        out += "  quarantined " + q.shader + " on device " +
               std::to_string(static_cast<int>(q.device)) + " after " +
               std::to_string(q.attempts) + " attempt(s): " + q.error +
               "\n";
    }
    return out;
}

double
DeviceMeasurement::speedupOf(int variant_index) const
{
    if (variant_index < 0 ||
        static_cast<size_t>(variant_index) >= variantMeanNs.size()) {
        throw std::out_of_range(
            "variant index " + std::to_string(variant_index) +
            " out of range (have " +
            std::to_string(variantMeanNs.size()) + " variants)");
    }
    if (originalMeanNs <= 0.0)
        return 0.0;
    const double v = variantMeanNs[static_cast<size_t>(variant_index)];
    return (originalMeanNs - v) / originalMeanNs * 100.0;
}

double
ShaderResult::bestSpeedup(gpu::DeviceId dev) const
{
    const auto &m = measurement(dev);
    double best = -1e30;
    for (size_t v = 0; v < m.variantMeanNs.size(); ++v)
        best = std::max(best, m.speedupOf(static_cast<int>(v)));
    return best;
}

FlagSet
ShaderResult::bestFlags(gpu::DeviceId dev) const
{
    const auto &m = measurement(dev);
    int best_variant = 0;
    double best = -1e30;
    for (size_t v = 0; v < m.variantMeanNs.size(); ++v) {
        // Plan-only variants have no producers — no flag set reaches
        // them, so they cannot answer a best-*flags* query.
        if (exploration.variants[v].producers.empty())
            continue;
        double s = m.speedupOf(static_cast<int>(v));
        if (s > best) {
            best = s;
            best_variant = static_cast<int>(v);
        }
    }
    // Prefer the smallest flag set among producers (minimal set).
    return minimalProducer(
        exploration.variants[static_cast<size_t>(best_variant)]
            .producers);
}

double
ShaderResult::isolatedFlagSpeedup(gpu::DeviceId dev, int bit) const
{
    const auto &m = measurement(dev);
    const size_t with = static_cast<size_t>(
        exploration.variantOf(FlagSet(1ull << bit)));
    const size_t base =
        static_cast<size_t>(exploration.passthroughVariant);
    const double t_with = m.variantMeanNs.at(with);
    const double t_base = m.variantMeanNs.at(base);
    return (t_base - t_with) / t_base * 100.0;
}

ExperimentEngine::ExperimentEngine(
    const std::vector<corpus::CorpusShader> &shaders, unsigned threads)
    : ExperimentEngine(shaders, threads, std::string())
{
}

ExperimentEngine::ExperimentEngine(
    const std::vector<corpus::CorpusShader> &shaders, unsigned threads,
    const std::string &cacheDir)
{
    distrib::Options opts;
    opts.workers = threads;
    distrib::CampaignCoordinator coordinator(shaders, cacheDir, opts);
    health_ = coordinator.run();
    results_ = std::move(coordinator.results());
}

const ExperimentEngine &
ExperimentEngine::instance()
{
    static const ExperimentEngine engine = [] {
        const auto &shaders = corpus::corpus();
        if (std::getenv("GSOPT_NO_CACHE") != nullptr)
            return ExperimentEngine(shaders, 0);
        return ExperimentEngine(shaders, 0, "experiment_cache");
    }();
    return engine;
}

CampaignHealth
runShaderUnit(const corpus::CorpusShader &shader, ShaderResult &r)
{
    const bool strict = strictMode();
    const RetryPolicy policy = defaultRetryPolicy();
    CampaignHealth health;
    bool explored = false;

    // One (shader, device) item.
    auto run_item = [&](gpu::DeviceId dev, DeviceMeasurement &m) {
        // Admission control: one (shader, device) item is one governed
        // unit of work — under an ambient GSOPT_DEADLINE_MS each item
        // gets its own deadline, so one pathological item is
        // quarantined instead of starving the rest of the campaign.
        // Installed here (the unit's thread) because budgets are
        // thread-local. A retry of the item gets a fresh budget, like
        // any other request.
        governor::ScopedRequestBudget admission;

        fault::point("worker.item", shader.name);

        // The first item that gets this far explores; if exploration
        // throws, the next attempt (or the next device's item) tries
        // again.
        if (!explored) {
            r.exploration = exploreShader(shader);
            explored = true;
        }

        // Drivers receive what an application would ship: the original
        // preprocessed text (real engines preprocess übershaders before
        // glShaderSource).
        const std::string &original = r.exploration.preprocessedOriginal;
        const gpu::DeviceModel &device = gpu::deviceModel(dev);

        // Reset the measurement: this may be the retry of a partially
        // filled attempt, and the measurement protocol is
        // deterministic, so a clean re-run reproduces the same values.
        m = DeviceMeasurement{};
        m.originalMeanNs =
            runtime::measureShader(original, device,
                                   shader.name + "/original")
                .meanNs;
        m.variantMeanNs.reserve(r.exploration.variants.size());
        for (size_t v = 0; v < r.exploration.variants.size(); ++v) {
            const auto &variant = r.exploration.variants[v];
            m.variantMeanNs.push_back(
                runtime::measureShader(
                    variant.source, device,
                    shader.name + "/v" + std::to_string(v))
                    .meanNs);
        }
    };

    for (gpu::DeviceId dev : gpu::allDevices()) {
        DeviceMeasurement m;
        int attempts = 1;
        try {
            if (strict)
                run_item(dev, m);
            else
                retryTransient(
                    policy, shader.name + "/item",
                    [&] { run_item(dev, m); }, &attempts);
            r.byDevice.emplace(dev, std::move(m));
            health.itemsCompleted++;
        } catch (const std::exception &e) {
            if (strict)
                throw;
            // Exploration itself may have failed; keep the result
            // addressable by name either way.
            if (r.exploration.shaderName.empty())
                r.exploration.shaderName = shader.name;
            r.quarantined.insert(dev);
            // The structured reason rides with the result (and,
            // through the schema-16 'Q' section, with any shard
            // serialised from it): for a budget kill this is the
            // ResourceExhausted message naming the dimension and stage.
            r.quarantineReason[dev] = e.what();
            warn("quarantined campaign item " + shader.name + " x " +
                 gpu::deviceModel(dev).vendor + " after " +
                 std::to_string(attempts) + " attempt(s): " + e.what());
            health.quarantined.push_back(
                {shader.name, dev, e.what(), attempts});
        }
        health.itemRetries += static_cast<uint64_t>(attempts - 1);
    }
    health.itemsQuarantined =
        static_cast<uint64_t>(health.quarantined.size());
    return health;
}

const ShaderResult &
ExperimentEngine::result(const std::string &shaderName) const
{
    for (const auto &r : results_) {
        if (r.exploration.shaderName == shaderName)
            return r;
    }
    std::string known;
    for (const auto &r : results_) {
        known += known.empty() ? " " : ", ";
        known += r.exploration.shaderName;
    }
    throw std::out_of_range("no result for shader '" + shaderName +
                            "'; known shaders:" + known);
}

double
ExperimentEngine::meanSpeedup(gpu::DeviceId dev, FlagSet flags) const
{
    std::vector<double> speedups;
    speedups.reserve(results_.size());
    for (const auto &r : results_)
        speedups.push_back(r.speedupFor(dev, flags));
    return mean(speedups);
}

double
ExperimentEngine::meanBestSpeedup(gpu::DeviceId dev) const
{
    std::vector<double> speedups;
    speedups.reserve(results_.size());
    for (const auto &r : results_)
        speedups.push_back(r.bestSpeedup(dev));
    return mean(speedups);
}

FlagSet
ExperimentEngine::bestStaticFlags(gpu::DeviceId dev) const
{
    FlagSet best;
    double best_mean = -1e30;
    for (const FlagSet &flags : allFlagSets()) {
        const double m = meanSpeedup(dev, flags);
        const bool better =
            m > best_mean + 1e-12 ||
            (m > best_mean - 1e-12 && flags.count() < best.count());
        if (better) {
            best_mean = m;
            best = flags;
        }
    }
    return best;
}

FlagSet
ExperimentEngine::bestStaticFlagsOverall() const
{
    FlagSet best;
    double best_mean = -1e30;
    for (const FlagSet &flags : allFlagSets()) {
        double sum = 0;
        for (gpu::DeviceId dev : gpu::allDevices())
            sum += meanSpeedup(dev, flags);
        if (sum > best_mean) {
            best_mean = sum;
            best = flags;
        }
    }
    return best;
}

std::vector<double>
ExperimentEngine::perShaderSpeedups(gpu::DeviceId dev,
                                    FlagSet flags) const
{
    std::vector<double> out;
    out.reserve(results_.size());
    for (const auto &r : results_)
        out.push_back(r.speedupFor(dev, flags));
    return out;
}

std::vector<double>
ExperimentEngine::perShaderBestSpeedups(gpu::DeviceId dev) const
{
    std::vector<double> out;
    out.reserve(results_.size());
    for (const auto &r : results_)
        out.push_back(r.bestSpeedup(dev));
    return out;
}

FamilyPrior
ExperimentEngine::familyPrior() const
{
    FamilyPrior prior;
    for (const auto &r : results_) {
        for (const auto &[dev, m] : r.byDevice) {
            (void)m;
            prior.add(r.exploration.family, dev,
                      r.exploration.shaderName, r.bestFlags(dev));
        }
    }
    return prior;
}

// ---------------------------------------------------------------- cache

namespace {

/** A shard file's header: the shard key, then fnv1a of the body. */
constexpr size_t kShardHeaderBytes = 2 * sizeof(uint64_t);

/** Append @p r's shard body (serializeShardBody's bytes) to @p p. */
void
packShardBody(ipc::Pack &p, const ShaderResult &r)
{
    const Exploration &ex = r.exploration;
    p.str(ex.shaderName)
        .str(ex.family)
        .str(ex.preprocessedOriginal)
        .str(ex.originalSource)
        .u64(ex.exploredFlagCount)
        .u64(ex.variants.size());
    for (const auto &v : ex.variants) {
        p.str(v.source).u64(v.sourceHash).u64(v.producers.size());
        for (const FlagSet &f : v.producers)
            p.u64(f.bits);
    }
    p.u64(ex.variantOfCombo.size());
    // Deterministic order keeps shard bytes reproducible.
    std::vector<std::pair<uint64_t, int>> combos(
        ex.variantOfCombo.begin(), ex.variantOfCombo.end());
    std::sort(combos.begin(), combos.end());
    for (const auto &[combo, index] : combos)
        p.u64(combo).pod<int64_t>(index);
    p.pod(ex.passthroughVariant).u64(r.byDevice.size());
    for (const auto &[dev, m] : r.byDevice) {
        p.pod(static_cast<int>(dev))
            .pod(m.originalMeanNs)
            .u64(m.variantMeanNs.size());
        for (double t : m.variantMeanNs)
            p.pod(t);
    }
    // Tagged trailing sections (schema 16), each written only when
    // non-empty, so a healthy pure flag-lattice campaign — the paper's
    // canonical 2^N sweep — serialises byte-identically to schema
    // 14/15 and the golden md5 pins hold. Both source maps are ordered;
    // iteration order is deterministic.
    if (!ex.variantOfPlan.empty()) {
        p.pod('P').u64(ex.variantOfPlan.size());
        for (const auto &[plan, index] : ex.variantOfPlan)
            p.str(plan).pod<int64_t>(index);
    }
    if (!r.quarantined.empty()) {
        p.pod('Q').u64(r.quarantined.size());
        for (gpu::DeviceId dev : r.quarantined) {
            auto why = r.quarantineReason.find(dev);
            p.pod(static_cast<int>(dev))
                .str(why == r.quarantineReason.end() ? std::string_view()
                                                     : why->second);
        }
    }
}

void
warnShard(const std::string &path, const std::string &what)
{
    warn("shard checkpoint '" + path + "': " + what);
}

} // namespace

std::string
serializeShardBody(const ShaderResult &r)
{
    ipc::Pack p;
    packShardBody(p, r);
    return p.take();
}

std::string
shardFileBytes(uint64_t key, const ShaderResult &r)
{
    // The body is packed behind a header whose hash slot is filled in
    // afterwards: the structural caps in parseShard cannot catch a
    // flipped byte inside stored shader text, and a silently wrong
    // variant is worse than a re-run shard.
    ipc::Pack p;
    p.u64(key).u64(0);
    packShardBody(p, r);
    std::string bytes = p.take();
    const uint64_t body_hash =
        fnv1a(std::string_view(bytes).substr(kShardHeaderBytes));
    std::memcpy(&bytes[sizeof(uint64_t)], &body_hash, sizeof body_hash);
    return bytes;
}

bool
parseShard(std::string_view bytes, uint64_t key, ShaderResult &out)
{
    ipc::Unpack header(bytes);
    uint64_t file_key = 0, body_hash = 0;
    if (!header.u64(file_key) || file_key != key ||
        !header.u64(body_hash))
        return false;
    const std::string_view body = bytes.substr(kShardHeaderBytes);
    if (fnv1a(body) != body_hash)
        return false;

    ipc::Unpack in(body);
    ShaderResult r;
    Exploration &ex = r.exploration;
    uint64_t flag_count = 0, n_variants = 0;
    if (!in.str(ex.shaderName) || !in.str(ex.family) ||
        !in.str(ex.preprocessedOriginal) || !in.str(ex.originalSource) ||
        !in.u64(flag_count) || flag_count > 63 || !in.u64(n_variants) ||
        n_variants > 100000)
        return false;
    ex.exploredFlagCount = flag_count;
    // Only a unit whose exploration failed has no variants; it then
    // has no combos, passthrough 0, no measurements and a 'Q' section.
    const bool unexplored = n_variants == 0;
    auto is_variant = [&](int64_t index) {
        return index >= 0 && static_cast<uint64_t>(index) < n_variants;
    };
    ex.variants.resize(n_variants);
    // Plan-only variants (schema 15) legitimately have zero producers
    // — no flag combination reaches their text. Anything else with
    // zero producers is structural corruption; checked once the plan
    // section below says which variants plans actually reference.
    std::vector<size_t> producerless;
    for (size_t vi = 0; vi < n_variants; ++vi) {
        Variant &v = ex.variants[vi];
        uint64_t n_producers = 0;
        if (!in.str(v.source) || !in.u64(v.sourceHash) ||
            !in.u64(n_producers) || n_producers > (1ull << 24))
            return false;
        if (n_producers == 0)
            producerless.push_back(vi);
        v.producers.resize(n_producers);
        for (FlagSet &f : v.producers) {
            if (!in.u64(f.bits))
                return false;
        }
    }
    uint64_t n_combos = 0;
    if (!in.u64(n_combos) || n_combos > (1ull << 24))
        return false;
    ex.variantOfCombo.reserve(n_combos);
    for (uint64_t c = 0; c < n_combos; ++c) {
        uint64_t combo = 0;
        int64_t index = 0;
        if (!in.u64(combo) || !in.pod(index) || !is_variant(index))
            return false;
        ex.variantOfCombo.emplace(combo, static_cast<int>(index));
    }
    uint64_t n_devices = 0;
    if (!in.pod(ex.passthroughVariant) ||
        !(unexplored ? ex.passthroughVariant == 0
                     : is_variant(ex.passthroughVariant)) ||
        !in.u64(n_devices) || n_devices > (unexplored ? 0 : 16))
        return false;
    // Every device id must name a configured device. Whether the shard
    // covers all of them is the caller's check: the coordinator's
    // merge gate requires it, a hand-built result may hold fewer.
    const std::vector<gpu::DeviceId> configured = gpu::allDevices();
    auto known_device = [&configured](int dev) {
        return std::find(configured.begin(), configured.end(),
                         static_cast<gpu::DeviceId>(dev)) !=
               configured.end();
    };
    for (uint64_t d = 0; d < n_devices; ++d) {
        int dev = 0;
        DeviceMeasurement m;
        uint64_t n_times = 0;
        if (!in.pod(dev) || !known_device(dev) ||
            !in.pod(m.originalMeanNs) || !in.u64(n_times) ||
            n_times != n_variants)
            return false;
        m.variantMeanNs.resize(n_times);
        for (double &t : m.variantMeanNs) {
            if (!in.pod(t))
                return false;
        }
        // A device measured twice is corrupt too.
        if (!r.byDevice
                 .emplace(static_cast<gpu::DeviceId>(dev), std::move(m))
                 .second)
            return false;
    }
    // Optional tagged trailing sections (schema 16): 'P' plans then
    // 'Q' quarantine, each at most once, in that order. Absent for a
    // healthy flag-lattice campaign — then the body ends exactly here.
    bool seen_plans = false, seen_quarantine = false;
    while (!in.done()) {
        char tag = 0;
        in.pod(tag); // cannot fail: a byte remains
        if (tag == 'P' && !seen_plans && !seen_quarantine) {
            seen_plans = true;
            uint64_t n_plans = 0;
            if (!in.u64(n_plans) || n_plans == 0 || n_plans > (1ull << 24))
                return false;
            for (uint64_t i = 0; i < n_plans; ++i) {
                std::string plan;
                int64_t index = 0;
                // A duplicate plan key is corrupt too.
                if (!in.str(plan) || plan.empty() || !in.pod(index) ||
                    !is_variant(index) ||
                    !ex.variantOfPlan
                         .emplace(std::move(plan), static_cast<int>(index))
                         .second)
                    return false;
            }
        } else if (tag == 'Q' && !seen_quarantine) {
            seen_quarantine = true;
            uint64_t n_q = 0;
            if (!in.u64(n_q) || n_q == 0 || n_q > 1024)
                return false;
            for (uint64_t i = 0; i < n_q; ++i) {
                int dev_int = 0;
                std::string reason;
                if (!in.pod(dev_int) || !known_device(dev_int) ||
                    !in.str(reason))
                    return false;
                const auto dev = static_cast<gpu::DeviceId>(dev_int);
                // A quarantined device has no measurement, and the
                // set itself must be duplicate-free.
                if (r.byDevice.count(dev) ||
                    !r.quarantined.insert(dev).second)
                    return false;
                if (!reason.empty())
                    r.quarantineReason.emplace(dev, std::move(reason));
            }
        } else {
            return false; // unknown, duplicate or out-of-order section
        }
    }
    if (unexplored && r.quarantined.empty())
        return false;
    // Every producer-less variant must be reachable through some plan
    // annotation; otherwise the body is structurally corrupt.
    for (size_t vi : producerless) {
        if (std::none_of(ex.variantOfPlan.begin(), ex.variantOfPlan.end(),
                         [&](const auto &plan) {
                             return static_cast<size_t>(plan.second) == vi;
                         }))
            return false;
    }
    out = std::move(r);
    return true;
}

bool
publishShardFile(const std::string &path, const std::string &bytes)
{
    namespace fs = std::filesystem;
    // Tmp-rename protocol: build the whole file beside the target,
    // publish it with one atomic rename. A crash (or injected tear)
    // mid-write leaves only the .tmp — readers never see a torn shard,
    // and a previous complete shard stays intact.
    const std::string tmp = path + ".tmp";
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) {
        warnShard(path, "cannot open temporary file for writing");
        return false;
    }
    const size_t n = fault::tearPoint("shard.write", bytes.size());
    file.write(bytes.data(), static_cast<std::streamsize>(n));
    file.close();
    if (n != bytes.size()) {
        // Injected torn write: simulate the process dying mid-write —
        // abandon the .tmp without publishing it.
        warnShard(path, "torn write injected; checkpoint abandoned");
        return false;
    }
    std::error_code ec;
    if (!file) {
        warnShard(path, "write failed; checkpoint abandoned");
    } else {
        fs::rename(tmp, path, ec);
        if (!ec)
            return true;
        warnShard(path, "rename failed: " + ec.message());
    }
    fs::remove(tmp, ec);
    return false;
}

ShardStore::ShardStore(std::string dir,
                       const std::vector<corpus::CorpusShader> &shaders)
    : dir_(std::move(dir))
{
    std::error_code ec;
    if (!dir_.empty())
        std::filesystem::create_directories(dir_, ec);
    const uint64_t set_key = deviceSetKey();
    for (const corpus::CorpusShader &shader : shaders) {
        keys_.push_back(shardKey(shader, set_key));
        paths_.push_back(dir_ + "/" + shardFileName(shader, keys_.back()));
    }
}

std::vector<size_t>
ShardStore::load(std::vector<ShaderResult> &results) const
{
    std::vector<size_t> missing;
    for (size_t i = 0; i < keys_.size(); ++i) {
        if (dir_.empty() ||
            !ExperimentEngine::loadShard(paths_[i], keys_[i], results[i]))
            missing.push_back(i);
    }
    return missing;
}

void
ShardStore::sweep() const
{
    namespace fs = std::filesystem;
    if (dir_.empty())
        return;
    std::set<std::string> live;
    for (const std::string &p : paths_)
        live.insert(fs::path(p).filename().string());
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        fs::path name = entry.path().filename();
        if (name.extension() == ".tmp")
            name.replace_extension(); // a checkpoint of `name`
        if (name.extension() == ".bin" && !live.count(name.string()))
            fs::remove(entry.path(), ec);
    }
}

void
ExperimentEngine::saveShard(const std::string &path, uint64_t key,
                            const ShaderResult &r)
{
    publishShardFile(path, shardFileBytes(key, r));
}

bool
ExperimentEngine::loadShard(const std::string &path, uint64_t key,
                            ShaderResult &out)
{
    // An injected read fault is a cache miss: the shard re-runs.
    if (fault::triggered("shard.read"))
        return false;
    std::ifstream file(path, std::ios::binary | std::ios::ate);
    const std::streamoff size = file ? std::streamoff(file.tellg()) : -1;
    // The key and the content hash, then a body of at most 2 GiB.
    if (size < 0 || size > 16 + (1ll << 31))
        return false;
    std::string bytes(static_cast<size_t>(size), '\0');
    if (!file.seekg(0) || !file.read(bytes.data(), size))
        return false;
    if (parseShard(bytes, key, out))
        return true;
    uint64_t file_key = 0;
    if (ipc::Unpack(bytes).u64(file_key) && file_key != key) {
        // A present-but-differently-keyed shard is stale, not corrupt:
        // the key covers the schema version, registry signature,
        // device set, and shader source, so this is what an old-schema
        // (or otherwise outdated) shard looks like. Miss cleanly — the
        // shard re-runs — but say so: a silent wrong-key hit here
        // would poison every figure downstream.
        warnShard(path, "key mismatch (stale schema, registry, device "
                        "set, or shader source); treating as a cache "
                        "miss");
    }
    return false;
}

} // namespace gsopt::tuner
