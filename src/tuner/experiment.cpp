#include "tuner/experiment.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "passes/registry.h"
#include "runtime/framework.h"
#include "support/diag.h"
#include "support/fault.h"
#include "support/governor.h"
#include "support/retry.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/thread_pool.h"

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

/** Exact IEEE-754 bit pattern of a double, for hashing. Decimal
 * formatting (the old ostringstream path) silently collided configs
 * differing past the default 6 significant digits. */
uint64_t
doubleBits(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

} // namespace

uint64_t
deviceModelKey(const gpu::DeviceModel &device)
{
    uint64_t key = fnv1a(device.name);
    key = hashCombine(key, fnv1a(device.vendor));
    key = hashCombine(key, static_cast<uint64_t>(device.id));
    key = hashCombine(key, static_cast<uint64_t>(device.isa));
    for (double v :
         {device.clockGhz, device.baseOverheadCycles, device.costAddMul,
          device.costDiv, device.costSqrt, device.costTranscendental,
          device.costMov, device.costBranch, device.divergencePenalty,
          device.texIssueCost, device.texLatency, device.wavesToHideTex,
          device.regBudget, device.spillThreshold, device.spillCost,
          device.maxWaves, device.icacheInstrs, device.icachePenalty,
          device.slpEfficiency, device.noiseSigma,
          device.timerQuantumNs}) {
        key = hashCombine(key, doubleBits(v));
    }
    key = hashCombine(key, static_cast<uint64_t>(device.shaderUnits));
    key = hashCombine(key,
                      static_cast<uint64_t>(device.trianglesPerFrame));
    key = hashCombine(key, device.jitFlags.mask());
    key = hashCombine(key,
                      static_cast<uint64_t>(device.jitUnrollTrips));
    key = hashCombine(key,
                      static_cast<uint64_t>(device.jitUnrollInstrs));
    key = hashCombine(key,
                      static_cast<uint64_t>(device.jitHoistArmInstrs));
    key = hashCombine(key,
                      static_cast<uint64_t>(device.schedulerWindow));
    return key;
}

uint64_t
deviceSetKey()
{
    uint64_t key = kSchemaVersion;
    key = hashCombine(key, passes::PassRegistry::instance().signature());
    for (gpu::DeviceId id : gpu::allDevices())
        key = hashCombine(key, deviceModelKey(gpu::deviceModel(id)));
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
    std::string out = "campaign health: " +
                      std::to_string(itemsCompleted) + " items ok, " +
                      std::to_string(itemsQuarantined) +
                      " quarantined, " + std::to_string(itemRetries) +
                      " item retries\n";
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
{
    results_.resize(shaders.size());
    std::vector<size_t> all(shaders.size());
    for (size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    runShaders(shaders, all, threads);
}

ExperimentEngine::ExperimentEngine(
    const std::vector<corpus::CorpusShader> &shaders, unsigned threads,
    const std::string &cacheDir)
{
    namespace fs = std::filesystem;
    results_.resize(shaders.size());

    const uint64_t set_key = deviceSetKey();

    auto shard_path = [&](size_t i, uint64_t key) {
        return cacheDir + "/" + shardFileName(shaders[i], key);
    };

    // Retire every shard no current shader claims (old keys from
    // prior schemas / device sets / registries / source revisions,
    // and shaders dropped from the corpus) so the cache never
    // accretes. In-flight `.tmp` checkpoints are never reaped while
    // their key is live; a `.tmp` whose key died is an orphan too.
    auto sweep_orphans = [&] {
        std::set<std::string> live;
        for (size_t i = 0; i < shaders.size(); ++i)
            live.insert(shard_path(i, shardKey(shaders[i], set_key)));
        auto ends_with = [](const std::string &s,
                            const std::string &suffix) {
            return s.size() >= suffix.size() &&
                   s.compare(s.size() - suffix.size(), suffix.size(),
                             suffix) == 0;
        };
        std::error_code iter_ec;
        for (const auto &entry :
             fs::directory_iterator(cacheDir, iter_ec)) {
            const std::string name = entry.path().filename().string();
            if (ends_with(name, ".bin")) {
                if (!live.count(cacheDir + "/" + name))
                    fs::remove(entry.path(), iter_ec);
            } else if (ends_with(name, ".bin.tmp")) {
                const std::string base =
                    name.substr(0, name.size() - 4);
                if (!live.count(cacheDir + "/" + base))
                    fs::remove(entry.path(), iter_ec);
            }
        }
    };

    std::vector<size_t> missing;
    for (size_t i = 0; i < shaders.size(); ++i) {
        const uint64_t key = shardKey(shaders[i], set_key);
        if (!loadShard(shard_path(i, key), key, results_[i]))
            missing.push_back(i);
    }
    if (missing.empty()) {
        sweep_orphans();
        return;
    }

    std::error_code dir_ec;
    fs::create_directories(cacheDir, dir_ec);

    // Checkpoint each shard the moment its shader's unit completes
    // (called from worker threads; each shader writes a distinct
    // file), so a killed campaign resumes from the shards it finished
    // instead of re-running everything.
    auto checkpoint = [&](size_t i) {
        if (dir_ec)
            return;
        const uint64_t key = shardKey(shaders[i], set_key);
        saveShard(shard_path(i, key), key, results_[i]);
    };

    runShaders(shaders, missing, threads, checkpoint);
    sweep_orphans();
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

void
ExperimentEngine::runShaders(
    const std::vector<corpus::CorpusShader> &shaders,
    const std::vector<size_t> &indices, unsigned threads,
    const std::function<void(size_t)> &checkpoint)
{
    const std::vector<gpu::DeviceId> devices = gpu::allDevices();
    const size_t n_dev = devices.size();

    // GSOPT_STRICT=1 restores fail-fast: the first item error aborts
    // the campaign (CI wants a loud failure, not a quarantine).
    const char *strict_env = std::getenv("GSOPT_STRICT");
    const bool strict = strict_env && *strict_env && *strict_env != '0';
    const RetryPolicy policy = defaultRetryPolicy();

    std::mutex health_mutex;
    std::atomic<uint64_t> retries{0};

    // Quarantine one (shader, device) item. The ShaderResult belongs
    // to the calling unit's thread; only the campaign-wide health
    // report is shared.
    auto quarantine_item = [&](size_t si, size_t di, const char *what,
                               int attempts) {
        const corpus::CorpusShader &shader = shaders[indices[si]];
        ShaderResult &r = results_[indices[si]];
        // Exploration itself may have failed; keep the result
        // addressable by name either way.
        if (r.exploration.shaderName.empty())
            r.exploration.shaderName = shader.name;
        r.quarantined.insert(devices[di]);
        // The structured reason rides with the result (and, through
        // the schema-16 'Q' section, with any shard serialised from
        // it): for a budget kill this is the ResourceExhausted message
        // naming the dimension and stage.
        r.quarantineReason[devices[di]] = what;
        QuarantinedItem q;
        q.shader = shader.name;
        q.device = devices[di];
        q.error = what;
        q.attempts = attempts;

        Diagnostic d;
        d.severity = Severity::Warning;
        d.message = "quarantined campaign item " + q.shader + " x " +
                    gpu::deviceModel(devices[di]).vendor + " after " +
                    std::to_string(attempts) + " attempt(s): " + what;
        std::fprintf(stderr, "%s\n", d.str().c_str());

        std::lock_guard<std::mutex> lock(health_mutex);
        health_.quarantined.push_back(std::move(q));
    };

    // One unit per shader: it explores the shader once, then runs its
    // device items in device order on the same thread, so no two
    // threads ever explore, parse or compile the same shader's texts.
    // Each unit writes only its own ShaderResult, so the campaign
    // output is identical for any thread count and completion order.
    parallelFor(indices.size(), threads, [&](size_t si) {
        const corpus::CorpusShader &shader = shaders[indices[si]];
        ShaderResult &r = results_[indices[si]];
        bool explored = false;
        bool clean = true;

        // One (shader, device) item.
        auto run_item = [&](gpu::DeviceId dev, DeviceMeasurement &m) {
            // Admission control: one (shader, device) item is one
            // governed unit of work — under an ambient
            // GSOPT_DEADLINE_MS each item gets its own deadline, so
            // one pathological item is quarantined instead of
            // starving the rest of the campaign. Installed here
            // (worker thread) rather than at the campaign entry
            // because budgets are thread-local. A retry of the item
            // gets a fresh budget, like any other request.
            governor::ScopedRequestBudget admission;

            fault::point("worker.item", shader.name);

            // The first item that gets this far explores; if
            // exploration throws, the next attempt (or the next
            // device's item) tries again.
            if (!explored) {
                r.exploration = exploreShader(shader);
                explored = true;
            }

            // Drivers receive what an application would ship: the
            // original preprocessed text (real engines preprocess
            // übershaders before glShaderSource).
            const std::string &original =
                r.exploration.preprocessedOriginal;
            const gpu::DeviceModel &device = gpu::deviceModel(dev);

            // Reset the measurement: this may be the retry of a
            // partially filled attempt, and the measurement protocol
            // is deterministic, so a clean re-run reproduces the same
            // values.
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

        for (size_t di = 0; di < n_dev; ++di) {
            DeviceMeasurement m;
            if (strict) {
                run_item(devices[di], m);
                r.byDevice.emplace(devices[di], std::move(m));
                continue;
            }
            int attempts = 0;
            try {
                retryTransient(
                    policy, shader.name + "/item",
                    [&] { run_item(devices[di], m); }, &attempts);
                r.byDevice.emplace(devices[di], std::move(m));
            } catch (const std::exception &e) {
                quarantine_item(si, di, e.what(), attempts);
                clean = false;
            }
            if (attempts > 1)
                retries.fetch_add(static_cast<uint64_t>(attempts - 1),
                                  std::memory_order_relaxed);
        }

        // Checkpoint only a shader whose items all completed cleanly.
        if (clean && checkpoint)
            checkpoint(indices[si]);
    });

    health_.itemRetries += retries.load(std::memory_order_relaxed);
    health_.itemsQuarantined =
        static_cast<uint64_t>(health_.quarantined.size());
    health_.itemsCompleted +=
        static_cast<uint64_t>(indices.size() * n_dev) -
        health_.itemsQuarantined;

    if (!health_.healthy())
        std::fprintf(stderr, "%s", health_.summary().c_str());
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

void
writeString(std::ostream &os, const std::string &s)
{
    const uint64_t n = s.size();
    os.write(reinterpret_cast<const char *>(&n), sizeof(n));
    os.write(s.data(), static_cast<std::streamsize>(n));
}

bool
readString(std::istream &is, std::string &s)
{
    uint64_t n = 0;
    if (!is.read(reinterpret_cast<char *>(&n), sizeof(n)))
        return false;
    // Bound the length by the bytes actually remaining in the body: a
    // flipped length byte must fail cleanly here, not allocate ~1 GB
    // before the read fails.
    const std::streamoff here = is.tellg();
    if (here < 0)
        return false;
    is.seekg(0, std::ios::end);
    const std::streamoff end = is.tellg();
    is.seekg(here);
    if (end < here || n > static_cast<uint64_t>(end - here))
        return false;
    s.resize(n);
    return static_cast<bool>(
        is.read(s.data(), static_cast<std::streamsize>(n)));
}

template <typename T>
void
writePod(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
bool
readPod(std::istream &is, T &v)
{
    return static_cast<bool>(
        is.read(reinterpret_cast<char *>(&v), sizeof(T)));
}

} // namespace

std::string
serializeShardBody(const ShaderResult &r)
{
    std::ostringstream os(std::ios::binary);
    writeString(os, r.exploration.shaderName);
    writeString(os, r.exploration.family);
    writeString(os, r.exploration.preprocessedOriginal);
    writeString(os, r.exploration.originalSource);
    writePod(os,
             static_cast<uint64_t>(r.exploration.exploredFlagCount));
    writePod(os, static_cast<uint64_t>(r.exploration.variants.size()));
    for (const auto &v : r.exploration.variants) {
        writeString(os, v.source);
        writePod(os, v.sourceHash);
        writePod(os, static_cast<uint64_t>(v.producers.size()));
        for (const FlagSet &f : v.producers)
            writePod(os, f.bits);
    }
    writePod(os,
             static_cast<uint64_t>(r.exploration.variantOfCombo.size()));
    // Deterministic order keeps shard bytes reproducible.
    std::vector<std::pair<uint64_t, int>> combos(
        r.exploration.variantOfCombo.begin(),
        r.exploration.variantOfCombo.end());
    std::sort(combos.begin(), combos.end());
    for (const auto &[combo, index] : combos) {
        writePod(os, combo);
        writePod(os, static_cast<int64_t>(index));
    }
    writePod(os, r.exploration.passthroughVariant);
    writePod(os, static_cast<uint64_t>(r.byDevice.size()));
    for (const auto &[dev, m] : r.byDevice) {
        writePod(os, static_cast<int>(dev));
        writePod(os, m.originalMeanNs);
        writePod(os, static_cast<uint64_t>(m.variantMeanNs.size()));
        for (double t : m.variantMeanNs)
            writePod(os, t);
    }
    // Tagged trailing sections (schema 16), each written only when
    // non-empty, so a healthy pure flag-lattice campaign — the paper's
    // canonical 2^N sweep — serialises byte-identically to schema
    // 14/15 and the golden md5 pins hold. Both source maps are ordered;
    // iteration order is deterministic.
    if (!r.exploration.variantOfPlan.empty()) {
        writePod(os, static_cast<char>('P'));
        writePod(os, static_cast<uint64_t>(
                         r.exploration.variantOfPlan.size()));
        for (const auto &[plan, index] : r.exploration.variantOfPlan) {
            writeString(os, plan);
            writePod(os, static_cast<int64_t>(index));
        }
    }
    if (!r.quarantined.empty()) {
        writePod(os, static_cast<char>('Q'));
        writePod(os, static_cast<uint64_t>(r.quarantined.size()));
        for (gpu::DeviceId dev : r.quarantined) {
            writePod(os, static_cast<int>(dev));
            auto why = r.quarantineReason.find(dev);
            writeString(os, why == r.quarantineReason.end()
                                ? std::string()
                                : why->second);
        }
    }
    return os.str();
}

namespace {

void
warnShard(const std::string &path, const std::string &what)
{
    Diagnostic d;
    d.severity = Severity::Warning;
    d.message = "shard checkpoint '" + path + "': " + what;
    std::fprintf(stderr, "%s\n", d.str().c_str());
}

} // namespace

void
ExperimentEngine::saveShard(const std::string &path, uint64_t key,
                            const ShaderResult &r)
{
    namespace fs = std::filesystem;
    // Serialise the body first so a content hash can front it: the
    // structural caps in loadShard cannot catch a flipped byte inside
    // stored shader text, and a silently wrong variant is worse than
    // a re-run shard.
    const std::string body = serializeShardBody(r);

    // Tmp-rename protocol: build the whole file beside the target,
    // publish it with one atomic rename. A crash (or injected tear)
    // mid-write leaves only the .tmp — readers never see a torn
    // shard, and a previous complete shard stays intact.
    const std::string tmp = path + ".tmp";
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) {
        warnShard(path, "cannot open temporary file for writing");
        return;
    }
    writePod(file, key);
    writePod(file, fnv1a(body));
    const size_t n = fault::tearPoint("shard.write", body.size());
    file.write(body.data(), static_cast<std::streamsize>(n));
    file.flush();
    if (n != body.size()) {
        // Injected torn write: simulate the process dying mid-write —
        // abandon the .tmp without publishing it.
        warnShard(path, "torn write injected; checkpoint abandoned");
        return;
    }
    if (!file) {
        warnShard(path, "write failed; checkpoint abandoned");
        std::error_code ec;
        fs::remove(tmp, ec);
        return;
    }
    file.close();
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        warnShard(path, "rename failed: " + ec.message());
}

bool
ExperimentEngine::loadShard(const std::string &path, uint64_t key,
                            ShaderResult &out)
{
    // An injected read fault is a cache miss: the shard re-runs.
    if (fault::triggered("shard.read"))
        return false;
    std::ifstream file(path, std::ios::binary);
    if (!file)
        return false;
    uint64_t file_key = 0, body_hash = 0;
    if (!readPod(file, file_key))
        return false;
    if (file_key != key) {
        // A present-but-differently-keyed shard is stale, not corrupt:
        // the key covers the schema version, registry signature,
        // device set, and shader source, so this is what an old-schema
        // (or otherwise outdated) shard looks like. Miss cleanly — the
        // shard re-runs — but say so: a silent wrong-key hit here
        // would poison every figure downstream.
        warnShard(path, "key mismatch (stale schema, registry, device "
                        "set, or shader source); treating as a cache "
                        "miss");
        return false;
    }
    if (!readPod(file, body_hash))
        return false;
    const std::streamoff body_start = file.tellg();
    file.seekg(0, std::ios::end);
    const std::streamoff body_size = file.tellg() - body_start;
    if (body_size < 0 || body_size > (1ll << 31))
        return false;
    file.seekg(body_start);
    std::string body(static_cast<size_t>(body_size), '\0');
    if (!file.read(body.data(), body_size))
        return false;
    if (fnv1a(body) != body_hash)
        return false;
    std::istringstream is(body, std::ios::binary);
    ShaderResult r;
    if (!readString(is, r.exploration.shaderName) ||
        !readString(is, r.exploration.family) ||
        !readString(is, r.exploration.preprocessedOriginal) ||
        !readString(is, r.exploration.originalSource))
        return false;
    uint64_t flag_count = 0;
    if (!readPod(is, flag_count) || flag_count > 63)
        return false;
    r.exploration.exploredFlagCount = flag_count;
    uint64_t n_variants = 0;
    if (!readPod(is, n_variants) || n_variants > 100000)
        return false;
    r.exploration.variants.resize(n_variants);
    // Plan-only variants (schema 15) legitimately have zero producers
    // — no flag combination reaches their text. Anything else with
    // zero producers is structural corruption; checked once the plan
    // section below says which variants plans actually reference.
    std::vector<size_t> producerless;
    for (size_t vi = 0; vi < n_variants; ++vi) {
        auto &v = r.exploration.variants[vi];
        if (!readString(is, v.source) || !readPod(is, v.sourceHash))
            return false;
        uint64_t n_producers = 0;
        if (!readPod(is, n_producers) || n_producers > (1ull << 24))
            return false;
        if (n_producers == 0)
            producerless.push_back(vi);
        v.producers.resize(n_producers);
        for (auto &f : v.producers) {
            if (!readPod(is, f.bits))
                return false;
        }
    }
    uint64_t n_combos = 0;
    if (!readPod(is, n_combos) || n_combos > (1ull << 24))
        return false;
    r.exploration.variantOfCombo.reserve(n_combos);
    for (uint64_t c = 0; c < n_combos; ++c) {
        uint64_t combo = 0;
        int64_t index = 0;
        if (!readPod(is, combo) || !readPod(is, index))
            return false;
        if (index < 0 || static_cast<uint64_t>(index) >= n_variants)
            return false;
        r.exploration.variantOfCombo.emplace(
            combo, static_cast<int>(index));
    }
    if (!readPod(is, r.exploration.passthroughVariant) ||
        r.exploration.passthroughVariant < 0 ||
        static_cast<uint64_t>(r.exploration.passthroughVariant) >=
            n_variants)
        return false;
    uint64_t n_devices = 0;
    if (!readPod(is, n_devices) || n_devices > 16)
        return false;
    for (uint64_t d = 0; d < n_devices; ++d) {
        int dev_int = 0;
        DeviceMeasurement m;
        if (!readPod(is, dev_int) || !readPod(is, m.originalMeanNs))
            return false;
        uint64_t n_times = 0;
        if (!readPod(is, n_times) || n_times != n_variants)
            return false;
        m.variantMeanNs.resize(n_times);
        for (double &t : m.variantMeanNs) {
            if (!readPod(is, t))
                return false;
        }
        r.byDevice.emplace(static_cast<gpu::DeviceId>(dev_int),
                           std::move(m));
    }
    // Optional tagged trailing sections (schema 16): 'P' plans then
    // 'Q' quarantine, each at most once, in that order. Absent for a
    // healthy flag-lattice campaign — then the body ends exactly here.
    bool seen_plans = false, seen_quarantine = false;
    while (is.peek() != std::char_traits<char>::eof()) {
        char tag = 0;
        if (!readPod(is, tag))
            return false;
        if (tag == 'P') {
            if (seen_plans || seen_quarantine)
                return false; // duplicate or out-of-order section
            seen_plans = true;
            uint64_t n_plans = 0;
            if (!readPod(is, n_plans) || n_plans == 0 ||
                n_plans > (1ull << 24))
                return false;
            for (uint64_t p = 0; p < n_plans; ++p) {
                std::string plan;
                int64_t index = 0;
                if (!readString(is, plan) || plan.empty() ||
                    !readPod(is, index))
                    return false;
                if (index < 0 ||
                    static_cast<uint64_t>(index) >= n_variants)
                    return false;
                if (!r.exploration.variantOfPlan
                         .emplace(std::move(plan),
                                  static_cast<int>(index))
                         .second)
                    return false; // duplicate plan key
            }
        } else if (tag == 'Q') {
            if (seen_quarantine)
                return false;
            seen_quarantine = true;
            uint64_t n_q = 0;
            if (!readPod(is, n_q) || n_q == 0 || n_q > 1024)
                return false;
            for (uint64_t q = 0; q < n_q; ++q) {
                int dev_int = 0;
                std::string reason;
                if (!readPod(is, dev_int) || !readString(is, reason))
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
            return false; // unknown tag: garbled body
        }
    }
    // Every producer-less variant must be reachable through some plan
    // annotation; otherwise the body is structurally corrupt.
    for (size_t vi : producerless) {
        bool referenced = false;
        for (const auto &[plan, index] : r.exploration.variantOfPlan) {
            if (static_cast<size_t>(index) == vi) {
                referenced = true;
                break;
            }
        }
        if (!referenced)
            return false;
    }
    out = std::move(r);
    return true;
}

} // namespace gsopt::tuner
