/**
 * @file
 * The experiment engine: runs the paper's full measurement campaign —
 * every corpus shader x 2^N flag combinations (deduped) x 5 devices x
 * the 100-frame/5-repetition timing protocol — and exposes the derived
 * quantities every figure and table needs.
 *
 * One unit, one store, one scheduler. The campaign's unit is one
 * shader (runShaderUnit): explore it once, then run its (shader x
 * device) items in device order on one thread. The store is a
 * ShardStore: one shard file per shader, keyed by shader, device set,
 * pass registry and schema. The scheduler is tuner/distrib.h's
 * CampaignCoordinator: this engine runs it over in-process worker
 * threads (GSOPT_THREADS, default hardware_concurrency), and a
 * distributed campaign runs it over subprocesses. Units are assigned in
 * input order. Each shader's result is produced by one unit only, so
 * the output is bit-identical for any thread or worker count. All the
 * benches share the campaign, so instance() caches it under
 * ./experiment_cache/; delete the directory (or set GSOPT_NO_CACHE=1)
 * to force a re-run.
 *
 * Fault tolerance, one policy: the item is the unit of governance,
 * retry and quarantine. Each item installs its own request budget (an
 * ambient GSOPT_DEADLINE_MS bounds each item), and its transient
 * failures (support/fault sites on the driver, the timing harness and
 * the items themselves) are retried with bounded backoff; an item that
 * still fails is quarantined into the CampaignHealth report, and the
 * campaign completes with partial results. A unit always delivers its
 * shard, with a 'Q' section when some item was quarantined. Only clean
 * shards are checkpointed, each the moment its delivery is merged, so
 * a killed campaign resumes from completed shards and re-runs the
 * partial ones. GSOPT_STRICT=1 restores fail-fast: the first failure
 * aborts the run.
 */
#ifndef GSOPT_TUNER_EXPERIMENT_H
#define GSOPT_TUNER_EXPERIMENT_H

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "gpu/device.h"
#include "tuner/explore.h"
#include "tuner/predict.h"

namespace gsopt::tuner {

/** Timing of every variant of one shader on one device. */
struct DeviceMeasurement
{
    double originalMeanNs = 0;  ///< unmodified shader via the driver
    std::vector<double> variantMeanNs; ///< per unique variant

    /** Percent speed-up of a variant against the original shader.
     * Degenerate baselines (zero/negative mean) report 0, matching
     * runtime::speedupPercent. Throws std::out_of_range for an
     * invalid variant index. */
    double speedupOf(int variant_index) const;

    bool operator==(const DeviceMeasurement &o) const
    {
        return originalMeanNs == o.originalMeanNs &&
               variantMeanNs == o.variantMeanNs;
    }
};

/** Everything measured for one shader. */
struct ShaderResult
{
    Exploration exploration;
    std::map<gpu::DeviceId, DeviceMeasurement> byDevice;

    /** Devices whose (shader, device) item was quarantined by the
     * fault-tolerant campaign (no measurement available). The campaign
     * only checkpoints clean shards — a quarantined shader re-runs on
     * resume — but a unit delivers its partial shard with the set
     * (and reasons) in the schema-16 'Q' section, which parseShard
     * round-trips faithfully. */
    std::set<gpu::DeviceId> quarantined;

    /** Structured reason each device was quarantined: what() of the
     * final failure — for a budget-exhausted item this is the
     * governor::ResourceExhausted message naming the dimension and
     * stage (e.g. "resource exhausted: deadline ..."). Keyed subset of
     * `quarantined`. */
    std::map<gpu::DeviceId, std::string> quarantineReason;

    /** Measurement for @p dev. Throws std::out_of_range with a
     * quarantine-aware message when the device item was quarantined or
     * never measured. */
    const DeviceMeasurement &measurement(gpu::DeviceId dev) const;

    double speedupFor(gpu::DeviceId dev, FlagSet flags) const
    {
        const auto &m = measurement(dev);
        return m.speedupOf(exploration.variantOf(flags));
    }

    /** Best speed-up over all combinations (green line, Fig 7). */
    double bestSpeedup(gpu::DeviceId dev) const;
    /** Combination achieving bestSpeedup. */
    FlagSet bestFlags(gpu::DeviceId dev) const;
    /** Speed-up of a single-flag variant vs the all-off passthrough
     * variant (Fig 9's baseline convention). */
    double isolatedFlagSpeedup(gpu::DeviceId dev, int bit) const;
};

// ---- campaign cache keys -------------------------------------------------

/** Combined key of all configured devices (gpu::deviceModelKey) plus
 * the pass-registry signature and the engine schema version. */
uint64_t deviceSetKey();

/** Shard cache key for one shader under @p setKey (from
 * deviceSetKey()). */
uint64_t shardKey(const corpus::CorpusShader &shader, uint64_t setKey);

/**
 * Canonical file name of @p shader's shard under @p key:
 * "<name with '/' replaced by '_'>-<016x key>.bin". ShardStore names
 * every shard this way for both schedulers.
 */
std::string shardFileName(const corpus::CorpusShader &shader,
                          uint64_t key);

/** Complete shard file bytes of @p r under @p key (format below):
 * what saveShard writes and what a distributed worker ships. */
std::string shardFileBytes(uint64_t key, const ShaderResult &r);

/**
 * The one shard parser: validate complete shard file @p bytes (format
 * below) against @p key — the key, the body content hash, count caps,
 * section tags and order, quarantine/measurement overlap, and that
 * every producer-less variant is plan-referenced — and decode them
 * into @p out. Returns false, never throws and leaves @p out untouched
 * on any mismatch. loadShard runs it on a file's bytes; the
 * coordinator runs it on a delivery before writing anything.
 */
bool parseShard(std::string_view bytes, uint64_t key, ShaderResult &out);

/**
 * The store's one write: @p bytes go to `path + ".tmp"`, which is
 * atomically renamed onto @p path, so readers never see a half-written
 * shard. Callers validate first (the coordinator parses a delivery
 * before publishing it). Returns whether @p path now holds @p bytes.
 * An injected "shard.write" tear leaves the torn `.tmp` behind, as a
 * writer dying mid-write would; other failures remove it. Write
 * failures warn through the support/diag sink.
 */
bool publishShardFile(const std::string &path, const std::string &bytes);

/** One shard directory, the campaign's store (an engine's cache and a
 * distributed campaign's merged directory are the same thing): one
 * shard per shader, named shardFileName(shader, shardKey(shader,
 * deviceSetKey())). The constructor creates the directory if it is
 * absent. An empty @p dir is no store: load() reports every shader
 * missing, sweep() does nothing and there is nowhere to publish. */
class ShardStore
{
  public:
    ShardStore(std::string dir,
               const std::vector<corpus::CorpusShader> &shaders);

    uint64_t key(size_t shader) const { return keys_[shader]; }
    const std::string &path(size_t shader) const { return paths_[shader]; }

    /** Load every valid shard into @p results (indexed like the
     * shaders, and as long). Returns the indices whose shard is
     * missing, stale or corrupt: the units still to run. */
    std::vector<size_t> load(std::vector<ShaderResult> &results) const;

    /** Remove every `*.bin` and `*.bin.tmp` whose shard no shader
     * claims: old keys from prior schemas, device sets, registries or
     * source revisions, and dropped shaders. A live shard's `.tmp` (a
     * checkpoint in flight) and files that are not shards stay. */
    void sweep() const;

  private:
    std::string dir_;
    std::vector<uint64_t> keys_;
    std::vector<std::string> paths_;
};

/**
 * The canonical byte serialisation of one shader's campaign result —
 * the body of a shard cache file (everything after the key and content
 * hash). Deterministic for a deterministic campaign; the golden
 * regression tests md5 these bytes against the values captured before
 * the arena/memoization refactor.
 *
 * Shard file format (shardFileBytes): [shard key u64][fnv1a(body)
 * u64][body bytes], encoded with ipc::Pack and decoded with
 * ipc::Unpack (host-order PODs, u64-length-prefixed strings) — one
 * codec for frames and shards. This file format is also the *wire
 * format* of the distributed campaign: a worker ships exactly these
 * bytes back, and the coordinator validates them in memory with
 * parseShard before publishing (see tuner/distrib.h). Shards are
 * published with publishShardFile's tmp-rename protocol. parseShard
 * verifies the key and the body content hash, so any residual
 * corruption is a cache miss (re-run), never bad data. A shard file
 * whose key does not match — the key covers the schema version,
 * pass-registry signature, device set, and shader source, so this is
 * what an old-schema shard looks like — is a clean loadShard miss with
 * a support/diag warning, never a silent wrong-key hit.
 *
 * Schema 16 (tagged trailing sections): the body may end with optional
 * sections, each introduced by a one-byte tag, in this order, each at
 * most once and only when non-empty:
 *
 *  - 'P' ordered-plan annotations: `[u64 count]` then `count` x
 *    `[string plan][i64 variant]`, mapping each explored non-canonical
 *    plan to its variant. Plan strings are PassPlan::str spellings:
 *    registered pass ids joined by '>' in application order, e.g.
 *    "licm>unroll>gvn". Plan-only variants (zero producers) are valid
 *    exactly when a plan annotation references them.
 *  - 'Q' quarantine: `[u64 count]` then `count` x
 *    `[i32 device][string reason]` — the devices the fault-tolerant
 *    campaign quarantined, with the structured failure reason (a
 *    governor::ResourceExhausted message for budget/deadline kills).
 *    A quarantined device must not also carry a measurement.
 *
 * A unit whose exploration failed has nothing to measure: its body has
 * zero variants, zero combos, passthrough variant 0, no measurements
 * and a non-empty 'Q'. That is the only body without variants that
 * parseShard accepts.
 *
 * A healthy pure flag-lattice campaign body — the paper's canonical
 * 2^N sweep — has neither section and stays byte-identical to schema
 * 14/15, so the golden md5 pins hold. The schema version is part of
 * every shard key, so older shards miss cleanly and re-run.
 */
std::string serializeShardBody(const ShaderResult &r);

/** One quarantined (shader, device) campaign item. */
struct QuarantinedItem
{
    std::string shader;
    gpu::DeviceId device;
    std::string error; ///< what() of the final failure
    /** Item-level attempts consumed; for a unit that never delivered,
     * the unit's assignments. */
    int attempts = 0;
};

/**
 * Fault report of one campaign run: what was retried away, re-queued or
 * quarantined, for items ((shader, device) pairs) and units (shaders).
 * A healthy campaign has an empty quarantine list and every derived
 * figure sees complete data; an unhealthy one still completes, with
 * quarantined items surfaced here and on the affected
 * ShaderResult::quarantined sets. runShaderUnit fills the item counters
 * of one unit; the coordinator sums them and counts the units.
 */
struct CampaignHealth
{
    std::vector<QuarantinedItem> quarantined;
    uint64_t itemsCompleted = 0;   ///< items measured successfully
    uint64_t itemsQuarantined = 0; ///< == quarantined.size()
    uint64_t itemRetries = 0;      ///< extra item-level attempts used

    uint64_t unitsTotal = 0;       ///< shaders in the campaign
    uint64_t unitsFromCache = 0;   ///< satisfied by existing shards
    uint64_t unitsCompleted = 0;   ///< clean deliveries merged this run
    uint64_t unitsRequeued = 0;    ///< re-assignments after failures
    uint64_t shardsRejected = 0;   ///< deliveries failing validation
    uint64_t duplicateDeliveries = 0; ///< late/duplicate results
    uint64_t leaseExpiries = 0;    ///< assignments reaped by lease
    uint64_t workersRestarted = 0; ///< dead/reaped workers revived

    bool healthy() const { return quarantined.empty(); }
    /** The counters, then one line per quarantined item, for logs. */
    std::string summary() const;
};

/**
 * Run one shader unit, filling @p out: explore @p shader once, then
 * measure it on every device in device order on the calling thread.
 * Each (shader, device) item has its own governor::ScopedRequestBudget
 * (the campaign's only admission point), "worker.item" fault point and
 * retryTransient; an item that still fails is quarantined into @p out
 * and the returned health, and the unit goes on. Under strictMode() the
 * first item error propagates.
 */
CampaignHealth runShaderUnit(const corpus::CorpusShader &shader,
                             ShaderResult &out);

/** The full campaign. */
class ExperimentEngine
{
  public:
    /** Run (or load from the shard cache) the complete campaign. */
    static const ExperimentEngine &instance();

    /**
     * Run fresh with explicit options (no store: nothing is loaded or
     * written). Used by tests and benches with a reduced corpus.
     * @p threads is the coordinator's in-process worker count
     * (0 = defaultThreadCount()); shaders are the parallel unit, so a
     * one-shader campaign runs serially whatever @p threads says.
     */
    explicit ExperimentEngine(
        const std::vector<corpus::CorpusShader> &shaders,
        unsigned threads = 0);

    /**
     * Run with shard caching under @p cacheDir: existing valid shards
     * are loaded, missing ones run and clean ones are checkpointed the
     * moment their delivery is merged — a campaign killed mid-run
     * resumes from every shard it finished. instance() uses this with
     * ./experiment_cache; tests use it for kill-resume coverage.
     */
    ExperimentEngine(const std::vector<corpus::CorpusShader> &shaders,
                     unsigned threads, const std::string &cacheDir);

    const std::vector<ShaderResult> &results() const { return results_; }
    /** Result by shader name. Throws std::out_of_range listing the
     * known shader names on a miss. The returned result surfaces any
     * quarantined devices via ShaderResult::quarantined. */
    const ShaderResult &result(const std::string &shaderName) const;

    /** Fault report of the run that built this engine (empty quarantine
     * list when everything — including cache loads — succeeded). */
    const CampaignHealth &health() const { return health_; }

    // ---- derived analyses ------------------------------------------------
    /** Static flag set maximising mean speed-up on a device (Table I). */
    FlagSet bestStaticFlags(gpu::DeviceId dev) const;
    /** Static flag set maximising the mean across *all* devices. */
    FlagSet bestStaticFlagsOverall() const;
    /** Mean speed-up across shaders for a fixed flag set. */
    double meanSpeedup(gpu::DeviceId dev, FlagSet flags) const;
    /** Mean of per-shader best speed-ups ("iterative" line, Fig 5). */
    double meanBestSpeedup(gpu::DeviceId dev) const;
    /** Per-shader speed-ups for a fixed flag set (Fig 7 series). */
    std::vector<double> perShaderSpeedups(gpu::DeviceId dev,
                                          FlagSet flags) const;
    /** Per-shader best speed-ups (Fig 7 green series). */
    std::vector<double> perShaderBestSpeedups(gpu::DeviceId dev) const;

    /**
     * Build the cross-shader transfer table: every shader's
     * campaign-best flags, grouped by übershader family and device.
     * TransferSeededSearch seeds new searches from it (leave-one-out
     * happens at query time, in FamilyPrior::seedFor).
     */
    FamilyPrior familyPrior() const;

    // ---- shard IO (public for the torture tests and the coordinator/
    // worker split: a shard file is the campaign's checkpoint and
    // transfer unit) ------------------------------------------------------

    /** Load and validate one shard: read the file (at most 2 GiB of
     * body; evaluates the "shard.read" fault site) and parseShard it.
     * Returns false — never throws — on any mismatch or corruption
     * (missing file, wrong key, bad content hash, truncated or garbled
     * body): the caller re-runs the shard. */
    static bool loadShard(const std::string &path, uint64_t key,
                          ShaderResult &out);

    /** Crash-safe checkpoint of one shard: publishShardFile of
     * shardFileBytes(@p key, @p r). */
    static void saveShard(const std::string &path, uint64_t key,
                          const ShaderResult &r);

  private:
    std::vector<ShaderResult> results_;
    CampaignHealth health_;
};

} // namespace gsopt::tuner

#endif // GSOPT_TUNER_EXPERIMENT_H
