/**
 * @file
 * The experiment engine: runs the paper's full measurement campaign —
 * every corpus shader x 2^N flag combinations (deduped) x 5 devices x
 * the 100-frame/5-repetition timing protocol — and exposes the derived
 * quantities every figure and table needs.
 *
 * The campaign is scheduled as a work queue of shaders over a
 * std::thread pool (GSOPT_THREADS workers, default
 * hardware_concurrency). One thread owns a shader: it explores it once
 * and then runs its (shader x device) items in device order. The item
 * stays the unit of governance, retry and quarantine. Each shader's
 * result is written by its own thread only, so the output is
 * bit-identical for any thread count.
 *
 * Because all the benches share this campaign, the engine caches its
 * results under ./experiment_cache/ as one shard file per shader,
 * keyed by (shader hash, device-set hash, pass-registry signature,
 * schema). Editing one corpus shader re-runs only that shard. Delete
 * the directory (or set GSOPT_NO_CACHE=1) to force a full re-run.
 *
 * Fault tolerance: per-item transient failures (support/fault sites on
 * the driver, the timing harness, and the work items themselves) are
 * retried with bounded backoff; items that still fail are quarantined
 * into the CampaignHealth report and the campaign completes with
 * partial results. GSOPT_STRICT=1 restores fail-fast (first error
 * aborts the run). Shards are checkpointed *incrementally* — each one
 * is written the moment its shader's last device item completes — so a
 * killed campaign resumes from completed shards.
 */
#ifndef GSOPT_TUNER_EXPERIMENT_H
#define GSOPT_TUNER_EXPERIMENT_H

#include <functional>
#include <map>
#include <set>
#include <string>
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
     * itself only checkpoints clean shards — a quarantined shader
     * re-runs on resume — but saveShard/loadShard round-trip the set
     * (with reasons) faithfully via the schema-16 'Q' section, for the
     * coordinator/worker split. */
    std::set<gpu::DeviceId> quarantined;

    /** Structured reason each device was quarantined: what() of the
     * final failure — for a budget-exhausted item this is the
     * governor::ResourceExhausted message naming the dimension and
     * stage (e.g. "resource exhausted: deadline ..."). Keyed subset of
     * `quarantined`; items quarantined before this field existed (or
     * through older shards) simply have no entry. */
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

/**
 * Exact-bit hash of one device model: every double is hashed through
 * its IEEE-754 bit pattern (not decimal formatting), so a 1-ulp
 * parameter change changes the key.
 */
uint64_t deviceModelKey(const gpu::DeviceModel &device);

/** Combined key of all configured devices plus the pass-registry
 * signature and the engine schema version. */
uint64_t deviceSetKey();

/** Shard cache key for one shader under @p setKey (from
 * deviceSetKey()). */
uint64_t shardKey(const corpus::CorpusShader &shader, uint64_t setKey);

/**
 * Canonical file name of @p shader's shard under @p key:
 * "<name with '/' replaced by '_'>-<016x key>.bin". The engine's cache
 * loader and the distributed-campaign coordinator (tuner/distrib) must
 * agree on this spelling — a directory a coordinator merged is a valid
 * engine cache and vice versa.
 */
std::string shardFileName(const corpus::CorpusShader &shader,
                          uint64_t key);

/**
 * The canonical byte serialisation of one shader's campaign result —
 * the body of a shard cache file (everything after the key and content
 * hash). Deterministic for a deterministic campaign; the golden
 * regression tests md5 these bytes against the values captured before
 * the arena/memoization refactor.
 *
 * Shard file format: [shard key u64][fnv1a(body) u64][body bytes].
 * This file format is also the *wire format* of the distributed
 * campaign: a worker ships exactly these bytes back over the
 * support/ipc frame protocol, and the coordinator validates them with
 * the same loadShard path before publishing — checkpoint unit and
 * transfer unit are one representation (see tuner/distrib.h).
 * Shards are published with a tmp-rename protocol: saveShard writes
 * the whole file to a `<path>.tmp` sibling first and only then
 * atomically renames it onto `<path>`, so readers never observe a
 * half-written shard — a crash mid-checkpoint leaves at worst a stale
 * `.tmp` (overwritten by the next checkpoint, reaped by the orphan
 * sweep once its key dies) and the previous complete shard, if any,
 * stays intact. loadShard additionally verifies the key and the body
 * content hash, so any residual corruption is a cache miss (re-run),
 * never bad data. A shard whose key does not match — the key covers
 * the schema version, pass-registry signature, device set, and shader
 * source, so this is what an old-schema shard looks like — is a clean
 * miss with a support/diag warning, never a silent wrong-key hit.
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
    int attempts = 0;  ///< item-level attempts consumed
};

/**
 * Fault report of one campaign run: what was retried away, what had to
 * be quarantined. A healthy campaign has an empty quarantine list and
 * every derived figure sees complete data; an unhealthy one still
 * completes, with quarantined items surfaced here and on the affected
 * ShaderResult::quarantined sets.
 */
struct CampaignHealth
{
    std::vector<QuarantinedItem> quarantined;
    uint64_t itemsCompleted = 0;   ///< items measured successfully
    uint64_t itemsQuarantined = 0; ///< == quarantined.size()
    uint64_t itemRetries = 0;      ///< extra item-level attempts used

    bool healthy() const { return quarantined.empty(); }
    /** One line per quarantined item, for logs. */
    std::string summary() const;
};

/** The full campaign. */
class ExperimentEngine
{
  public:
    /** Run (or load from the shard cache) the complete campaign. */
    static const ExperimentEngine &instance();

    /**
     * Run fresh with explicit options (no caching). Used by tests and
     * benches with a reduced corpus. @p threads sizes the worker pool
     * (0 = GSOPT_THREADS / hardware_concurrency); shaders are the
     * parallel unit, so a one-shader campaign runs serially whatever
     * @p threads says.
     */
    explicit ExperimentEngine(
        const std::vector<corpus::CorpusShader> &shaders,
        unsigned threads = 0);

    /**
     * Run with shard caching under @p cacheDir: existing valid shards
     * are loaded, missing ones run and are checkpointed the moment
     * their last device item completes — a campaign killed mid-run
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

    /** Load and validate one shard. Returns false — never throws — on
     * any mismatch or corruption (missing file, wrong key, bad content
     * hash, truncated or garbled body): the caller re-runs the shard. */
    static bool loadShard(const std::string &path, uint64_t key,
                          ShaderResult &out);

    /** Crash-safe checkpoint of one shard: writes `path + ".tmp"`,
     * then atomically renames onto @p path. Failures (unopenable file,
     * failed write, injected torn write) emit a support/diag warning
     * and leave any previous shard at @p path untouched. */
    static void saveShard(const std::string &path, uint64_t key,
                          const ShaderResult &r);

  private:
    ExperimentEngine() = default;

    /**
     * Work-queue campaign over the listed shader indices, one shader
     * per unit: the unit explores its shader once (first item to need
     * it) and then runs the shader's (shader x device) items in device
     * order on the same thread. Transient per-item failures retry with
     * backoff; exhausted or non-transient ones are quarantined (or
     * rethrown under GSOPT_STRICT=1). @p checkpoint, when set, is
     * invoked with a shader index on the unit's thread the moment all
     * of its device items completed cleanly.
     */
    void runShaders(const std::vector<corpus::CorpusShader> &shaders,
                    const std::vector<size_t> &indices, unsigned threads,
                    const std::function<void(size_t)> &checkpoint = {});

    std::vector<ShaderResult> results_;
    CampaignHealth health_;
};

} // namespace gsopt::tuner

#endif // GSOPT_TUNER_EXPERIMENT_H
