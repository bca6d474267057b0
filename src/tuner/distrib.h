/**
 * @file
 * Distributed campaign: a coordinator/worker fan-out of the campaign's
 * shader units — the second scheduler over the same unit and the same
 * store as ExperimentEngine (see tuner/experiment.h).
 *
 * The campaign is embarrassingly parallel across shaders: one work
 * unit = one shader x the whole configured device set = one shard
 * file in a ShardStore. The CampaignCoordinator scans the store for
 * missing shards, orders those units family-representatives-first
 * (one member of each übershader family is measured before the long
 * tail, so family priors exist early and late arrivals can be seeded
 * instead of swept), and hands them to N workers behind a
 * WorkerTransport. It builds the transport only when some unit is
 * pending, so resuming a complete directory starts no workers. A
 * worker runs tuner::runShaderUnit under a per-unit
 * governor::ScopedRequestBudget — an ambient GSOPT_DEADLINE_MS bounds
 * each unit — and ships the finished shard *file bytes*
 * (tuner::shardFileBytes) back: the shard file format is the wire
 * format (see experiment.h), so merge verification is free.
 *
 * The coordinator merges with "copy if key absent": every incoming
 * shard is first validated in memory by tuner::parseShard (key,
 * content hash, structural checks — the parser every shard load uses)
 * and only then goes through tuner::publishShardFile, the store's one
 * tmp-then-rename write; nothing re-reads a file it just wrote, so a
 * coordinator-side read fault is never blamed on a worker. A shard
 * that fails validation is rejected and its unit re-queued; a
 * duplicate delivery (a unit that was re-assigned after a lease
 * expiry and then completed twice) is discarded. The merged directory
 * is a valid ExperimentEngine cache — resuming is "construct the
 * engine over it", and a coordinator started over a partial directory
 * re-runs only the missing units.
 *
 * Fault tolerance mirrors the in-process campaign: each assignment
 * carries a lease; workers heartbeat while executing; a worker that
 * dies (pipe EOF, corrupt frame stream) or stalls past its lease is
 * reaped and its unit re-queued, bounded by Options::maxAssignments
 * before the unit is quarantined into DistribHealth. The coordinator
 * completes on partial results; GSOPT_STRICT=1 turns the first unit
 * quarantine into a thrown error.
 *
 * Two transports implement WorkerTransport:
 *  - in-process threads (makeInProcessTransport): deterministic, no
 *    processes, used by tests and the bench;
 *  - spawned subprocesses over pipes (makeSubprocessTransport): the
 *    real distribution shape — each worker is a re-execution of
 *    /proc/self/exe speaking the support/ipc frame protocol on fds
 *    3 (commands in) and 4 (results out). Any binary that uses it
 *    MUST call distrib::maybeRunWorker() first thing in main() and
 *    return when it reports true.
 *
 * Knobs: GSOPT_DISTRIB_WORKERS (default worker count when
 * Options::workers is 0), GSOPT_LEASE_MS (default lease when
 * Options::leaseMs is 0). Malformed values abort loudly, same policy
 * as GSOPT_FAULTS.
 */
#ifndef GSOPT_TUNER_DISTRIB_H
#define GSOPT_TUNER_DISTRIB_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "tuner/experiment.h"

namespace gsopt::tuner::distrib {

/** Which WorkerTransport CampaignCoordinator::run constructs. */
enum class TransportKind {
    InProcess,  ///< worker threads in this process (deterministic)
    Subprocess, ///< fork/exec'd workers over support/ipc pipes
};

/** Coordinator configuration. */
struct Options
{
    /** Worker count; 0 = GSOPT_DISTRIB_WORKERS, default 2. */
    unsigned workers = 0;
    TransportKind transport = TransportKind::InProcess;
    /** Per-assignment lease in ms; 0 = GSOPT_LEASE_MS, default
     * 30000. A worker holding a unit past its lease (no heartbeat,
     * no result) is reaped and the unit re-queued. */
    uint64_t leaseMs = 0;
    /** Times a unit may be assigned before it is quarantined. */
    int maxAssignments = 3;
    /** Non-zero: deterministically shuffle the assignment order
     * (within the family-representative group and within the tail
     * separately — representatives always go first). Merge is keyed,
     * so any order produces byte-identical shard directories; tests
     * sweep seeds to prove exactly that. */
    uint64_t scheduleSeed = 0;
};

/** One unit quarantined after exhausting its assignment bound. */
struct QuarantinedUnit
{
    std::string shader;
    std::string error; ///< the last failure observed for the unit
    int assignments = 0;
};

/** Fault report of one coordinator run. */
struct DistribHealth
{
    uint64_t unitsTotal = 0;       ///< enumerated units
    uint64_t unitsFromCache = 0;   ///< satisfied by existing shards
    uint64_t unitsCompleted = 0;   ///< shards published this run
    uint64_t unitsRequeued = 0;    ///< re-assignments after failures
    uint64_t shardsRejected = 0;   ///< deliveries failing validation
    uint64_t duplicateDeliveries = 0; ///< late/duplicate results
    uint64_t leaseExpiries = 0;    ///< assignments reaped by lease
    uint64_t workersRestarted = 0; ///< dead/reaped workers revived
    std::vector<QuarantinedUnit> quarantined;

    bool healthy() const { return quarantined.empty(); }
    /** One line per quarantined unit plus the counter summary. */
    std::string summary() const;
};

// ---- transport layer ----------------------------------------------------

/** A unit as handed to a transport: enough for a worker with no shared
 * memory to rebuild the shader and verify the shard key. */
struct WireUnit
{
    uint64_t id = 0;  ///< coordinator-local ordinal
    uint64_t key = 0; ///< expected tuner::shardKey
    /** Heartbeat period the worker should honour while executing. */
    uint64_t heartbeatMs = 0;
    corpus::CorpusShader shader;
};

/** One event surfaced by WorkerTransport::poll. */
struct TransportEvent
{
    enum class Kind {
        None,      ///< poll timed out
        Result,    ///< bytes = full shard file bytes for unit
        UnitError, ///< bytes = worker's error message for unit
        Heartbeat, ///< worker is alive and executing
        WorkerDied ///< worker is gone (EOF, corrupt stream, reaped)
    };
    Kind kind = Kind::None;
    unsigned worker = 0;
    uint64_t unit = 0;
    /** Delivery from a reaped worker generation (in-process workers
     * cannot be killed; their late results surface as stale). */
    bool stale = false;
    std::string bytes;
};

/**
 * The coordinator's view of a worker pool. Implementations must be
 * drivable from a single coordinator thread: assign() hands a unit to
 * one worker, poll() surfaces at most one event per call, reap()
 * forcibly retires a worker (kill for subprocesses; abandonment for
 * threads), revive() brings a retired slot back. Tests implement this
 * interface directly to script the fault matrix deterministically.
 */
class WorkerTransport
{
  public:
    virtual ~WorkerTransport() = default;

    virtual unsigned workerCount() const = 0;
    /** Is slot @p w currently able to take assignments? */
    virtual bool live(unsigned w) const = 0;
    /** Hand @p unit to worker @p w. False if the send failed — the
     * coordinator treats the worker as dead and keeps the unit. */
    virtual bool assign(unsigned w, const WireUnit &unit) = 0;
    /** Surface the next event, waiting up to @p timeoutMs. */
    virtual TransportEvent poll(int timeoutMs) = 0;
    /** Forcibly retire worker @p w (lease expiry, corrupt stream). */
    virtual void reap(unsigned w) = 0;
    /** Respawn slot @p w after death/reaping. False if impossible. */
    virtual bool revive(unsigned w) = 0;
    /** Orderly end: stop workers, join/reap them all. */
    virtual void shutdown() = 0;
};

/** @p workers worker threads (0 = GSOPT_DISTRIB_WORKERS), each running
 * one unit at a time, serially (see executeUnit). */
std::unique_ptr<WorkerTransport>
makeInProcessTransport(unsigned workers);

std::unique_ptr<WorkerTransport>
makeSubprocessTransport(unsigned workers);

// ---- worker side --------------------------------------------------------

/**
 * Execute one unit exactly as a worker does: verify the shard key
 * (coordinator and worker must agree on registry/device/schema state —
 * a mismatch means environment drift and fails loudly), run
 * tuner::runShaderUnit under a per-unit request budget, and return the
 * complete shard file bytes (tuner::shardFileBytes). Throws on any
 * failure: a worker never publishes a partial shard, so a quarantined
 * item becomes std::runtime_error("unit failed: <the item's reason>")
 * and the coordinator re-queues. A unit runs serially on the calling
 * thread: @p threads has no effect and is kept for source
 * compatibility.
 */
std::string executeUnit(const corpus::CorpusShader &shader,
                        uint64_t key, unsigned threads);

/**
 * Subprocess worker entry point. When GSOPT_DISTRIB_WORKER_FDS is set
 * (by makeSubprocessTransport in the parent), runs the worker frame
 * loop over the inherited pipe fds until shutdown/EOF and returns
 * true — the caller must then exit without running anything else.
 * Returns false in a normal process. Every binary that may host a
 * SubprocessTransport calls this first thing in main():
 *
 *     int main(int argc, char **argv) {
 *         if (gsopt::tuner::distrib::maybeRunWorker()) return 0;
 *         ...
 *     }
 */
bool maybeRunWorker();

// ---- coordinator --------------------------------------------------------

class CampaignCoordinator
{
  public:
    /** Plan a distributed campaign over @p shaders whose merged shard
     * directory is @p shardDir (created if absent; surviving shards
     * in it are loaded and their units skipped — resume). */
    CampaignCoordinator(std::vector<corpus::CorpusShader> shaders,
                        std::string shardDir, Options opts = {});

    /** Run to completion with a transport built from the options.
     * Returns the health report (also kept on the coordinator). Under
     * GSOPT_STRICT=1 the first quarantined unit throws instead. */
    const DistribHealth &run();

    /** Run over an externally supplied transport (tests script the
     * fault matrix through this). */
    const DistribHealth &run(WorkerTransport &transport);

    const DistribHealth &health() const { return health_; }
    const Options &options() const { return opts_; }

  private:
    struct Unit; // internal scheduling state

    /** Both run()s: @p transport is null when run() is to build its
     * own, which it does only once some unit is pending. */
    const DistribHealth &runOver(WorkerTransport *transport);

    std::vector<corpus::CorpusShader> shaders_;
    std::string shardDir_;
    Options opts_;
    DistribHealth health_;
};

} // namespace gsopt::tuner::distrib

#endif // GSOPT_TUNER_DISTRIB_H
