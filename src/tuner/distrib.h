/**
 * @file
 * The campaign scheduler: a coordinator/worker fan-out of the
 * campaign's shader units (see tuner/experiment.h). ExperimentEngine
 * runs it over in-process worker threads; a distributed campaign runs
 * it over subprocesses. There is no other scheduler.
 *
 * The campaign is embarrassingly parallel across shaders: one work
 * unit = one shader x the whole configured device set = one shard
 * file in a ShardStore. The CampaignCoordinator scans the store for
 * missing shards and hands those units to N workers behind a
 * WorkerTransport, in input order (Options::scheduleSeed shuffles that
 * one list). It builds the transport only when some unit is pending,
 * so resuming a complete directory starts no workers. A worker runs
 * tuner::runShaderUnit — each item under its own request budget, so an
 * ambient GSOPT_DEADLINE_MS bounds each item, not the unit — and
 * always delivers the unit's shard *file bytes* (tuner::shardFileBytes)
 * together with its item health: the shard file format is the wire
 * format (see experiment.h), so merge verification is free.
 *
 * One policy for every transport:
 *  - Every delivery is validated in memory by tuner::parseShard (key,
 *    content hash, structural checks — the parser every shard load
 *    uses), and its item health must account for each device once:
 *    the items its 'Q' section quarantines, the rest completed, and no
 *    more retries than the retry policy allows. A delivery that fails
 *    is rejected.
 *  - An accepted delivery's result joins results(). A clean shard is
 *    then published through tuner::publishShardFile, the store's one
 *    tmp-then-rename write; a write that still fails after three
 *    attempts is local, not the worker's: the result is kept, a warning
 *    goes to the support/diag sink, and the shard re-runs on resume.
 *  - A partial shard (with a 'Q' section) is kept in results() but
 *    never published, and never re-queued: its items were already
 *    retried inside the unit. It re-runs on resume.
 *  - Only delivery failures are re-queued: rejected bytes, worker death
 *    (pipe EOF, corrupt frame stream), lease expiry (each assignment
 *    carries a lease; every worker heartbeats while executing, so a
 *    slow unit keeps its lease and only a silent worker loses it) and
 *    unit errors. After Options::maxAssignments the unit's device items
 *    are quarantined with its last error.
 *  - A duplicate delivery (a unit that was re-assigned after a lease
 *    expiry and then completed twice) is discarded.
 *  - GSOPT_STRICT=1 makes the first failure of any kind abort the run;
 *    an in-process unit error rethrows the worker's own exception.
 *
 * The merged directory is a valid ExperimentEngine cache — resuming is
 * "construct the engine over it", and a coordinator started over a
 * partial directory re-runs only the missing units.
 *
 * Two transports implement WorkerTransport:
 *  - in-process threads (makeInProcessTransport): no processes, no
 *    wire; ExperimentEngine's campaign, and tests;
 *  - spawned subprocesses over pipes (makeSubprocessTransport): the
 *    real distribution shape — each worker is a re-execution of
 *    /proc/self/exe speaking the support/ipc frame protocol on fds
 *    3 (commands in) and 4 (results out). Any binary that uses it
 *    MUST call distrib::maybeRunWorker() first thing in main() and
 *    return when it reports true.
 *
 * Knobs: GSOPT_THREADS (worker count when Options::workers is 0, the
 * campaign's one worker-count knob; support/env.h), GSOPT_LEASE_MS
 * (default lease when Options::leaseMs is 0). Malformed values abort
 * loudly, same policy as GSOPT_FAULTS.
 */
#ifndef GSOPT_TUNER_DISTRIB_H
#define GSOPT_TUNER_DISTRIB_H

#include <cstdint>
#include <exception>
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
    /** Worker count; 0 = defaultThreadCount(). A run starts no more
     * workers than it has pending units. */
    unsigned workers = 0;
    TransportKind transport = TransportKind::InProcess;
    /** Per-assignment lease in ms; 0 = GSOPT_LEASE_MS, default
     * 30000. A worker holding a unit past its lease (no heartbeat,
     * no result) is reaped and the unit re-queued. */
    uint64_t leaseMs = 0;
    /** Times a unit may be assigned before its items are
     * quarantined. */
    int maxAssignments = 3;
    /** Zero: assign units in input order. Non-zero: deterministically
     * shuffle that one list. Merge is keyed, so any order produces
     * byte-identical shard directories; tests sweep seeds to prove
     * exactly that. */
    uint64_t scheduleSeed = 0;
};

/** The coordinator's fault report is the campaign's; the name stays
 * for callers that spell it. */
using DistribHealth = CampaignHealth;

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
    /** Result: the item health behind the bytes (runShaderUnit's
     * report; QuarantinedItem::shader may be empty). */
    CampaignHealth health;
    /** UnitError from an in-process worker: the exception itself, so
     * strict mode can rethrow it. */
    std::exception_ptr error;
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

/** @p workers worker threads (0 = defaultThreadCount()), each running
 * one unit at a time, serially. A thread hand-off has no wire, so no
 * ipc.* fault site is probed. */
std::unique_ptr<WorkerTransport>
makeInProcessTransport(unsigned workers);

std::unique_ptr<WorkerTransport>
makeSubprocessTransport(unsigned workers);

// ---- worker side --------------------------------------------------------

/**
 * Execute one unit exactly as a worker does: verify the shard key
 * (coordinator and worker must agree on registry/device/schema state —
 * a mismatch means environment drift and throws std::runtime_error),
 * run tuner::runShaderUnit, and return the complete shard file bytes
 * (tuner::shardFileBytes). A quarantined item does not throw: its
 * device and reason ride in the shard's 'Q' section. A unit runs
 * serially on the calling thread: @p threads has no effect and is kept
 * for source compatibility.
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
    /** Plan a campaign over @p shaders whose merged shard directory is
     * @p shardDir (created if absent; surviving shards in it are
     * loaded and their units skipped — resume). An empty @p shardDir
     * is no store: nothing is loaded, published or swept. */
    CampaignCoordinator(std::vector<corpus::CorpusShader> shaders,
                        std::string shardDir, Options opts = {});

    /** Run to completion with a transport built from the options.
     * Returns the health report (also kept on the coordinator). Under
     * GSOPT_STRICT=1 the first failure throws instead. */
    const CampaignHealth &run();

    /** Run over an externally supplied transport (tests script the
     * fault matrix through this). */
    const CampaignHealth &run(WorkerTransport &transport);

    const CampaignHealth &health() const { return health_; }
    const Options &options() const { return opts_; }

    /** After run(): every shader's result, indexed like the shaders —
     * loaded from the store, or parsed from its accepted delivery
     * (partial ones included). A unit that never delivered has only
     * its name and its quarantined devices. */
    const std::vector<ShaderResult> &results() const { return results_; }
    std::vector<ShaderResult> &results() { return results_; }

  private:
    struct Unit; // internal scheduling state

    /** Both run()s: @p transport is null when run() is to build its
     * own, which it does only once some unit is pending. */
    const CampaignHealth &runOver(WorkerTransport *transport);

    std::vector<corpus::CorpusShader> shaders_;
    std::string shardDir_;
    Options opts_;
    CampaignHealth health_;
    std::vector<ShaderResult> results_;
};

} // namespace gsopt::tuner::distrib

#endif // GSOPT_TUNER_DISTRIB_H
