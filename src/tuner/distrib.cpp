#include "tuner/distrib.h"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/diag.h"
#include "support/env.h"
#include "support/fault.h"
#include "support/ipc.h"
#include "support/retry.h"
#include "support/rng.h"
#include "support/time.h"

extern char **environ;

namespace gsopt::tuner::distrib {

namespace fs = std::filesystem;

namespace {

// ---- protocol vocabulary ------------------------------------------------

constexpr uint32_t kHello = 1;     ///< W->C: {u64 pid}
constexpr uint32_t kUnit = 2;      ///< C->W: encoded WireUnit
constexpr uint32_t kResult = 3;    ///< W->C: {u64 id, str shardBytes, health}
constexpr uint32_t kUnitError = 4; ///< W->C: {u64 id, str message}
constexpr uint32_t kHeartbeat = 5; ///< W->C: {u64 id}
constexpr uint32_t kShutdown = 6;  ///< C->W: {}

const char *const kWorkerFdsEnv = "GSOPT_DISTRIB_WORKER_FDS";

std::string
encodeUnit(const WireUnit &u)
{
    ipc::Pack p;
    p.u64(u.id).u64(u.key).u64(u.heartbeatMs);
    p.str(u.shader.name).str(u.shader.family).str(u.shader.source);
    p.u64(u.shader.defines.size());
    for (const auto &[k, v] : u.shader.defines)
        p.str(k).str(v);
    return p.take();
}

bool
decodeUnit(std::string_view payload, WireUnit &u)
{
    ipc::Unpack up(payload);
    uint64_t ndefs = 0;
    if (!up.u64(u.id) || !up.u64(u.key) || !up.u64(u.heartbeatMs) ||
        !up.str(u.shader.name) || !up.str(u.shader.family) ||
        !up.str(u.shader.source) || !up.u64(ndefs) ||
        ndefs > (1ull << 16))
        return false;
    for (uint64_t i = 0; i < ndefs; ++i) {
        std::string k, v;
        if (!up.str(k) || !up.str(v))
            return false;
        u.shader.defines.emplace(std::move(k), std::move(v));
    }
    return up.done();
}

/** A delivery's item health: the counters and the quarantined items
 * (the coordinator knows the shader). */
void
encodeHealth(ipc::Pack &p, const CampaignHealth &h)
{
    p.u64(h.itemsCompleted).u64(h.itemRetries).u64(h.quarantined.size());
    for (const QuarantinedItem &q : h.quarantined)
        p.pod(static_cast<int>(q.device)).pod(q.attempts).str(q.error);
}

bool
decodeHealth(ipc::Unpack &up, CampaignHealth &h)
{
    uint64_t n = 0;
    if (!up.u64(h.itemsCompleted) || !up.u64(h.itemRetries) ||
        !up.u64(n) || n > 1024)
        return false;
    h.quarantined.resize(n);
    for (QuarantinedItem &q : h.quarantined) {
        int dev = 0;
        if (!up.pod(dev) || !up.pod(q.attempts) || !up.str(q.error))
            return false;
        q.device = static_cast<gpu::DeviceId>(dev);
    }
    h.itemsQuarantined = n;
    return true;
}

/** Run one unit as a worker does (executeUnit), reporting its item
 * health into @p health. */
std::string
deliverUnit(const corpus::CorpusShader &shader, uint64_t key,
            CampaignHealth &health)
{
    const uint64_t expected = shardKey(shader, deviceSetKey());
    if (expected != key) {
        char msg[160];
        std::snprintf(msg, sizeof(msg),
                      "shard key mismatch for '%s': coordinator "
                      "%016llx vs worker %016llx (pass registry, "
                      "device set, or schema drift)",
                      shader.name.c_str(),
                      static_cast<unsigned long long>(key),
                      static_cast<unsigned long long>(expected));
        throw std::runtime_error(msg);
    }
    ShaderResult r;
    health = runShaderUnit(shader, r);
    return shardFileBytes(key, r);
}

/**
 * A worker's proof of life while a unit executes, so the coordinator
 * can tell a slow unit from a dead worker: calls @p beat every
 * @p periodMs (0 = 1 s) on its own thread until destroyed, or until
 * @p beat returns false.
 */
class Heartbeat
{
  public:
    Heartbeat(uint64_t periodMs, std::function<bool()> beat)
        : thread_([this, period = std::chrono::milliseconds(
                             periodMs == 0 ? 1000 : periodMs),
                   beat = std::move(beat)] {
              std::unique_lock lock(m_);
              while (!cv_.wait_for(lock, period, [&] { return stop_; })) {
                  lock.unlock();
                  if (!beat())
                      return;
                  lock.lock();
              }
          })
    {
    }

    ~Heartbeat()
    {
        {
            std::lock_guard lock(m_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    Heartbeat(const Heartbeat &) = delete;
    Heartbeat &operator=(const Heartbeat &) = delete;

  private:
    std::mutex m_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_; ///< last: starts after the state it reads
};

// ---- knobs --------------------------------------------------------------

unsigned
defaultWorkerCount()
{
    return static_cast<unsigned>(
        envInteger("GSOPT_DISTRIB_WORKERS", 2));
}

uint64_t
defaultLeaseMs()
{
    return envInteger("GSOPT_LEASE_MS", 30000);
}

// ---- in-process transport ----------------------------------------------

/**
 * Worker threads in this process: the engine's campaign. A delivery is
 * a hand-off of the unit's bytes and item health, with no wire, so no
 * ipc.* fault site is probed; a failed unit hands over its exception.
 * While a unit runs its worker posts a heartbeat every
 * WireUnit::heartbeatMs, as a subprocess worker does, so the lease
 * measures the worker's liveness, not the unit's length: a slow item
 * is bounded by its own request budget.
 *
 * Threads cannot be killed: reap() abandons the running thread (its
 * eventual delivery is tagged stale — the coordinator's duplicate
 * path) and revive() spawns a replacement with a fresh mailbox.
 */
class InProcessTransport final : public WorkerTransport
{
  public:
    explicit InProcessTransport(unsigned workers)
    {
        for (unsigned w = 0; w < workers; ++w)
            slots_.push_back(std::make_unique<Slot>());
        for (unsigned w = 0; w < workers; ++w)
            spawn(w);
    }

    ~InProcessTransport() override { shutdown(); }

    unsigned workerCount() const override
    {
        return static_cast<unsigned>(slots_.size());
    }

    bool live(unsigned w) const override { return slots_[w]->live; }

    bool assign(unsigned w, const WireUnit &unit) override
    {
        Slot &s = *slots_[w];
        if (!s.live)
            return false;
        {
            std::lock_guard lock(s.box->m);
            s.box->in.push_back(unit);
        }
        s.box->cv.notify_one();
        return true;
    }

    TransportEvent poll(int timeoutMs) override
    {
        std::unique_lock lock(qm_);
        if (!qcv_.wait_for(lock, std::chrono::milliseconds(timeoutMs),
                           [&] { return !events_.empty(); }))
            return {};
        TransportEvent ev = std::move(events_.front());
        events_.pop_front();
        return ev;
    }

    void reap(unsigned w) override
    {
        Slot &s = *slots_[w];
        if (!s.live)
            return;
        {
            std::lock_guard lock(s.box->m);
            s.box->quit = true;
        }
        s.box->cv.notify_all();
        s.live = false;
        {
            // Deliveries from the abandoned generation become stale.
            std::lock_guard lock(qm_);
            s.generation++;
        }
        s.abandoned.push_back(std::move(s.thread));
    }

    bool revive(unsigned w) override
    {
        Slot &s = *slots_[w];
        if (s.live)
            return true;
        spawn(w);
        return true;
    }

    void shutdown() override
    {
        for (unsigned w = 0; w < workerCount(); ++w) {
            Slot &s = *slots_[w];
            if (s.live) {
                {
                    std::lock_guard lock(s.box->m);
                    s.box->quit = true;
                }
                s.box->cv.notify_all();
                s.live = false;
            }
            if (s.thread.joinable())
                s.thread.join();
            for (std::thread &t : s.abandoned)
                if (t.joinable())
                    t.join();
            s.abandoned.clear();
        }
    }

  private:
    struct Mailbox
    {
        std::mutex m;
        std::condition_variable cv;
        std::deque<WireUnit> in;
        bool quit = false;
    };

    struct Slot
    {
        std::shared_ptr<Mailbox> box;
        std::thread thread;
        uint64_t generation = 0; ///< guarded by qm_
        bool live = false;
        std::vector<std::thread> abandoned;
    };

    void spawn(unsigned w)
    {
        Slot &s = *slots_[w];
        s.box = std::make_shared<Mailbox>();
        uint64_t gen;
        {
            std::lock_guard lock(qm_);
            gen = ++s.generation;
        }
        auto box = s.box;
        s.thread = std::thread(
            [this, w, gen, box] { workerMain(w, gen, *box); });
        s.live = true;
    }

    void workerMain(unsigned w, uint64_t gen, Mailbox &box)
    {
        for (;;) {
            WireUnit unit;
            {
                std::unique_lock lock(box.m);
                box.cv.wait(lock, [&] {
                    return box.quit || !box.in.empty();
                });
                if (box.in.empty())
                    return; // quit with nothing queued
                unit = std::move(box.in.front());
                box.in.pop_front();
            }
            TransportEvent ev;
            ev.worker = w;
            ev.unit = unit.id;
            {
                Heartbeat beat(unit.heartbeatMs, [&] {
                    TransportEvent hb;
                    hb.kind = TransportEvent::Kind::Heartbeat;
                    hb.worker = w;
                    hb.unit = unit.id;
                    post(gen, std::move(hb));
                    return true;
                });
                try {
                    ev.bytes =
                        deliverUnit(unit.shader, unit.key, ev.health);
                    ev.kind = TransportEvent::Kind::Result;
                } catch (const std::exception &e) {
                    ev.kind = TransportEvent::Kind::UnitError;
                    ev.bytes = e.what();
                    ev.error = std::current_exception();
                }
            }
            post(gen, std::move(ev));
            {
                std::unique_lock lock(box.m);
                if (box.quit && box.in.empty())
                    return;
            }
        }
    }

    /** Queue @p ev from worker ev.worker's generation @p gen: stale
     * once that worker has been reaped. */
    void post(uint64_t gen, TransportEvent ev)
    {
        {
            std::lock_guard lock(qm_);
            ev.stale = slots_[ev.worker]->generation != gen;
            events_.push_back(std::move(ev));
        }
        qcv_.notify_one();
    }

    std::vector<std::unique_ptr<Slot>> slots_;
    std::mutex qm_;
    std::condition_variable qcv_;
    std::deque<TransportEvent> events_;
};

// ---- subprocess transport ----------------------------------------------

/** Read /proc/self/exe (Linux). */
std::string
selfExePath()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        throw std::runtime_error(
            "distrib: cannot resolve /proc/self/exe");
    buf[n] = '\0';
    return std::string(buf);
}

/** Pipe writes to a dead worker must fail with EPIPE, not kill the
 * coordinator process. Installed once, first use. */
void
ignoreSigpipeOnce()
{
    static const bool done = [] {
        ::signal(SIGPIPE, SIG_IGN);
        return true;
    }();
    (void)done;
}

/**
 * fork/exec'd workers speaking the support/ipc frame protocol. Each
 * worker is a re-execution of this binary with
 * GSOPT_DISTRIB_WORKER_FDS=3,4 in its environment: commands arrive on
 * fd 3, results leave on fd 4 (the hosting main() must divert into
 * maybeRunWorker()). Workers inherit the parent environment as of
 * transport construction, so ambient GSOPT_* configuration — fault
 * plans, budgets, extra passes — governs them identically.
 */
class SubprocessTransport final : public WorkerTransport
{
  public:
    explicit SubprocessTransport(unsigned workers)
        : exe_(selfExePath())
    {
        ignoreSigpipeOnce();
        if (std::getenv(kWorkerFdsEnv)) {
            // A coordinator inside a worker would re-spawn this
            // binary recursively; the hosting main() forgot to call
            // maybeRunWorker(). Fail loudly before forking anything.
            std::fprintf(stderr,
                         "distrib: %s is set inside a coordinator — "
                         "the host binary must call "
                         "distrib::maybeRunWorker() first in main()\n",
                         kWorkerFdsEnv);
            std::abort();
        }
        buildChildEnv();
        slots_.resize(workers);
        for (unsigned w = 0; w < workers; ++w)
            if (!spawn(w)) {
                shutdown();
                throw std::runtime_error(
                    "distrib: failed to spawn worker " +
                    std::to_string(w) + " (no handshake — does the "
                    "host binary call distrib::maybeRunWorker()?)");
            }
    }

    ~SubprocessTransport() override { shutdown(); }

    unsigned workerCount() const override
    {
        return static_cast<unsigned>(slots_.size());
    }

    bool live(unsigned w) const override { return slots_[w].live; }

    bool assign(unsigned w, const WireUnit &unit) override
    {
        Proc &p = slots_[w];
        if (!p.live)
            return false;
        try {
            ipc::writeFrame(p.toChild, kUnit, encodeUnit(unit));
            return true;
        } catch (const std::exception &) {
            // Failed or torn send: the stream is unusable either way.
            markDead(w);
            return false;
        }
    }

    TransportEvent poll(int timeoutMs) override
    {
        if (queue_.empty())
            pump(timeoutMs);
        if (queue_.empty())
            return {};
        TransportEvent ev = std::move(queue_.front());
        queue_.pop_front();
        return ev;
    }

    void reap(unsigned w) override { markDead(w); }

    bool revive(unsigned w) override
    {
        if (slots_[w].live)
            return true;
        return spawn(w);
    }

    void shutdown() override
    {
        for (unsigned w = 0; w < workerCount(); ++w) {
            Proc &p = slots_[w];
            if (!p.live)
                continue;
            try {
                ipc::writeFrame(p.toChild, kShutdown, {});
            } catch (const std::exception &) {
            }
        }
        // Grace period, then force.
        const uint64_t deadline = nowNs() + 2'000'000'000ull;
        for (unsigned w = 0; w < workerCount(); ++w) {
            Proc &p = slots_[w];
            if (!p.live)
                continue;
            bool gone = false;
            while (nowNs() < deadline) {
                int status = 0;
                const pid_t r = ::waitpid(p.pid, &status, WNOHANG);
                if (r == p.pid || (r < 0 && errno == ECHILD)) {
                    gone = true;
                    break;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
            if (!gone) {
                ::kill(p.pid, SIGKILL);
                ::waitpid(p.pid, nullptr, 0);
            }
            closeFds(p);
            p.live = false;
        }
    }

  private:
    struct Proc
    {
        pid_t pid = -1;
        int toChild = -1;
        int fromChild = -1;
        bool live = false;
        ipc::FrameDecoder decoder;
    };

    void buildChildEnv()
    {
        childEnv_.clear();
        for (char **e = environ; e && *e; ++e) {
            if (std::strncmp(*e, kWorkerFdsEnv,
                             std::strlen(kWorkerFdsEnv)) == 0 &&
                (*e)[std::strlen(kWorkerFdsEnv)] == '=')
                continue;
            childEnv_.push_back(*e);
        }
        childEnv_.push_back(std::string(kWorkerFdsEnv) + "=3,4");
        childEnvPtrs_.clear();
        for (std::string &s : childEnv_)
            childEnvPtrs_.push_back(s.data());
        childEnvPtrs_.push_back(nullptr);
        childArgv_ = {exe_.data(),
                      const_cast<char *>("--gsopt-distrib-worker"),
                      nullptr};
    }

    static void closeFds(Proc &p)
    {
        if (p.toChild >= 0)
            ::close(p.toChild);
        if (p.fromChild >= 0)
            ::close(p.fromChild);
        p.toChild = p.fromChild = -1;
        p.decoder = ipc::FrameDecoder();
    }

    bool spawn(unsigned w)
    {
        Proc &p = slots_[w];
        int c2w[2], w2c[2];
        if (::pipe2(c2w, O_CLOEXEC) != 0)
            return false;
        if (::pipe2(w2c, O_CLOEXEC) != 0) {
            ::close(c2w[0]);
            ::close(c2w[1]);
            return false;
        }
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(c2w[0]);
            ::close(c2w[1]);
            ::close(w2c[0]);
            ::close(w2c[1]);
            return false;
        }
        if (pid == 0) {
            // Child: only async-signal-safe calls until execve. Park
            // the pipe ends above the target range first so dup2
            // cannot collide with fds 3/4, then pin them (dup2 clears
            // CLOEXEC on the duplicate; the originals close on exec).
            const int in = ::fcntl(c2w[0], F_DUPFD, 16);
            const int out = ::fcntl(w2c[1], F_DUPFD, 16);
            if (in < 0 || out < 0 || ::dup2(in, 3) < 0 ||
                ::dup2(out, 4) < 0)
                ::_exit(126);
            ::execve(childArgv_[0], childArgv_.data(),
                     childEnvPtrs_.data());
            ::_exit(127);
        }
        ::close(c2w[0]);
        ::close(w2c[1]);
        p.pid = pid;
        p.toChild = c2w[1];
        p.fromChild = w2c[0];
        p.decoder = ipc::FrameDecoder();

        // Handshake: the worker announces itself with kHello before
        // anything else. A child that never says hello is a binary
        // that does not divert into maybeRunWorker() — kill it before
        // it does something expensive (like running a test suite).
        const uint64_t deadline = nowNs() + 10'000'000'000ull;
        while (nowNs() < deadline) {
            struct pollfd pfd = {p.fromChild, POLLIN, 0};
            const int r = ::poll(&pfd, 1, 100);
            if (r < 0 && errno != EINTR)
                break;
            if (r <= 0)
                continue;
            char buf[4096];
            const ssize_t n = ::read(p.fromChild, buf, sizeof(buf));
            if (n <= 0)
                break;
            p.decoder.feed(buf, static_cast<size_t>(n));
            ipc::Frame f;
            try {
                if (!p.decoder.next(f))
                    continue;
            } catch (const ipc::ProtocolError &) {
                break;
            }
            if (f.type != kHello)
                break;
            p.live = true;
            return true;
        }
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        closeFds(p);
        return false;
    }

    void markDead(unsigned w)
    {
        Proc &p = slots_[w];
        if (!p.live)
            return;
        ::kill(p.pid, SIGKILL);
        ::waitpid(p.pid, nullptr, 0);
        closeFds(p);
        p.live = false;
    }

    /** Drain readable worker pipes into events (at most one read per
     * worker per call; complete frames queue up). */
    void pump(int timeoutMs)
    {
        std::vector<struct pollfd> pfds;
        std::vector<unsigned> owners;
        for (unsigned w = 0; w < workerCount(); ++w) {
            if (!slots_[w].live)
                continue;
            pfds.push_back({slots_[w].fromChild, POLLIN, 0});
            owners.push_back(w);
        }
        if (pfds.empty()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(std::min(timeoutMs, 10)));
            return;
        }
        const int r = ::poll(pfds.data(),
                             static_cast<nfds_t>(pfds.size()),
                             timeoutMs);
        if (r <= 0)
            return;
        for (size_t i = 0; i < pfds.size(); ++i) {
            if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const unsigned w = owners[i];
            Proc &p = slots_[w];
            char buf[1 << 16];
            const ssize_t n = ::read(p.fromChild, buf, sizeof(buf));
            if (n < 0) {
                if (errno == EINTR || errno == EAGAIN)
                    continue;
                streamDead(w);
                continue;
            }
            if (n == 0) {
                // EOF. Mid-frame bytes mean the worker died mid-send
                // (a short frame); either way the worker is gone.
                streamDead(w);
                continue;
            }
            p.decoder.feed(buf, static_cast<size_t>(n));
            drainFrames(w);
        }
    }

    void drainFrames(unsigned w)
    {
        Proc &p = slots_[w];
        ipc::Frame f;
        for (;;) {
            try {
                // Receiver-side fault: an injected ipc.recv failure
                // poisons this worker's stream, same as real garbage.
                fault::point("ipc.recv");
                if (!p.decoder.next(f))
                    return;
            } catch (const std::exception &) {
                streamDead(w);
                return;
            }
            TransportEvent ev;
            ev.worker = w;
            ipc::Unpack up(f.payload);
            switch (f.type) {
            case kResult:
                ev.kind = TransportEvent::Kind::Result;
                if (!up.u64(ev.unit) || !up.str(ev.bytes) ||
                    !decodeHealth(up, ev.health) || !up.done()) {
                    streamDead(w);
                    return;
                }
                break;
            case kUnitError:
                ev.kind = TransportEvent::Kind::UnitError;
                if (!up.u64(ev.unit) || !up.str(ev.bytes) ||
                    !up.done()) {
                    streamDead(w);
                    return;
                }
                break;
            case kHeartbeat:
                ev.kind = TransportEvent::Kind::Heartbeat;
                if (!up.u64(ev.unit)) {
                    streamDead(w);
                    return;
                }
                break;
            case kHello:
                continue; // benign (re-handshake noise)
            default:
                streamDead(w);
                return;
            }
            queue_.push_back(std::move(ev));
        }
    }

    void streamDead(unsigned w)
    {
        markDead(w);
        TransportEvent ev;
        ev.kind = TransportEvent::Kind::WorkerDied;
        ev.worker = w;
        queue_.push_back(std::move(ev));
    }

    std::string exe_;
    std::vector<std::string> childEnv_;
    std::vector<char *> childEnvPtrs_;
    std::vector<char *> childArgv_;
    std::vector<Proc> slots_;
    std::deque<TransportEvent> queue_;
};

// ---- subprocess worker loop --------------------------------------------

void
workerLoop(int in, int out)
{
    std::mutex writeMutex;
    {
        ipc::Pack hello;
        hello.u64(static_cast<uint64_t>(::getpid()));
        std::lock_guard lock(writeMutex);
        ipc::writeFrame(out, kHello, hello.bytes());
    }
    ipc::Frame f;
    while (ipc::readFrame(in, f)) {
        if (f.type == kShutdown)
            return;
        if (f.type != kUnit)
            throw ipc::ProtocolError(
                "distrib worker: unexpected frame type " +
                std::to_string(f.type));
        WireUnit unit;
        if (!decodeUnit(f.payload, unit))
            throw ipc::ProtocolError(
                "distrib worker: malformed unit payload");

        std::string resultBytes, errorMsg;
        CampaignHealth health;
        bool ok = false;
        {
            Heartbeat beat(unit.heartbeatMs, [&] {
                try {
                    ipc::Pack p;
                    p.u64(unit.id);
                    std::lock_guard lock(writeMutex);
                    ipc::writeFrame(out, kHeartbeat, p.bytes());
                    return true;
                } catch (const std::exception &) {
                    return false; // coordinator gone; result send fails
                }
            });
            try {
                resultBytes = deliverUnit(unit.shader, unit.key, health);
                ok = true;
            } catch (const std::exception &e) {
                errorMsg = e.what();
            }
        }

        ipc::Pack reply;
        reply.u64(unit.id);
        reply.str(ok ? resultBytes : errorMsg);
        if (ok)
            encodeHealth(reply, health);
        std::lock_guard lock(writeMutex);
        ipc::writeFrame(out, ok ? kResult : kUnitError, reply.bytes());
    }
}

} // namespace

bool
maybeRunWorker()
{
    const char *env = std::getenv(kWorkerFdsEnv);
    if (!env || !*env)
        return false;
    int in = -1, out = -1;
    if (std::sscanf(env, "%d,%d", &in, &out) != 2 || in < 0 ||
        out < 0) {
        std::fprintf(stderr, "%s: malformed value '%s'\n",
                     kWorkerFdsEnv, env);
        std::abort();
    }
    try {
        workerLoop(in, out);
    } catch (const std::exception &e) {
        // A dead coordinator pipe or an injected send fault: die like
        // a crashed worker would — the coordinator re-queues.
        std::fprintf(stderr, "distrib worker: %s\n", e.what());
        std::_Exit(1);
    }
    return true;
}

std::string
executeUnit(const corpus::CorpusShader &shader, uint64_t key,
            unsigned /*threads*/)
{
    CampaignHealth health;
    return deliverUnit(shader, key, health);
}

// ---- coordinator --------------------------------------------------------

struct CampaignCoordinator::Unit
{
    size_t shaderIndex = 0;
    int assignments = 0;
    bool done = false;
};

CampaignCoordinator::CampaignCoordinator(
    std::vector<corpus::CorpusShader> shaders, std::string shardDir,
    Options opts)
    : shaders_(std::move(shaders)), shardDir_(std::move(shardDir)),
      opts_(opts)
{
    if (opts_.workers == 0)
        opts_.workers = defaultWorkerCount();
    if (opts_.leaseMs == 0)
        opts_.leaseMs = defaultLeaseMs();
    if (opts_.maxAssignments < 1)
        opts_.maxAssignments = 1;
}

const CampaignHealth &
CampaignCoordinator::run()
{
    return runOver(nullptr);
}

const CampaignHealth &
CampaignCoordinator::run(WorkerTransport &transport)
{
    return runOver(&transport);
}

const CampaignHealth &
CampaignCoordinator::runOver(WorkerTransport *supplied)
{
    // The transport owns OS resources (children, threads); make sure
    // they are stopped on every exit path, including a strict-mode
    // throw.
    std::unique_ptr<WorkerTransport> owned;
    WorkerTransport *active = supplied;
    struct ShutdownGuard
    {
        WorkerTransport *&t;
        ~ShutdownGuard()
        {
            try {
                if (t)
                    t->shutdown();
            } catch (...) {
            }
        }
    } guard{active};

    health_ = CampaignHealth{};
    results_.assign(shaders_.size(), ShaderResult{});
    const bool strict = strictMode();

    // ---- enumerate units; resume over surviving shards ------------
    const ShardStore store(shardDir_, shaders_);
    std::vector<Unit> units;
    for (size_t i : store.load(results_))
        units.push_back(Unit{i});
    health_.unitsTotal = shaders_.size();
    health_.unitsFromCache = shaders_.size() - units.size();
    // Retire shards no current unit claims (stale keys, dropped
    // shaders) so the merged directory equals a fresh campaign's.
    store.sweep();
    // A resume with nothing pending starts no workers.
    if (units.empty())
        return health_;
    if (!active) {
        const auto workers = static_cast<unsigned>(
            std::min<size_t>(opts_.workers, units.size()));
        owned = opts_.transport == TransportKind::Subprocess
                    ? makeSubprocessTransport(workers)
                    : makeInProcessTransport(workers);
        active = owned.get();
    }
    WorkerTransport &transport = *active;

    // ---- schedule: input order, or one seeded shuffle ---------------
    std::deque<size_t> pending;
    for (size_t ui = 0; ui < units.size(); ++ui)
        pending.push_back(ui);
    if (opts_.scheduleSeed != 0) {
        Rng rng(opts_.scheduleSeed);
        for (size_t i = pending.size(); i > 1; --i)
            std::swap(pending[i - 1], pending[rng.below(i)]);
    }

    // ---- failure policy ---------------------------------------------
    // A unit that never delivers quarantines each of its device items.
    auto quarantine = [&](size_t ui, const std::string &err) {
        Unit &u = units[ui];
        const std::string &name = shaders_[u.shaderIndex].name;
        if (strict)
            throw std::runtime_error("distrib: unit '" + name +
                                     "' failed under GSOPT_STRICT=1: " +
                                     err);
        u.done = true; // retired; a late delivery is a duplicate
        ShaderResult &r = results_[u.shaderIndex];
        r.exploration.shaderName = name;
        for (gpu::DeviceId dev : gpu::allDevices()) {
            r.quarantined.insert(dev);
            r.quarantineReason[dev] = err;
            health_.quarantined.push_back({name, dev, err, u.assignments});
        }
        warn("distrib: quarantined unit " + name + " after " +
             std::to_string(u.assignments) + " assignment(s): " + err);
    };
    // A delivery failure re-queues the unit while it has assignments
    // left. Strict mode aborts on the first one, with the worker's own
    // exception when it handed one over.
    auto fail = [&](size_t ui, const std::string &err,
                    std::exception_ptr cause = nullptr) {
        if (strict && cause)
            std::rethrow_exception(cause);
        if (!strict && units[ui].assignments < opts_.maxAssignments) {
            pending.push_back(ui);
            health_.unitsRequeued++;
            return;
        }
        quarantine(ui, err);
    };
    // Accept a delivery that parses and whose item health accounts for
    // each device once: the items its shard quarantines, each with at
    // least one attempt, and the rest completed, with no more retries
    // than the retry policy allows. A clean shard is published; a
    // failed write is local, so the result stays and the shard re-runs
    // on resume.
    const uint64_t devices = gpu::allDevices().size();
    const uint64_t maxRetries =
        devices *
        static_cast<uint64_t>(
            std::max(defaultRetryPolicy().maxAttempts, 1) - 1);
    auto merge = [&](Unit &u, TransportEvent &ev) {
        const size_t i = u.shaderIndex;
        const std::string &name = shaders_[i].name;
        const CampaignHealth &report = ev.health;
        std::set<gpu::DeviceId> reported;
        for (const QuarantinedItem &q : report.quarantined)
            if (q.attempts >= 1)
                reported.insert(q.device);
        ShaderResult parsed;
        if (!parseShard(ev.bytes, store.key(i), parsed) ||
            reported != parsed.quarantined ||
            reported.size() != report.quarantined.size() ||
            report.itemsCompleted + reported.size() != devices ||
            report.itemRetries > maxRetries)
            return false;
        if (strict && !parsed.quarantined.empty())
            throw std::runtime_error(
                "distrib: unit '" + name +
                "' quarantined items under GSOPT_STRICT=1: " +
                ev.health.quarantined.front().error);
        u.done = true;
        health_.itemsCompleted += ev.health.itemsCompleted;
        health_.itemRetries += ev.health.itemRetries;
        for (QuarantinedItem &q : ev.health.quarantined) {
            q.shader = name;
            health_.quarantined.push_back(std::move(q));
        }
        if (parsed.quarantined.empty()) {
            health_.unitsCompleted++;
            bool published = shardDir_.empty();
            for (int attempt = 0; attempt < 3 && !published; ++attempt)
                published = publishShardFile(store.path(i), ev.bytes);
            if (!published) {
                std::error_code ec;
                fs::remove(store.path(i) + ".tmp", ec);
                warn("distrib: could not publish the shard for '" +
                     name + "'; it re-runs on resume");
            }
        }
        results_[i] = std::move(parsed);
        return true;
    };

    // ---- main loop --------------------------------------------------
    struct Outstanding
    {
        size_t unit;
        uint64_t deadlineNs;
    };
    std::map<unsigned, Outstanding> outstanding;
    // Free the worker's slot when @p ev answers its current assignment.
    auto settle = [&](const TransportEvent &ev) {
        auto it = outstanding.find(ev.worker);
        if (!ev.stale && it != outstanding.end() &&
            it->second.unit == ev.unit)
            outstanding.erase(it);
    };
    const uint64_t leaseNs = opts_.leaseMs * 1'000'000ull;
    const uint64_t heartbeatMs =
        std::max<uint64_t>(10, opts_.leaseMs / 4);
    int stuckRounds = 0;

    // Hand pending units to idle workers, reviving dead slots on
    // demand while work remains.
    auto assign_idle = [&] {
        for (unsigned w = 0;
             w < transport.workerCount() && !pending.empty(); ++w) {
            if (outstanding.count(w))
                continue;
            if (!transport.live(w)) {
                if (!transport.revive(w))
                    continue;
                health_.workersRestarted++;
            }
            size_t ui = pending.front();
            // A re-queued unit can complete in the meantime via a
            // late (stale) delivery from its first worker; drop it.
            while (units[ui].done) {
                pending.pop_front();
                if (pending.empty())
                    break;
                ui = pending.front();
            }
            if (pending.empty() || units[ui].done)
                break;
            WireUnit wire;
            wire.id = ui;
            wire.key = store.key(units[ui].shaderIndex);
            wire.heartbeatMs = heartbeatMs;
            wire.shader = shaders_[units[ui].shaderIndex];
            if (!transport.assign(w, wire))
                continue; // send failed; unit stays queued
            pending.pop_front();
            units[ui].assignments++;
            outstanding[w] = Outstanding{ui, nowNs() + leaseNs};
        }
    };

    while (!pending.empty() || !outstanding.empty()) {
        assign_idle();
        if (outstanding.empty()) {
            if (pending.empty())
                break;
            // Nothing assignable: every slot is dead and revival
            // failed. Give it a few rounds, then give up loudly.
            if (++stuckRounds >= 3) {
                for (size_t ui : pending)
                    if (!units[ui].done)
                        quarantine(ui,
                                   "no live workers (spawn/revive failed)");
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
            continue;
        }
        stuckRounds = 0;

        // Wait for the next event, but never past the nearest lease.
        uint64_t nearest = UINT64_MAX;
        for (const auto &[w, o] : outstanding)
            nearest = std::min(nearest, o.deadlineNs);
        const uint64_t now = nowNs();
        int timeoutMs = 50;
        if (nearest != UINT64_MAX) {
            const uint64_t untilMs =
                nearest > now ? (nearest - now) / 1'000'000ull : 0;
            timeoutMs = static_cast<int>(
                std::min<uint64_t>(untilMs + 1, 50));
        }

        TransportEvent ev = transport.poll(timeoutMs);
        switch (ev.kind) {
        case TransportEvent::Kind::Result: {
            if (ev.unit >= units.size())
                break; // nonsense id from a hostile stream
            settle(ev);
            Unit &u = units[ev.unit];
            if (u.done) {
                // A unit completed twice (lease reassignment raced a
                // slow worker): the first accepted copy stands.
                health_.duplicateDeliveries++;
            } else if (!merge(u, ev)) {
                health_.shardsRejected++;
                warn("distrib: rejected shard for '" +
                     shaders_[u.shaderIndex].name +
                     "' (checksum/structural validation failed)");
                fail(ev.unit, "delivered shard failed validation");
            }
            break;
        }
        case TransportEvent::Kind::UnitError: {
            if (ev.unit >= units.size())
                break;
            settle(ev);
            if (!units[ev.unit].done)
                fail(ev.unit, ev.bytes, ev.error);
            break;
        }
        case TransportEvent::Kind::Heartbeat: {
            // Only the current assignee's beat for its current unit
            // extends the lease; a reaped worker's beat is stale.
            auto it = outstanding.find(ev.worker);
            if (!ev.stale && it != outstanding.end() &&
                it->second.unit == ev.unit)
                it->second.deadlineNs = nowNs() + leaseNs;
            break;
        }
        case TransportEvent::Kind::WorkerDied: {
            auto it = outstanding.find(ev.worker);
            if (it != outstanding.end()) {
                const size_t ui = it->second.unit;
                outstanding.erase(it);
                if (!units[ui].done)
                    fail(ui, "worker died mid-unit");
            }
            break;
        }
        case TransportEvent::Kind::None:
            break;
        }

        // Lease sweep: a worker that neither delivered nor beat its
        // heart inside the lease is presumed stuck — reap it and give
        // the unit to someone else (bounded by maxAssignments).
        const uint64_t sweepNow = nowNs();
        for (auto it = outstanding.begin();
             it != outstanding.end();) {
            if (it->second.deadlineNs > sweepNow) {
                ++it;
                continue;
            }
            const unsigned w = it->first;
            const size_t ui = it->second.unit;
            health_.leaseExpiries++;
            warn("distrib: lease expired for unit '" +
                 shaders_[units[ui].shaderIndex].name + "' on worker " +
                 std::to_string(w) + "; reaping");
            transport.reap(w);
            it = outstanding.erase(it);
            if (!units[ui].done)
                fail(ui, "lease expired (worker stalled)");
        }
    }

    health_.itemsQuarantined = health_.quarantined.size();
    if (!health_.healthy())
        std::fprintf(stderr, "%s", health_.summary().c_str());
    return health_;
}

std::unique_ptr<WorkerTransport>
makeInProcessTransport(unsigned workers)
{
    return std::make_unique<InProcessTransport>(
        workers == 0 ? defaultWorkerCount() : workers);
}

std::unique_ptr<WorkerTransport>
makeSubprocessTransport(unsigned workers)
{
    return std::make_unique<SubprocessTransport>(
        workers == 0 ? defaultWorkerCount() : workers);
}

} // namespace gsopt::tuner::distrib
