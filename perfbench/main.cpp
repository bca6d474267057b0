/**
 * @file
 * The gsopt benchmark binary: three workloads driven through gsopt's
 * public API, their outputs checked, their metrics reported.
 *
 *   perfbench --workload campaign|tune|campaign_distrib --seed N
 *             --seconds S --trace 0|1 --dir WORKDIR [--setup-only]
 *
 * --trace 0 measures the end-to-end metrics for S seconds with no
 * tracing. --trace 1 replays the workload's calls serially with spans
 * around every call into a layer, and once more with spans off to price
 * the tracing. --setup-only builds the inputs, prints "ready" and exits
 * (run.py times it from process start).
 *
 * The last stdout line is "PERFBENCH_RESULT <json>" carrying the
 * metrics, the output digests, the deterministic counts and the run
 * record; run.py checks digests and counts and prints the final line.
 * WORKLOADS.md says why each workload exists.
 */
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus.h"
#include "emit/offline.h"
#include "gpu/device.h"
#include "gpu/driver.h"
#include "passes/registry.h"
#include "runtime/framework.h"
#include "support/ipc.h"
#include "tuner/distrib.h"
#include "tuner/experiment.h"
#include "tuner/explore.h"
#include "tuner/flags.h"
#include "tuner/search.h"
#include "util.h"

using namespace gsopt;
using perfbench::Scope;
using perfbench::Tracer;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

// ---- arguments ------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool setupOnly = false;
    std::string dir;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "campaign|tune|campaign_distrib --seed N --seconds S "
                 "--trace 0|1 --dir WORKDIR [--setup-only]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (k == "--dir")
                a.dir = v;
            else
                usage(("unknown argument " + k).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + k).c_str());
        }
    }
    if (a.workload != "campaign" && a.workload != "tune" &&
        a.workload != "campaign_distrib")
        usage("unknown workload");
    if (a.dir.empty())
        usage("--dir is required");
    return a;
}

// ---- report ---------------------------------------------------------------

/** Per-layer metrics every traced run reports, with their units. A
 * layer a workload does not exercise reports 0. */
const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"explore.ms", "ms"},
    {"explore.planner_ms", "ms"},
    {"explore.front_end_ms", "ms"},
    {"explore.lower_ms", "ms"},
    {"explore.pass_walk_ms", "ms"},
    {"explore.fingerprint_ms", "ms"},
    {"explore.print_ms", "ms"},
    {"explore.variants", "count"},
    {"explore.combos", "count"},
    {"passes.pass_runs", "count"},
    {"passes.memo_hits", "count"},
    {"passes.memo_hit_ratio", "ratio"},
    {"passes.fingerprints", "count"},
    {"emit.prints", "count"},
    {"gpu.driver_compile_ms", "ms"},
    {"gpu.driver_front_end_ms", "ms"},
    {"gpu.driver_hits", "count"},
    {"gpu.driver_misses", "count"},
    {"gpu.driver_hit_ratio", "ratio"},
    {"runtime.measure_ms", "ms"},
    {"runtime.measurements", "count"},
    {"search.run_ms", "ms"},
    {"search.measurements", "count"},
    {"search.plans_walked", "count"},
    {"shard.save_ms", "ms"},
    {"shard.load_ms", "ms"},
    {"shard.bytes", "count"},
    {"campaign.items", "count"},
    {"campaign.item_retries", "count"},
    {"campaign.quarantined", "count"},
    {"campaign.parallel_efficiency", "ratio"},
    {"distrib.unit_ms", "ms"},
    {"distrib.merge_ms", "ms"},
    {"ipc.frame_ms", "ms"},
    {"distrib.coordination_ms", "ms"},
    {"distrib.units_requeued", "count"},
    {"distrib.shards_rejected", "count"},
    {"distrib.lease_expiries", "count"},
    {"distrib.workers_restarted", "count"},
    {"distrib.duplicates", "count"},
    {"trace.replay_ms", "ms"},
    {"trace.coverage_pct", "%"},
    {"trace.overhead_pct", "%"},
};

/** Structural spans: they group layer spans and are not layer time. */
const std::set<std::string> kStructural = {"bench.replay",
                                           "bench.request"};

struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;
    std::map<std::string, std::pair<double, std::string>> metrics;
    std::map<std::string, uint64_t> counts; ///< must repeat exactly
    std::map<std::string, std::string> digests;
    std::map<std::string, std::string> record;

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics[name] = {value, unit};
    }
    /** A count-type metric: reported and held to exact repetition. */
    void count(const std::string &name, uint64_t value)
    {
        metrics[name] = {static_cast<double>(value), "count"};
        counts[name] = value;
    }
    void error(const std::string &why)
    {
        errors.push_back(why);
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                     why.c_str());
    }
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
toJson(const Report &r)
{
    char buf[64];
    std::string out = "{\"correct\":";
    out += r.errors.empty() ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(r.attempted);
    out += ",\"failed\":" + std::to_string(r.failed);
    out += ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, vu] : r.metrics) {
        std::snprintf(buf, sizeof(buf), "%.17g", vu.first);
        out += (first ? "" : ",") + jsonString(name) + ":{\"value\":" +
               buf + ",\"unit\":" + jsonString(vu.second) + "}";
        first = false;
    }
    out += "},\"counts\":{";
    first = true;
    for (const auto &[name, v] : r.counts) {
        out += (first ? "" : ",") + jsonString(name) + ":" +
               std::to_string(v);
        first = false;
    }
    auto strmap = [&](const char *key,
                      const std::map<std::string, std::string> &m) {
        out += std::string("},\"") + key + "\":{";
        bool f = true;
        for (const auto &[k, v] : m) {
            out += (f ? "" : ",") + jsonString(k) + ":" + jsonString(v);
            f = false;
        }
    };
    strmap("digests", r.digests);
    strmap("record", r.record);
    out += "},\"errors\":[";
    for (size_t i = 0; i < r.errors.size(); ++i)
        out += (i ? "," : "") + jsonString(r.errors[i]);
    return out + "]}";
}

/** Restart this process's peak-resident-set counter (Linux
 * clear_refs), so each pass reports its own peak. */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident set of this process since the last reset, in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    return static_cast<double>(self.ru_maxrss) / 1024.0;
}

/** Largest peak resident set of any reaped child, in MB. */
double
childPeakRssMb()
{
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    return static_cast<double>(kids.ru_maxrss) / 1024.0;
}

// ---- inputs ---------------------------------------------------------------

struct Inputs
{
    std::vector<corpus::CorpusShader> shaders;
    std::vector<gpu::DeviceId> devices;
    unsigned threads = 1; ///< campaign threads or distributed workers
    /** Held for the whole tune run: the catalog passes widen the space
     * to N=11. */
    std::unique_ptr<passes::ScopedExtraPasses> extraPasses;
};

Inputs
buildInputs(const Args &a)
{
    Inputs in;
    in.devices = gpu::allDevices();
    in.threads = std::max(1u, std::thread::hardware_concurrency());
    const auto &all = corpus::corpus();
    if (a.workload == "campaign") {
        // Shard bytes do not depend on shader order; the seed permutes
        // it so a change that depends on order shows.
        for (size_t i : perfbench::permutation(all.size(), a.seed))
            in.shaders.push_back(all[i]);
    } else {
        in.shaders = all;
    }
    if (a.workload == "tune")
        in.extraPasses = std::make_unique<passes::ScopedExtraPasses>();
    gpu::clearDriverCache();
    fs::create_directories(a.dir);
    return in;
}

// ---- shared checks ----------------------------------------------------------

/** Digest of every shard body, sorted by shader name. */
std::string
bodyDigest(const std::vector<tuner::ShaderResult> &results)
{
    std::map<std::string, std::string> bodies;
    for (const auto &r : results)
        bodies[r.exploration.shaderName] = tuner::serializeShardBody(r);
    perfbench::Digest d;
    for (const auto &[name, body] : bodies)
        d.add(name).add(body);
    return d.hex();
}

std::string
readFile(const fs::path &p)
{
    std::ifstream f(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
}

/** Digest of a directory's file names and bytes, sorted by name. */
std::string
dirDigest(const std::string &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &e : fs::directory_iterator(dir))
        files[e.path().filename().string()] = readFile(e.path());
    perfbench::Digest d;
    for (const auto &[name, bytes] : files)
        d.add(name).add(bytes);
    return d.hex();
}

/** Mean best speed-up over every (shader, device), summed in shader
 * name order so the value does not depend on the run's shader order. */
double
meanBestSpeedup(const std::vector<tuner::ShaderResult> &results,
                const std::vector<gpu::DeviceId> &devices)
{
    std::map<std::string, const tuner::ShaderResult *> byName;
    for (const auto &r : results)
        byName[r.exploration.shaderName] = &r;
    double sum = 0;
    size_t n = 0;
    for (const auto &[name, r] : byName) {
        for (gpu::DeviceId dev : devices) {
            sum += r->bestSpeedup(dev);
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : 0;
}

/** Print a timing: median with quartiles, the tail by the full rule,
 * and the sample count, which also goes into the run record. */
void
timing(Report &rep, const char *human, const std::vector<double> &ms)
{
    const perfbench::Tail t = perfbench::tail(ms);
    const std::vector<double> q = ms.size() > 1
                                      ? perfbench::quartiles(ms)
                                      : std::vector<double>(3, ms[0]);
    std::printf("  %-22s p50 %10.3f ms (q1 %.3f, q3 %.3f)   p%g %10.3f ms"
                "   (%zu samples, %zu beyond the tail percentile)\n",
                human, q[1], q[0], q[2], t.percentile, t.value, ms.size(),
                t.beyond);
    rep.record[std::string(human) + ".samples"] =
        std::to_string(ms.size());
}

/** The end-to-end metrics, alike on every workload. @p unitMs times
 * one unit of work (a pass or a request) of @p items items each. */
void
endToEnd(Report &rep, const std::vector<double> &unitMs, size_t items,
         const std::vector<double> &warmMs, double bestSpeedup,
         double rssMb)
{
    double total = 0;
    for (double ms : unitMs)
        total += ms;
    rep.metric("p50_ms", perfbench::median(unitMs), "ms");
    rep.metric("tail_ms", perfbench::tail(unitMs, 90).value, "ms");
    rep.metric("throughput_per_s",
               static_cast<double>(items * unitMs.size()) / (total / 1e3),
               "1/s");
    rep.metric("warm_ms", perfbench::median(warmMs), "ms");
    rep.metric("best_speedup_pct", bestSpeedup, "%");
    rep.metric("peak_rss_mb", rssMb, "MB");
}

// ---- end-to-end: campaign ---------------------------------------------------

void
runCampaign(const Args &a, const Inputs &in, Report &rep)
{
    const std::string dir = a.dir + "/campaign";
    const size_t items = in.shaders.size() * in.devices.size();
    std::vector<double> cold, warm, rss;
    std::string body0, dir0;
    double best = 0;
    const auto start = Clock::now();
    // Pass 0 is a warm-up: checked like every pass, timed by none of the
    // metrics. A process's first campaign is up to 1.6x slower. At least
    // one pass is timed.
    for (size_t pass = 0; pass < 2 || msSince(start) < a.seconds * 1e3;
         ++pass) {
        gpu::clearDriverCache();
        fs::remove_all(dir);
        resetPeakRss();
        const auto t0 = Clock::now();
        tuner::ExperimentEngine engine(in.shaders, in.threads, dir);
        const double ms = msSince(t0);
        if (pass > 0) {
            cold.push_back(ms);
            rss.push_back(peakRssMb());
        }

        rep.attempted += items;
        const tuner::CampaignHealth &h = engine.health();
        bool ok = h.healthy() && h.itemsCompleted == items;
        const std::string body = bodyDigest(engine.results());
        const std::string files = dirDigest(dir);
        if (pass == 0) {
            body0 = body;
            dir0 = files;
            best = meanBestSpeedup(engine.results(), in.devices);
        } else if (body != body0 || files != dir0) {
            rep.error("campaign output differs between passes");
            ok = false;
        }
        // Warm reloads: every shard must hit (no driver compile) and
        // the reloaded results must equal the cold ones.
        for (int k = 0; k < 10; ++k) {
            gpu::clearDriverCache();
            const auto w0 = Clock::now();
            tuner::ExperimentEngine reload(in.shaders, in.threads, dir);
            if (pass > 0)
                warm.push_back(msSince(w0));
            if (gpu::driverCacheStats().misses != 0 ||
                bodyDigest(reload.results()) != body) {
                rep.error("warm reload differs from the cold campaign");
                ok = false;
            }
        }
        rep.failed += ok ? h.itemsQuarantined : items;
    }

    rep.digests["campaign.body"] = body0;
    rep.digests["campaign.dir"] = dir0;
    std::printf("campaign: %zu shaders x %zu devices = %zu items, "
                "%u threads, N=%zu\n",
                in.shaders.size(), in.devices.size(), items, in.threads,
                tuner::flagCount());
    timing(rep, "campaign_ms", cold);
    timing(rep, "warm_load_ms", warm);
    endToEnd(rep, cold, items, warm, best, perfbench::median(rss));
}

// ---- end-to-end: tune -------------------------------------------------------

struct TuneOutcome
{
    std::string plan;
    double speedup = 0;
    size_t measurements = 0;
    bool operator==(const TuneOutcome &o) const
    {
        return plan == o.plan && speedup == o.speedup &&
               measurements == o.measurements;
    }
};

/** Per-request layer accounting for the traced tune replay. */
struct TuneLayers
{
    uint64_t variants = 0;
    uint64_t searchMeasurements = 0;
    uint64_t plansWalked = 0;
    uint64_t oracleMeasurements = 0;
    uint64_t driverHits = 0;
    uint64_t driverMisses = 0;
    uint64_t driverCompileNs = 0;
};

/** One tuning request: explore at N=11, attach a plan explorer, run a
 * 16-measurement sequence search. */
TuneOutcome
tuneRequest(const corpus::CorpusShader &shader,
            const gpu::DeviceModel &device, Tracer &t, uint64_t id,
            TuneLayers &acc)
{
    Scope request(t, "bench.request", id);
    tuner::Exploration ex;
    {
        Scope s(t, "explore.ms", id);
        ex = tuner::exploreShader(shader);
    }
    acc.variants += ex.variants.size();
    std::unique_ptr<tuner::PlanExplorer> planner;
    {
        Scope s(t, "explore.planner_ms", id);
        planner = std::make_unique<tuner::PlanExplorer>(shader, ex);
    }
    tuner::MeasurementOracle oracle(ex, device, planner.get());
    tuner::SearchOutcome out;
    const gpu::DriverCacheStats before = gpu::driverCacheStats();
    {
        Scope s(t, "search.run_ms", id);
        out = tuner::SequenceSearch(16).run(oracle);
    }
    const gpu::DriverCacheStats after = gpu::driverCacheStats();
    acc.driverHits += after.hits - before.hits;
    acc.driverMisses += after.misses - before.misses;
    acc.driverCompileNs += after.compileNs - before.compileNs;
    acc.searchMeasurements += out.measurementsUsed;
    acc.plansWalked += planner->plansWalked();
    // The oracle times the original once beside the variants it pays.
    acc.oracleMeasurements += oracle.measurementsTaken() + 1;
    return {out.bestPlan.str(), out.bestSpeedupPercent,
            out.measurementsUsed};
}

/** Digest of one cycle's outcomes, sorted by (shader, device). */
std::string
tuneDigest(const Inputs &in,
           const std::map<std::pair<size_t, size_t>, TuneOutcome> &byPair)
{
    std::map<std::pair<std::string, size_t>, const TuneOutcome *> sorted;
    for (const auto &[pair, o] : byPair)
        sorted[{in.shaders[pair.first].name, pair.second}] = &o;
    perfbench::Digest d;
    char buf[64];
    for (const auto &[key, o] : sorted) {
        std::snprintf(buf, sizeof(buf), "%.17g %zu", o->speedup,
                      o->measurements);
        d.add(key.first).add(std::to_string(key.second)).add(o->plan).add(
            buf);
    }
    return d.hex();
}

void
runTune(const Args &a, const Inputs &in, Report &rep)
{
    Tracer off(false);
    TuneLayers acc;
    std::vector<double> all, warm;
    std::map<std::pair<size_t, size_t>, TuneOutcome> first;
    resetPeakRss();
    const auto start = Clock::now();
    // Cycles 0 and 1 always complete: cycle 0 defines the outcome
    // digest and the mean speed-up, cycle 1 is the first with the
    // driver cache warm. Only complete cycles are timed, so every run
    // times the same request mix whatever its length.
    for (uint64_t cycle = 0;; ++cycle) {
        const auto reqs = perfbench::tuneCycle(
            in.shaders.size(), in.devices.size(), a.seed, cycle);
        std::vector<double> times;
        for (const perfbench::TuneRequest &r : reqs) {
            if (cycle > 1 && msSince(start) >= a.seconds * 1e3)
                break;
            ++rep.attempted;
            const auto t0 = Clock::now();
            TuneOutcome o;
            try {
                o = tuneRequest(in.shaders[r.shader],
                                gpu::deviceModel(in.devices[r.device]),
                                off, rep.attempted, acc);
            } catch (const std::exception &e) {
                ++rep.failed;
                rep.error(std::string("tuning request failed: ") +
                          e.what());
                continue;
            }
            times.push_back(msSince(t0));
            if (cycle == 0) {
                first[{r.shader, r.device}] = o;
            } else if (!(first[{r.shader, r.device}] == o)) {
                ++rep.failed;
                rep.error("a repeated request found a different outcome");
            }
        }
        if (times.size() == reqs.size()) {
            all.insert(all.end(), times.begin(), times.end());
            if (cycle > 0)
                warm.insert(warm.end(), times.begin(), times.end());
        }
        if (cycle > 0 && msSince(start) >= a.seconds * 1e3)
            break;
    }
    double speedup = 0;
    for (const auto &[pair, o] : first)
        speedup += o.speedup;
    speedup /= static_cast<double>(std::max<size_t>(1, first.size()));
    rep.digests["tune.outcomes"] = tuneDigest(in, first);

    std::printf("tune: closed loop, 1 client, %zu shaders x %zu devices "
                "per cycle, N=%zu, SequenceSearch(16)\n",
                in.shaders.size(), in.devices.size(), tuner::flagCount());
    if (warm.empty())
        warm = all; // a failed request left cycle 1 incomplete
    timing(rep, "tune_latency_ms", all);
    timing(rep, "tune_warm_latency_ms", warm);
    endToEnd(rep, all, 1, warm, speedup, peakRssMb());
}

// ---- end-to-end: distributed campaign ---------------------------------------

tuner::distrib::Options
distribOptions(const Args &a, const Inputs &in)
{
    tuner::distrib::Options o;
    o.workers = in.threads;
    o.transport = tuner::distrib::TransportKind::Subprocess;
    o.scheduleSeed = a.seed;
    return o;
}

void
runDistrib(const Args &a, const Inputs &in, Report &rep)
{
    const std::string dir = a.dir + "/distrib";
    const size_t units = in.shaders.size();
    std::vector<double> cold, warm, rss;
    std::string dir0;
    double best = 0;
    const auto start = Clock::now();
    // Pass 0 is a warm-up, as in the campaign.
    for (size_t pass = 0; pass < 2 || msSince(start) < a.seconds * 1e3;
         ++pass) {
        fs::remove_all(dir);
        resetPeakRss();
        const auto t0 = Clock::now();
        tuner::distrib::CampaignCoordinator coord(in.shaders, dir,
                                                  distribOptions(a, in));
        const tuner::distrib::DistribHealth h = coord.run();
        const double ms = msSince(t0);
        if (pass > 0) {
            cold.push_back(ms);
            // Workers run at once; count each at the largest worker's
            // peak.
            rss.push_back(peakRssMb() + in.threads * childPeakRssMb());
        }
        rep.attempted += units;
        bool ok = h.healthy() && h.unitsCompleted == units;
        const std::string files = dirDigest(dir);
        if (pass == 0) {
            dir0 = files;
            gpu::clearDriverCache();
            tuner::ExperimentEngine merged(in.shaders, 1, dir);
            best = meanBestSpeedup(merged.results(), in.devices);
            rep.digests["campaign.body"] = bodyDigest(merged.results());
        } else if (files != dir0) {
            rep.error("merged directory differs between passes");
            ok = false;
        }
        // Resumes over the complete directory: every unit must come
        // from the cache.
        for (int k = 0; k < 3; ++k) {
            const auto w0 = Clock::now();
            tuner::distrib::CampaignCoordinator again(
                in.shaders, dir, distribOptions(a, in));
            const tuner::distrib::DistribHealth h2 = again.run();
            if (pass > 0)
                warm.push_back(msSince(w0));
            if (h2.unitsFromCache != units || dirDigest(dir) != dir0) {
                rep.error("resume over a complete directory re-ran units");
                ok = false;
            }
        }
        rep.failed += ok ? h.quarantined.size() : units;
    }

    rep.digests["campaign.dir"] = dir0;
    const size_t items = units * in.devices.size();
    std::printf("campaign_distrib: %zu units (%zu items), %u subprocess "
                "workers, N=%zu\n",
                units, items, in.threads, tuner::flagCount());
    timing(rep, "distrib_ms", cold);
    timing(rep, "resume_ms", warm);
    endToEnd(rep, cold, items, warm, best, perfbench::median(rss));
}

// ---- traced replays ---------------------------------------------------------

/** Deltas of the public exploration counters across one replay. */
struct ExploreDelta
{
    uint64_t frontEndNs, lowerNs, pipelineNs, fingerprintNs, printNs;
    uint64_t passRuns, memoHits, fingerprints, prints, combos;
};

ExploreDelta
exploreSnapshot()
{
    const tuner::ExploreCounters &c = tuner::exploreCounters();
    return {c.frontEndNs.load(),      c.lowerNs.load(),
            c.pipelineNs.load(),      c.fingerprintNs.load(),
            c.printNs.load(),         c.passRuns.load(),
            c.passMemoHits.load(),    c.fingerprintRuns.load(),
            c.printRuns.load(),       c.pipelineRuns.load()};
}

ExploreDelta
operator-(const ExploreDelta &b, const ExploreDelta &a)
{
    return {b.frontEndNs - a.frontEndNs,
            b.lowerNs - a.lowerNs,
            b.pipelineNs - a.pipelineNs,
            b.fingerprintNs - a.fingerprintNs,
            b.printNs - a.printNs,
            b.passRuns - a.passRuns,
            b.memoHits - a.memoHits,
            b.fingerprints - a.fingerprints,
            b.prints - a.prints,
            b.combos - a.combos};
}

/** What one replay produced, besides its spans. */
struct Replay
{
    double wallMs = 0;
    ExploreDelta explore{};
    std::map<std::string, uint64_t> counts; ///< replay-specific counts
    uint64_t driverCompileNs = 0; ///< cache-fill time, when not spanned
    std::set<std::string> texts;  ///< unique texts sent to the driver
};

double
ratio(uint64_t num, uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

/** Serial campaign: explore, then driverCompile -> measureShader per
 * text x device, then saveShard and loadShard per shader. */
Replay
replayCampaign(const Args &a, const Inputs &in, Tracer &t, Report &rep,
               const char *tag)
{
    const std::string dir = a.dir + "/" + tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    gpu::clearDriverCache();
    Replay out;
    uint64_t hits = 0, misses = 0, measurements = 0, bytes = 0,
             variants = 0;
    std::vector<tuner::ShaderResult> results;
    const uint64_t setKey = tuner::deviceSetKey();
    const ExploreDelta e0 = exploreSnapshot();
    const auto t0 = Clock::now();
    {
        Scope root(t, "bench.replay");
        for (size_t i = 0; i < in.shaders.size(); ++i) {
            const corpus::CorpusShader &shader = in.shaders[i];
            const uint64_t id = i + 1;
            tuner::ShaderResult r;
            {
                Scope s(t, "explore.ms", id);
                r.exploration = tuner::exploreShader(shader);
            }
            variants += r.exploration.variants.size();
            for (gpu::DeviceId dev : in.devices) {
                const gpu::DeviceModel &device = gpu::deviceModel(dev);
                auto timeText = [&](const std::string &text,
                                    const std::string &label) {
                    const gpu::DriverCacheStats before =
                        gpu::driverCacheStats();
                    {
                        Scope s(t, "gpu.driver_compile_ms", id);
                        gpu::driverCompile(text, device);
                    }
                    const gpu::DriverCacheStats after =
                        gpu::driverCacheStats();
                    hits += after.hits - before.hits;
                    misses += after.misses - before.misses;
                    out.texts.insert(text);
                    ++measurements;
                    Scope s(t, "runtime.measure_ms", id);
                    return runtime::measureShader(text, device, label)
                        .meanNs;
                };
                tuner::DeviceMeasurement m;
                m.originalMeanNs =
                    timeText(r.exploration.preprocessedOriginal,
                             shader.name + "/original");
                for (size_t v = 0; v < r.exploration.variants.size(); ++v)
                    m.variantMeanNs.push_back(
                        timeText(r.exploration.variants[v].source,
                                 shader.name + "/v" + std::to_string(v)));
                r.byDevice.emplace(dev, std::move(m));
            }
            const uint64_t key = tuner::shardKey(shader, setKey);
            const std::string path =
                dir + "/" + tuner::shardFileName(shader, key);
            {
                Scope s(t, "shard.save_ms", id);
                tuner::ExperimentEngine::saveShard(path, key, r);
            }
            tuner::ShaderResult back;
            bool loaded = false;
            {
                Scope s(t, "shard.load_ms", id);
                loaded = tuner::ExperimentEngine::loadShard(path, key,
                                                            back);
            }
            bytes += fs::file_size(path);
            if (!loaded || tuner::serializeShardBody(back) !=
                               tuner::serializeShardBody(r))
                rep.error("replayed shard does not reload equal: " +
                          shader.name);
            results.push_back(std::move(r));
        }
    }
    out.wallMs = msSince(t0);
    out.explore = exploreSnapshot() - e0;
    rep.attempted += results.size() * in.devices.size();
    rep.digests["campaign.body"] = bodyDigest(results);
    rep.digests["campaign.dir"] = dirDigest(dir);
    out.counts = {{"explore.variants", variants},
                  {"gpu.driver_hits", hits},
                  {"gpu.driver_misses", misses},
                  {"runtime.measurements", measurements},
                  {"shard.bytes", bytes}};
    return out;
}

/** Serial tuning: the first `requests` requests of cycle 0. */
Replay
replayTune(const Args &a, const Inputs &in, Tracer &t, Report &rep,
           size_t requests)
{
    gpu::clearDriverCache();
    Replay out;
    TuneLayers acc;
    std::map<std::pair<size_t, size_t>, TuneOutcome> outcomes;
    auto reqs = perfbench::tuneCycle(in.shaders.size(),
                                     in.devices.size(), a.seed, 0);
    reqs.resize(std::min(requests, reqs.size()));
    const ExploreDelta e0 = exploreSnapshot();
    const auto t0 = Clock::now();
    {
        Scope root(t, "bench.replay");
        uint64_t id = 0;
        for (const perfbench::TuneRequest &r : reqs) {
            outcomes[{r.shader, r.device}] = tuneRequest(
                in.shaders[r.shader],
                gpu::deviceModel(in.devices[r.device]), t, ++id, acc);
        }
    }
    out.wallMs = msSince(t0);
    out.explore = exploreSnapshot() - e0;
    rep.attempted += reqs.size();
    rep.digests["tune.replay"] = tuneDigest(in, outcomes);
    out.driverCompileNs = acc.driverCompileNs;
    out.counts = {{"explore.variants", acc.variants},
                  {"gpu.driver_hits", acc.driverHits},
                  {"gpu.driver_misses", acc.driverMisses},
                  {"runtime.measurements", acc.oracleMeasurements},
                  {"search.measurements", acc.searchMeasurements},
                  {"search.plans_walked", acc.plansWalked}};
    return out;
}

/** Owns one file descriptor. */
struct FdGuard
{
    int fd;
    explicit FdGuard(int f) : fd(f) {}
    ~FdGuard()
    {
        if (fd >= 0)
            ::close(fd);
    }
    FdGuard(const FdGuard &) = delete;
    FdGuard &operator=(const FdGuard &) = delete;
};

/** Serial distributed campaign: executeUnit per shader, the shard
 * bytes through one ipc frame, then the coordinator's merge steps
 * (write `.tmp`, validate with loadShard, rename). */
Replay
replayDistrib(const Args &a, const Inputs &in, Tracer &t, Report &rep,
              const char *tag)
{
    const std::string dir = a.dir + "/" + tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    gpu::clearDriverCache();
    Replay out;
    uint64_t bytes = 0, items = 0, hits = 0, misses = 0;
    const uint64_t setKey = tuner::deviceSetKey();
    const std::string wire = dir + "/wire.frames";
    const ExploreDelta e0 = exploreSnapshot();
    const auto t0 = Clock::now();
    {
        Scope root(t, "bench.replay");
        for (size_t i = 0; i < in.shaders.size(); ++i) {
            const corpus::CorpusShader &shader = in.shaders[i];
            const uint64_t id = i + 1;
            const uint64_t key = tuner::shardKey(shader, setKey);
            const gpu::DriverCacheStats before = gpu::driverCacheStats();
            std::string shard;
            {
                Scope s(t, "distrib.unit_ms", id);
                shard = tuner::distrib::executeUnit(shader, key, 1);
            }
            const gpu::DriverCacheStats after = gpu::driverCacheStats();
            hits += after.hits - before.hits;
            misses += after.misses - before.misses;
            ipc::Frame frame;
            {
                Scope s(t, "ipc.frame_ms", id);
                const FdGuard wireFd(
                    ::open(wire.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600));
                if (wireFd.fd < 0)
                    throw std::runtime_error("cannot open " + wire);
                ipc::writeFrame(wireFd.fd, 1, shard);
                ::lseek(wireFd.fd, 0, SEEK_SET);
                const bool got = ipc::readFrame(wireFd.fd, frame);
                if (!got || frame.payload != shard)
                    rep.error("ipc frame round trip lost bytes");
            }
            const std::string path =
                dir + "/" + tuner::shardFileName(shader, key);
            tuner::ShaderResult r;
            {
                Scope s(t, "distrib.merge_ms", id);
                std::ofstream(path + ".tmp", std::ios::binary)
                    << frame.payload;
                bool valid = false;
                {
                    Scope l(t, "shard.load_ms", id);
                    valid = tuner::ExperimentEngine::loadShard(
                        path + ".tmp", key, r);
                }
                if (!valid)
                    rep.error("unit shard failed validation: " +
                              shader.name);
                fs::rename(path + ".tmp", path);
            }
            bytes += shard.size();
            items += r.byDevice.size();
        }
    }
    out.wallMs = msSince(t0);
    out.explore = exploreSnapshot() - e0;
    fs::remove(wire);
    rep.attempted += in.shaders.size();
    rep.digests["campaign.dir"] = dirDigest(dir);
    out.counts = {{"gpu.driver_hits", hits},
                  {"gpu.driver_misses", misses},
                  {"shard.bytes", bytes},
                  {"campaign.items", items}};
    return out;
}

/** Every count one replay produced, its exploration deltas included. */
std::map<std::string, uint64_t>
replayCounts(const Replay &r)
{
    std::map<std::string, uint64_t> counts = r.counts;
    counts["explore.combos"] = r.explore.combos;
    counts["passes.pass_runs"] = r.explore.passRuns;
    counts["passes.memo_hits"] = r.explore.memoHits;
    counts["passes.fingerprints"] = r.explore.fingerprints;
    counts["emit.prints"] = r.explore.prints;
    return counts;
}

/** Print the per-layer self-time table of a traced replay. */
void
printSelfTimes(const Tracer &t, const Replay &r)
{
    std::map<std::string, double> self = t.selfMs();
    std::printf("\nper-layer self time (traced replay, %.1f ms):\n",
                r.wallMs);
    std::vector<std::pair<double, std::string>> rows;
    for (const auto &[name, ms] : self)
        rows.push_back({ms, name});
    std::sort(rows.rbegin(), rows.rend());
    double root = t.totalMs()["bench.replay"];
    for (const auto &[ms, name] : rows)
        std::printf("  %-26s %10.1f ms %6.1f %%%s\n", name.c_str(), ms,
                    root > 0 ? 100.0 * ms / root : 0.0,
                    kStructural.count(name) ? "  (uncovered)" : "");
    const ExploreDelta &e = r.explore;
    std::printf("  exploration phases by counter: front end %.1f, lower "
                "%.1f, pass walk %.1f, fingerprint %.1f, print %.1f ms\n",
                e.frontEndNs / 1e6, e.lowerNs / 1e6, e.pipelineNs / 1e6,
                e.fingerprintNs / 1e6, e.printNs / 1e6);
}

void
runTraced(const Args &a, const Inputs &in, Report &rep)
{
    for (const auto &[name, unit] : kPerLayer)
        rep.metric(name, 0, unit);

    // The parallel run first; the campaign runs it twice and keeps the
    // second, since a process's first campaign is the slowest.
    double parallelMs = 0;
    if (a.workload == "campaign") {
        for (int pass = 0; pass < 2; ++pass) {
            gpu::clearDriverCache();
            fs::remove_all(a.dir + "/campaign");
            const auto t0 = Clock::now();
            tuner::ExperimentEngine engine(in.shaders, in.threads,
                                           a.dir + "/campaign");
            parallelMs = msSince(t0);
            const tuner::CampaignHealth &h = engine.health();
            rep.count("campaign.items", h.itemsCompleted);
            rep.count("campaign.item_retries", h.itemRetries);
            rep.count("campaign.quarantined", h.itemsQuarantined);
            rep.failed += h.itemsQuarantined;
        }
    } else if (a.workload == "campaign_distrib") {
        const std::string dir = a.dir + "/distrib";
        fs::remove_all(dir);
        const auto t0 = Clock::now();
        tuner::distrib::CampaignCoordinator coord(in.shaders, dir,
                                                  distribOptions(a, in));
        const tuner::distrib::DistribHealth h = coord.run();
        parallelMs = msSince(t0);
        rep.count("distrib.units_requeued", h.unitsRequeued);
        rep.count("distrib.shards_rejected", h.shardsRejected);
        rep.count("distrib.lease_expiries", h.leaseExpiries);
        rep.count("distrib.workers_restarted", h.workersRestarted);
        rep.count("distrib.duplicates", h.duplicateDeliveries);
        rep.count("campaign.quarantined", h.quarantined.size());
        rep.failed += h.quarantined.size();
        rep.digests["distrib.dir"] = dirDigest(dir);
    }

    // Tune replays a fixed prefix of cycle 0 to keep the run short.
    const size_t tuneRequests = 2 * in.shaders.size();
    auto replay = [&](Tracer &t, const char *tag) {
        if (a.workload == "campaign")
            return replayCampaign(a, in, t, rep, tag);
        if (a.workload == "tune")
            return replayTune(a, in, t, rep, tuneRequests);
        return replayDistrib(a, in, t, rep, tag);
    };
    // A warm-up replay, then off, on, on, off: the ABBA order cancels a
    // linear drift in host speed from the overhead estimate. All five
    // must produce the same outputs and counts.
    Tracer quiet(false);
    const Replay warmup = replay(quiet, "replay-warmup");
    const auto digests = rep.digests;
    const Replay off = replay(quiet, "replay-off");
    Tracer t(true);
    const Replay on = replay(t, "replay-on");
    Tracer t2(true);
    const Replay on2 = replay(t2, "replay-on");
    const Replay off2 = replay(quiet, "replay-off");
    if (rep.digests != digests)
        rep.error("replays of one workload disagree on their outputs");
    const std::map<std::string, uint64_t> counts = replayCounts(on);
    for (const Replay *r : {&warmup, &off, &on2, &off2}) {
        if (replayCounts(*r) != counts)
            rep.error("a count differs between replays of one workload");
    }
    for (const auto &[name, v] : counts)
        rep.count(name, v);
    const ExploreDelta &e = on.explore;
    const double offMs = (off.wallMs + off2.wallMs) / 2;
    const double onMs = (on.wallMs + on2.wallMs) / 2;

    const std::map<std::string, double> total = t.totalMs();
    auto spanMs = [&](const char *name) {
        auto it = total.find(name);
        return it == total.end() ? 0.0 : it->second;
    };
    for (const auto &[name, unit] : kPerLayer) {
        if (std::string(unit) == "ms" && total.count(name))
            rep.metric(name, spanMs(name), "ms");
    }
    rep.metric("explore.front_end_ms", e.frontEndNs / 1e6, "ms");
    rep.metric("explore.lower_ms", e.lowerNs / 1e6, "ms");
    rep.metric("explore.pass_walk_ms", e.pipelineNs / 1e6, "ms");
    rep.metric("explore.fingerprint_ms", e.fingerprintNs / 1e6, "ms");
    rep.metric("explore.print_ms", e.printNs / 1e6, "ms");
    rep.metric("passes.memo_hit_ratio",
               ratio(e.memoHits, e.passRuns + e.memoHits), "ratio");
    rep.metric("gpu.driver_hit_ratio",
               ratio(counts.at("gpu.driver_hits"),
                     counts.at("gpu.driver_hits") +
                         counts.at("gpu.driver_misses")),
               "ratio");
    if (a.workload == "tune") {
        // Inside the search the driver is reached through the oracle;
        // its cache-fill time is read from the driver's own stats.
        rep.metric("gpu.driver_compile_ms", on.driverCompileNs / 1e6,
                   "ms");
    }
    if (a.workload == "campaign") {
        rep.metric("campaign.parallel_efficiency",
                   offMs / (parallelMs * in.threads), "ratio");
        // Probe: the driver's front end on each unique text, outside
        // the replay so it does not count towards coverage.
        const int probe = t.open("gpu.driver_front_end_ms", 0);
        for (const std::string &text : on.texts)
            emit::compileToIr(text);
        t.close(probe);
        rep.metric("gpu.driver_front_end_ms",
                   t.spans()[static_cast<size_t>(probe)].endMs -
                       t.spans()[static_cast<size_t>(probe)].startMs,
                   "ms");
    }
    if (a.workload == "campaign_distrib") {
        rep.metric("campaign.parallel_efficiency",
                   offMs / (parallelMs * in.threads), "ratio");
        rep.metric("distrib.coordination_ms",
                   parallelMs * in.threads - spanMs("distrib.unit_ms"),
                   "ms");
    }

    const std::map<std::string, double> self = t.selfMs();
    double structural = 0;
    for (const std::string &name : kStructural) {
        auto it = self.find(name);
        if (it != self.end())
            structural += it->second;
    }
    const double root = spanMs("bench.replay");
    const double coverage = root > 0 ? 100.0 * (1 - structural / root) : 0;
    rep.metric("trace.replay_ms", offMs, "ms");
    rep.metric("trace.coverage_pct", coverage, "%");
    rep.metric("trace.overhead_pct", 100.0 * (onMs - offMs) / offMs, "%");

    // The measured difference sits inside the host's noise; the cost of
    // the spans themselves, timed on a scratch tracer, bounds it.
    Tracer scratch(true);
    const auto s0 = Clock::now();
    for (size_t i = 0; i < t.spans().size(); ++i)
        Scope s(scratch, "bench.cost", i);
    const double spanCostMs = msSince(s0);

    printSelfTimes(t, on);
    std::printf("  coverage %.2f %% of the replay in named spans; "
                "tracing overhead %+.2f %% (%.1f ms on vs %.1f ms off, "
                "means of two each); %zu spans cost %.2f ms (%.3f %%)\n",
                coverage, 100.0 * (onMs - offMs) / offMs, onMs, offMs,
                t.spans().size(), spanCostMs, 100.0 * spanCostMs / offMs);
    if (coverage < 95.0)
        rep.error("named spans cover under 95 % of the replay");
    std::ofstream(a.dir + "/trace.json") << t.chromeJson();
}

} // namespace

int
main(int argc, char **argv)
{
    if (tuner::distrib::maybeRunWorker())
        return 0;
    const Args a = parseArgs(argc, argv);
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench: refusing to report from a build "
                         "without optimisation\n");
    return 3;
#endif
    Inputs in = buildInputs(a);
    if (a.setupOnly) {
        std::printf("ready\n");
        std::fflush(stdout);
        return 0;
    }

    Report rep;
    try {
        if (a.trace)
            runTraced(a, in, rep);
        else if (a.workload == "campaign")
            runCampaign(a, in, rep);
        else if (a.workload == "tune")
            runTune(a, in, rep);
        else
            runDistrib(a, in, rep);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    rep.record["compiler"] = __VERSION__;
    rep.record["build_type"] = PERFBENCH_BUILD_TYPE;
    rep.record["nproc"] =
        std::to_string(std::thread::hardware_concurrency());
    rep.record[a.workload == "tune" ? "clients" : a.workload == "campaign"
                                                  ? "threads"
                                                  : "workers"] =
        a.workload == "tune" ? "1" : std::to_string(in.threads);
    rep.record["registry_n"] = std::to_string(tuner::flagCount());
    rep.record["corpus_size"] = std::to_string(in.shaders.size());
    rep.record["devices"] = std::to_string(in.devices.size());
    rep.record["seed"] = std::to_string(a.seed);
    std::printf("PERFBENCH_RESULT %s\n", toJson(rep).c_str());
    return rep.errors.empty() ? 0 : 1;
}
