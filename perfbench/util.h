/**
 * @file
 * The benchmark's own helpers, kept apart from the workloads so the
 * self-test can pin them: sample statistics, the tail-percentile rule,
 * output digests, seeded workload generation and the in-memory span
 * recorder.
 */
#ifndef PERFBENCH_UTIL_H
#define PERFBENCH_UTIL_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---- statistics -----------------------------------------------------------

/** Median as Python's statistics.median: the mean of the two middle
 * values for an even count. Throws std::invalid_argument when empty. */
double median(std::vector<double> samples);

/** The three cut points of Python's statistics.quantiles(samples, n=4)
 * (method "exclusive"). Needs at least two samples. */
std::vector<double> quartiles(std::vector<double> samples);

/** Nearest-rank percentile @p p (0 < p <= 100) of @p samples. */
double percentile(std::vector<double> samples, double p);

/** A timing's tail: the highest percentile of the ladder 90, 99, 99.9,
 * up to @p deepest, that has at least ten samples beyond it. When none
 * qualifies (under 100 samples) the median is reported as percentile
 * 50, with `beyond` saying how thin it is. */
struct Tail
{
    double percentile = 50;
    double value = 0;
    size_t beyond = 0; ///< samples strictly ranked past the percentile
};

Tail tail(const std::vector<double> &samples, double deepest = 99.9);

// ---- digests --------------------------------------------------------------

/** FNV-1a over length-prefixed pieces: adding "ab","c" and "a","bc"
 * gives different digests. Stable across platforms and builds. */
class Digest
{
  public:
    Digest &add(std::string_view piece);
    std::string hex() const;

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
    void mix(std::string_view bytes);
};

// ---- seeded workload generation --------------------------------------------

/** SplitMix64 step: the one source of randomness for workload inputs. */
uint64_t splitmix64(uint64_t &state);

/** A Fisher-Yates permutation of 0..n-1 drawn from @p seed. */
std::vector<size_t> permutation(size_t n, uint64_t seed);

/** One tuning request: a corpus shader index and a device index. */
struct TuneRequest
{
    size_t shader = 0;
    size_t device = 0;
    bool operator==(const TuneRequest &o) const
    {
        return shader == o.shader && device == o.device;
    }
};

/** Cycle @p cycle of the tuning request stream: every (shader, device)
 * pair exactly once, in an order drawn from (@p seed, @p cycle). Each
 * cycle covers the whole space, so its latency mix and its mean
 * speed-up do not depend on the seed; only the order does. */
std::vector<TuneRequest> tuneCycle(size_t shaders, size_t devices,
                                   uint64_t seed, uint64_t cycle);

// ---- spans -----------------------------------------------------------------

/** One recorded span. Times are milliseconds since the tracer began. */
struct Span
{
    std::string name;
    double startMs = 0;
    double endMs = 0;
    int parent = -1;      ///< index of the enclosing span, -1 at the root
    uint64_t request = 0; ///< spans of one request share this id
};

/**
 * In-memory span recorder for one single-threaded replay. Off, it reads
 * no clock and records nothing, so an off replay prices the same calls
 * without tracing. Spans nest through an open-span stack.
 */
class Tracer
{
  public:
    explicit Tracer(bool on);

    /** Open a span; returns its index, or -1 when tracing is off. */
    int open(std::string_view name, uint64_t request);
    void close(int index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed duration per span name. */
    std::map<std::string, double> totalMs() const;
    /** Summed self time per span name: duration minus the part of it
     * its direct children cover. */
    std::map<std::string, double> selfMs() const;

    /** The spans as Chrome trace-event JSON (Perfetto reads it). */
    std::string chromeJson() const;

  private:
    double nowMs() const;

    bool on_;
    int64_t originNs_ = 0;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, std::string_view name, uint64_t request = 0)
        : t_(t), index_(t.open(name, request))
    {
    }
    ~Scope() { t_.close(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int index_;
};

} // namespace perfbench

#endif // PERFBENCH_UTIL_H
