#include "util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double
median(std::vector<double> samples)
{
    if (samples.empty())
        throw std::invalid_argument("median of no samples");
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

std::vector<double>
quartiles(std::vector<double> samples)
{
    const size_t n = samples.size();
    if (n < 2)
        throw std::invalid_argument("quartiles need two samples");
    std::sort(samples.begin(), samples.end());
    // statistics.quantiles(method="exclusive") with n=4, step for step.
    const size_t m = n + 1;
    std::vector<double> out;
    for (size_t i = 1; i < 4; ++i) {
        size_t j = i * m / 4;
        j = std::clamp<size_t>(j, 1, n - 1);
        const double delta = static_cast<double>(i * m) -
                             static_cast<double>(j * 4);
        out.push_back((samples[j - 1] * (4 - delta) +
                       samples[j] * delta) /
                      4.0);
    }
    return out;
}

namespace {

/** 1-based nearest rank of percentile @p p among @p n samples. */
size_t
nearestRank(size_t n, double p)
{
    // The epsilon keeps 0.999 * 10000 (9990.000000000002) at 9990.
    const double r =
        std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
    return std::clamp<size_t>(static_cast<size_t>(r), 1, n);
}

} // namespace

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty() || !(p > 0 && p <= 100))
        throw std::invalid_argument("percentile out of range");
    std::sort(samples.begin(), samples.end());
    return samples[nearestRank(samples.size(), p) - 1];
}

Tail
tail(const std::vector<double> &samples, double deepest)
{
    const size_t n = samples.size();
    for (double p : {99.9, 99.0, 90.0}) {
        if (p > deepest)
            continue;
        const size_t beyond = n - nearestRank(n, p);
        if (beyond >= 10)
            return {p, percentile(samples, p), beyond};
    }
    return {50, median(samples), n / 2};
}

void
Digest::mix(std::string_view bytes)
{
    for (unsigned char c : bytes) {
        h_ ^= c;
        h_ *= 0x100000001b3ull;
    }
}

Digest &
Digest::add(std::string_view piece)
{
    uint64_t n = piece.size();
    char len[8];
    for (char &b : len) {
        b = static_cast<char>(n & 0xff);
        n >>= 8;
    }
    mix(std::string_view(len, sizeof(len)));
    mix(piece);
    return *this;
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<size_t>
permutation(size_t n, uint64_t seed)
{
    std::vector<size_t> out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = i;
    uint64_t state = seed;
    for (size_t i = n; i > 1; --i)
        std::swap(out[i - 1], out[splitmix64(state) % i]);
    return out;
}

std::vector<TuneRequest>
tuneCycle(size_t shaders, size_t devices, uint64_t seed, uint64_t cycle)
{
    uint64_t state = seed ^ (0x7475'6e65ull * (cycle + 1));
    const std::vector<size_t> order =
        permutation(shaders * devices, splitmix64(state));
    std::vector<TuneRequest> out;
    out.reserve(order.size());
    for (size_t k : order)
        out.push_back({k / devices, k % devices});
    return out;
}

Tracer::Tracer(bool on) : on_(on)
{
    if (on_)
        originNs_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now()
                            .time_since_epoch())
                        .count();
}

double
Tracer::nowMs() const
{
    const int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    return static_cast<double>(ns - originNs_) / 1e6;
}

int
Tracer::open(std::string_view name, uint64_t request)
{
    if (!on_)
        return -1;
    Span s;
    s.name = std::string(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    s.startMs = nowMs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void
Tracer::close(int index)
{
    if (index < 0)
        return;
    spans_[static_cast<size_t>(index)].endMs = nowMs();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

std::map<std::string, double>
Tracer::totalMs() const
{
    std::map<std::string, double> out;
    for (const Span &s : spans_)
        out[s.name] += s.endMs - s.startMs;
    return out;
}

std::map<std::string, double>
Tracer::selfMs() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].endMs - spans_[i].startMs;
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            self[static_cast<size_t>(s.parent)] -= s.endMs - s.startMs;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i];
    return out;
}

std::string
Tracer::chromeJson() const
{
    std::string out = "{\"traceEvents\":[";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"id\":%zu,\"parent\":%d,\"request\":%llu}}",
                      i ? ",\n" : "\n", s.name.c_str(), s.startMs * 1e3,
                      (s.endMs - s.startMs) * 1e3, i, s.parent,
                      static_cast<unsigned long long>(s.request));
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

} // namespace perfbench
