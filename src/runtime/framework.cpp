#include "runtime/framework.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <sstream>

#include "support/fault.h"
#include "support/governor.h"
#include "support/retry.h"
#include "support/rng.h"

namespace gsopt::runtime {

std::string
generateVertexShader(const glsl::ShaderInterface &iface)
{
    // The paper auto-generates simplified vertex shaders from the
    // fragment inputs, with a uniform controlling the full-screen
    // triangle's depth. Varyings are passed through from attributes.
    std::ostringstream os;
    os << "#version 450\n";
    os << "uniform float quad_depth;\n";
    os << "in vec2 position;\n";
    int slot = 1;
    for (const auto &in : iface.inputs) {
        if (in.name == "gl_FragCoord")
            continue;
        os << "in " << in.type.str() << " attr_" << in.name << ";\n";
        os << "out " << in.type.str() << " " << in.name << ";\n";
        ++slot;
    }
    os << "void main() {\n";
    for (const auto &in : iface.inputs) {
        if (in.name == "gl_FragCoord")
            continue;
        os << "    " << in.name << " = attr_" << in.name << ";\n";
    }
    os << "    gl_Position = vec4(position, quad_depth, 1.0);\n";
    os << "}\n";
    (void)slot;
    return os.str();
}

ir::InterpEnv
defaultEnvironment(const glsl::ShaderInterface &iface)
{
    ir::InterpEnv env;
    auto fill = [](const glsl::Type &t) {
        const int comp = t.isArray()
                             ? t.arraySize *
                                   t.elementType().componentCount()
                             : t.componentCount();
        double v = t.isInt() ? 1.0 : 0.5;
        return ir::LaneVector(static_cast<size_t>(comp), v);
    };
    for (const auto &in : iface.inputs)
        env.inputs[in.name] = fill(in.type);
    for (const auto &u : iface.uniforms) {
        if (u.type.isSampler())
            continue; // default procedural texture applies
        if (u.type.isMatrix()) {
            // Near-identity matrix keeps positions finite.
            ir::LaneVector m(
                static_cast<size_t>(u.type.componentCount()), 0.0);
            for (int c = 0; c < u.type.cols; ++c)
                m[static_cast<size_t>(c * u.type.rows + c)] = 1.0;
            env.uniforms[u.name] = std::move(m);
        } else {
            env.uniforms[u.name] = fill(u.type);
        }
    }
    return env;
}

namespace {

/** Structural signature of an interface: every var's role, name, and
 * type. Two interfaces with the same signature auto-initialise to the
 * same environment, so it is the memoisation key. */
std::string
interfaceSignature(const glsl::ShaderInterface &iface)
{
    std::ostringstream os;
    for (const auto &in : iface.inputs)
        os << "i " << in.name << ':' << in.type.str() << ';';
    for (const auto &u : iface.uniforms)
        os << "u " << u.name << ':' << u.type.str() << ';';
    for (const auto &out : iface.outputs)
        os << "o " << out.name << ':' << out.type.str() << ';';
    return os.str();
}

} // namespace

const ir::InterpEnv &
defaultEnvironmentCached(const glsl::ShaderInterface &iface)
{
    static std::mutex mu;
    // std::map node stability keeps returned references valid while
    // later insertions grow the cache.
    static std::map<std::string, ir::InterpEnv> cache;
    const std::string key = interfaceSignature(iface);
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(key);
    if (it == cache.end())
        it = cache.emplace(key, defaultEnvironment(iface)).first;
    return it->second;
}

namespace {

/** A float input the tile sweep varies: component 0 follows u,
 * component 1 (when present) follows v. */
struct VaryingInput
{
    std::string name;
    size_t comps = 0;
};

std::vector<VaryingInput>
tileVaryings(const glsl::ShaderInterface &iface)
{
    std::vector<VaryingInput> out;
    for (const auto &in : iface.inputs) {
        if (in.type.isInt() || in.type.isArray())
            continue;
        const size_t comps =
            static_cast<size_t>(in.type.componentCount());
        if (comps > 0)
            out.push_back({in.name, comps});
    }
    return out;
}

void
accumulateFragment(TileResult &result, const ir::InterpResult &frag)
{
    ++result.fragments;
    result.executedInstructions += frag.executedInstructions;
    if (frag.discarded)
        ++result.discardedFragments;
    for (const auto &[name, lanes] : frag.outputs) {
        ir::LaneVector &sum = result.outputSums[name];
        if (sum.size() < lanes.size())
            sum.resize(lanes.size(), 0.0);
        for (size_t c = 0; c < lanes.size(); ++c) {
            sum[c] += lanes[c];
            if (!frag.discarded && !std::isfinite(lanes[c]))
                result.allFinite = false;
        }
    }
}

} // namespace

TileResult
interpretTile(const ir::Module &module,
              const glsl::ShaderInterface &iface,
              const TileOptions &opts)
{
    TileResult result;
    if (opts.width == 0 || opts.height == 0)
        return result;
    const ir::InterpEnv &base = defaultEnvironmentCached(iface);
    const std::vector<VaryingInput> varyings = tileVaryings(iface);
    const size_t total = opts.width * opts.height;

    auto fragUV = [&](size_t f, double &u, double &v) {
        const size_t x = f % opts.width;
        const size_t y = f / opts.width;
        u = (static_cast<double>(x) + 0.5) /
            static_cast<double>(opts.width);
        v = (static_cast<double>(y) + 0.5) /
            static_cast<double>(opts.height);
    };

    if (opts.batchWidth == 0) {
        // Scalar reference path: one map-engine run per fragment, the
        // environment built once and mutated in place per fragment.
        // Tile checks then compare two independent engines.
        ir::InterpEnv env = base;
        for (size_t f = 0; f < total; ++f) {
            double u, v;
            fragUV(f, u, v);
            for (const VaryingInput &in : varyings) {
                ir::LaneVector &val = env.inputs[in.name];
                val[0] = u;
                if (in.comps > 1)
                    val[1] = v;
            }
            accumulateFragment(result,
                               ir::interpretReference(module, env));
        }
        return result;
    }

    const size_t W = opts.batchWidth;
    ir::BatchRunner runner(module, W);
    ir::BatchEnv benv = ir::BatchEnv::broadcast(base, W);
    for (size_t f0 = 0; f0 < total; f0 += W) {
        const size_t lanes = std::min(W, total - f0);
        for (size_t l = 0; l < W; ++l) {
            // Padding lanes replicate the last fragment; their results
            // are simply not consumed.
            double u, v;
            fragUV(std::min(f0 + l, total - 1), u, v);
            for (const VaryingInput &in : varyings) {
                ir::BatchEnv::LaneInput &li = benv.inputs[in.name];
                li.soa[0 * W + l] = u;
                if (in.comps > 1)
                    li.soa[1 * W + l] = v;
            }
        }
        const ir::BatchResult batch = runner.run(benv);
        // Accumulate straight from the SoA strips — reshaping every
        // lane into a scalar InterpResult would allocate a map per
        // fragment and dominate the batched path's runtime. Per
        // (output, component) the sum still accumulates in row-major
        // fragment order, so it stays bit-identical to the scalar path.
        for (size_t l = 0; l < lanes; ++l) {
            ++result.fragments;
            result.executedInstructions += batch.laneExecuted[l];
            if (batch.discarded[l])
                ++result.discardedFragments;
        }
        for (const auto &[name, soa] : batch.outputs) {
            const size_t comps = soa.size() / batch.width;
            ir::LaneVector &sum = result.outputSums[name];
            if (sum.size() < comps)
                sum.resize(comps, 0.0);
            for (size_t c = 0; c < comps; ++c) {
                for (size_t l = 0; l < lanes; ++l) {
                    const double v = soa[c * batch.width + l];
                    sum[c] += v;
                    if (!batch.discarded[l] && !std::isfinite(v))
                        result.allFinite = false;
                }
            }
        }
    }
    return result;
}

TimingResult
measureShader(const std::string &glslSource,
              const gpu::DeviceModel &device, const std::string &label)
{
    // The measurement protocol is a pure function of (source, device,
    // label), so transient failures — a flaky driver compile, a timing
    // query that errors out — are absorbed here with bounded retries
    // and every caller (campaign engine, search oracles, examples)
    // sees bit-identical results whether or not a retry happened.
    // Admission control: measuring one (source, device) is a unit of
    // work — under ambient caps it gets its own budget and deadline.
    // ResourceExhausted is deliberately not transient: retryTransient
    // propagates it immediately instead of burning retry attempts.
    governor::ScopedRequestBudget admission;
    const RetryPolicy policy = defaultRetryPolicy();
    TimingResult result;
    result.binary =
        retryTransient(policy, label + "/compile", [&] {
            return gpu::driverCompile(glslSource, device);
        });
    governor::checkDeadline("runtime.measure");
    retryTransient(policy, label + "/measure", [&] {
        fault::point("runtime.measure", label);
        return 0;
    });
    // The watchdog for a hung measurement (fault mode `stall` models
    // one): the query "returned", but past the deadline the result is
    // worthless — fail structured rather than keep computing.
    governor::checkDeadline("runtime.measure");

    const double draw_ns =
        gpu::drawTimeNs(result.binary, device, kFragmentsPerDraw);
    const int draws = device.trianglesPerFrame;
    const double frame_ns = draw_ns * draws;

    // Sum of `draws` independent noisy draw timings: by CLT one
    // gaussian with sigma/sqrt(draws) models the per-frame noise;
    // a second term models frame-level environmental jitter.
    const double per_frame_sigma =
        device.noiseSigma / std::sqrt(static_cast<double>(draws));
    const double env_sigma = device.noiseSigma * 0.5;

    // Every sample is a whole number of timer quanta, themselves whole
    // nanoseconds, so each partial sum is an integer below 2^53: the
    // sum in sample order is exact, the same bits as in sorted order.
    result.frameTimesNs.reserve(
        static_cast<size_t>(kFramesPerRun * kRepetitions));
    double sum = 0.0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        Rng rng(label + "/" + device.vendor + "/rep" +
                std::to_string(rep));
        // Environmental drift for this run (thermals, clocks).
        const double run_scale = 1.0 + rng.gaussian(0.0, env_sigma);
        for (int frame = 0; frame < kFramesPerRun; ++frame) {
            double t = frame_ns * run_scale *
                       (1.0 + rng.gaussian(0.0, per_frame_sigma));
            // Timer query quantisation.
            t = std::round(t / device.timerQuantumNs) *
                device.timerQuantumNs;
            t = std::max(0.0, t);
            result.frameTimesNs.push_back(t);
            sum += t;
        }
    }
    result.meanNs = sum / static_cast<double>(result.frameTimesNs.size());
    return result;
}

double
speedupPercent(const TimingResult &baseline, const TimingResult &variant)
{
    if (baseline.meanNs <= 0.0)
        return 0.0;
    return (baseline.meanNs - variant.meanNs) / baseline.meanNs * 100.0;
}

} // namespace gsopt::runtime
