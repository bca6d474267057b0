/**
 * @file
 * google-benchmark microbenchmarks of the toolchain itself: front end,
 * lowering, each optimization pass, the whole pipeline, driver
 * compilation, and the measurement protocol. These are the ablation
 * numbers behind DESIGN.md's "structured IR keeps passes cheap" claim
 * and they bound the cost of the exhaustive 256-combination search.
 */
#include <benchmark/benchmark.h>

#include "corpus/corpus.h"
#include "emit/offline.h"
#include "glsl/frontend.h"
#include "gpu/driver.h"
#include "ir/interp.h"
#include "lower/lower.h"
#include "passes/passes.h"
#include "runtime/framework.h"
#include "tuner/explore.h"

using namespace gsopt;

namespace {

const corpus::CorpusShader &
heavyShader()
{
    return *corpus::findShader("uber/car_chase");
}

void
BM_FrontEnd(benchmark::State &state)
{
    const auto &s = heavyShader();
    for (auto _ : state) {
        auto cs = glsl::compileShader(s.source, s.defines);
        benchmark::DoNotOptimize(cs.ast.functions.size());
    }
}
BENCHMARK(BM_FrontEnd);

void
BM_Lowering(benchmark::State &state)
{
    const auto &s = heavyShader();
    auto cs = glsl::compileShader(s.source, s.defines);
    for (auto _ : state) {
        auto module = lower::lowerShader(cs);
        benchmark::DoNotOptimize(module->instructionCount());
    }
}
BENCHMARK(BM_Lowering);

void
BM_Canonicalize(benchmark::State &state)
{
    const auto &s = heavyShader();
    for (auto _ : state) {
        state.PauseTiming();
        auto module = emit::compileToIr(s.source, s.defines);
        state.ResumeTiming();
        passes::canonicalize(*module);
        benchmark::DoNotOptimize(module->instructionCount());
    }
}
BENCHMARK(BM_Canonicalize);

template <bool (*Pass)(ir::Module &)>
void
BM_PassAfterCanonicalize(benchmark::State &state)
{
    const auto &s = heavyShader();
    for (auto _ : state) {
        state.PauseTiming();
        auto module = emit::compileToIr(s.source, s.defines);
        passes::canonicalize(*module);
        state.ResumeTiming();
        Pass(*module);
        benchmark::DoNotOptimize(module->instructionCount());
    }
}

bool runUnroll(ir::Module &m) { return passes::unroll(m); }
bool runHoist(ir::Module &m) { return passes::hoist(m); }

BENCHMARK(BM_PassAfterCanonicalize<runUnroll>)->Name("BM_Unroll");
BENCHMARK(BM_PassAfterCanonicalize<runHoist>)->Name("BM_Hoist");
BENCHMARK(BM_PassAfterCanonicalize<passes::coalesce>)
    ->Name("BM_Coalesce");
BENCHMARK(BM_PassAfterCanonicalize<passes::gvn>)->Name("BM_Gvn");
BENCHMARK(BM_PassAfterCanonicalize<passes::reassociate>)
    ->Name("BM_Reassociate");
BENCHMARK(BM_PassAfterCanonicalize<passes::fpReassociate>)
    ->Name("BM_FpReassociate");
BENCHMARK(BM_PassAfterCanonicalize<passes::divToMul>)
    ->Name("BM_DivToMul");
BENCHMARK(BM_PassAfterCanonicalize<passes::adce>)->Name("BM_Adce");

void
BM_FullPipelineAllFlags(benchmark::State &state)
{
    const auto &s = heavyShader();
    for (auto _ : state) {
        std::string out = emit::optimizeShaderSource(
            s.source, passes::FlagSet::all(), s.defines);
        benchmark::DoNotOptimize(out.size());
    }
}
BENCHMARK(BM_FullPipelineAllFlags);

void
BM_DriverCompileNvidia(benchmark::State &state)
{
    const auto &s = heavyShader();
    auto cs = glsl::compileShader(s.source, s.defines);
    const std::string &text = cs.preprocessedText;
    const auto &dev = gpu::deviceModel(gpu::DeviceId::Nvidia);
    for (auto _ : state) {
        gpu::clearDriverCache(); // a cold compile: front end included
        auto bin = gpu::driverCompile(text, dev);
        benchmark::DoNotOptimize(bin.cyclesPerFragment);
    }
}
BENCHMARK(BM_DriverCompileNvidia);

void
BM_DriverCompileMali(benchmark::State &state)
{
    const auto &s = heavyShader();
    auto cs = glsl::compileShader(s.source, s.defines);
    const std::string &text = cs.preprocessedText;
    const auto &dev = gpu::deviceModel(gpu::DeviceId::Arm);
    for (auto _ : state) {
        gpu::clearDriverCache(); // a cold compile: front end included
        auto bin = gpu::driverCompile(text, dev);
        benchmark::DoNotOptimize(bin.cyclesPerFragment);
    }
}
BENCHMARK(BM_DriverCompileMali);

void
BM_DriverCompileCacheHit(benchmark::State &state)
{
    const auto &s = heavyShader();
    auto cs = glsl::compileShader(s.source, s.defines);
    const std::string &text = cs.preprocessedText;
    const auto &dev = gpu::deviceModel(gpu::DeviceId::Nvidia);
    gpu::driverCompile(text, dev); // warm the content-addressed cache
    for (auto _ : state) {
        auto bin = gpu::driverCompile(text, dev);
        benchmark::DoNotOptimize(bin.cyclesPerFragment);
    }
}
BENCHMARK(BM_DriverCompileCacheHit);

void
BM_Interpret(benchmark::State &state)
{
    const auto &s = heavyShader();
    auto cs = glsl::compileShader(s.source, s.defines);
    auto module = lower::lowerShader(cs);
    passes::canonicalize(*module);
    for (auto _ : state) {
        auto r = ir::interpret(*module, {});
        benchmark::DoNotOptimize(r.executedInstructions);
    }
}
BENCHMARK(BM_Interpret);

void
BM_ModuleClone(benchmark::State &state)
{
    const auto &s = heavyShader();
    auto module = emit::compileToIr(s.source, s.defines);
    passes::canonicalize(*module);
    for (auto _ : state) {
        auto copy = module->clone();
        benchmark::DoNotOptimize(copy->instructionCount());
    }
}
BENCHMARK(BM_ModuleClone);

void
BM_Fingerprint(benchmark::State &state)
{
    const auto &s = heavyShader();
    auto module = emit::compileToIr(s.source, s.defines);
    passes::canonicalize(*module);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ir::fingerprint(*module));
    }
}
BENCHMARK(BM_Fingerprint);

void
BM_MeasurementProtocol(benchmark::State &state)
{
    const auto &s = *corpus::findShader("simple/grayscale");
    const auto &dev = gpu::deviceModel(gpu::DeviceId::Intel);
    int i = 0;
    for (auto _ : state) {
        auto r = runtime::measureShader(s.source, dev,
                                        "bench" + std::to_string(i++));
        benchmark::DoNotOptimize(r.meanNs);
    }
}
BENCHMARK(BM_MeasurementProtocol);

void
BM_ExhaustiveExploration(benchmark::State &state)
{
    const auto &s = corpus::motivatingExample();
    for (auto _ : state) {
        auto ex = tuner::exploreShader(s);
        benchmark::DoNotOptimize(ex.uniqueCount());
    }
}
BENCHMARK(BM_ExhaustiveExploration)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
