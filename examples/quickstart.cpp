/**
 * @file
 * Quickstart: the 60-second tour of the library.
 *
 *   1. Compile a GLSL fragment shader.
 *   2. Optimize it with a chosen set of LunarGlass-style pass flags.
 *   3. Execute both versions in the reference interpreter to see that
 *      they compute the same pixel.
 *   4. Time both on a simulated GPU and print the speed-up.
 *
 * Build & run:  ./build/examples/quickstart
 */
#include <cstdio>

#include "emit/offline.h"
#include "glsl/frontend.h"
#include "ir/interp.h"
#include "lower/lower.h"
#include "runtime/framework.h"

using namespace gsopt;

int
main()
{
    // A small shader with obvious optimization opportunities: a
    // constant-trip loop, constant weights, and a division by a value
    // that becomes a compile-time constant once the loop is unrolled.
    const char *source = R"(#version 450
in vec2 uv;
uniform sampler2D tex;
out vec4 fragColor;
void main() {
    const float w[5] = float[](0.1, 0.2, 0.4, 0.2, 0.1);
    float total = 0.0;
    fragColor = vec4(0.0);
    for (int i = 0; i < 5; i++) {
        total += w[i];
        fragColor += texture(tex, uv + vec2(float(i) * 0.01, 0.0)) *
                     w[i];
    }
    fragColor /= total;
}
)";

    // -- 1. the offline optimizer (GLSL in, GLSL out) -------------------
    const passes::FlagSet flags =
        passes::FlagSet::none()
            .with(passes::kUnroll)        // flatten the constant loop
            .with(passes::kFpReassociate) // unsafe float reassociation
            .with(passes::kDivToMul);     // /total -> * (1/total)
    std::string optimized = emit::optimizeShaderSource(source, flags);
    std::printf("---- optimized GLSL ----\n%s\n", optimized.c_str());

    // -- 2. functional equivalence via the reference interpreter --------
    glsl::CompiledShader before = glsl::compileShader(source);
    glsl::CompiledShader after = glsl::compileShader(optimized);
    ir::InterpEnv env = runtime::defaultEnvironment(before.interface);
    env.inputs["uv"] = {0.3, 0.7};
    auto pixel_before =
        ir::interpret(*lower::lowerShader(before), env);
    auto pixel_after = ir::interpret(*lower::lowerShader(after), env);
    std::printf("pixel before: %.6f %.6f %.6f %.6f\n",
                pixel_before.outputs["fragColor"][0],
                pixel_before.outputs["fragColor"][1],
                pixel_before.outputs["fragColor"][2],
                pixel_before.outputs["fragColor"][3]);
    std::printf("pixel after:  %.6f %.6f %.6f %.6f\n\n",
                pixel_after.outputs["fragColor"][0],
                pixel_after.outputs["fragColor"][1],
                pixel_after.outputs["fragColor"][2],
                pixel_after.outputs["fragColor"][3]);

    // -- 3. time both on every simulated GPU ----------------------------
    std::printf("%-10s %14s %14s %9s\n", "platform", "before (ns)",
                "after (ns)", "speed-up");
    for (gpu::DeviceId id : gpu::allDevices()) {
        const gpu::DeviceModel &device = gpu::deviceModel(id);
        auto t0 = runtime::measureShader(source, device, "qs/before");
        auto t1 =
            runtime::measureShader(optimized, device, "qs/after");
        std::printf("%-10s %14.0f %14.0f %+8.2f%%\n",
                    device.vendor.c_str(), t0.meanNs, t1.meanNs,
                    runtime::speedupPercent(t0, t1));
    }
    return 0;
}
