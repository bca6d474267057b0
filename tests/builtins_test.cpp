/**
 * @file
 * Every form of every GLSL builtin the subset accepts, end to end:
 * the lowered module and the emitted text are md5-pinned per form; the
 * emitted text re-parses; the batched engine at one and sixteen lanes
 * equals the map reference bit for bit on a tile; the fully optimized
 * module computes the unoptimized one's outputs. The vector
 * constructors that convert their argument's lanes ride along. A
 * second table pins which malformed calls sema rejects.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "test_md5.h"

#include "emit/emit.h"
#include "glsl/frontend.h"
#include "ir/dump.h"
#include "lower/lower.h"
#include "passes/passes.h"
#include "runtime/framework.h"

namespace gsopt {
namespace {

/** One call form: `o = expr;` in a shader whose output has type
 * `out`. The locals p, q, r (float, varying across the tile) and i, j
 * (int, from a uniform) are in scope. */
struct Form
{
    const char *name;
    const char *out;
    const char *expr;
    const char *irMd5;
    const char *glslMd5;
};

void
PrintTo(const Form &f, std::ostream *os)
{
    *os << f.expr;
}

std::string
shaderFor(const char *out, const char *expr)
{
    return std::string("in vec4 a;\n"
                       "uniform ivec4 n;\n"
                       "uniform sampler2D tex;\n"
                       "out ") +
           out +
           " o;\n"
           "void main() {\n"
           "    vec4 p = a * 0.8 + 0.1;\n"
           "    vec4 q = a.yxwz * 1.7 - 0.4;\n"
           "    vec4 r = a.zwxy + 0.25;\n"
           "    ivec4 i = n * ivec4(3, -2, 5, -1) - 1;\n"
           "    ivec4 j = n + ivec4(2, 1, 3, 0);\n"
           "    o = " +
           expr + ";\n}\n";
}

const Form kForms[] = {
    // genType f(genType)
    {"radians_vec", "vec3", "radians(p.xyz)",
     "4a69be7fead3f2bbcf25fd2bc8f49143", "c23aea3527521808c394b0f92e3f4e70"},
    {"radians_scalar", "float", "radians(p.x)",
     "b1cf05601df304b02976c497b1af38c1", "f82ea044f634dfe5f68298af18131a18"},
    {"degrees_vec", "vec3", "degrees(p.xyz)",
     "5b0a55795d779449f7b095543811faf2", "04cbc745ca39980256bff0458da60324"},
    {"degrees_scalar", "float", "degrees(p.x)",
     "687bb5f4945940662d1cf39799d17839", "f19484f2357f674c47866297017f3fd5"},
    {"sin_vec", "vec3", "sin(p.xyz)",
     "68676ea13eec306be18cc93f8ab3e445", "6a663e3e82dd95afcd0d0617871f90cf"},
    {"sin_scalar", "float", "sin(p.x)",
     "d8ce23fb0d7c174d1fe4d1a029a4ab29", "af94731efe315bbc03798a0173134244"},
    {"cos_vec", "vec3", "cos(p.xyz)",
     "15b69617a69229322afef258e5e36a3b", "ed9a38cb0cdedf710c611aa0ec91bd8e"},
    {"cos_scalar", "float", "cos(p.x)",
     "89a1cfe01287fecbbca44cd39d8e321a", "44ae2de9a581261ea27aaebc75b5b199"},
    {"tan_vec", "vec3", "tan(p.xyz)",
     "f4654ed8120e0dda423392487ed3d276", "65e0f14413d283c01827e8d7cba8e07f"},
    {"tan_scalar", "float", "tan(p.x)",
     "4f8ad691c56d915944c9e3c6725666cd", "a3880bcfa3a5d5e0a4d7fa60f3251a04"},
    {"asin_vec", "vec3", "asin(p.xyz)",
     "fa4077aeeeb9abbd71931cdc38878000", "4989b68ab8a49d5c376f90559bb67e7e"},
    {"asin_scalar", "float", "asin(p.x)",
     "0f4b432b56fcbd0041331b7e02fafde9", "f8f0e06f78085e72404b978a95b0095f"},
    {"acos_vec", "vec3", "acos(p.xyz)",
     "694143c037e584326b50d77d56f7b5b9", "422d7f92cbbea0f1e35613b8c8bbf47f"},
    {"acos_scalar", "float", "acos(p.x)",
     "5b8d4fcae33f81c4c0a36f6b34736b31", "cd04eaee7fa6dc395dacf66439968fd4"},
    {"atan_vec", "vec3", "atan(q.xyz)",
     "a940b23c3de6e59724ca8673ac25108c", "f4f502c31772d8dbea57427ee778ca26"},
    {"atan_scalar", "float", "atan(q.x)",
     "5fccac98dbe8d157525bb2687ec2989f", "d4bc747bcae02ef8cedda7df6073dbf6"},
    {"exp_vec", "vec3", "exp(q.xyz)",
     "7fcef9266af5a1e52f5071ee115650eb", "ce5630f3e565c27defc3b00534f3d35a"},
    {"exp_scalar", "float", "exp(q.x)",
     "26ee61ce63ab400878c59820bb4dae2f", "961dcd88a370a09c0f2602a27b52fba5"},
    {"log_vec", "vec3", "log(p.xyz)",
     "39474dcecf1742140567df2bc20302b8", "a6a30bed3033f82c8d90269a607fcbcc"},
    {"log_scalar", "float", "log(p.x)",
     "afb787896cf5c389aeb36af62a87a277", "9ac12713360cd71f897dc98de349ab93"},
    {"exp2_vec", "vec3", "exp2(q.xyz)",
     "c6722082e63e3a14fd1add7b19df9ab9", "0d2b3a5731e38b073b37bbba10100f9a"},
    {"exp2_scalar", "float", "exp2(q.x)",
     "de09ea1ac023c05a3dae0a909b8ed942", "9670a538f25df030b03dc38fc206b3b1"},
    {"log2_vec", "vec3", "log2(p.xyz)",
     "28d0d19abae4856bd2f407fe86c0db02", "8a31ea1c163d5862dadbc816ac12a231"},
    {"log2_scalar", "float", "log2(p.x)",
     "8efc8fff7dfe1ddb213abd488405bd4b", "5a7a6c419600becd62fb097ad472aa08"},
    {"sqrt_vec", "vec3", "sqrt(p.xyz)",
     "01578e7e48317050edc02e6982d33d30", "41f59e61b42a74060e2fa2d26e94f10d"},
    {"sqrt_scalar", "float", "sqrt(p.x)",
     "9dffddd90c7c2b707ff6f38e07c3c1db", "f1923d569f2e6a703c6b8aadd5f7a953"},
    {"inversesqrt_vec", "vec3", "inversesqrt(p.xyz)",
     "e22e49c291990aed188bf4487dc3ea60", "451aa0979f3305b57cf8b94001274d99"},
    {"inversesqrt_scalar", "float", "inversesqrt(p.x)",
     "90a806ef159ac9dd58bd9cdce6b8eeba", "a04ded794afface7de3c65ec0791a12c"},
    {"sign_vec", "vec3", "sign(q.xyz)",
     "9c54c63ad232d2889a7cd4457f224145", "69b451727630cb56d1f01a56586a747a"},
    {"sign_scalar", "float", "sign(q.x)",
     "89fbc5ab1b1467d06fd3cfa7c28c4b1e", "ddea04f15ab6f198f82d2a3c5c475061"},
    {"floor_vec", "vec3", "floor(q.xyz)",
     "69599197a232d7eb535f0b1f42a74461", "f3153927abbcb887e2a5bae6593f7298"},
    {"floor_scalar", "float", "floor(q.x)",
     "3c0824a8adf3fd9b0c4a543ea17475cb", "b623da7fc44bc4372dcd47c0802f58da"},
    {"ceil_vec", "vec3", "ceil(q.xyz)",
     "634f2ac2b019039519034523d9b89267", "a51208e716c7265c81e8afba9c0d7912"},
    {"ceil_scalar", "float", "ceil(q.x)",
     "9f48bc9203ca847af1ea50a10e948409", "078d80e79b764e752a3b56b3fc48a53a"},
    {"fract_vec", "vec3", "fract(q.xyz)",
     "16e0c1a4d206ca3cc31cfe6cdac15032", "914e7e84c5254b40f58262a54d9879fe"},
    {"fract_scalar", "float", "fract(q.x)",
     "763d11bec08c805e137392ffe24c74e1", "04a4063428863c98cd9ee7d63ef205af"},
    {"normalize_vec", "vec3", "normalize(q.xyz)",
     "9501f5ad190af0c918034dec678e308e", "44722d1cc8634f7eeb4e46ebb68b2584"},
    {"normalize_scalar", "float", "normalize(q.x)",
     "b41a958842fd85521458488e38947a6a", "a1a3dde5570d569a9e3727a0f3944592"},
    // abs has an int overload
    {"abs_vec", "vec3", "abs(q.xyz)",
     "a2e11d7a4b5075d1e58b01b8bb3b329f", "268a3f4227236a361f9db2f3d7bcc585"},
    {"abs_scalar", "float", "abs(q.x)",
     "2c8d9d7bdc0ddb77cd3645a2e12229b8", "942b1db472d895559de22e1ff27ebfb6"},
    {"abs_int_vec", "vec3", "vec3(abs(i.xyz))",
     "041d6cd6f5fd57a0068f25ac44cbbf19", "46857b0b4684417682e3024f00128f64"},
    {"abs_int_scalar", "float", "float(abs(i.x))",
     "4d1d6f8cce5030ab3150e65f8d20ddda", "18d13e1d2d61efeb4bb242dba7ebdf81"},
    // reductions to float
    {"length_vec", "float", "length(q.xyz)",
     "762147c653f9655135ad4fd39b5ae265", "77308790f22741973c725ab93b2a371a"},
    {"length_scalar", "float", "length(q.x)",
     "697cc6b34812f43d93b046434f876c5d", "baa39d1e6a83f49040a72d329dbe5ec7"},
    {"distance_vec", "float", "distance(p.xyz, q.xyz)",
     "bb7c5cb73ef7741ec4f63c9f4944525a", "b23f23561e47c1a66988a1a25884a863"},
    {"distance_scalar", "float", "distance(p.x, q.x)",
     "ee73c59257b55e627eea909f65fc41cf", "92daff3664c846520f25449334ceff48"},
    {"dot_vec", "float", "dot(p.xyz, q.xyz)",
     "baaa05ce3be85ff18c674748ae70938b", "8cc9a031cea00b3b61fec39a35fdd331"},
    {"dot_scalar", "float", "dot(p.x, q.x)",
     "cfd56b2cbd0b062c06ace61d5a6d4274", "84215877ee9f876f7635942606183839"},
    // genType f(genType, genType)
    {"atan2_vec", "vec3", "atan(q.xyz, p.xyz)",
     "ae47bba4f2913932dea2a4a95ca18472", "bb433b5691cc00f8e79e5bc348859a37"},
    {"atan2_scalar", "float", "atan(q.x, p.x)",
     "c6e43cfc73b096fe789b714763ef04cf", "376d64a6fed37544aab95cd3a742a988"},
    {"pow_vec", "vec3", "pow(p.xyz, r.xyz)",
     "362f52eb1d2b381358a77f85156031e6", "c3102ea00281eefa0956af4a3d126005"},
    {"pow_scalar", "float", "pow(p.x, r.x)",
     "6335cc8ce890d9fc8a5d6232dd53dff0", "cb6968ba8a038b45e41a2b7c3c076ed3"},
    {"reflect_vec", "vec3", "reflect(q.xyz, p.xyz)",
     "52b730ea55aaea9758dadf2a783358f3", "99be0db9400415bf95497d4e3f52f536"},
    {"reflect_scalar", "float", "reflect(q.x, p.x)",
     "bce3e154f619d33390347a3ce5a77ade", "2fdb4056e2094b8515aa904f05dc365b"},
    {"cross_vec", "vec3", "cross(p.xyz, q.xyz)",
     "ff087eda762f363fabdc51a153609d57", "d997f112b677d175a0142fde94855415"},
    // the second operand may be a scalar
    {"mod_vec", "vec3", "mod(q.xyz, r.xyz)",
     "b65b76c8e01e9267bf7a7e9cbd73cd2a", "65413d49b1e3fc7e707a0bedcb904d60"},
    {"mod_vec_scalar", "vec3", "mod(q.xyz, r.x)",
     "e9bb2f962fdf945b0e0096fe5854800a", "d2ed903a092c528023e2ce152c69a9c4"},
    {"mod_scalar", "float", "mod(q.x, r.x)",
     "606459dd0487534401c014134dd1f8f0", "ec61931e6c2a6a1c6837a4118a4413a4"},
    {"min_vec", "vec3", "min(p.xyz, q.xyz)",
     "229b0393b2432c8f8117048f99b8c301", "48d68647e499aac7a68556757cf19116"},
    {"min_vec_scalar", "vec3", "min(p.xyz, q.x)",
     "2b88afe2a990e1c44565ce0a77395bd2", "e40a4324cc592d73a3ca098e3bb94799"},
    {"min_scalar", "float", "min(p.x, q.x)",
     "cc228fd4e984a5bec761d17599988114", "de669c6d2009b1013ca41c479300b928"},
    {"min_int_vec", "vec3", "vec3(min(i.xyz, j.xyz))",
     "4d89a9a51b5e4db908772b717207d5be", "a9a4b8a018692a3afe6a8534c80dc280"},
    {"min_int_vec_scalar", "vec3", "vec3(min(i.xyz, j.x))",
     "2059cba16e84ca1468e1ed3e22a2fe3b", "48105b011483da72419275a52821c6d4"},
    {"min_int_scalar", "float", "float(min(i.x, j.x))",
     "595038d21fbc304828d3781996da4f01", "d5c5b0928d4dcb3b4d1858d0de91fef0"},
    {"max_vec", "vec3", "max(p.xyz, q.xyz)",
     "2ffcf37c3c1ec9c4daaca96a39c54b5c", "284fc35d8019f573b12b7df923820edf"},
    {"max_vec_scalar", "vec3", "max(p.xyz, q.x)",
     "4ac4f4d92e94d9bf6e5d480eed87818f", "a05ea1fc75177184b6d3074268fdde05"},
    {"max_scalar", "float", "max(p.x, q.x)",
     "2c8205eb97aa7b73e8840115eaacc6eb", "cc432abe2955e48611ddf3c07df9204d"},
    {"max_int_vec", "vec3", "vec3(max(i.xyz, j.xyz))",
     "edbf4430e525167d66b7c82c552801d2", "e2bdc0420fb1a4d4e3449c7d5f79369c"},
    {"max_int_vec_scalar", "vec3", "vec3(max(i.xyz, j.x))",
     "22dce1f22f9e743cfa7c89107650f1e1", "85658f0eaf05d191c8fe2102cf7697e6"},
    {"max_int_scalar", "float", "float(max(i.x, j.x))",
     "7fbf9b5c33bdbceaffefaee19a95be1d", "26f23bef86a022871f7c0c2d881b0402"},
    // the bounds may be scalars
    {"clamp_vec", "vec3", "clamp(q.xyz, p.xyz, r.xyz)",
     "71b9ddfd0584741fbf947318d6bd2ebb", "8709a3abf4c087ec860d04f99901d081"},
    {"clamp_vec_scalar", "vec3", "clamp(q.xyz, p.x, r.x)",
     "35435a285e236030bfc69ea06abc0d49", "a24a1601a843d0cffab9009cd6f327d1"},
    {"clamp_scalar", "float", "clamp(q.x, p.x, r.x)",
     "cda78319f7e5afcfb15ab2a60d2aa5cb", "5f7941ef61d3e946aedd560e43337f8d"},
    {"clamp_int_vec", "vec3", "vec3(clamp(i.xyz, -j.xyz, j.xyz))",
     "89e08458b315994f1310955ecc30aaf9", "008d5adbfa85133e487ce44573020c34"},
    {"clamp_int_vec_scalar", "vec3", "vec3(clamp(i.xyz, -j.x, j.x))",
     "e5606e27000f80ac99170aa35ecb5012", "e2a3d14a5106c3658de017f8248163c3"},
    {"clamp_int_scalar", "float", "float(clamp(i.x, -j.x, j.x))",
     "fb8defe881be321cb6866c3f9afc490c", "d599c129a43d5cd47030fda0e19a61c7"},
    // the weight may be a scalar
    {"mix_vec", "vec3", "mix(p.xyz, q.xyz, r.xyz)",
     "35f82bdae9fb6864e1420a830aa5a6ce", "4bc1fe48483baf0437017ba2a463c974"},
    {"mix_vec_scalar", "vec3", "mix(p.xyz, q.xyz, r.x)",
     "c5f3cb0e27cc99d043103e5fe9ae169f", "475a4c12c3f6512963530ec475deeaf3"},
    {"mix_scalar", "float", "mix(p.x, q.x, r.x)",
     "6623a74f8f5a742a5cd0e1a16fa8a94c", "dc71e9ff46ea8167bedba60c2f980520"},
    // the edges may be scalars
    {"step_vec", "vec3", "step(r.xyz, p.xyz)",
     "1ece53aeb260478adc22bc139ac9ca99", "542ea1a77efcbec31d15535b15a0c02c"},
    {"step_vec_scalar", "vec3", "step(r.x, p.xyz)",
     "8e10dd7c412a06a7a81b19e356249095", "8891d35875469469a82a5d9e24e0f56e"},
    {"step_scalar", "float", "step(r.x, p.x)",
     "f5a394745c65bdad26adb89819599535", "4adf9496460feba246fda3c366a0fe17"},
    {"smoothstep_vec", "vec3", "smoothstep(p.xyz, r.xyz, q.xyz)",
     "28e2f77c135b9a5250439fd0e26cac92", "b25e176e924abdd109247d31dce0b27d"},
    {"smoothstep_vec_scalar", "vec3", "smoothstep(p.x, r.x, q.xyz)",
     "abb18e369780b86ec3addc680537fe57", "89b9ebd3bb5176ba554445ec58b4480f"},
    {"smoothstep_scalar", "float", "smoothstep(p.x, r.x, q.x)",
     "b87a5c8195083f144d7fa2c3217ad490", "e45cfd4b50b0b32ca5fa8a9b9ca69174"},
    // refract's ratio is always a scalar
    {"refract_vec", "vec3",
     "refract(normalize(q.xyz), normalize(p.xyz), r.x)",
     "bc141f500544b1ebe74956cb07cb44fe", "b13cc92f98858f799e232765feaf5d9a"},
    {"refract_scalar", "float", "refract(q.x, p.x, r.x)",
     "b411a1e11dd8419c14db946259b49fc7", "bc0306d0c5cc0c4aca58fe229874c137"},
    // texturing
    {"texture", "vec4", "texture(tex, p.xy)",
     "da18309495d07b9a31fd25802cf7a37f", "cd79613bd55c51bb2abb241e754aa280"},
    {"texture_bias", "vec4", "texture(tex, p.xy, r.x * 2.0)",
     "bcf71c8b8a9c9989f576a2a1c53d6f88", "0013112152fdf158baf02b2a7ec745bc"},
    {"texture2D", "vec4", "texture2D(tex, p.xy)",
     "da18309495d07b9a31fd25802cf7a37f", "cd79613bd55c51bb2abb241e754aa280"},
    {"texture2D_bias", "vec4", "texture2D(tex, p.xy, r.x * 2.0)",
     "bcf71c8b8a9c9989f576a2a1c53d6f88", "0013112152fdf158baf02b2a7ec745bc"},
    {"textureLod", "vec4", "textureLod(tex, p.xy, r.x * 2.0)",
     "b27ef5b7e16caa808811e31d45956307", "858a829735c3f25156d79f92fae583a5"},
    // accepted through int -> float promotion
    {"promote_sin", "float", "sin(1)",
     "77933ce3645857254a1f4e0289ca9110", "5076281fcfe4d9a049ef17c14afd53b6"},
    {"promote_max", "float", "max(1, 2.0)",
     "1ad25c125c2c5300030adae00b6e55c8", "60aa40a1dbe846444151eb45476743cf"},
    {"promote_length", "float", "length(ivec2(1))",
     "922c4f5724145a8d6d746b857f75eeca", "95fdf003b087c1ad42283e77146ecac8"},
    // vector constructors that convert their argument's lanes
    {"ctor_ivec4_vec4", "ivec4", "ivec4(q * 3.0)",
     "bfeb5485238397001e8c3f666c8297d7", "8481951f0461fe2d9483ce5ed726d7ec"},
    {"ctor_ivec3_vec4", "ivec3", "ivec3(q * 3.0)",
     "775175a84cb55b25705a8524ba1b4277", "aab3beef185ca15840b1fc3ea5047091"},
    {"ctor_vec4_ivec4", "vec4", "vec4(i)",
     "e6c341366b7b616023915495c469ed21", "670facc77f6e84ab1c5143be61209b74"},
    {"ctor_ivec2_vec2", "ivec2", "ivec2(q.xy * 3.0)",
     "b4b3312d1b443cf71c0ee8f9cb71eedd", "e2d7a9872a95a3b1026e7bb17d965c1d"},
};

/** Bitwise equality of two sums, with NaN equal to NaN. */
bool
sameBits(double a, double b)
{
    return a == b || (std::isnan(a) && std::isnan(b));
}

/** a and b within a relative 1e-6, with NaN equal to NaN. */
bool
close(double a, double b)
{
    if (sameBits(a, b))
        return true;
    return std::abs(a - b) <=
           1e-6 * std::max(std::abs(a), std::abs(b));
}

runtime::TileResult
tile(const ir::Module &m, const glsl::ShaderInterface &iface, size_t width)
{
    runtime::TileOptions opts;
    opts.batchWidth = width;
    return runtime::interpretTile(m, iface, opts);
}

class BuiltinForm : public ::testing::TestWithParam<Form>
{
};

TEST_P(BuiltinForm, PinnedAndEquivalent)
{
    const Form &f = GetParam();
    const std::string source = shaderFor(f.out, f.expr);
    SCOPED_TRACE(source);
    const glsl::CompiledShader cs = glsl::compileShader(source);
    const auto m = lower::lowerShader(cs);

    // Same bytes: the lowered IR and the emitted GLSL.
    const std::string text = emit::emitGlsl(*m);
    const std::string ir_md5 = testutil::md5Hex(ir::dump(*m));
    const std::string glsl_md5 = testutil::md5Hex(text);
    const std::string pin = std::string("{\"") + f.name + "\", \"" +
                            ir_md5 + "\", \"" + glsl_md5 + "\"}";
    EXPECT_EQ(ir_md5, f.irMd5) << pin;
    EXPECT_EQ(glsl_md5, f.glslMd5) << pin;
    EXPECT_NO_THROW(glsl::compileShader(text)) << text;

    // The batched engine, at one lane and at sixteen, equals the map
    // reference bit for bit.
    const runtime::TileResult want = tile(*m, cs.interface, 0);
    ASSERT_EQ(want.outputSums.count("o"), 1u);
    // An int output's lanes are whole, so their sums are too.
    if (f.out[0] == 'i') {
        for (double sum : want.outputSums.at("o"))
            EXPECT_EQ(sum, std::trunc(sum)) << "o holds a fraction";
    }
    for (size_t width : {size_t{1}, size_t{16}}) {
        const runtime::TileResult got = tile(*m, cs.interface, width);
        EXPECT_EQ(got.discardedFragments, want.discardedFragments);
        ASSERT_EQ(got.outputSums.size(), want.outputSums.size());
        for (const auto &[name, sums] : want.outputSums) {
            const ir::LaneVector &g = got.outputSums.at(name);
            ASSERT_EQ(g.size(), sums.size());
            for (size_t c = 0; c < sums.size(); ++c)
                EXPECT_TRUE(sameBits(g[c], sums[c]))
                    << "W=" << width << " " << name << "[" << c
                    << "]: " << g[c] << " vs reference " << sums[c];
        }
    }

    // Every pass on: the outputs stay within a relative 1e-6.
    auto opt = m->clone();
    passes::optimize(*opt, passes::FlagSet::all());
    const runtime::TileResult got = tile(*opt, cs.interface, 16);
    for (const auto &[name, sums] : want.outputSums) {
        const ir::LaneVector &g = got.outputSums.at(name);
        ASSERT_EQ(g.size(), sums.size());
        for (size_t c = 0; c < sums.size(); ++c)
            EXPECT_TRUE(close(g[c], sums[c]))
                << "optimized " << name << "[" << c << "]: " << g[c]
                << " vs " << sums[c];
    }
}

INSTANTIATE_TEST_SUITE_P(
    Catalogue, BuiltinForm, ::testing::ValuesIn(kForms),
    [](const ::testing::TestParamInfo<Form> &info) {
        return std::string(info.param.name);
    });

/** A call sema must reject: `o = expr;` with locals of the named
 * types. */
struct Rejected
{
    const char *decls;
    const char *expr;
};

const Rejected kRejected[] = {
    {"vec2 x = vec2(0.5); vec2 y = x;", "cross(x, y).x"},
    {"vec3 x = vec3(0.5); vec2 y = x.xy; float z = 0.5;", "mix(x, y, z).x"},
    {"vec3 x = vec3(0.5); vec2 y = x.xy; float z = 0.5;",
     "clamp(x, y, z).x"},
    {"vec2 x = vec2(0.5); vec3 y = vec3(0.5);", "step(x, y).x"},
    {"vec2 x = vec2(0.5); vec2 y = x; vec3 z = vec3(0.5);",
     "smoothstep(x, y, z).x"},
    {"vec3 x = vec3(0.5); vec3 y = x; vec3 z = x;", "refract(x, y, z).x"},
    {"vec3 x = vec3(0.5); vec2 y = x.xy;", "atan(x, y).x"},
    {"vec3 x = vec3(0.5); float y = 0.5;", "pow(x, y).x"},
    {"vec3 x = vec3(0.5); float y = 0.5;", "dot(x, y)"},
    {"vec2 x = vec2(0.5);", "textureLod(tex, x).x"},
    {"vec3 x = vec3(0.5);", "texture(tex, x).x"},
    // The int overload's bounds follow the float rule too (this call
    // once lowered to a clamp of an ivec3 between an ivec2 and an int).
    {"ivec3 x = ivec3(1); ivec2 y = x.xy; int z = 1;",
     "float(clamp(x, y, z).x)"},
};

TEST(BuiltinOverloads, RejectedWithNoMatchingOverload)
{
    for (const Rejected &r : kRejected) {
        const std::string source =
            std::string("uniform sampler2D tex;\nout float o;\n"
                        "void main() {\n    ") +
            r.decls + "\n    o = " + r.expr + ";\n}\n";
        try {
            glsl::compileShader(source);
            ADD_FAILURE() << "accepted: " << r.expr;
        } catch (const CompileError &e) {
            EXPECT_NE(std::string(e.what()).find("no matching overload"),
                      std::string::npos)
                << r.expr << ": " << e.what();
        }
    }
}

} // namespace
} // namespace gsopt
