#include "glsl/frontend.h"

#include "glsl/lexer.h"
#include "glsl/parser.h"
#include "support/governor.h"

namespace gsopt::glsl {

std::unique_ptr<CompiledShader>
tryCompileShader(const std::string &source,
                 const std::map<std::string, std::string> &predefines,
                 DiagEngine &diags)
{
    // Admission control: a cold compile of untrusted text gets a fresh
    // budget from the ambient caps (GSOPT_DEADLINE_MS / GSOPT_BUDGET_*)
    // unless an outer request already governs this thread.
    governor::ScopedRequestBudget admission;
    auto out = std::make_unique<CompiledShader>();
    PreprocessResult pp = preprocess(source, predefines, diags);
    if (diags.hasErrors())
        return nullptr;
    out->preprocessedText = std::move(pp.text);
    out->version = pp.version;

    // The tokens view preprocessedText; the AST copies what it keeps.
    auto tokens = lex(out->preprocessedText, diags);
    if (diags.hasErrors())
        return nullptr;

    out->ast = parseShader(tokens, diags);
    if (diags.hasErrors())
        return nullptr;
    out->ast.version = pp.version;

    out->interface = analyze(out->ast, diags);
    if (diags.hasErrors())
        return nullptr;
    return out;
}

CompiledShader
compileShader(const std::string &source,
              const std::map<std::string, std::string> &predefines)
{
    DiagEngine diags;
    auto out = tryCompileShader(source, predefines, diags);
    diags.checkpoint();
    // Success is not silence: this entry point's contract only throws
    // on errors, so route any warnings through the support/diag sink
    // rather than dropping them with the local engine.
    diags.reportWarnings();
    return std::move(*out);
}

} // namespace gsopt::glsl
