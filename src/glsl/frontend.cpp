#include "glsl/frontend.h"

#include "glsl/lexer.h"
#include "glsl/parser.h"
#include "support/governor.h"

namespace gsopt::glsl {

CompiledShader
compileShader(const std::string &source,
              const std::map<std::string, std::string> &predefines)
{
    // Admission control: a cold compile of untrusted text gets a fresh
    // budget from the ambient caps (GSOPT_DEADLINE_MS / GSOPT_BUDGET_*)
    // unless an outer request already governs this thread.
    governor::ScopedRequestBudget admission;
    DiagEngine diags;
    CompiledShader out;
    PreprocessResult pp = preprocess(source, predefines, diags);
    diags.checkpoint();
    out.preprocessedText = std::move(pp.text);
    out.version = pp.version;

    // The tokens view preprocessedText; the AST copies what it keeps.
    auto tokens = lex(out.preprocessedText, diags);
    diags.checkpoint();

    out.ast = parseShader(tokens, diags);
    diags.checkpoint();
    out.ast.version = pp.version;

    out.interface = analyze(out.ast, diags);
    diags.checkpoint();
    // Success is not silence: this entry point's contract only throws
    // on errors, so route any warnings through the support/diag sink
    // rather than dropping them with the local engine.
    diags.reportWarnings();
    return out;
}

} // namespace gsopt::glsl
