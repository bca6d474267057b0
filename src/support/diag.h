/**
 * @file
 * Diagnostics: source locations, errors, and the diagnostic engine used by
 * every stage of the shader compiler (preprocessor, lexer, parser, sema,
 * lowering, verifier).
 */
#ifndef GSOPT_SUPPORT_DIAG_H
#define GSOPT_SUPPORT_DIAG_H

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace gsopt {

/** A position within a named source buffer (1-based line/column). */
struct SourceLoc
{
    int line = 0;
    int column = 0;

    bool valid() const { return line > 0; }
    std::string str() const;
};

/** Severity of a reported diagnostic. */
enum class Severity { Note, Warning, Error };

/** A single diagnostic message attached to a source location. */
struct Diagnostic
{
    Severity severity = Severity::Error;
    SourceLoc loc;
    std::string message;

    /** Render as "line:col: error: message" (the location prefix is
     * omitted when loc is invalid). */
    std::string str() const;
};

/**
 * Exception thrown when compilation cannot continue. Carries the full
 * diagnostic list accumulated so far.
 */
class CompileError : public std::runtime_error
{
  public:
    explicit CompileError(std::vector<Diagnostic> diags);

    const std::vector<Diagnostic> &diagnostics() const { return diags_; }

  private:
    std::vector<Diagnostic> diags_;
};

/**
 * Collects diagnostics during a compilation stage.
 *
 * Stages call error()/warning() as they go; callers check hasErrors() (or
 * let the stage throw via checkpoint()) once a phase completes.
 */
class DiagEngine
{
  public:
    void error(SourceLoc loc, std::string message);
    void warning(SourceLoc loc, std::string message);
    void note(SourceLoc loc, std::string message);

    bool hasErrors() const { return errorCount_ > 0; }
    const std::vector<Diagnostic> &diagnostics() const { return diags_; }

    /** Throw CompileError if any error has been reported. */
    void checkpoint() const;

    /**
     * Deliver every warning to the process-wide warning sink (see
     * setWarningSink). Entry points whose success contract only checks
     * hasErrors() — compileShader and everything above it — call this
     * so warnings are never silently dropped. No-op without warnings.
     */
    void reportWarnings() const;

    /** Render every diagnostic, one per line. */
    std::string str() const;

  private:
    std::vector<Diagnostic> diags_;
    int errorCount_ = 0;
    int warningCount_ = 0;
};

/**
 * Re-point where DiagEngine::reportWarnings delivers warnings. The
 * default sink prints Diagnostic::str() to stderr; a long-running
 * service (the ROADMAP's tuner daemon) re-points it at its response or
 * log channel. Pass nullptr to restore the default. Thread-safe.
 */
void setWarningSink(std::function<void(const Diagnostic &)> sink);

/**
 * Deliver one warning without a source position to the warning sink —
 * the channel for runtime warnings outside a compilation: shard IO,
 * campaign quarantines, the distributed coordinator, search baselines.
 */
void warn(std::string message);

} // namespace gsopt

#endif // GSOPT_SUPPORT_DIAG_H
