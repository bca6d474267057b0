/**
 * @file
 * Shared test scratch-space helpers.
 *
 * Every test that writes files goes through ScratchDir, which roots
 * all scratch under the system temp directory in a per-process tree
 * (`<tmp>/gsopt-scratch-<pid>/<name>`) — never under the current
 * working directory, so an aborted run cannot litter the repo root
 * (the old per-suite `*_test_scratch/` directories did exactly that).
 * Each ScratchDir removes its subtree on scope exit; the per-process
 * root is cheap to leave behind and lives in tmp anyway.
 */
#ifndef GSOPT_TESTS_TEST_SCRATCH_H
#define GSOPT_TESTS_TEST_SCRATCH_H

#include <cstdlib>
#include <filesystem>
#include <string>

#include <unistd.h>

namespace gsopt::testutil {

/** The per-process scratch root (created on first use). */
inline const std::string &
scratchRoot()
{
    static const std::string root = [] {
        std::filesystem::path p =
            std::filesystem::temp_directory_path() /
            ("gsopt-scratch-" + std::to_string(::getpid()));
        std::filesystem::create_directories(p);
        return p.string();
    }();
    return root;
}

/** Fresh scratch directory under the temp tree, removed on scope
 * exit. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : path_(scratchRoot() + "/" + name)
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Scoped environment variable (restores the prior value). Note that
 * GSOPT_* env configuration parsed once at startup (GSOPT_FAULTS,
 * GSOPT_RETRY_ATTEMPTS...) is NOT re-read by this process — a
 * ScopedEnv for those only affects child processes spawned inside the
 * scope. GSOPT_THREADS is read on every defaultThreadCount() call. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        had_ = std::getenv(name) != nullptr;
        setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (had_)
            setenv(name_, old_.c_str(), 1);
        else
            unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::string old_;
    bool had_ = false;
};

} // namespace gsopt::testutil

#endif // GSOPT_TESTS_TEST_SCRATCH_H
