/**
 * @file
 * Minimal work-queue parallelism for the campaign engine and benches:
 * a bounded std::thread pool draining an atomic item counter. Sized
 * from GSOPT_THREADS (default: hardware_concurrency), so serial runs
 * (GSOPT_THREADS=1) and parallel runs are one code path.
 */
#ifndef GSOPT_SUPPORT_THREAD_POOL_H
#define GSOPT_SUPPORT_THREAD_POOL_H

#include <cstddef>
#include <functional>

namespace gsopt {

/**
 * Worker count for parallel sections: GSOPT_THREADS if set,
 * otherwise std::thread::hardware_concurrency() (minimum 1). A value
 * that is not a positive integer aborts (support/env.h).
 */
unsigned defaultThreadCount();

/**
 * Run @p fn(i) for every i in [0, items) on a pool of @p threads
 * std::threads sharing an atomic work queue. Items are claimed in
 * order but may complete out of order — callers must write results to
 * per-item slots (never append) so the outcome is identical for any
 * thread count. @p threads == 0 means defaultThreadCount(); one item
 * or one thread runs inline with no spawn. If @p fn throws, workers
 * stop claiming new items (in-flight items finish) and the first
 * exception is rethrown after the pool joins.
 */
void parallelFor(size_t items, unsigned threads,
                 const std::function<void(size_t)> &fn);

} // namespace gsopt

#endif // GSOPT_SUPPORT_THREAD_POOL_H
