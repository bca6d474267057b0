#include "support/thread_pool.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "support/env.h"

namespace gsopt {

unsigned
defaultThreadCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<unsigned>(
        envInteger("GSOPT_THREADS", hw > 0 ? hw : 1));
}

void
parallelFor(size_t items, unsigned threads,
            const std::function<void(size_t)> &fn)
{
    if (items == 0)
        return;
    if (threads == 0)
        threads = defaultThreadCount();
    if (threads > items)
        threads = static_cast<unsigned>(items);

    if (threads <= 1) {
        for (size_t i = 0; i < items; ++i)
            fn(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    auto worker = [&]() {
        // Stop claiming items once any worker failed: in-flight items
        // finish, queued ones are abandoned, and the first exception
        // surfaces without paying for the rest of the queue.
        while (!failed.load(std::memory_order_relaxed)) {
            const size_t i = next.fetch_add(1);
            if (i >= items)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace gsopt
