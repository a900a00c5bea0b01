#pragma once

// Fixed-size thread pool with a blocking parallel_for.
//
// This is the execution substrate for the GPU simulator: each simulated
// thread block is one parallel_for item. Work is handed out in guided runs:
// a thread claims the next max(1, left / (2 * size())) consecutive indices
// with one CAS on a shared counter (dynamic load balancing — blocks of a QR
// panel have very uneven cost near the matrix fringe — with O(P log N)
// claims instead of one contended atomic per item). Kernels number their
// blocks row-block-major, so one run is neighbouring tiles of the same
// rows: the reflector block stays in L1 while the thread walks contiguous
// columns. parallel_for is deterministic as long as items write disjoint
// outputs, which every kernel in this library guarantees by construction.
//
// Placement: the pool is sized from the constructing thread's CPU affinity
// set, and each worker starts by pinning itself to its own CPU of that set
// (the constructor's current CPU last, since the caller runs items too),
// then restores the full inherited mask before it waits for work. Nothing
// stays pinned — a worker can still leave a CPU another tenant keeps busy —
// but each worker last ran on its own CPU, and the scheduler wakes a thread
// on its previous CPU while that CPU is idle. Without this, a fresh pool's
// workers are all created on the constructor's CPU and short jobs run there
// one after another until some long job makes the scheduler spread them.
// Linux only; elsewhere workers start wherever the OS puts them.
//
// Nested calls (a parallel_for issued from inside another parallel_for's
// item, e.g. a Device::launch reached from user code already running on the
// pool) degrade to inline serial execution of the nested loop instead of
// aborting. An exception thrown by an item — on any thread — is captured
// (first one wins), the remaining claims are cancelled, and the exception
// is rethrown on the calling thread after the join, like std::async. The
// error path leaves the pool fully reusable: submitting the same throwing
// job repeatedly (e.g. a fault-injected kernel re-launched by a retry
// policy) neither wedges the workers nor degrades later parallel_fors.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace caqr {

class ThreadPool {
 public:
  // threads == 0 picks the number of CPUs in the calling thread's affinity
  // set (hardware_concurrency where that is unknown; at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total parallelism including the calling thread.
  std::size_t size() const { return workers_.size() + 1; }

  // Runs fn(i) for i in [0, count) across the pool and the calling thread,
  // returning when all items have completed. Nested calls (from inside fn)
  // and calls while another thread's job is in flight run the loop inline
  // on the calling thread. If any item throws, the first exception is
  // rethrown here after all workers have left the job.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  // Process-wide default pool, sized like ThreadPool(0).
  static ThreadPool& global();

  // True on a thread that is running some pool's parallel_for items: a
  // parallel_for issued here runs inline.
  static bool in_parallel_region() { return in_parallel_region_; }

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<int> active{0};  // workers currently inside run_tickets
    std::atomic<bool> failed{false};
    std::exception_ptr error;  // first exception; guarded by the pool mutex
  };

  void worker_loop();
  void run_tickets(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  Job* current_ = nullptr;
  std::uint64_t epoch_ = 0;  // bumped each time current_ changes
  bool stop_ = false;
  // True while this thread is executing parallel_for items (worker threads
  // always; the submitting thread while inside run_tickets) — the nesting
  // detector for the inline fallback.
  static thread_local bool in_parallel_region_;
};

}  // namespace caqr
