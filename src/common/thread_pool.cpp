#include "common/thread_pool.hpp"

#include <algorithm>

#ifdef __linux__
#include <sched.h>
#endif

namespace caqr {

thread_local bool ThreadPool::in_parallel_region_ = false;

namespace {

#ifdef __linux__
// The calling thread's CPU affinity set; false if it cannot be read (more
// CPUs than a cpu_set_t holds, or a sandbox that refuses the call).
bool inherited_cpus(cpu_set_t& set) {
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0;
}
#endif

std::size_t default_threads() {
#ifdef __linux__
  cpu_set_t set;
  if (inherited_cpus(set)) return static_cast<std::size_t>(CPU_COUNT(&set));
#endif
  // libstdc++ counts online CPUs here, not the ones this process may use.
  return std::max(1u, std::thread::hardware_concurrency());
}

// The CPUs new workers start on, in turn: the calling thread's affinity set
// in order, its current CPU last (the caller runs its share of every job).
// Empty where the set is unknown.
std::vector<int> start_cpus() {
  std::vector<int> order;
#ifdef __linux__
  cpu_set_t set;
  if (!inherited_cpus(set)) return order;
  const int here = sched_getcpu();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (cpu != here && CPU_ISSET(cpu, &set)) order.push_back(cpu);
  }
  if (here >= 0 && CPU_ISSET(here, &set)) order.push_back(here);
#endif
  return order;
}

// Moves the calling thread onto `cpu`, then gives it back the affinity
// mask it inherited, so it is placed but not pinned. A failure of any call
// only loses the placement.
void start_on([[maybe_unused]] int cpu) {
#ifdef __linux__
  cpu_set_t inherited;
  if (!inherited_cpus(inherited)) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) {
    sched_setaffinity(0, sizeof(inherited), &inherited);
  }
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_threads();
  // The calling thread also participates in parallel_for, so spawn one fewer
  // worker than the requested parallelism.
  const std::size_t workers = threads > 1 ? threads - 1 : 0;
  workers_.reserve(workers);
  const std::vector<int> cpus = workers > 0 ? start_cpus() : std::vector<int>{};
  for (std::size_t i = 0; i < workers; ++i) {
    const int cpu = cpus.empty() ? -1 : cpus[i % cpus.size()];
    workers_.emplace_back([this, cpu] {
      if (cpu >= 0) start_on(cpu);
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::run_tickets(Job& job) {
  const std::size_t parts = 2 * size();
  std::size_t begin = job.next.load(std::memory_order_relaxed);
  while (begin < job.count) {
    // Guided run: a share of what is left, so claims stay O(P log N) and
    // the last runs are small enough to balance the fringe. A failed CAS
    // reloads `begin`; cancellation (next = count) ends the loop.
    const std::size_t end =
        begin + std::max<std::size_t>(1, (job.count - begin) / parts);
    if (!job.next.compare_exchange_weak(begin, end,
                                        std::memory_order_relaxed)) {
      continue;
    }
    try {
      for (std::size_t i = begin; i < end; ++i) (*job.fn)(i);
    } catch (...) {
      // Cancel BEFORE recording: these stores cannot throw, so the join
      // predicate completes on `failed` even if recording the exception
      // below fails — a repeatedly-throwing kernel must never wedge the
      // pool (it is the retry path of a fault-injected launch).
      job.failed.store(true, std::memory_order_release);
      job.next.store(job.count, std::memory_order_relaxed);
      try {
        std::lock_guard<std::mutex> lock(mutex_);
        if (job.error == nullptr) job.error = std::current_exception();
      } catch (...) {
        // Mutex failure: the caller sees a cancelled loop; the payload
        // exception is dropped rather than the pool deadlocked.
      }
    }
    job.done.fetch_add(end - begin, std::memory_order_release);
    begin = job.next.load(std::memory_order_relaxed);
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // Nested invocation (this thread is already running pool items), no
  // workers, or a single item: run inline on this thread. Exceptions
  // propagate directly.
  if (in_parallel_region_ || workers_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  Job job;
  job.fn = &fn;
  job.count = count;

  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (current_ != nullptr) {
      // Another thread's job is in flight; the pool runs one job at a time,
      // so execute this one inline instead of deadlocking or aborting.
      lock.unlock();
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    current_ = &job;
    ++epoch_;
  }
  cv_work_.notify_all();

  // Everything between publishing `current_` and the join below must be
  // exception-safe: the Job lives on this stack frame, so leaving early
  // without joining would hand the workers a dangling pointer, and leaving
  // `in_parallel_region_` latched would silently degrade every later
  // parallel_for on this thread to inline execution.
  struct RegionGuard {
    bool prev;
    RegionGuard() : prev(in_parallel_region_) { in_parallel_region_ = true; }
    ~RegionGuard() { in_parallel_region_ = prev; }
  };
  struct JoinGuard {
    ThreadPool* pool;
    Job* job;
    ~JoinGuard() {
      // All indices are claimed (or cancelled) once the caller falls out of
      // run_tickets, but workers may still be finishing their last run;
      // wait until every item is done — or the job failed and all claimed
      // runs ended — AND no worker is still inside run_tickets before
      // letting the stack-allocated Job go out of scope.
      std::unique_lock<std::mutex> lock(pool->mutex_);
      pool->cv_done_.wait(lock, [&] {
        return (job->done.load(std::memory_order_acquire) >= job->count ||
                job->failed.load(std::memory_order_acquire)) &&
               job->active.load(std::memory_order_acquire) == 0;
      });
      pool->current_ = nullptr;
      ++pool->epoch_;
      lock.unlock();
      pool->cv_work_.notify_all();
    }
  };
  {
    JoinGuard join{this, &job};
    RegionGuard region;
    run_tickets(job);  // captures its own exceptions into the job
  }

  if (job.error != nullptr) std::rethrow_exception(job.error);
}

void ThreadPool::worker_loop() {
  in_parallel_region_ = true;  // anything run here is inside the pool
  std::uint64_t seen_epoch = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_work_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      job = current_;
      if (job != nullptr) job->active.fetch_add(1, std::memory_order_relaxed);
    }
    if (job != nullptr) {
      // The active count must drop and the submitter must be woken even if
      // run_tickets leaks an exception (it should not — but a worker that
      // skips the decrement wedges the submitter's join forever).
      struct ActiveGuard {
        ThreadPool* pool;
        Job* j;
        ~ActiveGuard() {
          j->active.fetch_sub(1, std::memory_order_release);
          // Wake the submitting thread; it re-checks done/failed/active.
          // Touch the mutex before notifying so the counter updates cannot
          // slip between the submitter's predicate check and its block
          // (lost-wakeup race), and so the Job stays alive until every
          // worker has left it.
          { std::lock_guard<std::mutex> lock(pool->mutex_); }
          pool->cv_done_.notify_one();
        }
      } active_guard{this, job};
      run_tickets(*job);
    }
  }
}

}  // namespace caqr
