#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace mhla::core {

class RunBudget;

/// Number of workers `parallel_for` and the parallel branch-and-bound use
/// when the caller asks for 0: the hardware concurrency, with a floor of 1.
unsigned default_parallelism();

/// A pool of workers draining per-worker deques of tasks, with on-demand
/// stealing — the one parallel runtime of the library: it runs the parallel
/// branch-and-bound ("bnb-par") search, whose subtrees are far too uneven
/// for a static split, and every `parallel_for` index space.
///
/// Each worker owns one lock-striped deque: it pushes and pops its own tasks
/// LIFO (depth-first, cache-warm), and steals from a victim's deque FIFO
/// when its own runs dry — the oldest task of a busy worker is the
/// shallowest, i.e. the largest stolen subtree.  Tasks may `spawn` further
/// tasks at any point; `starving()` is the cheap hint a task consults to
/// decide whether splitting itself up is worth the bookkeeping (it is true
/// while some worker is hunting for work or the queues are near-empty).
///
/// Semantics:
///
///  * `run` blocks until every task (seeded and spawned) has finished, then
///    returns the number of tasks *skipped*.  Tasks are skipped — claimed
///    and discarded unrun — once the budget has expired or a peer task has
///    thrown; already-running tasks always run to completion.  A zero
///    return means complete coverage.
///  * The first exception thrown by any task is rethrown on the calling
///    thread after the pool has drained; the remaining tasks are skipped.
///  * With `num_threads <= 1` the calling thread runs every task itself (no
///    worker threads are spawned), so a single-worker run is an ordinary
///    deterministic loop.
///  * The budget is observed, never charged — tasks that want to spend
///    probes do so themselves.
///  * Spawned threads are joined on every path (including a failed spawn),
///    never leaked to std::terminate.
///  * The fault injector's `ParallelBody` site wraps every task run: an
///    armed injector makes the Nth task throw `FaultInjectedError`, which
///    then follows the normal exception path above.
///
/// The pool makes no ordering promise between tasks: callers needing a
/// deterministic reduction must make their per-task results order-free
/// (the branch-and-bound search keys its incumbents by canonical path for
/// exactly this reason).
class WorkStealingPool {
 public:
  /// A unit of work; receives the index of the worker executing it, which
  /// is also the only valid `spawn` target for tasks it creates.
  using Task = std::function<void(unsigned worker)>;

  explicit WorkStealingPool(unsigned num_threads);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  unsigned num_workers() const { return num_workers_; }

  /// Push a task onto `worker`'s deque.  Called with the executing worker's
  /// own index from inside tasks, or with any index to seed the pool before
  /// `run`.  Thread-safe.
  void spawn(unsigned worker, Task task);

  /// True while some worker is idle or the queues are shallower than the
  /// worker count — the moment a task should offload subtrees it would
  /// otherwise recurse into.  One relaxed load per call; a stale verdict
  /// merely splits a little earlier or later than ideal.
  bool starving() const {
    return idle_.load(std::memory_order_relaxed) > 0 ||
           queued_.load(std::memory_order_relaxed) < static_cast<long>(num_workers_);
  }

  /// Drain the pool: run every seeded and spawned task, return the number
  /// skipped (see class comment).  Call once per pool instance.
  std::size_t run(RunBudget* budget = nullptr);

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  bool try_pop(unsigned worker, Task& out);
  bool try_steal(unsigned thief, Task& out);
  void worker_loop(unsigned worker);
  void finish_task();

  unsigned num_workers_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::atomic<long> pending_{0};  ///< spawned but not yet finished/skipped
  std::atomic<long> queued_{0};   ///< sitting in a deque right now
  std::atomic<unsigned> idle_{0};
  std::atomic<bool> failed_{false};
  std::atomic<std::size_t> skipped_{0};
  RunBudget* budget_ = nullptr;

  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;

  std::mutex error_mu_;
  std::exception_ptr error_;
};

/// Run `body(i)` for every i in [0, count) on a `WorkStealingPool` of
/// `num_threads` workers (0 = `default_parallelism()`, never more than
/// `count`), with the pool's exception, coverage and fault contracts.
/// The indices are seeded onto worker 0 in reverse, so its LIFO pops walk
/// them in ascending order while thieves take the highest ones; a single
/// worker is a plain ascending loop on the calling thread.  Each index runs
/// exactly once, so a body that only writes to its own index's slot is
/// deterministic for any thread count.
void parallel_for(std::size_t count, unsigned num_threads,
                  const std::function<void(std::size_t)>& body);

/// Lock-free running minimum over doubles, shared by pool tasks.
///
/// `update` folds a candidate in with a compare-exchange loop; min is
/// commutative and associative, so the final value is the true minimum of
/// every folded candidate regardless of interleaving.  `load` may observe a
/// stale (larger) value mid-run but never a smaller-than-true one, which is
/// exactly the guarantee a parallel branch-and-bound needs from its shared
/// incumbent: pruning against a stale bound is merely less effective, never
/// unsound.  NaN candidates are ignored.
class AtomicMin {
 public:
  explicit AtomicMin(double initial) : value_(initial) {}

  double load() const { return value_.load(std::memory_order_relaxed); }

  /// Returns true if `candidate` became the new minimum.
  bool update(double candidate) {
    double current = value_.load(std::memory_order_relaxed);
    while (candidate < current) {
      if (value_.compare_exchange_weak(current, candidate, std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

 private:
  std::atomic<double> value_;
};

}  // namespace mhla::core
