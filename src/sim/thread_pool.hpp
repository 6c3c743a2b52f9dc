#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace sg::sim {

/// Fixed-size thread pool with a fork-join `parallel_for` primitive.
///
/// Simulated GPUs execute their (real) label updates through this pool:
/// the *result* of a kernel is computed on host threads while the kernel's
/// *cost* is computed analytically by the GpuCostModel. A range of n items
/// is split into min(size(), n) contiguous chunks and min(size(), n) - 1
/// workers are woken, so the BSP phases run one simulated device per pool
/// thread. Chunks are claimed from an atomic counter by the caller and
/// the woken workers alike: a worker that is slow to start (parked, or
/// descheduled on a busy machine) leaves its chunk to whoever is free,
/// instead of stalling the join.
///
/// Fork and join are lock-free: each worker spins on its own atomic
/// epoch for a fixed number of polls, then parks in std::atomic::wait; the
/// caller waits for the pending-chunk count the same way. Back-to-back
/// fork-joins (the four BSP phases of a round) therefore never touch a
/// mutex or a futex while the workers are still spinning.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool() { stop_workers(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Runs fn(begin..end) partitioned into min(size(), end - begin)
  /// contiguous chunks (the calling thread takes part). Blocks until all
  /// chunks complete. fn is invoked as fn(chunk_begin, chunk_end,
  /// chunk_index); which thread runs a chunk varies, so fn must not
  /// depend on it. If chunks throw, every chunk still finishes and the
  /// first exception is rethrown here. A call made while the pool is
  /// busy (nested, or from another thread) runs inline on the calling
  /// thread. Never allocates.
  template <typename Fn>
  void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    run(begin, end,
        Job{[](const void* f, std::size_t lo, std::size_t hi,
               std::size_t chunk) {
              (*const_cast<F*>(static_cast<const F*>(f)))(lo, hi, chunk);
            },
            std::addressof(fn)});
  }

  /// Process-wide pool, sized from SG_THREADS env var or hardware.
  static ThreadPool& global();

 private:
  /// Non-owning, type-erased reference to the caller's callable.
  struct Job {
    void (*call)(const void*, std::size_t, std::size_t, std::size_t) =
        nullptr;
    const void* fn = nullptr;
  };

  /// One worker's start signal, on its own cache line so spinning
  /// workers never contend with each other or with the pending count.
  struct alignas(64) Slot {
    std::atomic<std::uint32_t> epoch{0};
  };

  void run(std::size_t begin, std::size_t end, Job job);
  void worker_loop(std::size_t worker_id);
  /// Wakes every started worker, spinning or parked, and joins it.
  void stop_workers() noexcept;
  /// Claims and runs chunks of the current job until none is left.
  void drain() noexcept;
  void run_chunk(std::size_t chunk) noexcept;

  std::unique_ptr<Slot[]> slots_;

  // The current job: written by the caller before it publishes the job
  // through claim_ (release), read by a thread only after it claimed a
  // chunk of that job (acquire).
  Job job_;
  std::size_t begin_ = 0;
  std::size_t count_ = 0;
  std::size_t nchunks_ = 0;
  std::exception_ptr error_;  // first chunk exception; see run_chunk

  /// Chunk count of the current job (high 32 bits) and the next chunk
  /// to hand out (low 32 bits). One word, so a late thread that finds
  /// the job exhausted never reads a job the caller is writing.
  alignas(64) std::atomic<std::uint64_t> claim_{0};
  alignas(64) std::atomic<std::uint32_t> pending_{0};  // chunks unfinished
  std::atomic<bool> failed_{false};
  std::atomic<bool> busy_{false};  // a fork-join is in flight
  std::atomic<bool> stop_{false};  // ordered by the final epoch bump

  std::vector<std::thread> workers_;  // last: the threads use the above
};

}  // namespace sg::sim
