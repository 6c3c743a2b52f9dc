#include "sim/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace sg::sim {

namespace {

/// Polls of an atomic before a waiting thread parks. Fixed, not tunable:
/// long enough to bridge the sequential gaps between the phases of one
/// BSP round, short enough that idle pools on an oversubscribed machine
/// give their cores back quickly.
constexpr int kSpinIterations = 2048;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins on `a` until `done(value)` holds, for at most kSpinIterations
/// polls, then parks in atomic::wait.
/// Returns the value that satisfied `done` (acquire).
template <typename Done>
std::uint32_t spin_then_wait(const std::atomic<std::uint32_t>& a,
                             Done done) {
  std::uint32_t v = a.load(std::memory_order_acquire);
  for (int i = 0; !done(v) && i < kSpinIterations; ++i) {
    cpu_relax();
    v = a.load(std::memory_order_acquire);
  }
  while (!done(v)) {
    a.wait(v, std::memory_order_acquire);
    v = a.load(std::memory_order_acquire);
  }
  return v;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  slots_ = std::make_unique<Slot[]>(threads - 1);
  workers_.reserve(threads - 1);
  try {
    for (std::size_t i = 0; i + 1 < threads; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  } catch (...) {
    stop_workers();  // a thread failed to start: join the ones that did
    throw;
  }
}

void ThreadPool::stop_workers() noexcept {
  stop_.store(true, std::memory_order_relaxed);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    slots_[w].epoch.fetch_add(1, std::memory_order_release);
    slots_[w].epoch.notify_one();
  }
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunk(std::size_t chunk) noexcept {
  const std::size_t per = count_ / nchunks_;
  const std::size_t extra = count_ % nchunks_;
  const std::size_t lo = begin_ + chunk * per + std::min(chunk, extra);
  const std::size_t hi = lo + per + (chunk < extra ? 1 : 0);
  try {
    job_.call(job_.fn, lo, hi, chunk);
  } catch (...) {
    // First failure wins; the caller reads error_ only after every
    // chunk has finished (pending_ reached zero).
    if (!failed_.exchange(true, std::memory_order_acq_rel)) {
      error_ = std::current_exception();
    }
  }
}

void ThreadPool::drain() noexcept {
  for (;;) {
    const std::uint64_t ticket =
        claim_.fetch_add(1, std::memory_order_acq_rel);
    const std::size_t chunk = ticket & 0xffffffffU;
    if (chunk >= (ticket >> 32)) return;  // all chunks handed out
    run_chunk(chunk);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

void ThreadPool::worker_loop(std::size_t worker_id) {
  const std::atomic<std::uint32_t>& epoch = slots_[worker_id].epoch;
  std::uint32_t seen = 0;
  for (;;) {
    seen = spin_then_wait(epoch,
                          [seen](std::uint32_t v) { return v != seen; });
    if (stop_.load(std::memory_order_relaxed)) return;
    drain();
  }
}

void ThreadPool::run(std::size_t begin, std::size_t end, Job job) {
  if (begin >= end) return;
  const std::size_t nchunks = std::min(size(), end - begin);
  if (nchunks == 1 || busy_.exchange(true, std::memory_order_acquire)) {
    job.call(job.fn, begin, end, 0);
    return;
  }
  job_ = job;
  begin_ = begin;
  count_ = end - begin;
  nchunks_ = nchunks;
  error_ = nullptr;
  failed_.store(false, std::memory_order_relaxed);
  pending_.store(static_cast<std::uint32_t>(nchunks),
                 std::memory_order_relaxed);
  claim_.store(static_cast<std::uint64_t>(nchunks) << 32,
               std::memory_order_release);
  // One worker per chunk beyond the caller's is woken; the rest keep
  // waiting on their own epoch.
  for (std::size_t w = 0; w + 1 < nchunks; ++w) {
    slots_[w].epoch.fetch_add(1, std::memory_order_release);
    slots_[w].epoch.notify_one();
  }
  drain();
  spin_then_wait(pending_, [](std::uint32_t v) { return v == 0; });
  const std::exception_ptr error = std::exchange(error_, nullptr);
  busy_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool{[] {
    if (const char* env = std::getenv("SG_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    return std::size_t{0};
  }()};
  return pool;
}

}  // namespace sg::sim
