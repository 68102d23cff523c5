#pragma once
// Admission control: a bounded MPMC request queue with a shed
// watermark. Connection readers push, the dispatch threads pop. Three
// admission outcomes:
//
//   kAccepted      depth below the watermark — full-quality compute
//   kAcceptedShed  watermark <= depth < capacity — the request is
//                  admitted but marked for the degradation chain
//                  (cached row -> analytic moments -> point mass), so
//                  an overloaded replica answers *something* for
//                  everyone instead of timing out for most
//   kRejected      queue full — the caller answers immediately with
//                  kResourceExhausted and a retry_after_ms hint
//
// close() wakes every waiter; pending items keep draining (pop keeps
// returning them) so a SIGTERM drain can finish or shed in-flight
// work before the process exits.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace lvf2::serve {

enum class Admit {
  kAccepted,
  kAcceptedShed,
  kRejected,
};

template <typename T>
class AdmissionQueue {
 public:
  /// `watermark` is clamped into [1, capacity].
  AdmissionQueue(std::size_t capacity, std::size_t watermark)
      : capacity_(capacity == 0 ? 1 : capacity),
        watermark_(watermark == 0 ? 1 : watermark) {
    if (watermark_ > capacity_) watermark_ = capacity_;
  }

  /// Non-blocking push. kRejected when full or (for new work) closed.
  /// When T has a bool `shed` member, a kAcceptedShed admission sets
  /// it before enqueueing, so the consumer sees the verdict on the
  /// item itself.
  Admit try_push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_ || items_.size() >= capacity_) return Admit::kRejected;
    const Admit verdict = items_.size() + 1 >= watermark_
                              ? Admit::kAcceptedShed
                              : Admit::kAccepted;
    if constexpr (requires { item.shed = true; }) {
      if (verdict == Admit::kAcceptedShed) item.shed = true;
    }
    items_.push_back(std::move(item));
    if (items_.size() > high_water_) high_water_ = items_.size();
    lock.unlock();
    ready_.notify_one();
    return verdict;
  }

  /// Blocks until an item is available or the queue is closed and
  /// drained; nullopt means "no more work, ever".
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Stops admission and wakes every popper; queued items still drain.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  /// Deepest the queue ever got (backpressure telemetry).
  std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return high_water_;
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t watermark() const { return watermark_; }

 private:
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::size_t capacity_;
  std::size_t watermark_;
  std::deque<T> items_;
  bool closed_ = false;
  std::size_t high_water_ = 0;
};

/// Backoff hint for a rejected request: proportional to the queue
/// depth (each queued item is roughly one compute slice of latency),
/// clamped to a sane range so clients neither hammer nor stall.
inline double retry_after_hint_ms(std::size_t depth) {
  const double hint = 5.0 * static_cast<double>(depth);
  if (hint < 25.0) return 25.0;
  if (hint > 1000.0) return 1000.0;
  return hint;
}

}  // namespace lvf2::serve
