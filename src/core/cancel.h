#pragma once
// Cooperative per-request deadlines. A serving process cannot afford
// a query that silently runs for seconds past its budget, so the
// expensive inner loops (Monte-Carlo evaluation, EM iterations, SSTA
// stage propagation) call checkpoint() periodically; when the
// current thread has an armed deadline that has passed, checkpoint()
// throws CancelledError and the caller sheds to a degraded answer.
//
// Scope and cost:
//  - A deadline is thread-local, armed by a DeadlineGuard on the
//    thread that executes the request (one of lvf2d's dispatch
//    threads). A parallel_for issued under the guard fans out to
//    exec::Pool workers, which inherit the caller's deadline for the
//    duration of the job, so the guard covers the whole compute.
//  - With no guard armed, checkpoint() is a thread-local pointer
//    load and a branch — batch runs never pay for serving machinery.
//  - The guarantee is "deadline + one checkpoint interval": the
//    hooks sit so that at most one EM iteration, one 256-sample MC
//    slice, or one SSTA stage runs after the deadline passes.
//
// Header-only (like core/status.h) so the layers below lvf2_core —
// lvf2_stats, lvf2_spice — can hook their loops without a new link
// dependency.

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/status.h"

namespace lvf2::core {

/// Thrown by checkpoint() when the armed deadline has passed. Carries
/// a full Status (kDeadlineExceeded) so catch sites can forward the
/// code without re-deriving it. Derives from std::runtime_error: a
/// legacy catch (std::exception&) still contains it, but sites that
/// must shed rather than degrade catch this type first.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}

  const Status& status() const { return status_; }

 private:
  Status status_;
};

namespace detail {

/// The armed deadline of the current thread; nullptr when none.
struct DeadlineState {
  std::chrono::steady_clock::time_point deadline;
  DeadlineState* previous = nullptr;  ///< nesting: inner-most wins
};

inline thread_local DeadlineState* tl_deadline = nullptr;

}  // namespace detail

/// True while the calling thread has an armed deadline.
inline bool deadline_armed() { return detail::tl_deadline != nullptr; }

/// Milliseconds left on the armed deadline; a large positive value
/// when none is armed, negative once expired.
inline double deadline_remaining_ms() {
  if (detail::tl_deadline == nullptr) return 1e18;
  return std::chrono::duration<double, std::milli>(
             detail::tl_deadline->deadline -
             std::chrono::steady_clock::now())
      .count();
}

/// Non-throwing probe: kOk, or kDeadlineExceeded once expired.
inline Status deadline_status() {
  if (detail::tl_deadline == nullptr) return Status::ok();
  if (std::chrono::steady_clock::now() < detail::tl_deadline->deadline) {
    return Status::ok();
  }
  return Status::deadline_exceeded("request deadline passed");
}

/// Cooperative cancellation point: throws CancelledError when the
/// calling thread's deadline has passed; no-op (one thread-local
/// load) otherwise.
inline void checkpoint() {
  if (detail::tl_deadline == nullptr) return;
  if (std::chrono::steady_clock::now() < detail::tl_deadline->deadline) {
    return;
  }
  throw CancelledError(Status::deadline_exceeded("request deadline passed"));
}

/// Strided checkpoint for tight loops: fires on every `stride`-th
/// index (and index 0), keeping the clock read off the per-sample
/// path.
inline void checkpoint_every(std::size_t index, std::size_t stride) {
  if (detail::tl_deadline == nullptr) return;
  if (stride == 0 || index % stride == 0) checkpoint();
}

/// RAII deadline: arms `budget_ms` from now on the current thread;
/// restores the previous deadline (nesting: the inner guard may only
/// tighten, never extend, the effective deadline) on destruction.
class DeadlineGuard {
 public:
  explicit DeadlineGuard(double budget_ms) {
    state_.deadline = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              budget_ms < 0.0 ? 0.0 : budget_ms));
    state_.previous = detail::tl_deadline;
    if (state_.previous != nullptr &&
        state_.previous->deadline < state_.deadline) {
      state_.deadline = state_.previous->deadline;
    }
    detail::tl_deadline = &state_;
  }
  ~DeadlineGuard() { detail::tl_deadline = state_.previous; }
  DeadlineGuard(const DeadlineGuard&) = delete;
  DeadlineGuard& operator=(const DeadlineGuard&) = delete;

 private:
  detail::DeadlineState state_;
};

/// Suspends the armed deadline for the guard's lifetime. The shed
/// fallbacks (cached row, analytic moments, point mass) run *after*
/// the deadline fired; they are bounded-cost by construction and
/// must not themselves be cancelled half way into rendering an
/// answer.
class DeadlineSuspend {
 public:
  DeadlineSuspend() : saved_(detail::tl_deadline) {
    detail::tl_deadline = nullptr;
  }
  ~DeadlineSuspend() { detail::tl_deadline = saved_; }
  DeadlineSuspend(const DeadlineSuspend&) = delete;
  DeadlineSuspend& operator=(const DeadlineSuspend&) = delete;

 private:
  detail::DeadlineState* saved_;
};

/// Maps a caught exception to a Status with the most specific code:
/// CancelledError keeps its own code, anything else is kInternal.
/// The single place that turns the exception world back into the
/// Status world (characterize entries, serve handlers).
inline Status status_from_exception(const std::exception& e) {
  if (const auto* cancelled = dynamic_cast<const CancelledError*>(&e)) {
    return cancelled->status();
  }
  return Status::internal(e.what());
}

}  // namespace lvf2::core
