// Backend-independent EventLoop machinery: the task queue with its
// armed-flag wake elision, the timer min-heap with lazy cancellation, the
// loop-thread marker, and the backend factory. The kernel-facing halves live
// in event_loop_epoll.cpp and event_loop_uring.cpp.
#include "net/event_loop.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "net/syscount.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace appx::net {

namespace {
[[noreturn]] void fail_errno(const char* what) {
  throw Error(std::string(what) + ": " + std::strerror(errno));
}

// Stable per-thread address used to answer on_loop_thread() without
// std::thread::id comparisons in a hot path.
const void* this_thread_marker() {
  static thread_local char marker;
  return &marker;
}
}  // namespace

EventLoop::EventLoop() {
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) fail_errno("eventfd");
}

EventLoop::~EventLoop() {
  // Destroy undelivered tasks outside the lock: their destructors may release
  // connection handles whose teardown is arbitrary user code.
  std::vector<Task> leftover;
  {
    const std::lock_guard<std::mutex> lock(tasks_mutex_);
    leftover.swap(tasks_);
  }
  leftover.clear();
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

bool EventLoop::on_loop_thread() const {
  return loop_thread_id_.load(std::memory_order_relaxed) == this_thread_marker();
}

void EventLoop::mark_loop_thread() {
  loop_thread_id_.store(this_thread_marker(), std::memory_order_relaxed);
}

void EventLoop::clear_loop_thread() {
  loop_thread_id_.store(nullptr, std::memory_order_relaxed);
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  sys::count(sys::Op::kWake);
  // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void EventLoop::stop() {
  stopping_.store(true, std::memory_order_release);
  // Always wake: arm_sleep() re-checks stopping_, but only after the store
  // above is visible; an unconditional wake keeps stop() latency-proof.
  wake();
}

void EventLoop::post(Task task) {
  {
    const std::lock_guard<std::mutex> lock(tasks_mutex_);
    tasks_.push_back(std::move(task));
  }
  // Dekker handshake with arm_sleep(): bump the pending count, then claim
  // the armed flag — both seq_cst, so either we see the loop armed (and pay
  // the wake) or the loop's post-arm re-check sees our task. A busy loop
  // (flag clear) costs no syscall per post, and the exchange coalesces
  // concurrent posters: only the first to claim the flag writes the eventfd
  // (one wake per sleep), later posters ride the same wakeup — the loop
  // drains the whole queue once running, and anything pushed after that
  // drain trips the next arm_sleep() re-check.
  pending_tasks_.fetch_add(1, std::memory_order_seq_cst);
  if (sleep_armed_.exchange(false, std::memory_order_seq_cst)) wake();
}

bool EventLoop::arm_sleep() {
  sleep_armed_.store(true, std::memory_order_seq_cst);
  if (pending_tasks_.load(std::memory_order_seq_cst) != 0 || stopping()) {
    // Work raced in between the last drain and arming: poll, don't block.
    return false;
  }
  return true;
}

void EventLoop::drain_tasks() {
  std::vector<Task> batch;
  {
    const std::lock_guard<std::mutex> lock(tasks_mutex_);
    batch.swap(tasks_);
  }
  for (Task& task : batch) {
    pending_tasks_.fetch_sub(1, std::memory_order_relaxed);
    try {
      task();
    } catch (const std::exception& e) {
      // A throwing task must not unwind run() and kill the reactor thread.
      log_error("net.loop") << "posted task threw: " << e.what();
    }
  }
}

std::uint64_t EventLoop::add_timer(TimePoint when, Task task) {
  const std::uint64_t id = next_timer_id_++;
  timer_heap_.push(TimerEntry{when, id});
  timer_tasks_.emplace(id, std::move(task));
  return id;
}

void EventLoop::cancel_timer(std::uint64_t id) {
  // Lazy cancellation: the heap entry stays and is skipped when popped.
  timer_tasks_.erase(id);
}

std::optional<std::chrono::nanoseconds> EventLoop::time_to_next_timer() {
  // Pop lazily-cancelled heads for real: with one idle timer per connection
  // a heap copy here would be O(n) per wakeup.
  while (!timer_heap_.empty() &&
         timer_tasks_.find(timer_heap_.top().id) == timer_tasks_.end()) {
    timer_heap_.pop();
  }
  if (timer_heap_.empty()) return std::nullopt;
  const auto delta = timer_heap_.top().when - std::chrono::steady_clock::now();
  return std::clamp<std::chrono::nanoseconds>(delta, std::chrono::nanoseconds::zero(),
                                             std::chrono::seconds(60));
}

void EventLoop::fire_due_timers() {
  const auto now = std::chrono::steady_clock::now();
  while (!timer_heap_.empty() && timer_heap_.top().when <= now) {
    const TimerEntry entry = timer_heap_.top();
    timer_heap_.pop();
    const auto it = timer_tasks_.find(entry.id);
    if (it == timer_tasks_.end()) continue;  // cancelled
    Task task = std::move(it->second);
    timer_tasks_.erase(it);
    try {
      task();
    } catch (const std::exception& e) {
      log_error("net.loop") << "timer task threw: " << e.what();
    }
  }
}

std::string resolve_io_backend(std::string_view configured) {
  std::string backend(configured);
  if (backend.empty()) {
    const char* env = std::getenv("APPX_IO_BACKEND");
    backend = (env != nullptr && *env != '\0') ? env : "epoll";
  }
  if (backend == "auto") return uring_supported() ? "uring" : "epoll";
  if (backend == "epoll") return backend;
  if (backend == "uring") {
    if (!uring_supported()) {
      throw InvalidArgumentError(
          "io_backend=uring: this kernel lacks the required io_uring support "
          "(need >= 5.11 with EXT_ARG timeouts); use \"auto\" to fall back to epoll");
    }
    return backend;
  }
  throw InvalidArgumentError("unknown io_backend \"" + backend +
                             "\" (expected \"epoll\", \"uring\" or \"auto\")");
}

std::unique_ptr<EventLoop> make_event_loop(std::string_view backend) {
  if (resolve_io_backend(backend) == "uring") return make_uring_event_loop();
  return make_epoll_event_loop();
}

}  // namespace appx::net
