// Event-loop interface of the network runtime (DESIGN.md §5g/§5l). The
// servers do all socket I/O through one completion-op contract (submit_recv,
// submit_sendmsg, submit_accept, cancel_fd) that both backends implement:
// EpollEventLoop on level-triggered readiness (the default), UringEventLoop
// as batched io_uring SQEs (raw syscalls, no liburing; feature-detected —
// kernels without it fall back under "auto"). The epoll backend also keeps
// the plain readiness API (add_fd/mod_fd/del_fd) for load generators and
// test origins that drive raw sockets themselves; uring refuses it.
//
// One EventLoop runs on one thread and multiplexes three event sources:
//
//   * socket ops / fd readiness. Handler state is reference-counted, so a
//     callback may cancel or deregister its own descriptor (or another's)
//     mid-dispatch; results already harvested for a dropped descriptor are
//     discarded, never delivered.
//   * timers — a min-heap of deadlines with lazy cancellation, driving the
//     idle/slow-loris timeouts of the live servers. Firing and cancelling
//     are loop-thread-only and O(log n). Timers ride the backend's own wait
//     primitive (epoll_wait timeout / io_uring_enter EXT_ARG) — they never
//     cost an extra fd or syscall, never fire early and are never
//     busy-polled.
//   * cross-thread tasks — post() enqueues a closure from any thread and
//     wakes the loop via an eventfd, but only when the loop may actually be
//     sleeping: an "armed" flag set before the backend blocks elides the
//     wake write(2) while the loop is busy, so a burst of posts from other
//     threads (server stop, measurement tasks) pays one syscall, not one
//     each. The servers' request path never posts: it runs on the loop.
//
// Lifecycle: run() blocks until stop(); tasks already queued when stop() is
// observed still run (a close-all posted together with stop is guaranteed to
// execute), while tasks posted after the final drain are destroyed, not run,
// when the loop is destructed — their captured resources (connection
// handles) release through RAII.
#pragma once

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace appx::net {

class EventLoop {
 public:
  using FdCallback = std::function<void(std::uint32_t events)>;
  using Task = std::function<void()>;
  using TimePoint = std::chrono::steady_clock::time_point;
  // Completion-op result: bytes transferred (>= 0) or -errno.
  using IoCallback = std::function<void(int res)>;
  // One accepted client fd (SOCK_NONBLOCK|SOCK_CLOEXEC applied).
  using AcceptCallback = std::function<void(int fd)>;

  virtual ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Runs the loop on the calling thread until stop(). Dispatches fd events,
  // fires due timers, and drains posted tasks each iteration.
  virtual void run() = 0;

  // Thread-safe. Wakes the loop; run() returns after draining the tasks that
  // were queued when the stop was observed.
  void stop();

  // Thread-safe. Enqueues `task` to run on the loop thread. Wakes the loop
  // only when it may be blocked in the kernel (armed-flag handshake).
  void post(Task task);

  // --- completion ops (loop thread only; both backends) --------------------
  //
  // At most one recv and one sendmsg may be in flight per fd. The buffers an
  // op reads from / writes into are owned by the caller and must stay valid
  // until the op retires: the loop holds `owner` (typically the connection
  // itself) from submission until the callback has returned, or until a
  // cancelled op is fully retired by the kernel (DESIGN.md §5l). Callbacks
  // never run inside the submit call; they are delivered from the loop.

  // One recv into [buf, buf+len); cb(bytes, 0 at EOF, or -errno).
  virtual void submit_recv(int fd, void* buf, std::size_t len, IoCallback cb,
                           std::shared_ptr<void> owner = {}) = 0;
  // One sendmsg of a caller-owned msghdr/iovec (MSG_NOSIGNAL applied);
  // cb(bytes or -errno). A result short of the iovec total is a partial
  // send: resubmit the rest.
  virtual void submit_sendmsg(int fd, const msghdr* msg, IoCallback cb,
                              std::shared_ptr<void> owner = {}) = 0;
  // Accept on a non-blocking listening fd: cb fires once per accepted
  // connection until cancel_fd. Descriptor exhaustion (EMFILE/ENFILE/
  // ENOBUFS/ENOMEM) parks the listener for kAcceptRearmBackoff instead of
  // retrying in a spin.
  virtual void submit_accept(int listen_fd, AcceptCallback cb) = 0;
  // Drop every op on `fd` whose callback has not run yet — including one
  // whose result is already in hand in the current batch — and release the
  // fd's backend state. Call before closing the fd.
  virtual void cancel_fd(int fd) = 0;

  // --- fd readiness (loop thread only; epoll backend) -----------------------
  //
  // Level-triggered epoll masks for callers that do their own socket I/O.
  // UringEventLoop throws InvalidStateError. Do not mix with ops on one fd.

  // Register `fd` for the epoll `events` mask (EPOLLIN/EPOLLOUT/...).
  virtual void add_fd(int fd, std::uint32_t events, FdCallback callback) = 0;
  // Change the event mask of a registered fd.
  virtual void mod_fd(int fd, std::uint32_t events) = 0;
  // Deregister. Safe to call from inside the fd's own callback.
  virtual void del_fd(int fd) = 0;

  // --- timers (loop thread only) --------------------------------------------

  // Schedule `task` at `when`; returns an id for cancel_timer. Timers are
  // one-shot; re-arm from the callback for periodic behaviour.
  std::uint64_t add_timer(TimePoint when, Task task);
  void cancel_timer(std::uint64_t id);

  // --- introspection --------------------------------------------------------

  // Fds registered through add_fd. Readable from any thread; exact only on
  // the loop thread.
  std::size_t fd_count() const { return fd_count_.load(std::memory_order_relaxed); }
  // Tasks posted but not yet run. Cross-thread approximate.
  std::size_t pending_tasks() const { return pending_tasks_.load(std::memory_order_relaxed); }
  // True when called on the thread currently inside run().
  bool on_loop_thread() const;
  // "epoll" or "uring".
  virtual const char* backend_name() const = 0;

 protected:
  EventLoop();

  // --- shared machinery for backends ----------------------------------------

  // Write the wakeup eventfd (a full counter already guarantees a wakeup).
  void wake();
  // Run every queued task; exceptions are logged, never unwound into run().
  void drain_tasks();
  void fire_due_timers();
  // Time until the next live timer (zero when one is due, capped at 60 s),
  // or nullopt when none is armed. Pops lazily cancelled heap heads in place
  // (loop thread only). Backends must not wake before it elapses: a wait cut
  // short would find the timer not yet due and spin until it is.
  std::optional<std::chrono::nanoseconds> time_to_next_timer();
  // Delay before a listener parked on descriptor exhaustion accepts again:
  // long enough to stop the instant-failure spin, short enough to pick
  // connections back up promptly once fds free.
  static constexpr std::chrono::milliseconds kAcceptRearmBackoff{50};

  // Arm the sleep flag and re-check for work that raced in. Returns false
  // when tasks are already pending or stop was requested — the backend must
  // then poll with a zero timeout instead of blocking. Pair every arm with
  // disarm_sleep() after the kernel wait returns.
  bool arm_sleep();
  void disarm_sleep() { sleep_armed_.store(false, std::memory_order_relaxed); }
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }
  void mark_loop_thread();
  void clear_loop_thread();

  int wake_fd_ = -1;
  std::atomic<std::size_t> fd_count_{0};

 private:
  std::atomic<bool> stopping_{false};
  // Dekker-style handshake with post(): the loop stores true then loads
  // pending_tasks_; a poster bumps pending_tasks_ then loads this. Under the
  // seq_cst total order at least one side observes the other, so a task can
  // never be queued while the loop sleeps unwoken.
  std::atomic<bool> sleep_armed_{false};
  std::atomic<std::size_t> pending_tasks_{0};
  std::atomic<const void*> loop_thread_id_{nullptr};

  std::mutex tasks_mutex_;
  std::vector<Task> tasks_;

  struct TimerEntry {
    TimePoint when;
    std::uint64_t id;
    bool operator>(const TimerEntry& other) const {
      return when > other.when || (when == other.when && id > other.id);
    }
  };
  std::uint64_t next_timer_id_ = 1;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, std::greater<TimerEntry>> timer_heap_;
  std::unordered_map<std::uint64_t, Task> timer_tasks_;
};

// True when this kernel can run UringEventLoop (io_uring_setup succeeds, the
// required opcodes probe as supported, and EXT_ARG timeouts exist — kernel
// >= 5.11; multishot accept is newer and degrades internally). Cached after
// the first call. APPX_NO_URING=1 forces false (CI escape hatch).
bool uring_supported();

// Map a configured backend name ("", "epoll", "uring", "auto") to the
// backend to instantiate. "" reads APPX_IO_BACKEND from the environment
// (default "epoll"); "auto" resolves to "uring" when supported, else
// "epoll"; an explicit "uring" on an unsupporting kernel throws — it never
// silently degrades. Any other name throws InvalidArgumentError.
std::string resolve_io_backend(std::string_view configured);

// Construct the backend resolve_io_backend() picks.
std::unique_ptr<EventLoop> make_event_loop(std::string_view backend = {});

// Concrete backend factories (make_event_loop resolves names onto these; the
// conformance tests instantiate them directly).
std::unique_ptr<EventLoop> make_epoll_event_loop();
std::unique_ptr<EventLoop> make_uring_event_loop();  // throws when !uring_supported()

}  // namespace appx::net
