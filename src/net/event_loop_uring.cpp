// Completion-mode EventLoop backend on raw io_uring syscalls (no liburing;
// DESIGN.md §5l). Feature-detected at runtime — uring_supported() requires
// io_uring_setup to succeed with EXT_ARG timeouts (kernel >= 5.11) and the
// opcodes below to probe as supported; anything older runs epoll.
//
// Structure:
//   * Every in-flight kernel op carries a unique 64-bit token in user_data,
//     mapped to a PendingOp. Tokens are never reused, so a CQE for an op
//     whose fd was closed and recycled can never be misdelivered — the
//     uring-native form of the epoll backend's (generation, fd) keys.
//   * The op contract maps onto SQEs directly: submit_recv/submit_sendmsg
//     are one-shot ops into caller-owned buffers, submit_accept a multishot
//     IORING_OP_ACCEPT (downgrading to re-armed one-shot accept on pre-5.19
//     kernels that reject the flag with -EINVAL). The only POLL_ADD left is
//     the wakeup eventfd's; the readiness API (add_fd/mod_fd/del_fd) is
//     epoll-only and throws here.
//   * One io_uring_enter per loop iteration submits everything queued since
//     the last iteration and waits with an EXT_ARG timespec holding the
//     exact time to the next timer — timers cost no timerfd and no extra
//     syscall.
//   * Connection fds are auto-registered into a sparse fixed-file table on
//     first submission (IOSQE_FIXED_FILE thereafter); cancel_fd returns the
//     slot. Body slabs flow into SQE iovecs directly — no per-request
//     buffer registration anywhere.
//   * Teardown: cancel_fd marks every op on the fd dead and submits
//     IORING_OP_ASYNC_CANCEL *by token* (cancel-by-fd would need the fd
//     still open; the caller is about to close it). An op whose SQE the
//     kernel has not read yet becomes a NOP in place instead: the kernel
//     resolves an SQE's descriptor (or fixed slot) only when it reads it,
//     and by then the caller's close may have handed the number — on any
//     thread — or the slot to a new socket, whose bytes the dead op would
//     consume. Dead ops' CQEs are swallowed and their callbacks dropped;
//     each op's owner is released only with its terminal CQE, so the
//     kernel never touches freed buffers.
#include <linux/io_uring.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "net/syscount.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace appx::net {

namespace {

int sys_io_uring_setup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, params));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete, unsigned flags,
                       const void* arg, std::size_t argsz) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags, arg, argsz));
}

int sys_io_uring_register(int fd, unsigned opcode, const void* arg, unsigned nr_args) {
  return static_cast<int>(::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

[[noreturn]] void fail_errno(const char* what) {
  throw Error(std::string(what) + ": " + std::strerror(errno));
}

std::uint32_t load_acquire(const unsigned* p) {
  return std::atomic_ref<const unsigned>(*p).load(std::memory_order_acquire);
}

void store_release(unsigned* p, unsigned v) {
  std::atomic_ref<unsigned>(*p).store(v, std::memory_order_release);
}

constexpr unsigned kSqEntries = 1024;
constexpr unsigned kCqEntries = 4096;
constexpr unsigned kFileSlots = 1024;

class UringEventLoop final : public EventLoop {
 public:
  UringEventLoop() {
    io_uring_params params{};
    params.flags = IORING_SETUP_CQSIZE;
    params.cq_entries = kCqEntries;
    ring_fd_ = sys_io_uring_setup(kSqEntries, &params);
    if (ring_fd_ < 0) fail_errno("io_uring_setup");
    features_ = params.features;
    if ((features_ & IORING_FEAT_EXT_ARG) == 0 || (features_ & IORING_FEAT_NODROP) == 0) {
      ::close(ring_fd_);
      throw Error("io_uring: kernel lacks EXT_ARG/NODROP (need >= 5.11)");
    }
    try {
      map_rings(params);
    } catch (...) {
      ::close(ring_fd_);
      throw;
    }
    register_file_table();
    arm_wake_poll();
  }

  ~UringEventLoop() override {
    // Ring-fd close cancels in-flight ops only *asynchronously* (the
    // kernel's exit work), so reap first: once ops_ is empty no submitted
    // op references caller-owned memory (recv buffers, iovec arrays) and
    // the ops' owners (connection refs) have released. Whatever survives the
    // bounded reap is dropped here, as the epoll backend drops its handlers.
    reap_pending_ops();
    ops_.clear();
    if (sqes_ != nullptr) ::munmap(sqes_, sqes_sz_);
    if (cq_ring_ptr_ != nullptr && cq_ring_ptr_ != sq_ring_ptr_) {
      ::munmap(cq_ring_ptr_, cq_ring_sz_);
    }
    if (sq_ring_ptr_ != nullptr) ::munmap(sq_ring_ptr_, sq_ring_sz_);
    if (ring_fd_ >= 0) ::close(ring_fd_);
  }

  const char* backend_name() const override { return "uring"; }

  // --- readiness API: epoll-only ------------------------------------------

  void add_fd(int, std::uint32_t, FdCallback) override { refuse_readiness(); }
  void mod_fd(int, std::uint32_t) override { refuse_readiness(); }
  void del_fd(int) override { refuse_readiness(); }

  // --- completion ops -------------------------------------------------------

  void submit_recv(int fd, void* buf, std::size_t len, IoCallback cb,
                   std::shared_ptr<void> owner) override {
    io_uring_sqe* sqe = get_sqe();
    const std::uint64_t token = track_io(OpKind::kRecv, fd, std::move(cb), std::move(owner));
    sqe->opcode = IORING_OP_RECV;
    set_target_fd(sqe, fd);
    sqe->addr = reinterpret_cast<std::uint64_t>(buf);
    sqe->len = static_cast<std::uint32_t>(len);
    sqe->user_data = token;
    publish_sqe();
  }

  void submit_sendmsg(int fd, const msghdr* msg, IoCallback cb,
                      std::shared_ptr<void> owner) override {
    io_uring_sqe* sqe = get_sqe();
    const std::uint64_t token = track_io(OpKind::kSend, fd, std::move(cb), std::move(owner));
    sqe->opcode = IORING_OP_SENDMSG;
    set_target_fd(sqe, fd);
    sqe->addr = reinterpret_cast<std::uint64_t>(msg);
    sqe->len = 1;
    sqe->msg_flags = MSG_NOSIGNAL;
    sqe->user_data = token;
    publish_sqe();
  }

  void submit_accept(int listen_fd, AcceptCallback cb) override {
    const std::uint64_t token = new_token();
    PendingOp op;
    op.kind = OpKind::kAccept;
    op.fd = listen_fd;
    op.accept_cb = std::make_shared<AcceptCallback>(std::move(cb));
    ops_.emplace(token, std::move(op));
    prep_accept(listen_fd, token, accept_multishot_ok_);
  }

  void cancel_fd(int fd) override {
    // Snapshot first: prep_cancel inserts into ops_, and a rehash mid-range-
    // for would invalidate the iterators (same pattern as reap_pending_ops).
    std::vector<std::uint64_t> doomed;
    for (const auto& [token, op] : ops_) {
      if (op.fd == fd && !op.dead && op.kind != OpKind::kCancel) doomed.push_back(token);
    }
    for (const std::uint64_t token : doomed) {
      const auto it = ops_.find(token);
      if (it == ops_.end()) continue;
      if (it->second.parked) {
        // No kernel op in flight (accept waiting out a backoff timer), so no
        // terminal CQE will ever come: drop the entry here.
        ops_.erase(it);
        continue;
      }
      it->second.dead = true;
      if (it->second.kind != OpKind::kAccept && still_queued(it->second.sq_index)) {
        // Its NOP completion retires it; nothing is in the kernel to cancel.
        io_uring_sqe* sqe = &sqes_[it->second.sq_index & sq_mask_];
        std::memset(sqe, 0, sizeof(*sqe));
        sqe->opcode = IORING_OP_NOP;
        sqe->user_data = token;
        continue;
      }
      prep_cancel(token);
    }
    unregister_file(fd);
  }

  void run() override {
    mark_loop_thread();
    while (!stopping()) {
      drain_tasks();
      fire_due_timers();
      if (stopping()) break;
      if (arm_sleep()) {
        enter_and_wait(time_to_next_timer());
      } else {
        enter_and_wait(std::chrono::nanoseconds::zero());
      }
      disarm_sleep();
      process_cqes();
    }
    // Final drain mirrors the epoll backend: tasks queued alongside the stop
    // run; later posts are destroyed by the destructor.
    drain_tasks();
    // The close-all tasks that just ran only *prepped* their cancel SQEs; a
    // parked kernel op pins its target's struct file, so leaving them
    // unsubmitted would hold every connection open (no FIN to the peer)
    // until the ring is destroyed. Cancel and reap now, before run()
    // returns, so stop() means resources released.
    reap_pending_ops();
    clear_loop_thread();
  }

 private:
  enum class OpKind : std::uint8_t { kRecv, kSend, kAccept, kCancel };

  struct PendingOp {
    OpKind kind = OpKind::kRecv;
    int fd = -1;
    // Deregistered/cancelled: swallow the CQE, never invoke the callback.
    bool dead = false;
    // No kernel op in flight for this token: the accept re-arm is waiting
    // out a backoff timer. No CQE will arrive, so teardown paths erase the
    // entry directly instead of submitting a cancel for it.
    bool parked = false;
    unsigned sq_index = 0;                      // kRecv / kSend: its SQE's ring position
    IoCallback io_cb;                           // kRecv / kSend
    std::shared_ptr<void> owner;                // kRecv / kSend: guards the op's buffers
    std::shared_ptr<AcceptCallback> accept_cb;  // kAccept
  };

  static constexpr std::uint64_t kWakeToken = 1;

  std::uint64_t new_token() { return next_token_++; }

  std::uint64_t track_io(OpKind kind, int fd, IoCallback cb, std::shared_ptr<void> owner) {
    const std::uint64_t token = new_token();
    PendingOp op;
    op.kind = kind;
    op.fd = fd;
    op.sq_index = local_sq_tail_;  // get_sqe() just handed out this slot
    op.io_cb = std::move(cb);
    op.owner = std::move(owner);
    ops_.emplace(token, std::move(op));
    return token;
  }

  [[noreturn]] static void refuse_readiness() {
    throw InvalidStateError(
        "io_uring event loop: add_fd/mod_fd/del_fd are epoll-only; use the completion ops");
  }

  void map_rings(const io_uring_params& params) {
    sq_ring_sz_ = params.sq_off.array + params.sq_entries * sizeof(std::uint32_t);
    cq_ring_sz_ = params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
    if ((features_ & IORING_FEAT_SINGLE_MMAP) != 0) {
      sq_ring_sz_ = cq_ring_sz_ = std::max(sq_ring_sz_, cq_ring_sz_);
    }
    sq_ring_ptr_ = ::mmap(nullptr, sq_ring_sz_, PROT_READ | PROT_WRITE,
                          MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
    if (sq_ring_ptr_ == MAP_FAILED) {
      sq_ring_ptr_ = nullptr;
      fail_errno("mmap(sq ring)");
    }
    if ((features_ & IORING_FEAT_SINGLE_MMAP) != 0) {
      cq_ring_ptr_ = sq_ring_ptr_;
    } else {
      cq_ring_ptr_ = ::mmap(nullptr, cq_ring_sz_, PROT_READ | PROT_WRITE,
                            MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_CQ_RING);
      if (cq_ring_ptr_ == MAP_FAILED) {
        cq_ring_ptr_ = nullptr;
        fail_errno("mmap(cq ring)");
      }
    }
    sqes_sz_ = params.sq_entries * sizeof(io_uring_sqe);
    sqes_ = static_cast<io_uring_sqe*>(::mmap(nullptr, sqes_sz_, PROT_READ | PROT_WRITE,
                                              MAP_SHARED | MAP_POPULATE, ring_fd_,
                                              IORING_OFF_SQES));
    if (sqes_ == MAP_FAILED) {
      sqes_ = nullptr;
      fail_errno("mmap(sqes)");
    }
    auto* sq_base = static_cast<char*>(sq_ring_ptr_);
    sq_head_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.tail);
    sq_mask_ = *reinterpret_cast<unsigned*>(sq_base + params.sq_off.ring_mask);
    sq_entries_ = *reinterpret_cast<unsigned*>(sq_base + params.sq_off.ring_entries);
    sq_array_ = reinterpret_cast<unsigned*>(sq_base + params.sq_off.array);
    auto* cq_base = static_cast<char*>(cq_ring_ptr_);
    cq_head_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned*>(cq_base + params.cq_off.tail);
    cq_mask_ = *reinterpret_cast<unsigned*>(cq_base + params.cq_off.ring_mask);
    cqes_ = reinterpret_cast<io_uring_cqe*>(cq_base + params.cq_off.cqes);
    // Identity-map the SQ index array once; slot i always holds SQE i.
    for (unsigned i = 0; i < sq_entries_; ++i) sq_array_[i] = i;
    local_sq_tail_ = *sq_tail_;
  }

  void register_file_table() {
    const std::vector<int> sparse(kFileSlots, -1);
    if (sys_io_uring_register(ring_fd_, IORING_REGISTER_FILES, sparse.data(), kFileSlots) ==
        0) {
      files_registered_ = true;
      free_slots_.reserve(kFileSlots);
      for (unsigned i = kFileSlots; i > 0; --i) free_slots_.push_back(static_cast<int>(i - 1));
    }
    // Registration failure (old kernel, rlimit) just means raw fds in SQEs.
  }

  // --- SQE production (batched; nothing hits the kernel until enter) --------

  io_uring_sqe* get_sqe() {
    if (sq_full()) {
      // Ring full (a burst queued kSqEntries ops between iterations): flush
      // without waiting so production can continue. The kernel refuses the
      // flush with EBUSY while an unreaped CQ backlog is parked under
      // NODROP, so a still-full SQ after a flush means: reap completions,
      // then retry the enter — a mass shutdown can fill both rings at once,
      // and throwing there would turn close paths into crashes.
      for (int attempt = 0; attempt < 8 && sq_full(); ++attempt) {
        sys::count(sys::Op::kEnter);
        if (sys_io_uring_enter(ring_fd_, sq_pending(), 0, 0, nullptr, 0) < 0 &&
            errno != EINTR && errno != EBUSY) {
          fail_errno("io_uring_enter(flush)");
        }
        if (sq_full()) process_cqes();
      }
      if (sq_full()) throw Error("io_uring: submission queue stuck full");
    }
    io_uring_sqe* sqe = &sqes_[local_sq_tail_ & sq_mask_];
    std::memset(sqe, 0, sizeof(*sqe));
    return sqe;
  }

  bool sq_full() const { return local_sq_tail_ - load_acquire(sq_head_) == sq_entries_; }

  void publish_sqe() { store_release(sq_tail_, ++local_sq_tail_); }

  unsigned sq_pending() const { return local_sq_tail_ - load_acquire(sq_head_); }

  // The SQE at ring position `index` is published but not yet read by the
  // kernel (it reads only inside our io_uring_enter calls).
  bool still_queued(unsigned index) const {
    return index - load_acquire(sq_head_) < sq_pending();
  }

  // Route an SQE at `fd`, through its fixed-file slot when one is (or can
  // be) registered. Listener fds stay raw: accept ops outlive connections
  // and slot churn buys nothing there.
  void set_target_fd(io_uring_sqe* sqe, int fd) {
    auto it = fd_slot_.find(fd);
    if (it == fd_slot_.end() && try_register_file(fd)) it = fd_slot_.find(fd);
    if (it != fd_slot_.end()) {
      sqe->fd = static_cast<std::int32_t>(it->second);
      sqe->flags |= IOSQE_FIXED_FILE;
    } else {
      sqe->fd = fd;
    }
  }

  bool try_register_file(int fd) {
    if (!files_registered_ || free_slots_.empty()) return false;
    const int slot = free_slots_.back();
    std::int32_t fd_val = fd;
    io_uring_files_update update{};
    update.offset = static_cast<std::uint32_t>(slot);
    update.fds = reinterpret_cast<std::uint64_t>(&fd_val);
    sys::count(sys::Op::kRegister);
    if (sys_io_uring_register(ring_fd_, IORING_REGISTER_FILES_UPDATE, &update, 1) != 1) {
      return false;
    }
    free_slots_.pop_back();
    fd_slot_.emplace(fd, static_cast<unsigned>(slot));
    return true;
  }

  void unregister_file(int fd) {
    const auto it = fd_slot_.find(fd);
    if (it == fd_slot_.end()) return;
    std::int32_t minus_one = -1;
    io_uring_files_update update{};
    update.offset = it->second;
    update.fds = reinterpret_cast<std::uint64_t>(&minus_one);
    sys::count(sys::Op::kRegister);
    sys_io_uring_register(ring_fd_, IORING_REGISTER_FILES_UPDATE, &update, 1);
    free_slots_.push_back(static_cast<int>(it->second));
    fd_slot_.erase(it);
  }

  void prep_accept(int fd, std::uint64_t token, bool multishot) {
    io_uring_sqe* sqe = get_sqe();
    sqe->opcode = IORING_OP_ACCEPT;
    sqe->fd = fd;
    if (multishot) sqe->ioprio = IORING_ACCEPT_MULTISHOT;
    sqe->accept_flags = SOCK_NONBLOCK | SOCK_CLOEXEC;
    sqe->user_data = token;
    publish_sqe();
  }

  // Cancel a pending op by its token (never by fd: the fd may already be
  // closed, and cancel-by-fd needs a live descriptor to resolve the file).
  void prep_cancel(std::uint64_t target_token) {
    const std::uint64_t token = new_token();
    PendingOp op;
    op.kind = OpKind::kCancel;
    ops_.emplace(token, std::move(op));
    io_uring_sqe* sqe = get_sqe();
    sqe->opcode = IORING_OP_ASYNC_CANCEL;
    sqe->fd = -1;
    sqe->addr = target_token;
    sqe->user_data = token;
    publish_sqe();
  }

  // Shutdown path: cancel every tracked op and drain the ring until each
  // token's terminal CQE has arrived (bounded — a wedged kernel must not
  // wedge shutdown). Dead ops already have a cancel in flight; live ones
  // (fds the user never cancelled, the armed accept) get one here. Runs
  // after run()'s final task drain and again from the destructor, where it
  // is idempotent: ops_ is normally already empty.
  void reap_pending_ops() {
    if (ring_fd_ < 0) return;
    std::vector<std::uint64_t> live;
    std::vector<std::uint64_t> parked;
    live.reserve(ops_.size());
    for (const auto& [token, op] : ops_) {
      if (op.parked) {
        parked.push_back(token);
      } else if (!op.dead && op.kind != OpKind::kCancel) {
        live.push_back(token);
      }
    }
    // Parked ops have no kernel op in flight (accept waiting on a backoff
    // timer) — no terminal CQE will come, so drop them here rather than
    // letting them hold the reap loop to its deadline.
    for (const std::uint64_t token : parked) ops_.erase(token);
    for (const std::uint64_t token : live) {
      ops_.at(token).dead = true;
      prep_cancel(token);
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!ops_.empty() && std::chrono::steady_clock::now() < deadline) {
      enter_and_wait(std::chrono::milliseconds(20));
      process_cqes();
    }
    if (!ops_.empty()) {
      log_warn("net.uring") << "shutdown reap timed out with " << ops_.size()
                            << " ops unresolved; their resources release at ring teardown";
    }
  }

  void arm_wake_poll() {
    io_uring_sqe* sqe = get_sqe();
    sqe->opcode = IORING_OP_POLL_ADD;
    sqe->fd = wake_fd_;
    sqe->poll32_events = POLLIN;
    sqe->user_data = kWakeToken;
    publish_sqe();
  }

  // --- the one syscall per iteration ----------------------------------------

  // Submit and wait up to `timeout` (nullopt: until a completion arrives;
  // zero: just submit and reap).
  void enter_and_wait(std::optional<std::chrono::nanoseconds> timeout) {
    const unsigned to_submit = sq_pending();
    unsigned flags = IORING_ENTER_GETEVENTS;
    unsigned min_complete = 1;
    io_uring_getevents_arg arg{};
    __kernel_timespec ts{};
    const void* argp = nullptr;
    std::size_t argsz = 0;
    if (timeout && timeout->count() == 0) {
      min_complete = 0;  // poll: submit + reap whatever is there
    } else {
      flags |= IORING_ENTER_EXT_ARG;
      argp = &arg;
      argsz = sizeof arg;
      if (timeout) {
        ts.tv_sec = timeout->count() / 1'000'000'000;
        ts.tv_nsec = timeout->count() % 1'000'000'000;
        arg.ts = reinterpret_cast<std::uint64_t>(&ts);
      }
      // No timeout: arg.ts stays null — wait until an event arrives.
    }
    sys::count(sys::Op::kEnter);
    const int r = sys_io_uring_enter(ring_fd_, to_submit, min_complete, flags, argp, argsz);
    if (r < 0) {
      // ETIME: the EXT_ARG timeout fired (timers run next iteration).
      // EBUSY: CQ backlog under NODROP — reaping below makes room.
      // EINTR: signal; the loop re-enters.
      if (errno != ETIME && errno != EBUSY && errno != EINTR) {
        fail_errno("io_uring_enter");
      }
    }
  }

  void process_cqes() {
    // Only the completions posted before the pass starts. Callbacks make
    // syscalls (connect, close, file-table updates) during which the kernel
    // posts further completions; a pass that chased them ran for seconds
    // under connection churn, with the SQEs it queued (client responses
    // among them) unsubmitted and timers unfired until it ended.
    const unsigned end = load_acquire(cq_tail_);
    // Reload the published head every iteration, not once up front: a
    // dispatched callback can re-enter process_cqes (via get_sqe's
    // ring-full reap), and a cached local head would then re-deliver CQEs
    // the nested call already consumed.
    while (true) {
      const unsigned head = load_acquire(cq_head_);
      if (static_cast<std::int32_t>(end - head) <= 0) break;
      // Copy out and publish consumption before dispatch: the callback may
      // run long, and freeing the slot keeps the kernel out of overflow.
      const io_uring_cqe cqe = cqes_[head & cq_mask_];
      store_release(cq_head_, head + 1);
      handle_cqe(cqe.user_data, cqe.res, cqe.flags);
    }
  }

  void handle_cqe(std::uint64_t token, int res, std::uint32_t flags) {
    if (token == kWakeToken) {
      std::uint64_t counter;
      sys::count(sys::Op::kRead);
      while (::read(wake_fd_, &counter, sizeof counter) > 0) {
      }
      arm_wake_poll();
      return;
    }
    const auto it = ops_.find(token);
    if (it == ops_.end()) return;  // stale token (already retired)
    switch (it->second.kind) {
      case OpKind::kAccept:
        handle_accept_cqe(it, res, flags);
        return;
      case OpKind::kRecv:
      case OpKind::kSend: {
        // Extract first: the callback may submit new ops into ops_. The
        // node (and the owner it holds) dies after the callback returns.
        auto node = ops_.extract(it);
        if (!node.mapped().dead && node.mapped().io_cb) {
          invoke_io(node.mapped().io_cb, res);
        }
        return;
      }
      case OpKind::kCancel:
        // Result is advisory (-ENOENT when the target op had already
        // completed); the target's own terminal CQE does the cleanup.
        ops_.erase(it);
        return;
    }
  }

  void handle_accept_cqe(std::unordered_map<std::uint64_t, PendingOp>::iterator it, int res,
                         std::uint32_t flags) {
    const std::uint64_t token = it->first;
    const int listen_fd = it->second.fd;
    const bool more = (flags & IORING_CQE_F_MORE) != 0;
    if (it->second.dead) {
      // A connection can still land between the cancel and its terminal
      // CQE; nobody will ever see it, so close it rather than leak it.
      if (res >= 0) ::close(res);
      if (!more) ops_.erase(it);
      return;
    }
    if (res >= 0) {
      sys::count(sys::Op::kAccept);
      const std::shared_ptr<AcceptCallback> cb = it->second.accept_cb;
      try {
        (*cb)(res);
      } catch (const std::exception& e) {
        log_error("net.loop") << "accept callback threw: " << e.what();
      }
    } else if (res == -EINVAL && accept_multishot_ok_) {
      // Pre-5.19 kernel: IORING_ACCEPT_MULTISHOT unknown. Downgrade every
      // future accept to re-armed one-shot.
      accept_multishot_ok_ = false;
    } else if (res == -ECANCELED || res == -EBADF || res == -ENOENT) {
      ops_.erase(it);  // listener gone
      return;
    } else if (res < 0) {
      // Transient accept failure (EMFILE burst, aborted handshake). Log and
      // fall through to the re-arm below; the op itself has terminated.
      log_warn("net.loop") << "accept: " << std::strerror(-res);
    }
    if (more) return;  // multishot still armed
    // Terminal CQE (one-shot accept, downgrade, or multishot ended e.g. on
    // CQ overflow): re-arm if the registration is still live.
    const auto op_it = ops_.find(token);
    if (op_it == ops_.end()) return;
    if (op_it->second.dead) {
      ops_.erase(op_it);
      return;
    }
    if (res == -EMFILE || res == -ENFILE || res == -ENOBUFS) {
      // Resource exhaustion is not transient on the completion timescale:
      // with one-shot accept a re-armed op completes again instantly with
      // the same error, pegging the loop in a submit/complete spin until
      // fds free up. Park the registration and re-arm from a short timer.
      op_it->second.parked = true;
      add_timer(std::chrono::steady_clock::now() + kAcceptRearmBackoff,
                [this, token, listen_fd] {
                  const auto it2 = ops_.find(token);
                  if (it2 == ops_.end()) return;
                  if (it2->second.dead) {
                    ops_.erase(it2);
                    return;
                  }
                  it2->second.parked = false;
                  prep_accept(listen_fd, token, accept_multishot_ok_);
                });
      return;
    }
    prep_accept(listen_fd, token, accept_multishot_ok_);
  }

  void invoke_io(IoCallback& cb, int res) {
    try {
      cb(res);
    } catch (const std::exception& e) {
      log_error("net.loop") << "completion callback threw: " << e.what();
    }
  }

  int ring_fd_ = -1;
  unsigned features_ = 0;
  void* sq_ring_ptr_ = nullptr;
  std::size_t sq_ring_sz_ = 0;
  void* cq_ring_ptr_ = nullptr;
  std::size_t cq_ring_sz_ = 0;
  io_uring_sqe* sqes_ = nullptr;
  std::size_t sqes_sz_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned sq_entries_ = 0;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  io_uring_cqe* cqes_ = nullptr;
  unsigned local_sq_tail_ = 0;

  std::unordered_map<std::uint64_t, PendingOp> ops_;
  std::uint64_t next_token_ = kWakeToken + 1;

  bool accept_multishot_ok_ = true;
  bool files_registered_ = false;
  std::vector<int> free_slots_;
  std::unordered_map<int, unsigned> fd_slot_;
};

}  // namespace

bool uring_supported() {
  static const bool supported = [] {
    const char* disabled = std::getenv("APPX_NO_URING");
    if (disabled != nullptr && *disabled != '\0' && *disabled != '0') return false;
    io_uring_params params{};
    const int fd = sys_io_uring_setup(2, &params);
    if (fd < 0) return false;  // ENOSYS, EPERM (io_uring_disabled sysctl), ...
    bool ok = (params.features & IORING_FEAT_EXT_ARG) != 0 &&
              (params.features & IORING_FEAT_NODROP) != 0;
    if (ok) {
      constexpr unsigned kProbeOps = 64;
      std::vector<std::uint8_t> storage(
          sizeof(io_uring_probe) + kProbeOps * sizeof(io_uring_probe_op), 0);
      auto* probe = reinterpret_cast<io_uring_probe*>(storage.data());
      if (sys_io_uring_register(fd, IORING_REGISTER_PROBE, probe, kProbeOps) == 0) {
        const auto has = [probe](unsigned op) {
          return op <= probe->last_op &&
                 (probe->ops[op].flags & IO_URING_OP_SUPPORTED) != 0;
        };
        ok = has(IORING_OP_POLL_ADD) && has(IORING_OP_RECV) && has(IORING_OP_SENDMSG) && has(IORING_OP_ACCEPT) &&
             has(IORING_OP_ASYNC_CANCEL);
      }
      // A failing probe (pre-5.6) leaves ok false via the feature check on
      // those kernels; anything with EXT_ARG also has the probe.
    }
    ::close(fd);
    return ok;
  }();
  return supported;
}

std::unique_ptr<EventLoop> make_uring_event_loop() {
  if (!uring_supported()) {
    throw Error("io_uring backend requested but not supported by this kernel");
  }
  return std::make_unique<UringEventLoop>();
}

}  // namespace appx::net
