// EventLoop backend on one epoll instance (DESIGN.md §5g/§5l). Fd state is
// keyed by (generation, fd), so a stale event queued for a closed fd whose
// number was recycled within the same epoll_wait batch is dropped instead of
// reaching the new handler.
//
// Completion ops on level-triggered readiness:
//   * submit_recv parks the op; when the fd's EPOLLIN fires the loop runs
//     exactly one recv for it and delivers the result.
//   * submit_sendmsg sends inline (MSG_DONTWAIT); the result is delivered
//     from the loop before it next sleeps. Only an EAGAIN registers
//     EPOLLOUT, and the retry runs when it fires.
//   * submit_accept drains the listener with accept4 on each readiness.
//   * Ops only mark their fd dirty; interest is reconciled once, right
//     before the loop sleeps, so a recv completion whose callback resubmits
//     costs no epoll_ctl. An fd that wants nothing leaves the set: EPOLLHUP
//     and EPOLLERR cannot be masked, and an idle registered fd could spin.
#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/event_loop.hpp"
#include "net/syscount.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace appx::net {

namespace {

[[noreturn]] void fail_errno(const char* what) {
  throw Error(std::string(what) + ": " + std::strerror(errno));
}

// Events carry (generation, fd) so a stale event for a recycled fd number is
// recognisable; see Handler::gen.
std::uint64_t pack_key(std::uint32_t gen, int fd) {
  return (static_cast<std::uint64_t>(gen) << 32) | static_cast<std::uint32_t>(fd);
}

int key_fd(std::uint64_t key) { return static_cast<int>(key & 0xffffffffULL); }
std::uint32_t key_gen(std::uint64_t key) { return static_cast<std::uint32_t>(key >> 32); }

constexpr int kMaxEvents = 64;  // events harvested per epoll_wait

class EpollEventLoop final : public EventLoop {
 public:
  EpollEventLoop() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) fail_errno("epoll_create1");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = pack_key(/*gen=*/0, wake_fd_);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
      const int saved = errno;
      ::close(epoll_fd_);
      errno = saved;
      fail_errno("epoll_ctl(wakeup)");
    }
    dirty_.reserve(kMaxEvents);  // sized up front: the serving path never grows it
  }

  ~EpollEventLoop() override {
    handlers_.clear();
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  const char* backend_name() const override { return "epoll"; }

  // --- readiness API --------------------------------------------------------

  void add_fd(int fd, std::uint32_t events, FdCallback callback) override {
    auto handler = std::make_shared<Handler>();
    handler->events = events;
    handler->gen = next_gen();
    handler->callback = std::move(callback);
    if (!ctl(EPOLL_CTL_ADD, fd, *handler)) fail_errno("epoll_ctl(add)");
    handlers_[fd] = std::move(handler);
    fd_count_.fetch_add(1, std::memory_order_relaxed);
  }

  void mod_fd(int fd, std::uint32_t events) override {
    const auto it = handlers_.find(fd);
    if (it == handlers_.end() || it->second->events == events) return;
    const std::uint32_t old = std::exchange(it->second->events, events);
    if (!ctl(EPOLL_CTL_MOD, fd, *it->second)) {
      it->second->events = old;
      fail_errno("epoll_ctl(mod)");
    }
  }

  void del_fd(int fd) override {
    const auto it = handlers_.find(fd);
    if (it != handlers_.end() && it->second->callback) {
      fd_count_.fetch_sub(1, std::memory_order_relaxed);
    }
    cancel_fd(fd);
  }

  // --- completion ops -------------------------------------------------------

  void submit_recv(int fd, void* buf, std::size_t len, IoCallback cb,
                   std::shared_ptr<void> owner) override {
    Handler& h = op_handler(fd);
    h.recv_buf = buf;
    h.recv_len = len;
    arm(h.recv, std::move(cb), std::move(owner));
    mark_dirty(fd, h);
  }

  void submit_sendmsg(int fd, const msghdr* msg, IoCallback cb,
                      std::shared_ptr<void> owner) override {
    Handler& h = op_handler(fd);
    h.send_msg = msg;
    arm(h.send, std::move(cb), std::move(owner));
    // Sent inline: the result waits for settle(). Blocked: EPOLLOUT retries.
    h.send.done = try_send(fd, h);
    mark_dirty(fd, h);
  }

  void submit_accept(int listen_fd, AcceptCallback cb) override {
    Handler& h = op_handler(listen_fd);
    h.accept_cb = std::move(cb);
    mark_dirty(listen_fd, h);
  }

  void cancel_fd(int fd) override {
    const auto it = handlers_.find(fd);
    if (it == handlers_.end()) return;
    // Erasing the entry is the cancel: queued events and waiting results for
    // this (generation, fd) no longer find it. Callbacks and owners release
    // with the last reference to the handler.
    const std::shared_ptr<Handler> handler = std::move(it->second);
    handlers_.erase(it);
    handler->live = false;
    // The fd may already be closed (kernel removed it from the set); ignore.
    if (handler->callback || handler->events != 0) ctl(EPOLL_CTL_DEL, fd, *handler);
  }

  void run() override {
    mark_loop_thread();
    epoll_event events[kMaxEvents];
    while (!stopping()) {
      drain_tasks();
      fire_due_timers();
      settle();
      if (stopping()) break;
      // arm_sleep() false means tasks/stop raced in after the drain: poll
      // with a zero timeout instead of blocking past them. Timeouts round
      // up: waking before the next timer is due would only spin until it is.
      int timeout = 0;
      if (arm_sleep()) {
        const auto next = time_to_next_timer();
        timeout = next ? static_cast<int>(
                             std::chrono::ceil<std::chrono::milliseconds>(*next).count())
                       : -1;
      }
      sys::count(sys::Op::kWait);
      const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
      disarm_sleep();
      if (n < 0) {
        if (errno == EINTR) continue;
        fail_errno("epoll_wait");
      }
      for (int i = 0; i < n; ++i) dispatch(events[i].data.u64, events[i].events);
    }
    // Final drain: tasks queued alongside the stop (e.g. a close-all) run;
    // anything posted later is destroyed by the destructor instead.
    drain_tasks();
    clear_loop_thread();
  }

 private:
  // One submitted op whose callback has not run yet.
  struct Io {
    IoCallback cb;
    std::shared_ptr<void> owner;
    bool pending = false;
    bool done = false;  // result in `res`, delivered by settle()
    int res = 0;
  };

  struct Handler {
    // Registration generation, stamped into epoll_data alongside the fd.
    std::uint32_t gen = 0;
    // Mask registered with epoll; for op fds 0 means "not in the set".
    std::uint32_t events = 0;
    bool live = true;    // false once cancel_fd dropped it
    bool dirty = false;  // queued in dirty_ for settle()
    FdCallback callback;  // add_fd registrations only
    Io recv;
    void* recv_buf = nullptr;
    std::size_t recv_len = 0;
    Io send;
    const msghdr* send_msg = nullptr;
    AcceptCallback accept_cb;
    bool accept_parked = false;  // descriptor-exhaustion backoff
  };

  // Register h.events for fd under h's generation key.
  bool ctl(int op, int fd, const Handler& h) {
    epoll_event ev{};
    ev.events = h.events;
    ev.data.u64 = pack_key(h.gen, fd);
    sys::count(sys::Op::kCtl);
    return ::epoll_ctl(epoll_fd_, op, fd, &ev) == 0;
  }

  std::uint32_t next_gen() {
    const std::uint32_t gen = next_gen_++;
    if (next_gen_ == 0) next_gen_ = 1;  // keep 0 reserved for the wakeup fd
    return gen;
  }

  Handler& op_handler(int fd) {
    std::shared_ptr<Handler>& slot = handlers_[fd];
    if (!slot) {
      slot = std::make_shared<Handler>();
      slot->gen = next_gen();
    }
    return *slot;
  }

  static void arm(Io& io, IoCallback cb, std::shared_ptr<void> owner) {
    io.cb = std::move(cb);
    io.owner = std::move(owner);
    io.pending = true;
    io.done = false;
  }

  void mark_dirty(int fd, Handler& h) {
    if (h.dirty) return;
    h.dirty = true;
    dirty_.push_back(fd);
  }

  // Run the op's callback. The owner is released only after it returns, so
  // the buffers it guards outlive the call.
  static void deliver(Io& io) {
    const IoCallback cb = std::move(io.cb);
    const std::shared_ptr<void> owner = std::move(io.owner);
    io.pending = false;
    io.done = false;
    try {
      cb(io.res);
    } catch (const std::exception& e) {
      log_error("net.loop") << "completion callback threw: " << e.what();
    }
  }

  // Before sleeping: deliver the results that wait on dirty fds (inline
  // sends, failed registrations), then bring each one's registration in
  // line with its pending ops. Fds dirtied by those callbacks settle in the
  // same pass.
  void settle() {
    for (std::size_t i = 0; i < dirty_.size(); ++i) {
      const int fd = dirty_[i];
      const auto it = handlers_.find(fd);
      if (it == handlers_.end() || !it->second->dirty) continue;
      const std::shared_ptr<Handler> handler = it->second;
      Handler& h = *handler;
      h.dirty = false;
      if (h.send.done) deliver(h.send);
      if (h.live && h.recv.done) deliver(h.recv);
      if (!h.live || h.dirty) continue;  // cancelled, or queued again
      std::uint32_t want = 0;
      if ((h.recv.pending && !h.recv.done) || (h.accept_cb && !h.accept_parked)) want |= EPOLLIN;
      if (h.send.pending && !h.send.done) want |= EPOLLOUT;
      if (want == h.events) continue;
      const int op = h.events == 0 ? EPOLL_CTL_ADD : want == 0 ? EPOLL_CTL_DEL : EPOLL_CTL_MOD;
      const std::uint32_t old = std::exchange(h.events, want);
      if (ctl(op, fd, h)) continue;
      // The ops waiting on this registration fail instead of hanging.
      const int err = errno;
      h.events = old;
      log_error("net.loop") << "epoll_ctl on fd " << fd << ": " << std::strerror(err);
      h.accept_cb = nullptr;
      for (Io* io : {&h.recv, &h.send}) {
        io->done = io->pending;
        io->res = -err;
      }
      mark_dirty(fd, h);
    }
    dirty_.clear();
  }

  void dispatch(std::uint64_t key, std::uint32_t events) {
    const int fd = key_fd(key);
    if (fd == wake_fd_) {
      std::uint64_t counter;
      sys::count(sys::Op::kRead);
      while (::read(wake_fd_, &counter, sizeof counter) > 0) {
      }
      return;
    }
    const auto it = handlers_.find(fd);
    if (it == handlers_.end()) return;  // removed by an earlier callback
    // Generation mismatch: the fd closed during this batch and its number
    // was reused by a new registration (e.g. an accept in the same batch).
    // The queued event belongs to the dead registration; drop it.
    if (it->second->gen != key_gen(key)) return;
    // Keep the handler alive across callbacks: they may cancel or deregister
    // its fd (closing a connection closes its own registration).
    const std::shared_ptr<Handler> handler = it->second;
    Handler& h = *handler;
    if (h.callback) {
      try {
        h.callback(events);
      } catch (const std::exception& e) {
        log_error("net.loop") << "fd callback threw: " << e.what();
      }
      return;
    }
    if (h.accept_cb) {
      accept_ready(fd, h);
      return;
    }
    if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0 && h.recv.pending) {
      sys::count(sys::Op::kRead);
      const ssize_t n = ::recv(fd, h.recv_buf, h.recv_len, MSG_DONTWAIT);
      // Spurious wakeup: the op stays parked and level-triggered epoll
      // re-reports the fd once data arrives.
      if (n >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
        h.recv.res = n >= 0 ? static_cast<int>(n) : -errno;
        mark_dirty(fd, h);
        deliver(h.recv);
      }
    }
    if (h.live && (events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0 && h.send.pending &&
        !h.send.done && try_send(fd, h)) {
      mark_dirty(fd, h);
      deliver(h.send);
    }
  }

  // One sendmsg attempt; false when the socket would block, else the result
  // (bytes or -errno) is in h.send.res.
  static bool try_send(int fd, Handler& h) {
    while (true) {
      sys::count(sys::Op::kWrite);
      const ssize_t n = ::sendmsg(fd, h.send_msg, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      h.send.res = n >= 0 ? static_cast<int>(n) : -errno;
      return true;
    }
  }

  void accept_ready(int fd, Handler& h) {
    while (h.live && h.accept_cb && !h.accept_parked) {
      sys::count(sys::Op::kAccept);
      const int client = ::accept4(fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (client >= 0) {
        try {
          h.accept_cb(client);
        } catch (const std::exception& e) {
          log_error("net.loop") << "accept callback threw: " << e.what();
        }
        continue;
      }
      const int err = errno;
      if (err == EINTR || err == ECONNABORTED) continue;
      if (err == EAGAIN || err == EWOULDBLOCK) return;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
        // The listener stays readable while the connection waits, so a
        // retry now would spin until descriptors free: park it instead.
        log_warn("net.loop") << "accept: " << std::strerror(err) << "; pausing the listener for "
                             << kAcceptRearmBackoff.count() << " ms";
        h.accept_parked = true;
        const std::uint64_t key = pack_key(h.gen, fd);
        add_timer(std::chrono::steady_clock::now() + kAcceptRearmBackoff, [this, key] {
          const auto it = handlers_.find(key_fd(key));
          if (it == handlers_.end() || it->second->gen != key_gen(key)) return;
          it->second->accept_parked = false;
          mark_dirty(key_fd(key), *it->second);
        });
      } else {
        log_error("net.loop") << "accept on fd " << fd << ": " << std::strerror(err)
                              << "; listener dropped";
        h.accept_cb = nullptr;
      }
      mark_dirty(fd, h);
      return;
    }
  }

  int epoll_fd_ = -1;
  std::unordered_map<int, std::shared_ptr<Handler>> handlers_;
  std::vector<int> dirty_;
  std::uint32_t next_gen_ = 1;  // 0 is reserved for the wakeup fd
};

}  // namespace

std::unique_ptr<EventLoop> make_epoll_event_loop() {
  return std::make_unique<EpollEventLoop>();
}

}  // namespace appx::net
