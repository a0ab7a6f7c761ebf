// In-process syscall accounting for the serving data plane (DESIGN.md §5l).
//
// Every syscall the network runtime issues on its own behalf — reactor waits,
// interest-set updates, socket reads/writes (origin exchanges included),
// accepts, loop wakeups, io_uring_enter/register — passes through count() at
// the call site. The
// counters are process-wide relaxed atomics: recording costs one uncontended
// add, works identically under sanitizers and in CI containers where ptrace
// is blocked, and is deterministic (a ptrace/strace self-fork also counts the
// tracer's own noise and is forbidden in many sandboxes). Deliberately NOT
// counted: blocking client sockets (TcpStream I/O in tests and benches — not
// the serving path), the connect() opening an upstream connection, and futex
// traffic from mutex/condvar scheduling, which both backends pay equally.
//
// bench_syscalls drives the warm-hit path through a live proxy, diffs
// snapshot() across a measured window, and gates syscalls/request against
// bench/syscall_budget.json the same way bench_alloc gates allocations.
#pragma once

#include <atomic>
#include <cstdint>

namespace appx::net::sys {

// One bucket per syscall family on the serving path.
enum class Op : unsigned {
  kWait = 0,   // epoll_wait
  kCtl,        // epoll_ctl (add/mod/del)
  kRead,       // recv/read on a loop-owned socket (+ wakeup-eventfd drains)
  kWrite,      // sendmsg on a loop-owned socket
  kAccept,     // accept4
  kWake,       // eventfd write from post()/stop()
  kEnter,      // io_uring_enter
  kRegister,   // io_uring_register (file-table updates)
  kOpCount
};

namespace detail {
inline std::atomic<std::uint64_t> counters[static_cast<unsigned>(Op::kOpCount)];
}

inline void count(Op op) {
  detail::counters[static_cast<unsigned>(op)].fetch_add(1, std::memory_order_relaxed);
}

struct Counters {
  std::uint64_t wait = 0;
  std::uint64_t ctl = 0;
  std::uint64_t read = 0;
  std::uint64_t write = 0;
  std::uint64_t accept = 0;
  std::uint64_t wake = 0;
  std::uint64_t enter = 0;
  std::uint64_t reg = 0;

  std::uint64_t total() const { return wait + ctl + read + write + accept + wake + enter + reg; }

  Counters operator-(const Counters& other) const {
    Counters d;
    d.wait = wait - other.wait;
    d.ctl = ctl - other.ctl;
    d.read = read - other.read;
    d.write = write - other.write;
    d.accept = accept - other.accept;
    d.wake = wake - other.wake;
    d.enter = enter - other.enter;
    d.reg = reg - other.reg;
    return d;
  }
};

inline Counters snapshot() {
  const auto load = [](Op op) {
    return detail::counters[static_cast<unsigned>(op)].load(std::memory_order_relaxed);
  };
  Counters c;
  c.wait = load(Op::kWait);
  c.ctl = load(Op::kCtl);
  c.read = load(Op::kRead);
  c.write = load(Op::kWrite);
  c.accept = load(Op::kAccept);
  c.wake = load(Op::kWake);
  c.enter = load(Op::kEnter);
  c.reg = load(Op::kRegister);
  return c;
}

}  // namespace appx::net::sys
