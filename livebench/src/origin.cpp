// `livebench origin`: the benchmark's own origin process.
//
// Serves apps::OriginServer content over HTTP/1.1 keep-alive on one epoll
// loop. With --delay-scale X > 0 each response is held back by X times the
// paper's Table 2 RTT of the request's host plus the endpoint's server
// processing delay, on a loop timer (no thread sleeps). Responses on one
// connection leave in request order. Counts requests, response bytes, TCP accepts and
// peak concurrent requests; with --spans it writes one origin.serve span per
// request at exit.
//
//   livebench origin --app wish --delay-scale X [--corrupt K] [--spans F]
//
// Prints "READY <port>" once listening; serves until stdin reaches EOF, then
// prints one JSON line of counters.
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "apps/server.hpp"
#include "common.hpp"
#include "net/event_loop.hpp"
#include "net/http_io.hpp"
#include "net/socket.hpp"

namespace livebench {

using namespace appx;

namespace {

struct Span {
  std::int64_t t0, t1;
};

// Loop-thread state; main reads it only after joining the loop thread.
struct Shared {
  const apps::AppSpec* spec;
  apps::OriginServer* origin;
  double delay_scale = 0;  // of the WAN delay; 0 answers inline
  std::int64_t corrupt = 0;  // 1-based index of the body to corrupt; 0 = none
  std::vector<Span>* spans = nullptr;  // recorded when --spans is given
  std::int64_t requests = 0, bytes = 0, accepts = 0, inflight = 0, max_inflight = 0;
  std::int64_t bodies = 0;  // non-empty bodies served (corruption counter)
};

class OriginConn : public std::enable_shared_from_this<OriginConn> {
 public:
  OriginConn(net::EventLoop* loop, net::TcpStream stream, Shared* shared)
      : loop_(loop), stream_(std::move(stream)), shared_(shared) {}

  void start() {
    loop_->add_fd(stream_.fd(), EPOLLIN,
                  [self = shared_from_this()](std::uint32_t ev) { self->on_events(ev); });
  }

  void close() {
    if (closed_) return;
    closed_ = true;
    loop_->del_fd(stream_.fd());
    stream_ = net::TcpStream(net::Fd{});
  }

 private:
  struct Pending {
    bool ready = false;
    std::string bytes;
  };

  void on_events(std::uint32_t ev) {
    if (closed_) return;
    if ((ev & EPOLLERR) != 0) {
      close();
      return;
    }
    if ((ev & (EPOLLIN | EPOLLHUP)) != 0) read_all();
    if (!closed_ && (ev & EPOLLOUT) != 0) flush();
  }

  void read_all() {
    char buf[16 * 1024];
    while (!closed_) {
      const ssize_t n = ::recv(stream_.fd(), buf, sizeof buf, 0);
      if (n > 0) {
        parser_.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        close();
        return;
      }
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        close();
        return;
      }
      break;
    }
    while (!closed_) {
      std::optional<std::string_view> message;
      try {
        message = parser_.next_message();
      } catch (const std::exception&) {
        close();
        return;
      }
      if (!message) break;
      http::Request request;
      try {
        request = http::Request::parse(*message);
      } catch (const std::exception&) {
        close();
        return;
      }
      serve(request);
    }
  }

  void serve(const http::Request& request) {
    const std::int64_t t0 = mono_us();
    Shared& st = *shared_;
    ++st.requests;
    st.max_inflight = std::max(st.max_inflight, ++st.inflight);
    http::Response response = st.origin->serve(request);
    if (!response.body.empty()) {
      if (++st.bodies == st.corrupt) {
        std::string body(response.body.view());
        body[body.size() / 2] ^= 0x20;
        response.body = body;
      }
    }
    auto pending = std::make_shared<Pending>();
    pending->bytes = response.serialize();
    st.bytes += static_cast<std::int64_t>(pending->bytes.size()) + response.opaque_payload;
    queue_.push_back(pending);
    const auto delay = static_cast<Duration>(
        st.delay_scale * static_cast<double>(st.spec->rtt_for_host(request.uri.host) +
                                             st.origin->proc_delay(request)));
    const auto done = [this, pending, t0] {
      pending->ready = true;
      --shared_->inflight;
      if (shared_->spans != nullptr) shared_->spans->push_back({t0, mono_us()});
      flush();
    };
    if (delay <= 0) {
      done();
    } else {
      loop_->add_timer(std::chrono::steady_clock::now() + std::chrono::microseconds(delay),
                       [self = shared_from_this(), done] { done(); });
    }
  }

  void flush() {
    if (closed_) return;
    while (!queue_.empty() && queue_.front()->ready) {
      out_.append(queue_.front()->bytes);
      queue_.pop_front();
    }
    while (out_off_ < out_.size()) {
      const ssize_t n = ::send(stream_.fd(), out_.data() + out_off_, out_.size() - out_off_,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close();
        return;
      }
      out_off_ += static_cast<std::size_t>(n);
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    }
    const bool want_out = out_off_ < out_.size();
    if (want_out != watching_out_) {
      watching_out_ = want_out;
      loop_->mod_fd(stream_.fd(), EPOLLIN | (want_out ? EPOLLOUT : 0U));
    }
  }

  net::EventLoop* loop_;
  net::TcpStream stream_;
  Shared* shared_;
  net::HttpParser parser_;
  std::deque<std::shared_ptr<Pending>> queue_;
  std::string out_;
  std::size_t out_off_ = 0;
  bool watching_out_ = false;
  bool closed_ = false;
};

}  // namespace

int run_origin(const Args& args) {
  const apps::AppSpec spec = make_app(args.str("app", "wish"));
  apps::OriginServer origin(&spec);
  const std::string spans_path = args.str("spans");
  std::vector<Span> spans;
  Shared shared;
  shared.spec = &spec;
  shared.origin = &origin;
  shared.delay_scale = args.real("delay-scale", 0);
  shared.corrupt = args.num("corrupt", 0);
  if (!spans_path.empty()) shared.spans = &spans;

  const std::unique_ptr<net::EventLoop> loop = net::make_epoll_event_loop();
  net::TcpListener listener(0);
  listener.set_nonblocking();
  std::vector<std::shared_ptr<OriginConn>> conns;  // loop-thread only
  std::thread thread([&] {
    loop->add_fd(listener.fd(), EPOLLIN, [&](std::uint32_t) {
      while (true) {
        net::TcpStream stream = listener.accept_nonblocking();
        if (!stream.valid()) return;
        ++shared.accepts;
        conns.push_back(std::make_shared<OriginConn>(loop.get(), std::move(stream), &shared));
        conns.back()->start();
      }
    });
    loop->run();
    for (auto& conn : conns) conn->close();
    loop->del_fd(listener.fd());
  });

  std::printf("READY %u\n", static_cast<unsigned>(listener.port()));
  std::fflush(stdout);
  char byte;
  while (::read(STDIN_FILENO, &byte, 1) > 0) {
  }
  loop->stop();
  thread.join();

  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    for (const Span& s : spans) out << s.t0 << '\t' << s.t1 << '\n';
  }
  std::printf("{\"requests\": %lld, \"bytes\": %lld, \"accepts\": %lld, \"max_inflight\": %lld}\n",
              static_cast<long long>(shared.requests), static_cast<long long>(shared.bytes),
              static_cast<long long>(shared.accepts),
              static_cast<long long>(shared.max_inflight));
  return 0;
}

}  // namespace livebench
