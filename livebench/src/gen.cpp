// `livebench gen`: the load generator.
//
// Replays recorded user sessions (common.hpp) against the proxy, one client
// connection per user, on two epoll loops. The proxy serves one request at a
// time per connection, so it sees each user's requests in order; users are
// identified by X-Appx-User, the only header the generator adds.
//
// Timing. Interaction starts follow the trace schedule (open loop): a user's
// interaction starts at its scheduled time whatever the proxy is doing.
// Inside an interaction each wave is sent once the previous wave's responses
// have all arrived plus the client's recorded gap (closed chain: the app
// waits). Request latency runs from the request's intended send time;
// interaction latency from the interaction's intended start to the last
// response of its last wave.
//
// Windows. The users start over the warm-up; the reference window follows.
// Every response is checked against the origin model's answer recorded for
// it: status, body length and digest, opaque payload size. A cache hit gets
// no exemption.
//
//   livebench gen --app wish --seed S --port P --dilation 1 --warmup 2
//                 --ref-seconds 10 --users 4 [--spans F]
//   livebench gen --app wish --seed S --users 4 ... --digest 1
//
// Prints "START <epoch_us>" when the schedule's clock starts, then one JSON
// line of per-window results.
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "net/event_loop.hpp"
#include "net/http_io.hpp"
#include "net/rlimit.hpp"
#include "net/socket.hpp"

namespace livebench {

using namespace appx;

namespace {

constexpr std::string_view kHitHeader = "X-Appx-Cache: hit";
constexpr std::size_t kThreads = 2;
// After the schedule ends, responses still owed are awaited this long.
constexpr std::int64_t kGraceUs = 10'000'000;
// Latency percentiles are also reported per sub-window of about this length.
constexpr double kSubWindowSeconds = 0.5;

struct Sample {
  std::int64_t at;  // schedule clock
  double ms;
};

// Results for one time window of the schedule, kept per loop thread and
// merged at the end. Requests are attributed by intended send time,
// interactions by intended start.
struct Window {
  std::string name;
  std::int64_t start_us = 0, end_us = 0;
  std::size_t users = 0;
  std::int64_t sent = 0, completed = 0, hits = 0;
  std::int64_t fail_5xx = 0, fail_mismatch = 0, fail_reset = 0, fail_unanswered = 0;
  std::int64_t bytes = 0;  // response bytes delivered, opaque payloads included
  std::vector<Sample> req, interaction;  // by intended send time / intended start
  std::vector<double> hit_ms, lag_ms;

  Window(std::string window_name, std::int64_t start, std::int64_t end, std::size_t user_count)
      : name(std::move(window_name)), start_us(start), end_us(end), users(user_count) {}

  void merge(const Window& o) {
    sent += o.sent;
    completed += o.completed;
    hits += o.hits;
    fail_5xx += o.fail_5xx;
    fail_mismatch += o.fail_mismatch;
    fail_reset += o.fail_reset;
    fail_unanswered += o.fail_unanswered;
    bytes += o.bytes;
    req.insert(req.end(), o.req.begin(), o.req.end());
    interaction.insert(interaction.end(), o.interaction.begin(), o.interaction.end());
    hit_ms.insert(hit_ms.end(), o.hit_ms.begin(), o.hit_ms.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
  }
};

struct RequestRecord {  // one per completed request, for --spans
  std::size_t user;
  std::uint32_t seq;
  std::int64_t intended, sent, received;
  bool hit;
};

struct Schedule {
  std::int64_t epoch = 0;  // mono_us of t = 0
  std::int64_t end_us = 0;  // no interaction or wave starts at or after this
  std::vector<Window> windows;
  int window_of(std::int64_t t) const {
    for (std::size_t i = 0; i < windows.size(); ++i) {
      if (t >= windows[i].start_us && t < windows[i].end_us) return static_cast<int>(i);
    }
    return -1;
  }
};

class Connection;

struct LoopState {
  std::unique_ptr<net::EventLoop> loop;
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<Window> windows;
  std::vector<RequestRecord> records;
  bool keep_records = false;
  std::thread thread;
};

struct UserState {
  std::size_t index = 0;
  const UserStream* stream = nullptr;
  std::int64_t start_us = 0;  // session start on the schedule clock
  std::string header;         // "X-Appx-User: <name>\r\n"
  std::uint32_t next_seq = 0;
};

struct Run {  // one interaction in progress
  UserState* user;
  const RecordedInteraction* interaction;
  std::int64_t start_us;  // intended start, schedule clock
  std::size_t wave = 0;
  std::size_t outstanding = 0;
  bool failed = false;
};

struct Outstanding {
  std::shared_ptr<Run> run;
  const RecordedRequest* request;
  std::uint32_t seq;
  std::int64_t intended_us, sent_us;  // schedule clock
};

class Connection : public std::enable_shared_from_this<Connection> {
 public:
  Connection(LoopState* loop, Schedule* schedule, std::uint16_t port, UserState* user)
      : ls_(loop), schedule_(schedule), port_(port), user_(user) {}

  void start() {
    stream_ = net::TcpStream::connect("127.0.0.1", port_, seconds(5));
    stream_.set_nonblocking();
    ls_->loop->add_fd(stream_.fd(), EPOLLIN,
                      [self = shared_from_this()](std::uint32_t ev) { self->on_events(ev); });
    for (const RecordedInteraction& it : user_->stream->interactions) {
      const std::int64_t at = user_->start_us + it.start_us;
      if (at >= schedule_->end_us) break;
      at_clock(at, [self = shared_from_this(), it = &it, at] { self->begin_interaction(it, at); });
    }
  }

  std::int64_t outstanding() const { return static_cast<std::int64_t>(fifo_.size()); }

  // End of run: whatever is still owed counts as unanswered.
  void abandon() {
    for (const Outstanding& o : fifo_) fail(o, &Window::fail_unanswered);
    fifo_.clear();
    if (!closed_) {
      closed_ = true;
      ls_->loop->del_fd(stream_.fd());
      stream_ = net::TcpStream(net::Fd{});
    }
  }

 private:
  std::int64_t now() const { return mono_us() - schedule_->epoch; }

  void at_clock(std::int64_t t, net::EventLoop::Task task) {
    ls_->loop->add_timer(std::chrono::steady_clock::time_point(
                             std::chrono::microseconds(schedule_->epoch + t)),
                         std::move(task));
  }

  Window* window_at(std::int64_t t) {
    const int w = schedule_->window_of(t);
    return w < 0 ? nullptr : &ls_->windows[static_cast<std::size_t>(w)];
  }

  void begin_interaction(const RecordedInteraction* it, std::int64_t start) {
    if (closed_) return;
    auto run = std::make_shared<Run>(Run{user_, it, start});
    schedule_wave(run, start + it->waves.front().gap_us);
  }

  void schedule_wave(const std::shared_ptr<Run>& run, std::int64_t intended) {
    if (intended >= schedule_->end_us) return;
    if (intended <= now()) {
      send_wave(run, intended);
      return;
    }
    at_clock(intended, [self = shared_from_this(), run, intended] {
      self->send_wave(run, intended);
    });
  }

  void send_wave(const std::shared_ptr<Run>& run, std::int64_t intended) {
    if (closed_) return;
    const std::int64_t t = now();
    if (Window* w = window_at(intended)) {
      w->lag_ms.push_back(static_cast<double>(std::max<std::int64_t>(0, t - intended)) / 1000.0);
    }
    const RecordedWave& wave = run->interaction->waves[run->wave];
    run->outstanding = wave.requests.size();
    for (const RecordedRequest& r : wave.requests) {
      out_.append(r.pre);
      out_.append(run->user->header);
      out_.append(r.post);
      fifo_.push_back({run, &r, run->user->next_seq++, intended, t});
      if (Window* w = window_at(intended)) ++w->sent;
    }
    flush();
  }

  void on_events(std::uint32_t ev) {
    if (closed_) return;
    if ((ev & EPOLLERR) != 0) {
      reset();
      return;
    }
    if ((ev & (EPOLLIN | EPOLLHUP)) != 0) read_all();
    if (!closed_ && (ev & EPOLLOUT) != 0) flush();
  }

  void flush() {
    while (out_off_ < out_.size()) {
      const ssize_t n = ::send(stream_.fd(), out_.data() + out_off_, out_.size() - out_off_,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        reset();
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
      ls_->loop->mod_fd(stream_.fd(), EPOLLIN | (want_out ? EPOLLOUT : 0U));
    }
  }

  void read_all() {
    char buf[64 * 1024];
    while (!closed_) {
      const ssize_t n = ::recv(stream_.fd(), buf, sizeof buf, 0);
      if (n > 0) {
        parser_.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        reset();
        return;
      }
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        reset();
        return;
      }
      break;
    }
    while (!closed_) {
      std::optional<std::string_view> message;
      try {
        message = parser_.next_message();
      } catch (const std::exception&) {
        reset();
        return;
      }
      if (!message) return;
      if (fifo_.empty()) {
        reset();
        return;
      }
      Outstanding o = std::move(fifo_.front());
      fifo_.pop_front();
      on_response(o, *message);
    }
  }

  // The connection broke: every request still owed on it fails.
  void reset() {
    for (const Outstanding& o : fifo_) fail(o, &Window::fail_reset);
    fifo_.clear();
    if (!closed_) {
      closed_ = true;
      ls_->loop->del_fd(stream_.fd());
      stream_ = net::TcpStream(net::Fd{});
    }
  }

  void fail(const Outstanding& o, std::int64_t Window::*counter) {
    o.run->failed = true;
    if (Window* w = window_at(o.intended_us)) ++(w->*counter);
  }

  void on_response(const Outstanding& o, std::string_view message) {
    const std::int64_t t = now();
    http::Response response;
    bool parsed = true;
    try {
      response = http::Response::parse(message);
    } catch (const std::exception&) {
      parsed = false;
    }
    const std::size_t head_end = message.find("\r\n\r\n");
    const std::string_view head = message.substr(0, head_end);
    const bool hit = head.find(kHitHeader) != std::string_view::npos;
    const Expected& want = o.request->expected;
    const Expected got = parsed ? expected_of(response) : Expected{};
    Window* w = window_at(o.intended_us);
    if (!parsed || got.status != want.status || got.body_len != want.body_len ||
        got.body_digest != want.body_digest || got.opaque != want.opaque) {
      fail(o, parsed && got.status >= 500 ? &Window::fail_5xx : &Window::fail_mismatch);
      if (!(parsed && got.status >= 500)) {
        std::fprintf(stderr,
                     "livebench gen: response mismatch for %s seq %u (%s): status %d/%d "
                     "len %llu/%llu opaque %llu/%llu\n",
                     o.run->user->stream->user.c_str(), o.seq, hit ? "hit" : "miss",
                     got.status, want.status, static_cast<unsigned long long>(got.body_len),
                     static_cast<unsigned long long>(want.body_len),
                     static_cast<unsigned long long>(got.opaque),
                     static_cast<unsigned long long>(want.opaque));
      }
    } else if (w != nullptr) {
      ++w->completed;
      w->bytes += static_cast<std::int64_t>(message.size() + got.opaque);
      const double ms = static_cast<double>(t - o.intended_us) / 1000.0;
      w->req.push_back({o.intended_us, ms});
      if (hit) {
        ++w->hits;
        w->hit_ms.push_back(ms);
      }
    }
    if (ls_->keep_records) {
      ls_->records.push_back({o.run->user->index, o.seq, schedule_->epoch + o.intended_us,
                              schedule_->epoch + o.sent_us, schedule_->epoch + t, hit});
    }
    const std::shared_ptr<Run>& run = o.run;
    if (--run->outstanding > 0) return;
    if (++run->wave < run->interaction->waves.size()) {
      schedule_wave(run, t + run->interaction->waves[run->wave].gap_us);
      return;
    }
    if (run->failed) return;
    if (Window* iw = window_at(run->start_us)) {
      iw->interaction.push_back({run->start_us, static_cast<double>(t - run->start_us) / 1000.0});
    }
  }

  LoopState* ls_;
  Schedule* schedule_;
  std::uint16_t port_;
  UserState* user_;
  net::TcpStream stream_{net::Fd{}};
  net::HttpParser parser_{net::ReaderLimits{64 * 1024, 64 * 1024 * 1024}};
  std::string out_;
  std::size_t out_off_ = 0;
  bool watching_out_ = false;
  bool closed_ = false;
  std::deque<Outstanding> fifo_;
};

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

std::vector<double> values(const std::vector<Sample>& samples, std::int64_t from,
                           std::int64_t to) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.at >= from && s.at < to) out.push_back(s.ms);
  }
  return out;
}

// Whole-window figures plus the same latency percentiles per sub-window of
// about kSubWindowSeconds, so a reader can take the median across sub-windows:
// a short stall on a shared host then moves one sub-window, not the result.
void print_window(Window& w, bool last) {
  const double seconds = static_cast<double>(w.end_us - w.start_us) / 1e6;
  std::vector<double> req = values(w.req, w.start_us, w.end_us);
  std::vector<double> inter = values(w.interaction, w.start_us, w.end_us);
  std::printf(
      "{\"name\": \"%s\", \"start_s\": %.3f, \"seconds\": %.3f, \"users\": %zu, "
      "\"sent\": %lld, \"completed\": %lld, \"hits\": %lld, \"fail_5xx\": %lld, "
      "\"fail_mismatch\": %lld, \"fail_reset\": %lld, \"fail_unanswered\": %lld, "
      "\"bytes\": %lld, "
      "\"req_n\": %zu, \"req_p50\": %.6f, \"req_p99\": %.6f, \"hit_n\": %zu, "
      "\"hit_p50\": %.6f, \"interaction_n\": %zu, \"interaction_p50\": %.6f, "
      "\"interaction_p90\": %.6f, \"lag_n\": %zu, \"lag_p99\": %.6f, "
      "\"sub\": [",
      w.name.c_str(), static_cast<double>(w.start_us) / 1e6, seconds, w.users,
      static_cast<long long>(w.sent), static_cast<long long>(w.completed),
      static_cast<long long>(w.hits), static_cast<long long>(w.fail_5xx),
      static_cast<long long>(w.fail_mismatch), static_cast<long long>(w.fail_reset),
      static_cast<long long>(w.fail_unanswered), static_cast<long long>(w.bytes), req.size(), percentile(req, 0.5), percentile(req, 0.99), w.hit_ms.size(),
      percentile(w.hit_ms, 0.5), inter.size(), percentile(inter, 0.5), percentile(inter, 0.9),
      w.lag_ms.size(), percentile(w.lag_ms, 0.99));
  const auto parts = static_cast<std::int64_t>(std::max(1.0, std::round(seconds / kSubWindowSeconds)));
  for (std::int64_t i = 0; i < parts; ++i) {
    const std::int64_t from = w.start_us + (w.end_us - w.start_us) * i / parts;
    const std::int64_t to = w.start_us + (w.end_us - w.start_us) * (i + 1) / parts;
    std::vector<double> sreq = values(w.req, from, to);
    std::vector<double> sint = values(w.interaction, from, to);
    std::printf("{\"req_n\": %zu, \"req_p50\": %.6f, \"req_p99\": %.6f, "
                "\"interaction_n\": %zu, \"interaction_p50\": %.6f, "
                "\"interaction_p90\": %.6f}%s",
                sreq.size(), percentile(sreq, 0.5), percentile(sreq, 0.99), sint.size(),
                percentile(sint, 0.5), percentile(sint, 0.9), i + 1 == parts ? "" : ", ");
  }
  std::printf("]}%s", last ? "" : ", ");
}

}  // namespace

int run_gen(const Args& args) {
  const apps::AppSpec spec = make_app(args.str("app", "wish"));
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const auto user_count = static_cast<std::size_t>(args.num("users", 4));
  const auto us = [](double s) { return static_cast<std::int64_t>(s * 1e6); };
  const std::int64_t warmup = us(args.real("warmup", 2));
  const std::int64_t ref = us(args.real("ref-seconds", 10));
  const double dilation = args.real("dilation", 1.0);

  // Window 0 is the warm-up, window 1 the reference window.
  Schedule schedule;
  schedule.windows.emplace_back("warmup", 0, warmup, user_count);
  schedule.windows.emplace_back("ref", warmup, warmup + ref, user_count);
  schedule.end_us = schedule.windows.back().end_us;

  // Session starts are spread over the warm-up.
  std::vector<std::int64_t> horizons(user_count);
  for (std::size_t i = 0; i < user_count; ++i) {
    const std::int64_t start = warmup * static_cast<std::int64_t>(i) /
                               static_cast<std::int64_t>(std::max<std::size_t>(1, user_count));
    horizons[i] = schedule.end_us - start;
  }

  const std::vector<UserStream> streams = record_streams(spec, seed, horizons, dilation);
  if (args.num("digest", 0) != 0) {
    std::size_t requests = 0;
    for (const UserStream& s : streams) {
      for (const RecordedInteraction& it : s.interactions) {
        for (const RecordedWave& w : it.waves) requests += w.requests.size();
      }
    }
    std::printf("{\"digest\": \"%016llx\", \"users\": %zu, \"requests\": %zu}\n",
                static_cast<unsigned long long>(stream_digest(streams)), streams.size(),
                requests);
    return 0;
  }

  std::vector<UserState> users(user_count);
  for (std::size_t i = 0; i < user_count; ++i) {
    users[i].index = i;
    users[i].stream = &streams[i];
    users[i].start_us = schedule.end_us - horizons[i];
    users[i].header = "X-Appx-User: " + streams[i].user + "\r\n";
  }

  const auto port = static_cast<std::uint16_t>(args.num("port", 0));
  const std::size_t thread_count = std::min(user_count, kThreads);
  const std::string spans_path = args.str("spans");
  if (const util::Error err = net::ensure_fd_capacity(user_count + 64)) {
    throw std::runtime_error(err.message());
  }

  std::vector<std::unique_ptr<LoopState>> loops;
  for (std::size_t t = 0; t < thread_count; ++t) {
    auto ls = std::make_unique<LoopState>();
    ls->loop = net::make_epoll_event_loop();
    ls->windows = schedule.windows;
    ls->keep_records = !spans_path.empty();
    loops.push_back(std::move(ls));
  }
  for (std::size_t i = 0; i < user_count; ++i) {
    LoopState* ls = loops[i % thread_count].get();
    ls->conns.push_back(std::make_shared<Connection>(ls, &schedule, port, &users[i]));
  }

  schedule.epoch = mono_us() + 200'000;  // connections open before t = 0
  std::printf("START %lld\n", static_cast<long long>(schedule.epoch));
  std::fflush(stdout);
  const double cpu0 = cpu_seconds();
  const std::int64_t wall0 = mono_us();

  for (auto& lp : loops) {
    LoopState* ls = lp.get();
    ls->thread = std::thread([ls, &schedule] {
      ls->loop->post([ls] {
        for (auto& conn : ls->conns) conn->start();
      });
      // Drain: after the schedule ends, wait for responses still owed, up
      // to the grace period.
      std::function<void()> check;
      const std::int64_t deadline = schedule.epoch + schedule.end_us + kGraceUs;
      check = [ls, &check, deadline] {
        std::int64_t owed = 0;
        for (auto& conn : ls->conns) owed += conn->outstanding();
        if (owed == 0 || mono_us() >= deadline) {
          for (auto& conn : ls->conns) conn->abandon();
          ls->loop->stop();
          return;
        }
        ls->loop->add_timer(std::chrono::steady_clock::now() + std::chrono::milliseconds(20),
                            check);
      };
      ls->loop->add_timer(std::chrono::steady_clock::time_point(std::chrono::microseconds(
                              schedule.epoch + schedule.end_us)),
                          [&check] { check(); });
      ls->loop->run();
    });
  }
  for (auto& ls : loops) ls->thread.join();
  const double cpu_share =
      (cpu_seconds() - cpu0) /
      (static_cast<double>(mono_us() - wall0) / 1e6 *
       static_cast<double>(std::max(1U, std::thread::hardware_concurrency())));

  std::vector<Window> windows = schedule.windows;
  for (auto& ls : loops) {
    for (std::size_t w = 0; w < windows.size(); ++w) windows[w].merge(ls->windows[w]);
  }
  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    for (auto& ls : loops) {
      for (const RequestRecord& r : ls->records) {
        out << streams[r.user].user << '\t' << r.seq << '\t' << r.intended << '\t' << r.sent
            << '\t' << r.received << '\t' << (r.hit ? 1 : 0) << '\n';
      }
    }
  }
  std::printf("{\"digest\": \"%016llx\", \"cpu_share\": %.6f, \"windows\": [",
              static_cast<unsigned long long>(stream_digest(streams)), cpu_share);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    print_window(windows[w], w + 1 == windows.size());
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace livebench
