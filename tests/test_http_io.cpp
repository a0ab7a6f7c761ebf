// Tests for HTTP/1.1 framing over TCP: pipelining, fragmentation, malformed
// framing, and clean EOF behaviour — exercised over real loopback sockets.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "net/http_io.hpp"
#include "util/error.hpp"

namespace appx::net {
namespace {

// A listener + connected client pair on loopback.
struct Pipe {
  Pipe() : listener(0) {
    std::thread connector([this] { client = TcpStream::connect("127.0.0.1", listener.port()); });
    server = listener.accept();
    connector.join();
  }
  TcpListener listener;
  TcpStream server{Fd{}};
  TcpStream client{Fd{}};
};

TEST(HttpIo, PipelinedRequestsAreSplitCorrectly) {
  Pipe pipe;
  http::Request a;
  a.method = "POST";
  a.uri = http::Uri::parse("https://h.example/a");
  a.body = "one";
  http::Request b;
  b.uri = http::Uri::parse("https://h.example/b?x=1");

  // Both requests in a single write (pipelining).
  pipe.client.write_all(a.serialize() + b.serialize());
  pipe.client.shutdown_write();

  HttpReader reader(&pipe.server);
  const auto first = reader.read_request();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->uri.path, "/a");
  EXPECT_EQ(first->body, "one");
  const auto second = reader.read_request();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->uri.path, "/b");
  EXPECT_EQ(second->uri.query_param("x").value(), "1");
  EXPECT_FALSE(reader.read_request().has_value());  // clean EOF
}

TEST(HttpIo, FragmentedMessageIsReassembled) {
  Pipe pipe;
  http::Response resp;
  resp.body = std::string(10000, 'z');
  const std::string wire = resp.serialize();

  std::thread writer([&] {
    // Dribble the bytes out in small chunks.
    for (std::size_t i = 0; i < wire.size(); i += 777) {
      pipe.client.write_all(std::string_view(wire).substr(i, 777));
    }
    pipe.client.shutdown_write();
  });
  HttpReader reader(&pipe.server);
  const auto received = reader.read_response();
  writer.join();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->body, resp.body);
}

TEST(HttpIo, EofMidMessageThrows) {
  Pipe pipe;
  pipe.client.write_all("POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort");
  pipe.client.shutdown_write();
  HttpReader reader(&pipe.server);
  EXPECT_THROW(reader.read_request(), ParseError);
}

TEST(HttpIo, BadContentLengthThrows) {
  Pipe pipe;
  pipe.client.write_all("POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
  pipe.client.shutdown_write();
  HttpReader reader(&pipe.server);
  EXPECT_THROW(reader.read_request(), ParseError);
}

TEST(HttpIo, MessageWithoutBodyNeedsNoContentLength) {
  Pipe pipe;
  pipe.client.write_all("GET /plain HTTP/1.1\r\nHost: h.example\r\n\r\n");
  pipe.client.shutdown_write();
  HttpReader reader(&pipe.server);
  const auto request = reader.read_request();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->uri.host, "h.example");
  EXPECT_TRUE(request->body.empty());
}

TEST(HttpIo, OversizedHeaderBlockIs431) {
  Pipe pipe;
  ReaderLimits limits;
  limits.max_head_bytes = 256;
  // An endless header stream: must be rejected once the bound is crossed,
  // not buffered forever.
  std::thread writer([&] {
    try {
      pipe.client.write_all("GET / HTTP/1.1\r\n");
      for (int i = 0; i < 64; ++i) {
        pipe.client.write_all("X-Padding-" + std::to_string(i) + ": " +
                              std::string(64, 'p') + "\r\n");
      }
      pipe.client.shutdown_write();
    } catch (const Error&) {
      // Reader may tear the connection down first.
    }
  });
  HttpReader reader(&pipe.server, limits);
  try {
    reader.read_request();
    FAIL() << "oversized head must throw";
  } catch (const MessageTooLargeError& e) {
    EXPECT_EQ(e.suggested_status(), 431);
  }
  pipe.server = TcpStream(Fd{});  // close our end so the writer unblocks
  writer.join();
}

TEST(HttpIo, OversizedDeclaredBodyIs413) {
  Pipe pipe;
  ReaderLimits limits;
  limits.max_body_bytes = 1024;
  // The declared length alone must reject the message: the reader never
  // tries to buffer the (possibly huge) body.
  pipe.client.write_all("POST /x HTTP/1.1\r\nContent-Length: 5000000\r\n\r\n");
  HttpReader reader(&pipe.server, limits);
  try {
    reader.read_request();
    FAIL() << "oversized body must throw";
  } catch (const MessageTooLargeError& e) {
    EXPECT_EQ(e.suggested_status(), 413);
  }
}

TEST(HttpIo, BodyAtTheLimitIsAccepted) {
  Pipe pipe;
  ReaderLimits limits;
  limits.max_body_bytes = 1024;
  http::Response resp;
  resp.body = std::string(1024, 'b');
  write_response(pipe.client, resp);
  HttpReader reader(&pipe.server, limits);
  const auto received = reader.read_response();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->body.size(), 1024u);
}

TEST(HttpIo, LongPipelinedBurstDrainsThroughCompaction) {
  Pipe pipe;
  // Enough pipelined messages to push the consumed-byte cursor past the
  // compaction threshold several times over.
  constexpr int kMessages = 600;
  std::thread writer([&] {
    for (int i = 0; i < kMessages; ++i) {
      http::Request req;
      req.method = "POST";
      req.uri = http::Uri::parse("https://h.example/msg");
      req.uri.add_query_param("i", std::to_string(i));
      req.body = std::string(256, 'q');
      write_request(pipe.client, req);
    }
    pipe.client.shutdown_write();
  });
  HttpReader reader(&pipe.server);
  int seen = 0;
  while (auto request = reader.read_request()) {
    EXPECT_EQ(request->uri.query_param("i").value(), std::to_string(seen));
    EXPECT_EQ(request->body.size(), 256u);
    ++seen;
  }
  writer.join();
  EXPECT_EQ(seen, kMessages);
}

TEST(HttpIo, ReadTimeoutOnSilentPeerThrows) {
  Pipe pipe;
  pipe.server.set_read_timeout(milliseconds(50));
  HttpReader reader(&pipe.server);
  // The client never writes: the read must give up instead of blocking
  // forever.
  EXPECT_THROW(reader.read_request(), TimeoutError);
}

TEST(HttpIo, DeadlineCapsSlowTrickle) {
  Pipe pipe;
  pipe.server.set_deadline(std::chrono::steady_clock::now() + std::chrono::milliseconds(100));
  std::thread writer([&] {
    try {
      // Trickle forever: each write renews a per-op timer, but the absolute
      // deadline still cuts the request off.
      for (int i = 0; i < 100; ++i) {
        pipe.client.write_all("X");
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    } catch (const Error&) {
    }
  });
  HttpReader reader(&pipe.server);
  EXPECT_THROW(reader.read_request(), TimeoutError);
  pipe.server = TcpStream(Fd{});
  writer.join();
}

TEST(HttpIo, RoundTripThroughRealSocketsPreservesEverything) {
  Pipe pipe;
  http::Request req;
  req.method = "POST";
  req.uri = http::Uri::parse("https://api.example/product/get?v=2");
  req.headers.set("Cookie", "abc=1; d=2");
  req.headers.add("X-Multi", "one");
  req.headers.add("X-Multi", "two");
  req.set_form_fields({{"cid", "0c99f"}, {"_cap[]", "2"}, {"_cap[]", "4"}});

  write_request(pipe.client, req);
  HttpReader reader(&pipe.server);
  const auto received = reader.read_request();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->method, "POST");
  EXPECT_EQ(received->uri.path, "/product/get");
  EXPECT_EQ(received->uri.query_param("v").value(), "2");
  EXPECT_EQ(received->headers.get_all("X-Multi").size(), 2u);
  EXPECT_EQ(received->form_fields(), req.form_fields());
  // The scheme is lost on the wire (origin-form) but the cache identity is
  // restored once the proxy normalises it.
  http::Request normalised = *received;
  normalised.uri.scheme = "https";
  EXPECT_EQ(normalised.cache_key(), req.cache_key());
}

// --- HttpParser (push API, as driven by the event loop) -----------------------

TEST(HttpParser, ByteByByteFeedYieldsTheMessageExactlyOnce) {
  http::Request req;
  req.method = "POST";
  req.uri = http::Uri::parse("https://h.example/x");
  req.body = "payload";
  const std::string wire = req.serialize();

  HttpParser parser;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    parser.append(wire.data() + i, 1);
    EXPECT_FALSE(parser.next_message().has_value()) << "complete at byte " << i;
  }
  parser.append(wire.data() + wire.size() - 1, 1);
  const auto message = parser.next_message();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(*message, wire);
  EXPECT_EQ(parser.pending_bytes(), 0u);
  EXPECT_FALSE(parser.next_message().has_value());
}

TEST(HttpParser, TwoMessagesInOneAppendPollInOrder) {
  http::Request a;
  a.uri = http::Uri::parse("https://h.example/first");
  a.body = "A";
  http::Request b;
  b.uri = http::Uri::parse("https://h.example/second");
  const std::string wire = a.serialize() + b.serialize();

  HttpParser parser;
  parser.append(wire.data(), wire.size());
  const auto first = parser.next_message();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(http::Request::parse(*first).uri.path, "/first");
  const auto second = parser.next_message();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(http::Request::parse(*second).uri.path, "/second");
  EXPECT_EQ(parser.pending_bytes(), 0u);
}

TEST(HttpParser, OversizedHeadThrowsBeforeTheTerminatorArrives) {
  // An endless header block must be rejected as soon as the head bound is
  // crossed — not only once (never) the blank line shows up; otherwise a
  // slow-loris peer could grow the buffer without limit.
  HttpParser parser(ReaderLimits{/*max_head_bytes=*/256, /*max_body_bytes=*/1024});
  const std::string start = "GET / HTTP/1.1\r\n";
  parser.append(start.data(), start.size());
  EXPECT_FALSE(parser.next_message().has_value());
  const std::string filler = "X-Pad: " + std::string(512, 'p') + "\r\n";  // no terminator yet
  parser.append(filler.data(), filler.size());
  EXPECT_THROW(
      {
        try {
          parser.next_message();
        } catch (const MessageTooLargeError& e) {
          EXPECT_EQ(e.suggested_status(), 431);
          throw;
        }
      },
      MessageTooLargeError);
}

TEST(HttpParser, ResetDropsBufferedPartialState) {
  HttpParser parser;
  const std::string partial = "POST /half HTTP/1.1\r\nContent-Length: 100\r\n";
  parser.append(partial.data(), partial.size());
  EXPECT_GT(parser.pending_bytes(), 0u);
  parser.reset();
  EXPECT_EQ(parser.pending_bytes(), 0u);
  // A fresh complete message parses cleanly after the reset.
  http::Request req;
  req.uri = http::Uri::parse("https://h.example/fresh");
  const std::string wire = req.serialize();
  parser.append(wire.data(), wire.size());
  const auto message = parser.next_message();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(http::Request::parse(*message).uri.path, "/fresh");
}

}  // namespace
}  // namespace appx::net
