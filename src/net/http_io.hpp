// HTTP/1.1 framing: Content-Length based message parsing and writing for the
// live proxy/origin servers.
//
// The framing core is HttpParser, a push-based incremental parser: callers
// append() whatever bytes the transport produced and poll next_message() for
// complete messages. It backs both front ends:
//
//   * the event loops feed it from recv completions — client connections
//     and origin exchanges alike (a connection's parser persists across
//     keep-alive messages, so the scratch buffer is reused instead of
//     reallocated per message), and
//   * HttpReader wraps it behind the original blocking pull API for clients,
//     tests and tools.
//
// next_message() returns a view into the parser's buffer (no per-message
// copy); the view stays valid until the next append()/next_message() call.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "http/message.hpp"
#include "net/socket.hpp"
#include "util/error.hpp"

namespace appx::net {

// A peer sent a message exceeding the reader's configured size bounds. The
// suggested status lets servers answer before closing: 431 (Request Header
// Fields Too Large) for an oversized head, 413 (Payload Too Large) for an
// oversized body.
class MessageTooLargeError : public ParseError {
 public:
  MessageTooLargeError(const std::string& what, int suggested_status)
      : ParseError(what), suggested_status_(suggested_status) {}
  int suggested_status() const { return suggested_status_; }

 private:
  int suggested_status_;
};

// Bounds on a single message accepted off the wire; 0 = unlimited. Without
// them a misbehaving peer could grow the connection buffer without bound by
// streaming an endless header block or declaring a huge Content-Length.
struct ReaderLimits {
  std::size_t max_head_bytes = 64 * 1024;
  std::size_t max_body_bytes = 8 * 1024 * 1024;
};

// Incremental HTTP/1.1 message framer for one connection. Handles pipelined
// messages by tracking a consumed-offset cursor compacted periodically, so
// draining a large pipelined burst costs O(bytes) instead of O(bytes^2), and
// one buffer serves every keep-alive message on the connection.
class HttpParser {
 public:
  explicit HttpParser(ReaderLimits limits = {}) : limits_(limits) {}

  // Feed bytes read off the wire. Invalidates the last next_message() view.
  void append(const char* data, std::size_t n);

  // The next complete message's wire text, or nullopt when more bytes are
  // needed. The view is valid until the next append()/next_message() call.
  // Throws MessageTooLargeError when a size bound is exceeded, ParseError on
  // malformed framing.
  std::optional<std::string_view> next_message();

  // Bytes buffered but not yet returned as a message (a partial message, or
  // complete pipelined messages not yet polled).
  std::size_t pending_bytes() const { return buffer_.size() - consumed_; }

  // Forget all buffered state (connection reuse for a new peer).
  void reset();

  const ReaderLimits& limits() const { return limits_; }

 private:
  // Compact the buffer once enough consumed bytes have accumulated.
  static constexpr std::size_t kCompactThreshold = 64 * 1024;

  ReaderLimits limits_;
  std::string buffer_;
  std::size_t consumed_ = 0;  // bytes of buffer_ already returned as messages
};

// Blocking pull reader over a TcpStream: the client-side / upstream-side
// companion of the reactor's push parsing.
class HttpReader {
 public:
  explicit HttpReader(TcpStream* stream, ReaderLimits limits = {})
      : stream_(stream), parser_(limits) {}

  // Read one complete request. nullopt on orderly EOF at a message boundary;
  // throws ParseError on malformed framing (MessageTooLargeError when a size
  // bound is exceeded), Error on transport failure.
  std::optional<http::Request> read_request();
  // Same for responses.
  std::optional<http::Response> read_response();

 private:
  // Raw wire text of one message, or nullopt on clean EOF.
  std::optional<std::string_view> read_message();

  TcpStream* stream_;
  HttpParser parser_;
  bool eof_ = false;
};

// Serialize and send as one iovec batch (head + body, single writev).
void write_request(TcpStream& stream, const http::Request& request);
void write_response(TcpStream& stream, const http::Response& response);

}  // namespace appx::net
