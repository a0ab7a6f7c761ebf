#include "net/http_io.hpp"

#include <string_view>

#include "util/strings.hpp"

namespace appx::net {

namespace {

// Content-Length of a message head (the text before the blank line), 0 when
// absent. Malformed values throw ParseError.
std::size_t content_length_of(std::string_view head) {
  std::string_view rest = head;
  while (!rest.empty()) {
    const std::size_t eol = rest.find("\r\n");
    const std::string_view line = rest.substr(0, eol == std::string_view::npos ? rest.size() : eol);
    rest = eol == std::string_view::npos ? std::string_view{} : rest.substr(eol + 2);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    if (!strings::iequals(strings::trim(line.substr(0, colon)), "Content-Length")) continue;
    const auto value = strings::to_int(line.substr(colon + 1));
    if (!value || *value < 0) throw ParseError("http framing: bad Content-Length");
    return static_cast<std::size_t>(*value);
  }
  return 0;
}

}  // namespace

// --- HttpParser ----------------------------------------------------------------------

void HttpParser::append(const char* data, std::size_t n) {
  // Compact before growing: erase the consumed prefix once it is large (or
  // the buffer is fully drained — a free clear() that keeps the capacity, so
  // a keep-alive connection reuses one allocation across all its messages).
  // Never between next_message() and the caller parsing the view.
  if (consumed_ > 0 && (consumed_ >= kCompactThreshold || consumed_ == buffer_.size())) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, n);
}

std::optional<std::string_view> HttpParser::next_message() {
  const std::string_view pending = std::string_view(buffer_).substr(consumed_);
  const std::size_t head_end = pending.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (limits_.max_head_bytes > 0 && pending.size() > limits_.max_head_bytes) {
      // No blank line within the permitted head size: reject before the
      // buffer can grow without bound.
      throw MessageTooLargeError("http framing: header block exceeds " +
                                     std::to_string(limits_.max_head_bytes) + " bytes",
                                 431);
    }
    return std::nullopt;
  }
  if (limits_.max_head_bytes > 0 && head_end > limits_.max_head_bytes) {
    throw MessageTooLargeError("http framing: header block exceeds " +
                                   std::to_string(limits_.max_head_bytes) + " bytes",
                               431);
  }
  const std::size_t body_len = content_length_of(pending.substr(0, head_end));
  if (limits_.max_body_bytes > 0 && body_len > limits_.max_body_bytes) {
    throw MessageTooLargeError("http framing: body of " + std::to_string(body_len) +
                                   " bytes exceeds " + std::to_string(limits_.max_body_bytes) +
                                   " bytes",
                               413);
  }
  const std::size_t total = head_end + 4 + body_len;
  if (pending.size() < total) return std::nullopt;
  const std::size_t start = consumed_;
  consumed_ += total;
  return std::string_view(buffer_).substr(start, total);
}

void HttpParser::reset() {
  buffer_.clear();
  consumed_ = 0;
}

// --- HttpReader ----------------------------------------------------------------------

std::optional<std::string_view> HttpReader::read_message() {
  char chunk[4096];
  while (true) {
    if (const auto message = parser_.next_message()) return message;
    if (eof_) {
      if (parser_.pending_bytes() == 0) return std::nullopt;
      throw ParseError("http framing: connection closed mid-message");
    }
    const std::size_t n = stream_->read_some(chunk, sizeof chunk);
    if (n == 0) {
      eof_ = true;
      continue;
    }
    parser_.append(chunk, n);
  }
}

std::optional<http::Request> HttpReader::read_request() {
  const auto wire = read_message();
  if (!wire) return std::nullopt;
  return http::Request::parse(*wire);
}

std::optional<http::Response> HttpReader::read_response() {
  const auto wire = read_message();
  if (!wire) return std::nullopt;
  return http::Response::parse(*wire);
}

void write_request(TcpStream& stream, const http::Request& request) {
  thread_local std::string head;
  head.clear();
  request.serialize_head_into(head);
  stream.writev_all(head, request.body);
}

void write_response(TcpStream& stream, const http::Response& response) {
  thread_local std::string head;
  head.clear();
  response.serialize_head_into(head);
  stream.writev_all(head, response.body);
}

}  // namespace appx::net
