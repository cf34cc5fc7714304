#include "subsim/net/http.h"

#include <algorithm>

#include "subsim/util/string_util.h"

namespace subsim {

namespace {

constexpr std::size_t kMaxHeaders = 100;

bool IsMethodChar(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z');
}

bool IsControl(char c) {
  const auto u = static_cast<unsigned char>(c);
  return u < 0x20 || u == 0x7F;
}

std::string_view TrimOws(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (AsciiEqualsIgnoreCase(key, name)) {
      return &value;
    }
  }
  return nullptr;
}

bool HttpRequest::WantsClose() const {
  const std::string* connection = FindHeader("Connection");
  if (version == "HTTP/1.0") {
    return connection == nullptr ||
           !AsciiEqualsIgnoreCase(*connection, "keep-alive");
  }
  return connection != nullptr && AsciiEqualsIgnoreCase(*connection, "close");
}

std::string_view HttpReasonPhrase(int status_code) {
  switch (status_code) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    default:
      return "Status";
  }
}

std::string FormatHttpResponse(const HttpResponse& response, bool close) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status_code) + " ";
  out += HttpReasonPhrase(response.status_code);
  out += "\r\n";
  for (const auto& [key, value] : response.headers) {
    out += key;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  if (close) {
    out += "Connection: close\r\n";
  }
  out += "\r\n";
  out += response.body;
  return out;
}

HttpRequestParser::State HttpRequestParser::Fail(Status status) {
  state_ = State::kError;
  error_ = std::move(status);
  return state_;
}

HttpRequestParser::State HttpRequestParser::Consume(std::string_view data) {
  if (state_ != State::kNeedMore) {
    return state_;
  }
  buffer_.append(data);
  return Advance();
}

HttpRequestParser::State HttpRequestParser::Advance() {
  if (!head_done_) {
    // The head ends at the first empty line; lines end with LF, with an
    // optional CR before it (strict CRLF wire format, bare LF tolerated).
    std::size_t head_end = std::string::npos;
    for (std::size_t i = 0; i + 1 < buffer_.size(); ++i) {
      if (buffer_[i] != '\n') {
        continue;
      }
      if (buffer_[i + 1] == '\n') {
        head_end = i + 2;
        break;
      }
      if (buffer_[i + 1] == '\r' && i + 2 < buffer_.size() &&
          buffer_[i + 2] == '\n') {
        head_end = i + 3;
        break;
      }
    }
    if (head_end == std::string::npos) {
      if (buffer_.size() > limits_.max_head_bytes) {
        return Fail(Status::InvalidArgument("request head exceeds " +
                                            std::to_string(
                                                limits_.max_head_bytes) +
                                            " bytes"));
      }
      return state_;
    }
    if (head_end > limits_.max_head_bytes) {
      return Fail(Status::InvalidArgument(
          "request head exceeds " + std::to_string(limits_.max_head_bytes) +
          " bytes"));
    }
    Status parsed = ParseHead(std::string_view(buffer_).substr(0, head_end));
    if (!parsed.ok()) {
      return Fail(std::move(parsed));
    }
    head_done_ = true;
    buffer_.erase(0, head_end);
  }
  if (buffer_.size() >= body_bytes_needed_) {
    request_.body = buffer_.substr(0, body_bytes_needed_);
    buffer_.erase(0, body_bytes_needed_);
    state_ = State::kComplete;
  }
  return state_;
}

Status HttpRequestParser::ParseHead(std::string_view head) {
  std::vector<std::string_view> lines;
  while (!head.empty()) {
    const std::size_t nl = head.find('\n');
    std::string_view line =
        head.substr(0, nl == std::string_view::npos ? head.size() : nl);
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    lines.push_back(line);
    if (nl == std::string_view::npos) {
      break;
    }
    head.remove_prefix(nl + 1);
  }
  while (!lines.empty() && lines.back().empty()) {
    lines.pop_back();
  }
  if (lines.empty()) {
    return Status::InvalidArgument("empty request head");
  }

  // Request line: METHOD SP TARGET SP VERSION.
  const std::string_view request_line = lines[0];
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) {
    return Status::InvalidArgument("malformed request line");
  }
  const std::string_view method = request_line.substr(0, sp1);
  const std::string_view target =
      request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  if (method.empty() ||
      !std::all_of(method.begin(), method.end(), IsMethodChar)) {
    return Status::InvalidArgument("malformed request method");
  }
  if (target.empty() ||
      std::any_of(target.begin(), target.end(), [](char c) {
        return c == ' ' || IsControl(c);
      })) {
    return Status::InvalidArgument("malformed request target");
  }
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return Status::InvalidArgument("unsupported HTTP version '" +
                                   std::string(version) + "'");
  }
  request_.method = std::string(method);
  request_.target = std::string(target);
  request_.version = std::string(version);

  // Header fields.
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    if (line.empty()) {
      return Status::InvalidArgument("empty header line inside head");
    }
    if (request_.headers.size() >= kMaxHeaders) {
      return Status::InvalidArgument("too many header fields");
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::InvalidArgument("malformed header line");
    }
    const std::string_view name = line.substr(0, colon);
    if (std::any_of(name.begin(), name.end(), [](char c) {
          return c == ' ' || c == '\t' || IsControl(c);
        })) {
      return Status::InvalidArgument("malformed header name");
    }
    const std::string_view value = TrimOws(line.substr(colon + 1));
    if (std::any_of(value.begin(), value.end(), [](char c) {
          return c != '\t' && IsControl(c);
        })) {
      return Status::InvalidArgument("control bytes in header value");
    }
    request_.headers.emplace_back(std::string(name), std::string(value));
  }

  // Body framing: Content-Length only. Chunked (or any Transfer-Encoding)
  // is rejected outright so there is no half-supported framing path.
  if (request_.FindHeader("Transfer-Encoding") != nullptr) {
    return Status::InvalidArgument("Transfer-Encoding is not supported");
  }
  body_bytes_needed_ = 0;
  bool saw_content_length = false;
  for (const auto& [key, value] : request_.headers) {
    if (!AsciiEqualsIgnoreCase(key, "Content-Length")) {
      continue;
    }
    std::uint64_t length = 0;
    if (!ParseUint64(value, &length)) {
      return Status::InvalidArgument("malformed Content-Length");
    }
    if (saw_content_length &&
        length != static_cast<std::uint64_t>(body_bytes_needed_)) {
      return Status::InvalidArgument("conflicting Content-Length headers");
    }
    if (length > limits_.max_body_bytes) {
      return Status::InvalidArgument(
          "body exceeds " + std::to_string(limits_.max_body_bytes) +
          " bytes");
    }
    body_bytes_needed_ = static_cast<std::size_t>(length);
    saw_content_length = true;
  }
  return Status::Ok();
}

std::string HttpRequestParser::TakeRemainder() {
  std::string remainder = std::move(buffer_);
  buffer_.clear();
  return remainder;
}

void HttpRequestParser::Reset() {
  state_ = State::kNeedMore;
  buffer_.clear();
  body_bytes_needed_ = 0;
  head_done_ = false;
  request_ = HttpRequest();
  error_ = Status::Ok();
}

}  // namespace subsim
