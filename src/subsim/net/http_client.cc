#include "subsim/net/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "subsim/util/string_util.h"

namespace subsim {

namespace {

Status SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return Status::Ok();
}

}  // namespace

const std::string* HttpClientResponse::FindHeader(
    std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (AsciiEqualsIgnoreCase(key, name)) {
      return &value;
    }
  }
  return nullptr;
}

HttpClient::HttpClient(std::string host, std::uint16_t port,
                       int timeout_seconds)
    : host_(std::move(host)), port_(port), timeout_seconds_(timeout_seconds) {}

HttpClient::~HttpClient() { Disconnect(); }

void HttpClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status HttpClient::Connect() {
  Disconnect();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  timeval tv{};
  tv.tv_sec = timeout_seconds_;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    Disconnect();
    return Status::InvalidArgument("bad host address '" + host_ + "'");
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status status =
        Status::IoError(std::string("connect: ") + std::strerror(errno));
    Disconnect();
    return status;
  }
  return Status::Ok();
}

Result<HttpClientResponse> HttpClient::Request(std::string_view method,
                                               std::string_view target,
                                               std::string_view body) {
  const bool reused = fd_ >= 0;
  if (!reused) {
    SUBSIM_RETURN_IF_ERROR(Connect());
  }
  Result<HttpClientResponse> response = RequestOnce(method, target, body);
  if (!response.ok() && reused) {
    // The kept-alive connection may have been closed server-side between
    // requests; that is not an error — reconnect and retry once.
    SUBSIM_RETURN_IF_ERROR(Connect());
    response = RequestOnce(method, target, body);
  }
  if (!response.ok()) {
    Disconnect();
  }
  return response;
}

Result<HttpClientResponse> HttpClient::RequestOnce(std::string_view method,
                                                   std::string_view target,
                                                   std::string_view body) {
  std::string request;
  request.reserve(128 + body.size());
  request += method;
  request += " ";
  request += target;
  request += " HTTP/1.1\r\nHost: ";
  request += host_;
  request += "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  SUBSIM_RETURN_IF_ERROR(SendAll(fd_, request));

  // Read the head (terminated by an empty line), then the body.
  std::string data;
  std::size_t head_end = std::string::npos;
  char buf[8192];
  while (head_end == std::string::npos) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      return Status::IoError("connection closed before response head");
    }
    data.append(buf, static_cast<std::size_t>(n));
    head_end = data.find("\r\n\r\n");
    if (data.size() > 64 * 1024 && head_end == std::string::npos) {
      return Status::InvalidArgument("response head too large");
    }
  }

  HttpClientResponse response;
  std::string_view head = std::string_view(data).substr(0, head_end);
  const std::size_t line_end = head.find("\r\n");
  std::string_view status_line =
      head.substr(0, line_end == std::string_view::npos ? head.size()
                                                        : line_end);
  // "HTTP/1.1 200 OK"
  const std::size_t sp1 = status_line.find(' ');
  if (sp1 == std::string_view::npos || status_line.substr(0, 5) != "HTTP/") {
    return Status::InvalidArgument("malformed response status line");
  }
  std::uint64_t code = 0;
  const std::string_view after = status_line.substr(sp1 + 1);
  const std::size_t sp2 = after.find(' ');
  if (!ParseUint64(after.substr(0, sp2), &code) || code < 100 ||
      code > 599) {
    return Status::InvalidArgument("malformed response status code");
  }
  response.status_code = static_cast<int>(code);

  std::string_view rest =
      line_end == std::string_view::npos ? std::string_view()
                                         : head.substr(line_end + 2);
  while (!rest.empty()) {
    const std::size_t nl = rest.find("\r\n");
    const std::string_view line =
        rest.substr(0, nl == std::string_view::npos ? rest.size() : nl);
    rest = nl == std::string_view::npos ? std::string_view()
                                        : rest.substr(nl + 2);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      continue;  // be liberal in what the test client accepts
    }
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    response.headers.emplace_back(std::string(line.substr(0, colon)),
                                  std::string(value));
  }

  std::uint64_t content_length = 0;
  const std::string* length_header = response.FindHeader("Content-Length");
  if (length_header == nullptr ||
      !ParseUint64(*length_header, &content_length)) {
    return Status::InvalidArgument("response missing Content-Length");
  }
  response.body = data.substr(head_end + 4);
  while (response.body.size() < content_length) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      return Status::IoError("connection closed mid-body");
    }
    response.body.append(buf, static_cast<std::size_t>(n));
  }
  response.body.resize(content_length);

  const std::string* connection = response.FindHeader("Connection");
  if (connection != nullptr && AsciiEqualsIgnoreCase(*connection, "close")) {
    Disconnect();
  }
  return response;
}

}  // namespace subsim
