#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <strings.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

namespace perfbench {

using cirank::Result;
using cirank::Status;

namespace {

// A stuck server fails the round trip instead of hanging the run.
constexpr int kReceiveTimeoutSeconds = 60;

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Result<LoopbackClient> LoopbackClient::Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  LoopbackClient client(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Errno("connect");
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = kReceiveTimeoutSeconds;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return client;
}

LoopbackClient::LoopbackClient(LoopbackClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buffer_(std::move(other.buffer_)) {}

LoopbackClient& LoopbackClient::operator=(LoopbackClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

LoopbackClient::~LoopbackClient() {
  if (fd_ >= 0) ::close(fd_);
}

Status LoopbackClient::RoundTrip(std::string_view request, int* status_code,
                                 std::string_view* body) {
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }

  char* const buf = buffer_.data();
  size_t have = 0;
  size_t head_end = std::string_view::npos;
  size_t total = std::string_view::npos;
  while (total == std::string_view::npos || have < total) {
    if (have == buffer_.size()) {
      return Status::OutOfRange("response exceeds the client buffer");
    }
    const ssize_t n = ::recv(fd_, buf + have, buffer_.size() - have, 0);
    if (n == 0) return Status::Internal("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    have += static_cast<size_t>(n);
    if (head_end != std::string_view::npos) continue;
    const std::string_view seen(buf, have);
    head_end = seen.find("\r\n\r\n");
    if (head_end == std::string_view::npos) continue;
    const std::string_view head = seen.substr(0, head_end + 2);
    // "HTTP/1.1 200 OK\r\n..."
    const size_t sp = head.find(' ');
    if (sp == std::string_view::npos || head.size() < sp + 4) {
      return Status::InvalidArgument("malformed status line");
    }
    *status_code = std::atoi(std::string(head.substr(sp + 1, 3)).c_str());
    size_t length = 0;
    bool found = false;
    for (size_t pos = head.find("\r\n"); pos != std::string_view::npos;) {
      const size_t next = head.find("\r\n", pos + 2);
      if (next == std::string_view::npos) break;
      const std::string_view line = head.substr(pos + 2, next - pos - 2);
      constexpr std::string_view kName = "content-length:";
      if (line.size() > kName.size() &&
          ::strncasecmp(line.data(), kName.data(), kName.size()) == 0) {
        length = std::strtoull(std::string(line.substr(kName.size())).c_str(),
                               nullptr, 10);
        found = true;
      }
      pos = next;
    }
    if (!found) return Status::InvalidArgument("response has no length");
    total = head_end + 4 + length;
    if (total > buffer_.size()) {
      return Status::OutOfRange("response exceeds the client buffer");
    }
  }
  if (have != total) {
    return Status::InvalidArgument("bytes beyond the framed response");
  }
  *body = std::string_view(buf + head_end + 4, total - head_end - 4);
  return Status::OK();
}

}  // namespace perfbench
