// The load generator's loopback HTTP/1.1 client: one keep-alive connection,
// one request in flight, a response buffer allocated once. It sends
// pre-rendered request bytes and frames the reply by Content-Length, so the
// client's own cost per request is a send, the receives and a header scan.
#ifndef CIRANK_PERFBENCH_HTTP_CLIENT_H_
#define CIRANK_PERFBENCH_HTTP_CLIENT_H_

#include <string_view>
#include <vector>

#include "util/status.h"

namespace perfbench {

class LoopbackClient {
 public:
  // Largest response accepted; /search bodies at k = 5 are a few KiB.
  static constexpr size_t kBufferBytes = 1u << 20;

  [[nodiscard]] static cirank::Result<LoopbackClient> Connect(int port);

  LoopbackClient(LoopbackClient&& other) noexcept;
  LoopbackClient& operator=(LoopbackClient&& other) noexcept;
  LoopbackClient(const LoopbackClient&) = delete;
  LoopbackClient& operator=(const LoopbackClient&) = delete;
  ~LoopbackClient();

  // Sends `request` and reads one response. `body` views the internal
  // buffer and stays valid until the next RoundTrip.
  [[nodiscard]] cirank::Status RoundTrip(std::string_view request,
                                         int* status_code,
                                         std::string_view* body);

 private:
  explicit LoopbackClient(int fd) : fd_(fd), buffer_(kBufferBytes) {}

  int fd_ = -1;
  std::vector<char> buffer_;
};

}  // namespace perfbench

#endif  // CIRANK_PERFBENCH_HTTP_CLIENT_H_
