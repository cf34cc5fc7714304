// ANALYZE-AS: src/subsim/serve/example.cc
// Fixture: raw sockets outside the net layer. Bytes must enter through
// HttpServer (fuzzable parser, IO timeouts, admission control), not
// through a side-channel dial.
#include <netinet/in.h>  // ANALYZE-EXPECT: raw-socket
#include <sys/socket.h>  // ANALYZE-EXPECT: raw-socket

namespace subsim {

int DialDirect() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);  // ANALYZE-EXPECT: raw-socket
  sockaddr_in addr{};
  const sockaddr* sa = reinterpret_cast<const sockaddr*>(&addr);
  const int rc = ::connect(fd, sa, sizeof(addr));  // ANALYZE-EXPECT: raw-socket
  return rc == 0 ? fd : -1;
}

}  // namespace subsim
