// ANALYZE-AS: src/subsim/util/example_dial.cc
// Fixture: socket headers and syscalls outside src/subsim/net/ must be
// flagged. Never compiled — checked only by subsim_analyze.py --self-test.
#include <arpa/inet.h>   // ANALYZE-EXPECT: raw-socket
#include <sys/socket.h>  // ANALYZE-EXPECT: raw-socket

int DialDirect(const char* text_addr) {
  int fd = socket(2, 1, 0);  // ANALYZE-EXPECT: raw-socket
  unsigned addr = 0;
  inet_pton(2, text_addr, &addr);  // ANALYZE-EXPECT: raw-socket
  return fd;
}

int AwaitDirect(int fd, sockaddr* sa, socklen_t* len) {
  listen(fd, 16);  // ANALYZE-EXPECT: raw-socket
  return accept(fd, sa, len);  // ANALYZE-EXPECT: raw-socket
}

// `socket` in a comment is fine, as is Connect()-style method naming below.
int ConnectBudget();
