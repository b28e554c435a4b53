#pragma once

// A minimal blocking HTTP/1.1 client for tests that talk to an ObsServer.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>

namespace ms::test {

/// Connected loopback TCP socket, or -1.
inline int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One request, read to EOF (the server always answers Connection: close).
/// Empty when the connection fails.
inline std::string http_request(int port, const std::string& target,
                                const std::string& method = "GET") {
  const int fd = connect_loopback(port);
  if (fd < 0) return {};
  const std::string req =
      method + " " + target + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  for (std::size_t off = 0; off < req.size();) {
    const ssize_t w = ::send(fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
    if (w <= 0) {
      ::close(fd);
      return {};
    }
    off += static_cast<std::size_t>(w);
  }
  std::string resp;
  char buf[4096];
  for (ssize_t r = 0; (r = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
    resp.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return resp;
}

/// The status code of a response ("HTTP/1.1 NNN ..."), or -1.
inline int status_of(const std::string& resp) {
  if (resp.size() < 12) return -1;
  return std::atoi(resp.c_str() + 9);
}

inline std::string body_of(const std::string& resp) {
  const std::size_t at = resp.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : resp.substr(at + 4);
}

}  // namespace ms::test
