#include "obs/http_endpoint.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tfmae::obs {
namespace {

constexpr std::size_t kMaxHeadBytes = 8192;

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

void SendAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a scraper that hung up mid-response must not SIGPIPE
    // the serving process.
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

void SendResponse(int fd, const HttpResponse& response) {
  const int status =
      std::strcmp(StatusText(response.status), "Internal Server Error") == 0 &&
              response.status != 500
          ? 500
          : response.status;
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    StatusText(status) + "\r\nContent-Type: " +
                    response.content_type +
                    "\r\nContent-Length: " + std::to_string(response.body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += response.body;
  SendAll(fd, out);
}

}  // namespace

HttpEndpoint::~HttpEndpoint() { Stop(); }

void HttpEndpoint::Handle(std::string path, Handler handler) {
  handlers_[std::move(path)] = std::move(handler);
}

bool HttpEndpoint::Start(int port, std::string* error) {
  if (port < 0 || port > 65535) {
    if (error != nullptr) {
      *error = "port " + std::to_string(port) + " is outside [0, 65535]";
    }
    return false;
  }
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why + " (" + std::strerror(errno) + ")";
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail("bind to port " + std::to_string(port));
  }
  if (::listen(listen_fd_, 16) != 0) return fail("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return fail("getsockname");
  }
  port_ = static_cast<int>(ntohs(addr.sin_port));
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { ServeLoop(); });
  return true;
}

void HttpEndpoint::Stop() {
  if (listen_fd_ < 0) return;
  stop_.store(true, std::memory_order_release);
  // shutdown() wakes the blocking accept(); close() alone is not guaranteed
  // to on every platform.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpEndpoint::ServeLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or unrecoverable): exit the loop
    }
    ServeOne(fd);
    ::close(fd);
  }
}

void HttpEndpoint::ServeOne(int fd) {
  // A slow or stuck client may hold the head open; bound it so one bad
  // scraper cannot wedge the endpoint forever.
  timeval timeout{};
  timeout.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string head;
  char buf[1024];
  while (head.find("\r\n\r\n") == std::string::npos &&
         head.size() < kMaxHeadBytes) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return;  // hangup or timeout before a complete head
    head.append(buf, static_cast<std::size_t>(n));
  }
  // Request line: METHOD SP TARGET SP VERSION. Headers are ignored (no
  // body is ever read: these endpoints are GET-only).
  const std::size_t line_end = head.find("\r\n");
  const std::string line =
      head.substr(0, line_end == std::string::npos ? head.size() : line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    SendResponse(fd, {400, "text/plain; charset=utf-8", "bad request\n"});
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);
  if (method != "GET") {
    SendResponse(fd, {405, "text/plain; charset=utf-8", "GET only\n"});
    return;
  }
  const auto it = handlers_.find(path);
  if (it == handlers_.end()) {
    SendResponse(fd, {404, "text/plain; charset=utf-8", "not found\n"});
    return;
  }
  SendResponse(fd, it->second());
}

}  // namespace tfmae::obs
