// Minimal blocking HTTP/1.1 listener for the live observability endpoints
// (docs/OBSERVABILITY.md, "Live endpoints & SLOs").
//
// Serves GET requests on registered exact paths from one accept-loop
// thread: read the request head, dispatch the handler, write the response
// with Content-Length, close. No keep-alive, no TLS, no dependencies —
// POSIX sockets only. This is deliberately the smallest thing a Prometheus
// scraper (or curl) can talk to; it is the first network surface on the
// road to ROADMAP item 1's network ingest, not a web framework.
//
// Handlers run on the endpoint thread and may block it; every other
// request waits. That is the right trade for scrape traffic (one scraper,
// seconds apart) and keeps the listener ~150 lines. Slow-client protection
// is a receive timeout on the request head plus an 8 KiB head cap.
//
// Thread-safety: Handle() before Start(); Start()/Stop() from the owning
// thread. Handlers must be safe against whatever they read (the metrics
// registry and FleetServer::stats() both are).
#ifndef TFMAE_OBS_HTTP_ENDPOINT_H_
#define TFMAE_OBS_HTTP_ENDPOINT_H_

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <thread>

namespace tfmae::obs {

/// One handler's reply. `status` must be a code StatusText knows (200, 400,
/// 404, 405, 503); anything else renders as 500.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class HttpEndpoint {
 public:
  using Handler = std::function<HttpResponse()>;

  HttpEndpoint() = default;
  ~HttpEndpoint();  // Stop()

  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  /// Registers `handler` for GET requests whose path equals `path` exactly
  /// (any query string is stripped before matching). Call before Start().
  void Handle(std::string path, Handler handler);

  /// Binds 0.0.0.0:`port` (0 picks an ephemeral port, readable via port())
  /// and starts the accept loop. Returns false with the reason in `*error`,
  /// including for a port outside [0, 65535].
  bool Start(int port, std::string* error = nullptr);

  /// The bound port; 0 before a successful Start.
  int port() const { return port_; }
  bool running() const { return listen_fd_ >= 0; }

  /// Shuts the listener down and joins the accept thread. Idempotent; an
  /// in-flight request finishes first.
  void Stop();

 private:
  void ServeLoop();
  void ServeOne(int fd);

  std::map<std::string, Handler> handlers_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace tfmae::obs

#endif  // TFMAE_OBS_HTTP_ENDPOINT_H_
