// Minimal HTTP/1.1 metrics listener tests (docs/OBSERVABILITY.md, "Live
// endpoints & SLOs").
//
// The client side is a raw POSIX socket speaking literal HTTP/1.1 bytes —
// deliberately not a helper from the code under test — so these tests pin
// the wire format an actual scraper sees: status line, Content-Length
// framing, Connection: close, and the 400/404/405 error paths.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "obs/http_endpoint.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/prom_export.h"

namespace tfmae::obs {
namespace {

// Sends `request` to 127.0.0.1:port and returns everything the server
// writes until it closes the connection (the endpoint is Connection: close,
// so read-to-EOF is the correct framing).
std::string RawRequest(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Get(int port, const std::string& path) {
  return RawRequest(port, "GET " + path +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n");
}

// Body after the blank line separating headers from payload.
std::string BodyOf(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(HttpEndpointTest, ServesRegisteredPathWithFramingHeaders) {
  HttpEndpoint endpoint;
  endpoint.Handle("/hello", [] {
    HttpResponse r;
    r.body = "hi there\n";
    return r;
  });
  std::string error;
  ASSERT_TRUE(endpoint.Start(0, &error)) << error;
  ASSERT_GT(endpoint.port(), 0);
  EXPECT_TRUE(endpoint.running());

  const std::string response = Get(endpoint.port(), "/hello");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Length: 9\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain; charset=utf-8\r\n"),
            std::string::npos);
  EXPECT_EQ(BodyOf(response), "hi there\n");

  // A query string does not change which handler matches.
  EXPECT_EQ(BodyOf(Get(endpoint.port(), "/hello?verbose=1")), "hi there\n");
  endpoint.Stop();
  EXPECT_FALSE(endpoint.running());
}

TEST(HttpEndpointTest, HandlerStatusAndContentTypePropagate) {
  HttpEndpoint endpoint;
  endpoint.Handle("/drain", [] {
    HttpResponse r;
    r.status = 503;
    r.body = "draining\n";
    return r;
  });
  endpoint.Handle("/stats", [] {
    HttpResponse r;
    r.content_type = "application/json";
    r.body = "{}";
    return r;
  });
  ASSERT_TRUE(endpoint.Start(0));
  const std::string drain = Get(endpoint.port(), "/drain");
  EXPECT_EQ(drain.rfind("HTTP/1.1 503 Service Unavailable\r\n", 0), 0u)
      << drain;
  EXPECT_EQ(BodyOf(drain), "draining\n");
  const std::string stats = Get(endpoint.port(), "/stats");
  EXPECT_NE(stats.find("Content-Type: application/json\r\n"),
            std::string::npos);
  endpoint.Stop();
}

TEST(HttpEndpointTest, ErrorPaths400And404And405) {
  HttpEndpoint endpoint;
  endpoint.Handle("/only", [] { return HttpResponse{}; });
  ASSERT_TRUE(endpoint.Start(0));
  EXPECT_EQ(Get(endpoint.port(), "/nope").rfind("HTTP/1.1 404 Not Found", 0),
            0u);
  EXPECT_EQ(RawRequest(endpoint.port(),
                       "POST /only HTTP/1.1\r\nHost: x\r\n\r\n")
                .rfind("HTTP/1.1 405 Method Not Allowed", 0),
            0u);
  EXPECT_EQ(RawRequest(endpoint.port(), "garbage\r\n\r\n")
                .rfind("HTTP/1.1 400 Bad Request", 0),
            0u);
  endpoint.Stop();
}

TEST(HttpEndpointTest, MetricsScrapeRoundTrip) {
  Registry& reg = Registry::Instance();
  const int counter = reg.CounterId("httptest.scrape.hits");
  ASSERT_NE(counter, kInvalidMetricId);
  reg.CounterAdd(counter, 3);

  HttpEndpoint endpoint;
  endpoint.Handle("/metrics", [] {
    HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = RenderPrometheusText(SnapshotWithFaults());
    return r;
  });
  ASSERT_TRUE(endpoint.Start(0));
  const std::string response = Get(endpoint.port(), "/metrics");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4; "
                          "charset=utf-8\r\n"),
            std::string::npos);
  const std::string body = BodyOf(response);
  EXPECT_NE(body.find("tfmae_httptest_scrape_hits_total 3\n"),
            std::string::npos);
  // The scraped body is exactly what the renderer produced: Content-Length
  // framing did not truncate or pad it.
  EXPECT_EQ(body, RenderPrometheusText(SnapshotWithFaults()));
  endpoint.Stop();
}

TEST(HttpEndpointTest, StopUnblocksAcceptAndIsIdempotent) {
  HttpEndpoint endpoint;
  endpoint.Handle("/x", [] { return HttpResponse{}; });
  ASSERT_TRUE(endpoint.Start(0));
  const int port = endpoint.port();
  EXPECT_FALSE(Get(port, "/x").empty());
  endpoint.Stop();   // must return promptly even with accept() parked
  endpoint.Stop();   // double-stop is a no-op
  EXPECT_FALSE(endpoint.running());
  // The listener is really gone: a fresh connection attempt fails.
  EXPECT_TRUE(Get(port, "/x").empty());
}

TEST(HttpEndpointTest, StartFailsOnTakenPortWithError) {
  HttpEndpoint first;
  first.Handle("/a", [] { return HttpResponse{}; });
  ASSERT_TRUE(first.Start(0));
  HttpEndpoint second;
  second.Handle("/a", [] { return HttpResponse{}; });
  std::string error;
  EXPECT_FALSE(second.Start(first.port(), &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(second.running());
  first.Stop();
}

TEST(HttpEndpointTest, StartRejectsOutOfRangePorts) {
  for (const int port : {-1, 65536, 70000}) {
    HttpEndpoint endpoint;
    endpoint.Handle("/a", [] { return HttpResponse{}; });
    std::string error;
    EXPECT_FALSE(endpoint.Start(port, &error)) << port;
    EXPECT_NE(error.find("outside"), std::string::npos) << error;
    EXPECT_FALSE(endpoint.running());
    EXPECT_EQ(endpoint.port(), 0);
  }
}

}  // namespace
}  // namespace tfmae::obs
