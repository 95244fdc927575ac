// The HTTP/1.1 gateway: POST /v1/rpc must carry the NDJSON protocol with
// byte-identical response lines (same dispatcher, different dressing),
// status codes must follow the error-code mapping, keep-alive must hold
// a connection across requests, the transport-level refusals (400, 404,
// 405, 411, 413) must fire, and GET /v1/jobs/{id}/events must stream SSE
// frames whose terminal "result" payload is byte-identical to a status
// {"wait": true} response's -- ending with the error of a failed job, or
// with the event bus's draining frame when the gateway drains -- and refuse
// a job id or "from" that is not a decimal u64 instead of wrapping it.
#include "api/http_transport.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "api/dispatch.h"
#include "service/sweep_service.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/net.h"

namespace nwdec::api {
namespace {

service::sweep_service make_service() {
  return service::sweep_service(crossbar::crossbar_spec{},
                                device::paper_technology(), {});
}

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);
  return fd;
}

void send_raw(int fd, const std::string& bytes) {
  EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
}

std::string read_to_eof(int fd) {
  std::string all;
  char chunk[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    all.append(chunk, static_cast<std::size_t>(n));
  }
  return all;
}

// One full request/response exchange on a fresh connection, read to EOF.
std::string roundtrip(std::uint16_t port, const std::string& request) {
  const int fd = connect_to(port);
  send_raw(fd, request);
  const std::string response = read_to_eof(fd);
  ::close(fd);
  return response;
}

std::string post_rpc(const std::string& body, bool keep_alive = false) {
  return "POST /v1/rpc HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) +
         (keep_alive ? "\r\n" : "\r\nConnection: close\r\n") + "\r\n" + body;
}

// Reads exactly one Content-Length-framed response off a kept-alive
// connection.
std::string read_one_response(int fd) {
  std::string buffer;
  char chunk[4096];
  std::size_t header_end = std::string::npos;
  while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return buffer;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  const std::string lower = [&] {
    std::string text = buffer.substr(0, header_end);
    for (char& c : text) c = static_cast<char>(std::tolower(c));
    return text;
  }();
  std::size_t length = 0;
  const std::size_t marker = lower.find("content-length:");
  EXPECT_NE(marker, std::string::npos) << buffer;
  if (marker != std::string::npos) {
    length = static_cast<std::size_t>(
        std::stoull(lower.substr(marker + 15)));
  }
  const std::size_t total = header_end + 4 + length;
  while (buffer.size() < total) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return buffer.substr(0, total);
}

std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

// Decodes a chunked Transfer-Encoding body back to the raw byte stream.
std::string dechunk(const std::string& body) {
  std::string out;
  std::size_t cursor = 0;
  for (;;) {
    const std::size_t line_end = body.find("\r\n", cursor);
    if (line_end == std::string::npos) break;
    const std::size_t size =
        std::stoull(body.substr(cursor, line_end - cursor), nullptr, 16);
    if (size == 0) break;
    out += body.substr(line_end + 2, size);
    cursor = line_end + 2 + size + 2;  // data + trailing CRLF
  }
  return out;
}

// One SSE frame's fields, in stream order.
struct sse_frame {
  std::string id;
  std::string event;
  std::string data;
};

// Splits a dechunked SSE byte stream into its frames.
std::vector<sse_frame> sse_frames(const std::string& stream) {
  std::vector<sse_frame> frames;
  sse_frame current;
  std::size_t cursor = 0;
  while (cursor < stream.size()) {
    std::size_t end = stream.find('\n', cursor);
    if (end == std::string::npos) end = stream.size();
    const std::string line = stream.substr(cursor, end - cursor);
    cursor = end + 1;
    if (line.rfind("id: ", 0) == 0) current.id = line.substr(4);
    if (line.rfind("event: ", 0) == 0) current.event = line.substr(7);
    if (line.rfind("data: ", 0) == 0) current.data = line.substr(6);
    if (line.empty()) {
      frames.push_back(current);
      current = sse_frame{};
    }
  }
  return frames;
}

std::string events_request(std::uint64_t job) {
  return "GET /v1/jobs/" + std::to_string(job) +
         "/events HTTP/1.1\r\nHost: t\r\n\r\n";
}

struct test_server {
  service::sweep_service service = make_service();
  dispatcher handler;
  http_transport transport;
  std::thread thread;

  explicit test_server(tcp_limits limits = {})
      : handler(service, {2, "", 64}), transport(0, 16, limits) {
    thread = std::thread([this] { transport.serve(handler); });
  }
  ~test_server() {
    transport.shutdown();
    thread.join();
  }
  std::uint16_t port() { return transport.port(); }
};

const std::string kSweep =
    R"({"id":1,"kind":"sweep","codes":["BGC"],"lengths":[8],)"
    R"("sigmas_vt":[0.05],"trials":60})";

TEST(HttpTransportTest, RpcBodyIsByteIdenticalToDirectDispatch) {
  // Reference bytes: the same line through a dispatcher on a fresh
  // service (same construction order, so same provenance counters).
  std::string direct;
  {
    service::sweep_service service = make_service();
    dispatcher reference(service, {2, "", 64});
    direct = reference.handle_line(kSweep);
  }
  test_server server;
  const std::string response = roundtrip(server.port(), post_rpc(kSweep));
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_EQ(body_of(response), direct);
}

TEST(HttpTransportTest, MultiLineBodyAnswersNdjson) {
  std::vector<std::string> direct;
  {
    service::sweep_service service = make_service();
    dispatcher reference(service, {2, "", 64});
    direct.push_back(reference.handle_line(kSweep));
    direct.push_back(reference.handle_line(R"({"id":2,"kind":"stats"})"));
  }
  test_server server;
  const std::string response = roundtrip(
      server.port(), post_rpc(kSweep + "\n" + R"({"id":2,"kind":"stats"})"));
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: application/x-ndjson"),
            std::string::npos);
  EXPECT_EQ(body_of(response), direct[0] + direct[1]);
}

TEST(HttpTransportTest, KeepAliveServesSequentialRequests) {
  test_server server;
  const int fd = connect_to(server.port());
  send_raw(fd, post_rpc(R"({"id":1,"kind":"stats"})", true));
  const std::string first = read_one_response(fd);
  EXPECT_EQ(first.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << first;
  // The same connection answers again: keep-alive held.
  send_raw(fd, post_rpc(R"({"id":2,"kind":"stats"})", true));
  const std::string second = read_one_response(fd);
  EXPECT_EQ(second.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << second;
  EXPECT_NE(body_of(second).find("\"id\":2"), std::string::npos);
  ::close(fd);
}

TEST(HttpTransportTest, ErrorCodeDrivesTheHttpStatus) {
  test_server server;
  // A protocol-level error line maps through status_for_code: a malformed
  // NDJSON request is a plain 400 with the dispatcher's own error body.
  const std::string bad =
      roundtrip(server.port(), post_rpc(R"({"id":1,"kind":"nope"})"));
  EXPECT_EQ(bad.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u) << bad;
  EXPECT_NE(body_of(bad).find("\"ok\":false"), std::string::npos);

  // An unknown job on status: still a 400-class answer, body intact.
  const std::string unknown = roundtrip(
      server.port(), post_rpc(R"({"id":1,"kind":"status","job":99999})"));
  EXPECT_EQ(unknown.rfind("HTTP/1.1 400", 0), 0u) << unknown;

  // Job events are an SSE route, not a request kind.
  const std::string subscribe =
      roundtrip(server.port(), post_rpc(R"({"id":1,"kind":"subscribe",)"
                                        R"("job":1})"));
  EXPECT_EQ(subscribe.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u)
      << subscribe;
  EXPECT_NE(body_of(subscribe).find("unknown request kind 'subscribe'"),
            std::string::npos)
      << subscribe;

  // Coded errors: a request_id reused with another payload is 409, and a
  // synchronous sweep whose timeout_ms expires is 504 (its waiter gives
  // up at the deadline however far the job got). A success is 200.
  const std::string keyed =
      roundtrip(server.port(),
                post_rpc(R"({"id":1,"kind":"sweep","request_id":"k1",)"
                         R"("codes":["BGC"],"lengths":[8],)"
                         R"("sigmas_vt":[0.05],"trials":60})"));
  EXPECT_EQ(keyed.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << keyed;
  const std::string conflict =
      roundtrip(server.port(),
                post_rpc(R"({"id":2,"kind":"sweep","request_id":"k1",)"
                         R"("codes":["BGC"],"lengths":[8],)"
                         R"("sigmas_vt":[0.05],"trials":80})"));
  EXPECT_EQ(conflict.rfind("HTTP/1.1 409 Conflict\r\n", 0), 0u) << conflict;
  EXPECT_NE(body_of(conflict).find("\"code\":\"request_id_conflict\""),
            std::string::npos);
  const std::string expired =
      roundtrip(server.port(),
                post_rpc(R"({"id":3,"kind":"sweep","codes":["BGC"],)"
                         R"("lengths":[8],"sigmas_vt":[0.06],)"
                         R"("trials":50000000,"timeout_ms":60})"));
  EXPECT_EQ(expired.rfind("HTTP/1.1 504 Gateway Timeout\r\n", 0), 0u)
      << expired;
  EXPECT_NE(body_of(expired).find("\"code\":\"timed_out\""),
            std::string::npos);
}

TEST(HttpTransportTest, TransportLevelRefusals) {
  test_server server;
  const std::string missing =
      roundtrip(server.port(), "GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_EQ(missing.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u) << missing;

  const std::string method =
      roundtrip(server.port(), "GET /v1/rpc HTTP/1.1\r\n\r\n");
  EXPECT_EQ(method.rfind("HTTP/1.1 405 Method Not Allowed\r\n", 0), 0u)
      << method;

  const std::string post_metrics =
      roundtrip(server.port(), "POST /metrics HTTP/1.1\r\n\r\n");
  EXPECT_EQ(post_metrics.rfind("HTTP/1.1 405 Method Not Allowed\r\n", 0),
            0u)
      << post_metrics;

  const std::string mangled = roundtrip(server.port(), "NOT-HTTP\r\n\r\n");
  EXPECT_EQ(mangled.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u) << mangled;

  const std::string chunked = roundtrip(
      server.port(),
      "POST /v1/rpc HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_EQ(chunked.rfind("HTTP/1.1 411 Length Required\r\n", 0), 0u)
      << chunked;

  const std::string version =
      roundtrip(server.port(), "GET /metrics HTTP/0.9\r\n\r\n");
  EXPECT_EQ(version.rfind("HTTP/1.1 505 ", 0), 0u) << version;
}

TEST(HttpTransportTest, OversizedRequestAnswers413AndCloses) {
  service::sweep_service service = make_service();
  dispatcher handler(service, {1, "", 64});
  tcp_limits tiny;
  tiny.max_request_bytes = 256;
  http_transport transport(0, 16, tiny);
  std::thread server([&] { transport.serve(handler); });

  const std::string big(1024, 'x');
  const std::string response =
      roundtrip(transport.port(), post_rpc(big));
  EXPECT_EQ(response.rfind("HTTP/1.1 413 ", 0), 0u) << response;
  EXPECT_NE(body_of(response).find("\"code\":\"payload_too_large\""),
            std::string::npos);

  transport.shutdown();
  server.join();
}

TEST(HttpTransportTest, MetricsRouteServesTheExposition) {
  test_server server;
  const std::string response = roundtrip(
      server.port(), "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(
      response.find("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
      std::string::npos);
  EXPECT_NE(response.find("\r\n\r\n# TYPE "), std::string::npos) << response;
  EXPECT_NE(response.find("nwdec_uptime_seconds"), std::string::npos);
}

TEST(HttpTransportTest, SseStreamEndsWithTheExactResultPayload) {
  test_server server;
  // Submit async over HTTP, wait for completion over HTTP.
  const std::string submit = roundtrip(
      server.port(),
      post_rpc(R"({"id":1,"kind":"sweep","async":true,"codes":["BGC"],)"
               R"("lengths":[8],"sigmas_vt":[0.05],"trials":60})"));
  const json_value submitted = json_parse(body_of(submit));
  const std::uint64_t job =
      static_cast<std::uint64_t>(submitted.at("job").as_number());
  const std::string status_response = roundtrip(
      server.port(),
      post_rpc(R"({"id":2,"kind":"status","job":)" + std::to_string(job) +
               R"(,"wait":true})"));
  const json_value status_root = json_parse(body_of(status_response));
  const json_value* status_result = status_root.find("result");
  ASSERT_NE(status_result, nullptr) << status_response;

  const std::string stream = roundtrip(server.port(), events_request(job));
  EXPECT_EQ(stream.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << stream;
  EXPECT_NE(stream.find("Content-Type: text/event-stream"),
            std::string::npos);

  const std::vector<sse_frame> frames = sse_frames(dechunk(body_of(stream)));
  ASSERT_EQ(frames.size(), 3u) << stream;
  EXPECT_EQ(frames[0].event, "queued");
  EXPECT_EQ(frames[1].event, "running");
  EXPECT_EQ(frames[2].event, "done");
  // Gap-free: the SSE ids run 1, 2, 3 and match each event's own seq.
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].id, std::to_string(i + 1)) << frames[i].data;
    const json_value event = json_parse(frames[i].data);
    EXPECT_EQ(static_cast<std::uint64_t>(event.at("seq").as_number()), i + 1);
    EXPECT_EQ(static_cast<std::uint64_t>(event.at("job").as_number()), job);
  }

  // The terminal frame's "result" is byte-identical to the status one.
  const json_value terminal = json_parse(frames.back().data);
  EXPECT_EQ(json_render(terminal.at("result"), json_writer::style::compact),
            json_render(*status_result, json_writer::style::compact));

  // ?from= resumes after a cursor: only the terminal frame remains.
  const std::string resumed = roundtrip(
      server.port(), "GET /v1/jobs/" + std::to_string(job) +
                         "/events?from=2 HTTP/1.1\r\nHost: t\r\n\r\n");
  const std::string resumed_frames = dechunk(body_of(resumed));
  EXPECT_EQ(resumed_frames.find("event: queued"), std::string::npos);
  EXPECT_NE(resumed_frames.find("event: done"), std::string::npos);

  const std::string unknown = roundtrip(
      server.port(), "GET /v1/jobs/424242/events HTTP/1.1\r\n\r\n");
  EXPECT_EQ(unknown.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u) << unknown;
}

TEST(HttpTransportTest, FailedJobStreamsItsErrorAsTheTerminalEvent) {
  // The evaluation failpoint fails the job in flight (submission itself
  // succeeds); disarm on every exit path.
  struct disarm_guard {
    ~disarm_guard() { failpoints::disarm_all(); }
  } guard;
  failpoints::arm("api.job.sweep.evaluate", failpoints::action::error);

  test_server server;
  const std::string submit = roundtrip(
      server.port(),
      post_rpc(R"({"id":1,"kind":"sweep","async":true,"codes":["BGC"],)"
               R"("lengths":[8],"sigmas_vt":[0.05],"trials":60})"));
  const std::uint64_t job = static_cast<std::uint64_t>(
      json_parse(body_of(submit)).at("job").as_number());
  const std::string status = roundtrip(
      server.port(),
      post_rpc(R"({"id":2,"kind":"status","job":)" + std::to_string(job) +
               R"(,"wait":true})"));
  EXPECT_NE(status.find("\"state\":\"failed\""), std::string::npos) << status;

  const std::vector<sse_frame> frames = sse_frames(
      dechunk(body_of(roundtrip(server.port(), events_request(job)))));
  ASSERT_GE(frames.size(), 2u);
  EXPECT_EQ(frames.back().event, "failed");
  const json_value terminal = json_parse(frames.back().data);
  EXPECT_EQ(terminal.at("event").as_string(), "failed");
  const json_value* error = terminal.find("error");
  ASSERT_NE(error, nullptr) << frames.back().data;
  EXPECT_NE(error->as_string().find("failpoint"), std::string::npos)
      << frames.back().data;
}

TEST(HttpTransportTest, JobIdAndFromMustBeDecimalU64) {
  test_server server;
  const std::string submit = server.handler.handle_line(
      R"({"id":1,"kind":"sweep","async":true,"codes":["BGC"],)"
      R"("lengths":[8],"sigmas_vt":[0.05],"trials":60})");
  ASSERT_EQ(json_parse(submit).at("job").as_number(), 1.0) << submit;
  server.handler.handle_line(R"({"id":2,"kind":"status","job":1,"wait":true})");
  const auto get = [&server](const std::string& target) {
    return roundtrip(server.port(),
                     "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n");
  };

  // 2^64 + 1 must not wrap onto job 1.
  const std::string wrapped = get("/v1/jobs/18446744073709551617/events");
  EXPECT_EQ(wrapped.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u) << wrapped;
  EXPECT_NE(wrapped.find("malformed job id"), std::string::npos) << wrapped;

  // A from past 2^64 - 1, or no number at all, is a bad request.
  for (const std::string from : {"18446744073709551616", "abc", "-1", "2x"}) {
    const std::string bad = get("/v1/jobs/1/events?from=" + from);
    EXPECT_EQ(bad.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u)
        << from << ": " << bad;
  }

  // The largest u64 is a valid cursor: the finished job replays nothing.
  const std::string caught_up =
      get("/v1/jobs/1/events?from=18446744073709551615");
  EXPECT_EQ(caught_up.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << caught_up;
  EXPECT_EQ(dechunk(body_of(caught_up)), "") << caught_up;
}

TEST(HttpTransportTest, DrainEndsAnOpenStreamWithTheBusDrainingEvent) {
  tcp_limits limits;
  limits.drain_ms = 5000;
  test_server server(limits);
  // Long enough to still be running when the drain begins; the cancel at
  // the end stops it within one 65536-trial chunk.
  const std::string submit = server.handler.handle_line(
      R"({"id":1,"kind":"sweep","async":true,"codes":["BGC"],)"
      R"("lengths":[8],"sigmas_vt":[0.05],"trials":50000000})");
  const std::uint64_t job = static_cast<std::uint64_t>(
      json_parse(submit).at("job").as_number());

  const int fd = connect_to(server.port());
  send_raw(fd, events_request(job));
  // Every read is deadlined, so a stream that never ends fails the test
  // instead of wedging it.
  std::string raw;
  char chunk[4096];
  const auto read_until = [&](const auto& done, int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!done()) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) return false;
      const long n = net::read_some(fd, chunk, sizeof(chunk),
                                    static_cast<int>(remaining));
      if (n == 0) return true;  // EOF
      if (n < 0) return false;
      raw.append(chunk, static_cast<std::size_t>(n));
    }
    return true;
  };
  ASSERT_TRUE(read_until(
      [&] { return raw.find("event: running") != std::string::npos; },
      10000))
      << raw;

  const auto drain_start = std::chrono::steady_clock::now();
  server.transport.shutdown();
  const bool ended = read_until([] { return false; }, limits.drain_ms);
  const auto drain_took = std::chrono::steady_clock::now() - drain_start;
  ::close(fd);
  server.handler.scheduler().cancel(job);

  ASSERT_TRUE(ended) << "the stream outlived the drain window: " << raw;
  EXPECT_LT(drain_took, std::chrono::milliseconds(limits.drain_ms));
  const std::vector<sse_frame> frames = sse_frames(dechunk(body_of(raw)));
  ASSERT_EQ(frames.size(), 3u) << raw;
  EXPECT_EQ(frames[1].event, "running");
  // The bus's own frame: it carries the stream's next seq (the SSE id
  // too) and the draining code.
  EXPECT_EQ(frames[2].event, "draining");
  EXPECT_EQ(frames[2].id, "3");
  EXPECT_EQ(frames[2].data, "{\"job\":" + std::to_string(job) +
                                ",\"seq\":3,\"event\":\"draining\","
                                "\"code\":\"draining\"}");
}

}  // namespace
}  // namespace nwdec::api
