#include "api/http_transport.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <optional>
#include <system_error>
#include <vector>

#include "api/dispatch.h"
#include "api/event_bus.h"
#include "api/job_scheduler.h"
#include "api/transport_metrics.h"
#include "util/metrics.h"
#include "util/net.h"

namespace nwdec::api {

namespace {

// A decimal u64: digits only, no sign, no overflow (2^64 + 1 must not
// wrap onto job 1); nullopt otherwise.
std::optional<std::uint64_t> parse_u64(const std::string& digits) {
  std::uint64_t value = 0;
  const char* last = digits.data() + digits.size();
  const std::from_chars_result parsed =
      std::from_chars(digits.data(), last, value);
  if (parsed.ec != std::errc() || parsed.ptr != last) return std::nullopt;
  return value;
}

// An error answered at the HTTP layer still carries the NDJSON error
// shape in its body, so a client can treat every failure uniformly.
std::string http_error(int status, const std::string& what,
                       const std::string& code = "",
                       const std::vector<std::string>& extra = {}) {
  return http::response(status, "application/json",
                        error_response_json(json_value(), what, code), false,
                        extra);
}

// One SSE frame, chunk-encoded: `id:` carries the sequence number so
// EventSource reconnects can resume, `event:` the lifecycle type, and
// `data:` the exact NDJSON event line (newline stripped) -- the SSE
// framing is transport dressing around the same bytes the raw socket
// pushes.
std::string sse_chunk(const job_event& event) {
  std::string line = event.line;
  while (!line.empty() && line.back() == '\n') line.pop_back();
  std::string frame = "id: " + std::to_string(event.seq) + "\n" +
                      "event: " + event.type + "\n" + "data: " + line +
                      "\n\n";
  char size[32];
  std::snprintf(size, sizeof(size), "%zx\r\n", frame.size());
  return size + frame + "\r\n";
}

}  // namespace

http_transport::http_transport(std::uint16_t port, int backlog,
                               tcp_limits limits)
    : socket_server(port, backlog, limits) {}

void http_transport::drain_started(dispatcher& handler) {
  handler.scheduler().events().close_all();
}

std::string http_transport::shed_response() const {
  return http_error(
      503,
      "connection limit (" + std::to_string(limits().max_connections) +
          ") reached; retry after backoff",
      "too_many_connections", {"Retry-After: 1"});
}

void http_transport::serve_connection(int client, dispatcher& handler) {
  using clock = std::chrono::steady_clock;
  http::request_parser parser(limits().max_request_bytes);
  char chunk[4096];
  // When the current (partial) request's first byte arrived -- the HTTP
  // analogue of the NDJSON transport's partial-line clock.
  clock::time_point request_since{};
  for (;;) {
    // Same two clocks as the raw socket: the idle clock runs while no
    // request is in flight (expiry closes silently -- nothing was owed),
    // the read deadline runs from a request's first byte (expiry answers
    // 408 -- the peer started something and deserves the diagnosis).
    int wait_ms =
        parser.idle() && limits().idle_timeout_ms > 0
            ? limits().idle_timeout_ms
            : -1;
    if (!parser.idle() && limits().read_deadline_ms > 0) {
      const auto deadline =
          request_since +
          std::chrono::milliseconds(limits().read_deadline_ms);
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                clock::now())
              .count();
      if (remaining <= 0) {
        transport_metrics::get().read_timeouts.inc();
        net::send_all(client,
                      http_error(408,
                                 "request incomplete past the read "
                                 "deadline; closing connection",
                                 "read_timeout"));
        return;
      }
      wait_ms = static_cast<int>(remaining);
    }
    if (wait_ms >= 0) {
      pollfd waiting{client, POLLIN, 0};
      const int ready = ::poll(&waiting, 1, wait_ms);
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) return;
      if (ready == 0) {
        if (!parser.idle()) continue;  // deadline check above decides
        transport_metrics::get().idle_timeouts.inc();
        return;  // idle close: no request in flight, nothing owed
      }
    }
    const ssize_t n = ::read(client, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    if (parser.idle()) request_since = clock::now();
    parser.consume(chunk, static_cast<std::size_t>(n));
    while (parser.state() == http::request_parser::phase::complete) {
      if (!handle_request(client, parser.result(), handler)) return;
      parser.reset();  // may complete again on pipelined leftovers
      request_since = clock::now();
    }
    if (parser.state() == http::request_parser::phase::failed) {
      if (parser.error_status() == 413) {
        transport_metrics::get().oversized.inc();
      }
      net::send_all(
          client,
          http_error(parser.error_status(), parser.error_reason(),
                     parser.error_status() == 413 ? "payload_too_large"
                                                  : ""));
      return;
    }
  }
}

bool http_transport::handle_request(int client,
                                    const http::request& request,
                                    dispatcher& handler) {
  // During drain every response closes so peers reconnect to a live
  // instance instead of queueing more work on a dying one.
  const bool keep_alive = request.keep_alive && !draining();
  const std::string path = request.path();

  if (path == "/metrics") {
    if (request.method != "GET") {
      net::send_all(client,
                    http_error(405, "only GET is supported on /metrics"));
      return false;
    }
    return serve_metrics(client, request, keep_alive);
  }
  if (path == "/v1/rpc") {
    if (request.method != "POST") {
      net::send_all(client,
                    http_error(405, "only POST is supported on /v1/rpc"));
      return false;
    }
    return serve_rpc(client, request, handler, keep_alive);
  }
  if (path.rfind("/v1/jobs/", 0) == 0 &&
      path.size() > 16 &&
      path.compare(path.size() - 7, 7, "/events") == 0) {
    if (request.method != "GET") {
      net::send_all(
          client, http_error(405, "only GET is supported on an event "
                                  "stream"));
      return false;
    }
    const std::optional<std::uint64_t> job =
        parse_u64(path.substr(9, path.size() - 16));
    if (!job.has_value()) {
      net::send_all(client,
                    http_error(404, "malformed job id in '" + path + "'"));
      return false;
    }
    serve_events(client, request, handler, *job);
    return false;  // the stream always ends the connection
  }
  net::send_all(
      client,
      http_error(404, "unknown path '" + path +
                          "' (try POST /v1/rpc, GET /v1/jobs/{id}/events, "
                          "GET /metrics)"));
  return false;
}

bool http_transport::serve_rpc(int client, const http::request& request,
                               dispatcher& handler, bool keep_alive) {
  // The body is the NDJSON protocol verbatim: one request per line, each
  // answered with exactly the line the raw socket would produce.
  std::vector<reply> responses;
  std::size_t cursor = 0;
  while (cursor <= request.body.size()) {
    std::size_t end = request.body.find('\n', cursor);
    if (end == std::string::npos) end = request.body.size();
    std::string line = request.body.substr(cursor, end - cursor);
    cursor = end + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    responses.push_back(handler.respond(line));
  }
  if (responses.empty()) {
    net::send_all(client,
                  http_error(400, "empty request body (expected one or "
                                  "more NDJSON request lines)"));
    return false;
  }
  if (responses.size() == 1) {
    // One request, one response: surface its error class as the HTTP
    // status so plain HTTP clients get retry semantics without parsing
    // the body. 503 carries Retry-After, matching the backoff the
    // resilient client applies to the same codes.
    const reply& only = responses.front();
    const int status = http::status_for_code(only.code, only.ok);
    std::vector<std::string> extra;
    if (status == 503) extra.push_back("Retry-After: 1");
    return net::send_all(client, http::response(status, "application/json",
                                                only.line, keep_alive,
                                                extra)) &&
           keep_alive;
  }
  // A batch answers 200 + NDJSON: per-line verdicts live in the lines,
  // exactly as they do on the socket.
  std::string body;
  for (const reply& response : responses) body += response.line;
  return net::send_all(client,
                       http::response(200, "application/x-ndjson", body,
                                      keep_alive)) &&
         keep_alive;
}

bool http_transport::serve_metrics(int client, const http::request&,
                                   bool keep_alive) {
  // The uptime gauge is set at scrape time (not continuously) so every
  // value in one exposition was read at the same moment.
  metrics::registry& registry = metrics::registry::global();
  registry.get_gauge("nwdec_uptime_seconds").set(registry.uptime_seconds());
  return net::send_all(
             client,
             http::response(200,
                            "text/plain; version=0.0.4; charset=utf-8",
                            metrics::to_prometheus(registry.snapshot()),
                            keep_alive)) &&
         keep_alive;
}

void http_transport::serve_events(int client, const http::request& request,
                                  dispatcher& handler, std::uint64_t job) {
  const std::string from_param = request.query_param("from");
  const std::optional<std::uint64_t> from =
      from_param.empty() ? 0 : parse_u64(from_param);
  if (!from.has_value()) {
    net::send_all(client,
                  http_error(400, "malformed 'from' value '" + from_param +
                                      "' (expected a decimal sequence "
                                      "number)"));
    return;
  }
  event_bus& bus = handler.scheduler().events();
  std::optional<event_bus::cursor> reader = bus.subscribe(job, *from);
  if (!reader.has_value()) {
    net::send_all(client,
                  http_error(404, "unknown job id " + std::to_string(job) +
                                      " (never submitted, or already "
                                      "forgotten)"));
    return;
  }
  if (!net::send_all(client,
                     "HTTP/1.1 200 OK\r\n"
                     "Content-Type: text/event-stream\r\n"
                     "Cache-Control: no-cache\r\n"
                     "Transfer-Encoding: chunked\r\n"
                     "Connection: close\r\n"
                     "\r\n")) {
    return;
  }
  // The stream ends once the cursor does: terminal event or the drain's
  // draining event.
  constexpr int kPollMs = 250;
  while (!reader->ended()) {
    const std::optional<job_event> event = bus.next(*reader, kPollMs);
    if (event.has_value() && !net::send_all(client, sse_chunk(*event))) {
      return;
    }
  }
  net::send_all(client, "0\r\n\r\n");  // chunked-encoding terminator
}

}  // namespace nwdec::api
