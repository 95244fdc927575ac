// api::http_transport -- the HTTP/1.1 front door of the nwdec service,
// on the same socket_server chassis (and the same tcp_limits bounds) as
// the raw NDJSON transport.
//
// Routes:
//   * POST /v1/rpc -- the NDJSON protocol carried verbatim: the body is
//     one or more request lines, each dispatched exactly as the raw
//     socket would (same dispatcher, byte-identical response lines). A
//     single-line body answers with Content-Type: application/json and
//     the HTTP status http::status_for_code maps from the verdict
//     dispatcher::respond returns with the line ("ok" and the error
//     "code"; the line itself is never parsed again; 503 carries
//     Retry-After: 1). A multi-line body always answers 200 with
//     application/x-ndjson (per-line statuses live in the lines
//     themselves, exactly like the socket).
//   * GET /v1/jobs/{id}/events[?from=N] -- the job's lifecycle event
//     stream as Server-Sent Events (Content-Type: text/event-stream,
//     chunked): one frame per event, `id:` = the event's sequence
//     number, `event:` = its type, `data:` = the exact NDJSON event
//     line (newline stripped). The terminal frame's "result" payload is
//     byte-identical to a status {"wait": true} response's. The events
//     come from the served dispatcher's scheduler (job_scheduler::
//     events()). The stream ends (zero-length chunk, connection close)
//     after the terminal event -- or with the event bus's draining event
//     once this gateway's drain began, also for a stream opened after
//     that. 404 for an unknown/forgotten job or an id that is not a
//     decimal u64; "from" resumes after a seq (400 unless a decimal
//     u64).
//   * GET /metrics -- the Prometheus text exposition.
//
// Transport-level answers (before any route): malformed request -> 400,
// Transfer-Encoding body -> 411, request over max_request_bytes -> 413
// (connection closes), unknown path -> 404, wrong method -> 405, a
// request cut off by read_deadline_ms -> 408 (connection closes), idle
// past idle_timeout_ms -> silent close (nothing was in flight),
// over-cap accept -> 503 with Retry-After (the chassis sheds it).
// Keep-alive follows HTTP/1.1 semantics; during drain every response
// closes (Connection: close) so peers re-connect elsewhere.
#pragma once

#include <cstdint>
#include <string>

#include "api/http.h"
#include "api/socket_server.h"

namespace nwdec::api {

class http_transport final : public socket_server {
 public:
  http_transport(std::uint16_t port, int backlog, tcp_limits limits);

 protected:
  void serve_connection(int client, dispatcher& handler) override;
  std::string shed_response() const override;
  /// Puts the scheduler's event bus in drain: every open and every later
  /// stream ends with the bus's draining event.
  void drain_started(dispatcher& handler) override;

 private:
  /// Serves one parsed request; returns false when the connection must
  /// close (error, explicit Connection: close, SSE stream ended).
  bool handle_request(int client, const http::request& request,
                      dispatcher& handler);
  bool serve_rpc(int client, const http::request& request,
                 dispatcher& handler, bool keep_alive);
  bool serve_metrics(int client, const http::request& request,
                     bool keep_alive);
  /// The SSE pump; always ends the connection.
  void serve_events(int client, const http::request& request,
                    dispatcher& handler, std::uint64_t job);
};

}  // namespace nwdec::api
