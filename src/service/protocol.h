// service::protocol: the newline-delimited JSON request protocol of the
// nwdec_service daemon (tools/nwdec_service.cpp).
//
// One request per line, one response per line -- over stdin/stdout or a
// TCP connection (api/transport.h): the response bytes are identical
// either way. Every response echoes the request's "id" member verbatim
// (null when absent or unparseable) and carries "ok": true/false; failures
// add "error" with a diagnostic and never kill the daemon.
//
// Since PR 5 the grammar is owned by the typed layer in src/api/: requests
// parse into api::sweep_request / api::refine_request / api::status_request
// / ... (api/types.h documents every kind and field, including the async
// job model: "async": true submission, "priority", status/cancel, the
// per-sweep "min_half_width" CI target with cross-restart top-up, and
// "stats" {"detail": true}), and api::job_scheduler turns sweep/refine
// requests into jobs that coalesce across concurrent clients. Synchronous
// sweep | refine | stats | flush requests keep their PR 3 wire shape byte
// for byte -- the committed golden (tools/service_smoke/) pins it.
//
// PR 8 adds the observability surface: a "metrics" request kind answering
// a byte-stable JSON snapshot of the util/metrics registry (the same data
// the HTTP gateway's GET /metrics serves in Prometheus text format), a
// "trace" span object on status responses of jobs that ran, and
// "stats" {"detail": true} uptime/queue-depth/latency summaries. All of
// it is out-of-band: result payloads and the golden are unchanged.
//
// PR 9 hardens the protocol for hostile networks. Sweep/refine
// submissions may carry "request_id" (1-128 visible-ASCII characters,
// grammar in api/types.h): a retried submission whose key is in the
// scheduler's bounded dedup window maps to the EXISTING job (sync
// retries answer byte-identically; async retries report the same job id
// plus "deduplicated": true), and a reused key with different work is
// refused with "code": "request_id_conflict". Error responses carry a
// machine-readable "code" after "error"; the retry classes (documented
// at api::error_response_json in api/dispatch.h) are: "overloaded" ->
// back off and retry on the same connection; "idle_timeout" |
// "read_timeout" | "too_many_connections" | "draining" -> retry on a
// fresh connection; "timed_out" | "payload_too_large" |
// "request_id_conflict" -> do not retry. api::resilient_client
// implements exactly this ladder.
//
// The HTTP/1.1 gateway (--http-port) carries the same grammar: POST
// /v1/rpc takes request line(s) verbatim (response bytes identical to
// this protocol; error "code" -> HTTP status), GET /v1/jobs/{id}/events
// pushes the job's event lines {"job":J,"seq":N,"event":...} as
// Server-Sent Events (gap-free seqs, ?from=S resumes after S, the
// terminal event's "result" byte-identical to a status {"wait": true}
// response's; a slow consumer is evicted with a closing
// "event_overflow" event, a drain ends streams with "draining"), and GET
// /metrics serves the Prometheus exposition. See api/http_transport.h;
// the bus itself is api/event_bus.h.
//
// PR 10 also adds store-aware admission: a synchronous sweep the store
// can answer at full provenance is served inline at submit time (no job,
// "cached":N,"computed":0, same result bytes; counted by
// jobs.answered_inline and nwdec_jobs_answered_inline_total). Async
// submissions always mint a job.
//
// Worked examples, including driving the socket transport with nc and
// the HTTP gateway with curl, live in bench/README.md.
//
// Determinism: the "result" member of sweep/refine responses is a pure
// function of (service configuration, request) -- cache provenance counts
// live only in the wrapper -- so answers served cold, from memory, from a
// persisted cache file, topped up, batched with other jobs, or over either
// transport are byte-identical there, at any worker count.
#pragma once

#include <string>

#include "api/dispatch.h"
#include "service/refine.h"
#include "service/sweep_service.h"
#include "util/json.h"

namespace nwdec::service {

/// Request dispatcher bound to one service (and optionally the daemon's
/// cache file, which `flush` persists to) -- a facade over api::dispatcher
/// kept for single-threaded callers (tests, the CLI). The daemon
/// constructs api::dispatcher directly to choose the worker count.
class protocol_handler {
 public:
  protocol_handler(sweep_service& service, std::string cache_path,
                   std::size_t workers = 1);

  /// Handles one request line and returns exactly one single-line JSON
  /// response (including the trailing newline). Never throws: every
  /// failure, from malformed JSON up, becomes an "ok": false response.
  std::string handle_line(const std::string& line);

 private:
  api::dispatcher dispatcher_;
};

}  // namespace nwdec::service
