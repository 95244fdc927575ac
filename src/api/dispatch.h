// api::dispatcher: typed request dispatch, decoupled from any transport.
//
// handle_line() is the whole service surface: one NDJSON request line in,
// exactly one single-line JSON response out (trailing newline included),
// never throwing -- every failure, from malformed JSON up, becomes an
// "ok": false response with an "error" diagnostic, and no request kills
// the daemon. Every response carries "ok" and echoes the request's "id"
// (null when absent or unparseable) as the same JSON value in compact
// form; api/types.h (request_header::client_id) states what that means
// for strings and numbers. It is safe to call from any number of
// transport threads concurrently (the socket servers call it from one
// thread per connection; the stdio loop from one), and the response bytes
// are the same whichever transport carried the line.
//
// Verdict: respond() returns the same line together with the verdict it
// carries -- `ok` and the error `code` equal what json_parse(line) reads
// from the line's "ok" and "code" members ("" when it has no "code").
// Each handler sets the verdict where it renders the line, including the
// error lines it returns rather than throws (failed, cancelled, timed-out
// and draining synchronous jobs; unknown or finished job ids; an expired
// result), so the HTTP gateway maps its status without parsing its own
// output.
//
// Sweep and refine requests become jobs on the scheduler. Synchronous
// requests (the legacy protocol) submit, wait, and render the completed
// job in the PR 3 wire shape -- the committed daemon golden pins those
// bytes. "async": true requests return
//   {"id": ..., "kind": "sweep", "ok": true, "async": true, "job": N,
//    "state": "queued"}
// immediately; the result is fetched (or awaited) with status requests.
// status/cancel/stats/flush are served inline -- they inspect shared
// state and never queue.
//
// Determinism: the "result" member of sweep/refine responses is a pure
// function of (service configuration, request) -- cache provenance counts
// live only in the wrapper -- so answers served cold, from memory, from a
// persisted cache file, topped up, batched with other jobs, or over any
// transport are byte-identical there, at any worker count.
#pragma once

#include <string>

#include "api/job_scheduler.h"
#include "api/types.h"
#include "service/sweep_service.h"

namespace nwdec::api {

/// One response line and its verdict (see the file comment).
struct reply {
  std::string line;
  bool ok = true;
  std::string code;
};

class dispatcher {
 public:
  struct options {
    /// Scheduler worker threads (0 = hardware concurrency).
    std::size_t workers = 1;
    /// Cache file `flush` persists to ('' = in-memory only).
    std::string cache_path;
    /// Finished jobs retained for status fetches.
    std::size_t retain_finished = 1024;
    /// Scheduler queue bound: submissions past this many waiting jobs get
    /// an "overloaded" error response (0 = unbounded).
    std::size_t max_queued = 4096;
    /// Jobs whose submit->terminal wall exceeds this are logged as
    /// `slow_request` warn records (0 = never; the daemon's --slow-ms).
    std::size_t slow_request_ms = 1000;
    /// request_id idempotency keys remembered for duplicate-submit
    /// detection (the daemon's --dedup-window; 0 disables).
    std::size_t dedup_window = 4096;
  };

  explicit dispatcher(service::sweep_service& service);
  dispatcher(service::sweep_service& service, options opts);

  /// One request line in, one response line and its verdict out.
  reply respond(const std::string& line);
  /// respond(line).line.
  std::string handle_line(const std::string& line);

  job_scheduler& scheduler() { return scheduler_; }

 private:
  /// Shared sweep/refine submission path (async reply or synchronous
  /// wait; request_id retries report their existing job; fully-cached
  /// synchronous sweeps are answered inline by the scheduler's
  /// store-aware admission).
  reply submit_job(const request& parsed, const char* kind);
  reply handle(const sweep_request& request);
  reply handle(const refine_request& request);
  reply handle(const status_request& request);
  reply handle(const cancel_request& request);
  reply handle(const stats_request& request);
  reply handle(const flush_request& request);
  reply handle(const metrics_request& request);
  /// Renders a terminal job in the legacy synchronous wire shape.
  reply sync_response(const json_value& id, const job_result& job);

  service::sweep_service& service_;
  std::string cache_path_;
  job_scheduler scheduler_;
};

/// The "ok": false response every failure renders to. A non-empty `code`
/// appends a machine-readable "code" member after "error" (the legacy
/// shape is a byte-prefix of the coded one, so old clients keep parsing).
/// The code vocabulary, by retry class:
///   * retryable as-is, after backoff -- "overloaded" (queue bound shed
///     the job);
///   * retryable on a fresh connection -- "idle_timeout" (transport
///     closed an idle connection), "read_timeout" (a request line was
///     left incomplete past the read deadline), "too_many_connections"
///     (the accept cap shed the connection), "draining" (the daemon
///     shut down before the job could run -- retry lands on the
///     restarted instance);
///   * NOT retryable as-is -- "timed_out" (the job's own deadline
///     expired), "payload_too_large" (request line over the transport's
///     byte cap), "request_id_conflict" (idempotency key reused with a
///     different payload).
/// api::resilient_client implements exactly this classification.
std::string error_response_json(const json_value& id,
                                const std::string& what,
                                const std::string& code = "");

}  // namespace nwdec::api
