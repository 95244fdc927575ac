// api::tcp_transport: the raw NDJSON socket front end of the nwdec
// service, built on the socket_server chassis (bind/listen, accept loop,
// shutdown pipe, connection bookkeeping, graceful drain -- see
// api/socket_server.h; the HTTP gateway shares the same chassis).
//
// Each connection speaks the same NDJSON protocol as stdin/stdout: one
// request per line, one response line per request, written in that
// connection's request order (concurrency across connections comes from
// the job scheduler underneath, so two clients' sweep jobs coalesce into
// one engine run). Responses are byte-identical to the stdio
// transport's -- the dispatcher is shared and the CI smoke diffs the two.
//
// Self-protection (tcp_limits, shared with the chassis): the socket is
// unauthenticated, so every per-connection resource is bounded and every
// bound closes with a machine-readable error line (never a silent RST):
//   * idle_timeout_ms  -- a peer that sends no bytes for this long gets
//     "code": "idle_timeout" and the connection closes;
//   * read_deadline_ms -- a peer that starts a request line but never
//     finishes it (slowloris: one byte per poll keeps the idle clock
//     happy forever) gets "code": "read_timeout" once the partial line is
//     this old;
//   * max_request_bytes -- a request line past this many bytes gets
//     "code": "payload_too_large" (bounded memory per connection);
//   * max_connections  -- an accept past this many live connections is
//     answered "code": "too_many_connections" and closed immediately
//     (bounded threads/fds; the client retries after backoff).
//
// Shutdown: shutdown() (thread-safe, idempotent) stops the accept loop,
// unblocks every connection, and makes serve() return after the
// connection threads deregister; with drain_ms > 0 in-flight requests
// first get a grace window (socket_server semantics).
//
//   $ nwdec_service --listen 4750 &
//   $ printf '%s\n' '{"id":1,"kind":"sweep","codes":["BGC"],
//       "lengths":[10],"trials":150}' | nc 127.0.0.1 4750
#pragma once

#include <cstdint>

#include "api/socket_server.h"

namespace nwdec::api {

class tcp_transport final : public socket_server {
 public:
  explicit tcp_transport(std::uint16_t port, int backlog = 64,
                         int idle_timeout_ms = 0);
  tcp_transport(std::uint16_t port, int backlog, tcp_limits limits);

 protected:
  void serve_connection(int client, dispatcher& handler) override;
  std::string shed_response() const override;
};

}  // namespace nwdec::api
