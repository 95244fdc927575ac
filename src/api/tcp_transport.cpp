#include "api/tcp_transport.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <string>

#include "api/transport_metrics.h"
#include "util/net.h"

namespace nwdec::api {

tcp_transport::tcp_transport(std::uint16_t port, int backlog,
                             int idle_timeout_ms)
    : tcp_transport(port, backlog, [&] {
        tcp_limits limits;
        limits.idle_timeout_ms = idle_timeout_ms;
        return limits;
      }()) {}

tcp_transport::tcp_transport(std::uint16_t port, int backlog,
                             tcp_limits limits)
    : socket_server(port, backlog, limits) {}

std::string tcp_transport::shed_response() const {
  return error_response_json(
      json_value(),
      "connection limit (" + std::to_string(limits().max_connections) +
          ") reached; retry after backoff",
      "too_many_connections");
}

void tcp_transport::serve_connection(int client, dispatcher& handler) {
  using clock = std::chrono::steady_clock;
  std::string buffer;
  char chunk[4096];
  bool peer_gone = false;
  // When the buffered partial line started (slowloris clock); reset every
  // time the buffer drains back to empty.
  clock::time_point partial_since{};
  const auto answer = [&](std::string line) {
    if (!line.empty() && line.back() == '\r') line.pop_back();  // nc/telnet
    if (line.empty()) return;
    // A failed send means the peer is gone; the read loop stops.
    if (!net::send_all(client, handler.handle_line(line))) peer_gone = true;
  };
  for (;;) {
    // Bound how long a peer may hold this connection thread (and its fd)
    // without progress: poll before blocking in read, and on expiry say
    // why the connection is closing -- a client stuck mid-request
    // deserves a diagnosis, not a silent RST. Two clocks run here: the
    // idle clock resets on every received byte; the read-deadline clock
    // only resets when a full line arrives, so a slowloris peer dribbling
    // one byte per poll still runs out of budget.
    int wait_ms =
        limits().idle_timeout_ms > 0 ? limits().idle_timeout_ms : -1;
    if (!buffer.empty() && limits().read_deadline_ms > 0) {
      const auto deadline =
          partial_since +
          std::chrono::milliseconds(limits().read_deadline_ms);
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                clock::now())
              .count();
      if (remaining <= 0) {
        transport_metrics::get().read_timeouts.inc();
        net::send_all(client,
                      error_response_json(
                          json_value(),
                          "request line incomplete past the read deadline; "
                          "closing connection",
                          "read_timeout"));
        // The peer was just told this line never completed; answering its
        // fragments after that would contradict the diagnosis.
        buffer.clear();
        break;
      }
      if (wait_ms < 0 || remaining < wait_ms)
        wait_ms = static_cast<int>(remaining);
    }
    if (wait_ms >= 0) {
      pollfd waiting{client, POLLIN, 0};
      const int ready = ::poll(&waiting, 1, wait_ms);
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0) break;
      if (ready == 0) {
        if (!buffer.empty() && limits().read_deadline_ms > 0) {
          // Could be either clock; loop back so the deadline check above
          // decides (and emits the read_timeout line if it expired).
          continue;
        }
        transport_metrics::get().idle_timeouts.inc();
        net::send_all(client,
                      error_response_json(json_value(),
                                          "connection idle for too long; "
                                          "closing",
                                          "idle_timeout"));
        buffer.clear();  // never answer fragments after announcing a close
        break;
      }
    }
    const ssize_t n = ::read(client, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    if (buffer.empty()) partial_since = clock::now();
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t newline = 0;
    while (!peer_gone && (newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      partial_since = clock::now();  // the next line's budget starts now
      answer(std::move(line));
    }
    if (buffer.size() > limits().max_request_bytes) {
      // Hard cap on one pending request line: a peer streaming bytes
      // without ever sending a newline must cost bounded memory. Real
      // requests are a few hundred bytes; the largest sane grids are
      // well under the 4 MiB default.
      transport_metrics::get().oversized.inc();
      net::send_all(
          client,
          error_response_json(
              json_value(),
              "request line exceeds the " +
                  std::to_string(limits().max_request_bytes) +
                  " byte limit; closing connection",
              "payload_too_large"));
      buffer.clear();
      break;
    }
    if (peer_gone) break;
  }
  // A final request without a trailing newline still gets its answer --
  // the stdio transport (std::getline) serves such scripts, and the two
  // transports promise identical behavior.
  if (!peer_gone && !buffer.empty()) {
    answer(std::move(buffer));
  }
  // The chassis deregisters and closes the fd after this returns.
}

}  // namespace nwdec::api
