// api::socket_server -- the listener/lifecycle chassis shared by every
// socket front end of the service (the raw NDJSON tcp_transport and the
// HTTP/1.1 http_transport).
//
// The chassis owns everything that is protocol-independent and easy to
// get wrong twice: bind/listen (IPv4 any, SO_REUSEADDR, ephemeral-port
// reporting), the accept loop with its async-signal-safe shutdown wake
// pipe, connection registration and accept-shedding at max_connections,
// one detached thread per connection with deregister-before-close
// bookkeeping, and graceful drain (half-close, bounded wait, the
// drain-deadline action, force-close). A protocol front end derives and
// implements exactly two things: serve_connection() -- the per-
// connection read/answer loop -- and shed_response() -- the bytes an
// over-cap connection is answered with before closing (an NDJSON error
// line or an HTTP 503, each in its own protocol). It may also override
// drain_started() to release long-lived work of the dispatcher it serves
// when a drain begins.
//
// The per-connection resource bounds (tcp_limits) are shared verbatim
// across protocols: the same --idle-timeout-ms / --read-deadline-ms /
// --max-request-bytes / --max-connections / --drain-ms configuration
// protects the NDJSON socket and the HTTP gateway alike.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "api/dispatch.h"

namespace nwdec::api {

/// Per-connection resource bounds (see tcp_transport.h for the error
/// code each bound answers with on the NDJSON protocol; the HTTP
/// gateway maps them onto status codes). The defaults keep the PR 4
/// behavior: no timeouts, no connection cap, a 4 MiB request cap,
/// immediate shutdown.
struct tcp_limits {
  /// Close a connection that sends no bytes for this long (0 = never).
  int idle_timeout_ms = 0;
  /// Close a connection whose partial request is this old (0 = never).
  /// Defeats slowloris peers that dribble bytes forever.
  int read_deadline_ms = 0;
  /// Error out a request past this many bytes.
  std::size_t max_request_bytes = std::size_t{4} << 20;  // 4 MiB
  /// Shed accepts past this many live connections (0 = unbounded).
  std::size_t max_connections = 0;
  /// Graceful-drain window on shutdown: half-close connections, wait
  /// this long for in-flight requests to finish, then force-close
  /// (0 = force-close immediately, the PR 4 behavior).
  int drain_ms = 0;
};

class socket_server {
 public:
  /// Binds and listens immediately (so port() is valid before serve());
  /// port 0 picks an ephemeral port. Throws nwdec::error on any socket
  /// failure.
  socket_server(std::uint16_t port, int backlog, tcp_limits limits);
  virtual ~socket_server();
  socket_server(const socket_server&) = delete;
  socket_server& operator=(const socket_server&) = delete;

  /// The bound port (the ephemeral pick when constructed with 0).
  std::uint16_t port() const { return port_; }

  /// Accept loop; returns 0 after shutdown() completes it.
  int serve(dispatcher& handler);

  /// Requests serve() to stop; safe from any thread, idempotent.
  void shutdown();

  /// Write end of the shutdown wake pipe: write(shutdown_fd(), "x", 1)
  /// is the async-signal-safe equivalent of shutdown() for use inside a
  /// signal handler.
  int shutdown_fd() const { return wake_write_; }

  /// True once shutdown has been observed by serve(): connection loops
  /// use it to stop starting long-lived work (the HTTP gateway stops
  /// keeping connections alive).
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// Runs when the drain window expires with connections still busy --
  /// before they are force-closed. The daemon points this at the
  /// scheduler's cancel_all() so a connection thread blocked inside a
  /// long synchronous evaluation is released cooperatively (a force-
  /// closed socket alone cannot unblock a thread waiting on a job).
  /// Set before serve(); called without transport locks held.
  void set_drain_deadline_action(std::function<void()> action) {
    drain_deadline_action_ = std::move(action);
  }

 protected:
  const tcp_limits& limits() const { return limits_; }

  /// Runs once when serve() begins shutting down, after draining() turns
  /// true and BEFORE connections are half-closed, without transport
  /// locks held, with the dispatcher serve() was given. The HTTP gateway
  /// ends that dispatcher's event streams here so their connection
  /// threads drain like any other in-flight request.
  virtual void drain_started(dispatcher&) {}

  /// The per-connection protocol loop. Runs on a detached thread; must
  /// NOT close `client` or touch the registration bookkeeping -- the
  /// chassis deregisters and closes after it returns.
  virtual void serve_connection(int client, dispatcher& handler) = 0;

  /// The bytes an accept past max_connections is answered with before
  /// the immediate close (protocol-appropriate: an NDJSON
  /// "too_many_connections" error line, an HTTP 503).
  virtual std::string shed_response() const = 0;

 private:
  int listen_fd_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::uint16_t port_ = 0;
  tcp_limits limits_;
  std::atomic<bool> draining_{false};
  std::function<void()> drain_deadline_action_;

  // Connection threads run detached (a long-lived daemon must not hoard
  // one joinable thread per connection ever served); serve() instead
  // counts them and blocks on idle_cv_ until the last one deregisters.
  std::mutex mutex_;  ///< guards clients_ and active_
  std::condition_variable idle_cv_;
  std::vector<int> clients_;
  std::size_t active_ = 0;
};

}  // namespace nwdec::api
