#include "api/socket_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "api/transport_metrics.h"
#include "util/error.h"
#include "util/log.h"
#include "util/net.h"

namespace nwdec::api {

socket_server::socket_server(std::uint16_t port, int backlog,
                             tcp_limits limits)
    : limits_(limits) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw error("socket_server: cannot create socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_ANY);
  address.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    ::close(listen_fd_);
    throw error("socket_server: cannot bind port " + std::to_string(port) +
                " (" + std::strerror(errno) + ")");
  }
  if (::listen(listen_fd_, backlog) != 0) {
    ::close(listen_fd_);
    throw error("socket_server: cannot listen on port " +
                std::to_string(port));
  }
  socklen_t length = sizeof(address);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                    &length) != 0) {
    ::close(listen_fd_);
    throw error("socket_server: cannot read the bound port");
  }
  port_ = ntohs(address.sin_port);

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    ::close(listen_fd_);
    throw error("socket_server: cannot create the shutdown pipe");
  }
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
}

socket_server::~socket_server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
}

void socket_server::shutdown() {
  // One byte on the wake pipe; write() is async-signal-safe, so signal
  // handlers can do exactly this through shutdown_fd().
  const char wake = 'x';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_, &wake, 1);
}

int socket_server::serve(dispatcher& handler) {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_read_, POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // shutdown requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    {
      // Register before the thread exists so serve()'s drain barrier can
      // never miss a connection that is about to start.
      const std::lock_guard<std::mutex> lock(mutex_);
      if (limits_.max_connections > 0 &&
          active_ >= limits_.max_connections) {
        // Accept-shedding: past the cap every connection thread we could
        // start is one a hostile peer could pin, so answer with the
        // protocol's retry-on-a-fresh-connection response and close
        // inline -- the response is tiny, so the one blocking send here
        // cannot stall the accept loop the way serving would.
        transport_metrics::get().shed.inc();
        net::send_all(client, shed_response());
        ::close(client);
        continue;
      }
      clients_.push_back(client);
      ++active_;
      transport_metrics::get().accepted.inc();
      transport_metrics::get().active.set(static_cast<double>(active_));
    }
    std::thread([this, client, &handler] {
      serve_connection(client, handler);
      // Deregister before close so a reused fd number can never be
      // confused with this connection by a concurrent shutdown().
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (int& fd : clients_) {
          if (fd == client) {
            std::swap(fd, clients_.back());
            clients_.pop_back();
            break;
          }
        }
        --active_;
        transport_metrics::get().active.set(static_cast<double>(active_));
        idle_cv_.notify_all();
      }
      ::close(client);
    }).detach();
  }

  // Shutdown observed: flip the drain flag and run the drain-start hook
  // BEFORE half-closing anything, so connections parked on long-lived
  // work (the gateway's SSE streams) are released into the same drain
  // window as ordinary requests.
  draining_.store(true, std::memory_order_relaxed);
  drain_started(handler);

  std::unique_lock<std::mutex> lock(mutex_);
  if (limits_.drain_ms > 0 && active_ > 0) {
    // Graceful drain: half-close every connection -- their reads return
    // 0, so each thread answers what it already buffered and exits --
    // and give in-flight requests up to drain_ms to finish before the
    // hard close below. Responses still flow during the window (only
    // the read side is shut).
    transport_metrics::get().drains.inc();
    logging::event(logging::level::info, "tcp", "draining")
        .field("connections", active_)
        .field("drain_ms", limits_.drain_ms);
    const auto drain_start = std::chrono::steady_clock::now();
    for (const int client : clients_) ::shutdown(client, SHUT_RD);
    idle_cv_.wait_for(lock, std::chrono::milliseconds(limits_.drain_ms),
                      [this] { return active_ == 0; });
    const std::size_t stragglers = active_;
    if (stragglers > 0) {
      transport_metrics::get().drain_forced.inc(stragglers);
      logging::event(logging::level::warn, "tcp", "drain_deadline")
          .field("forced", stragglers);
      if (drain_deadline_action_) {
        // A force-closed socket cannot unblock a thread waiting inside a
        // synchronous evaluation; the action (the daemon wires it to
        // cancel every outstanding job) releases those cooperatively.
        lock.unlock();
        drain_deadline_action_();
        lock.lock();
      }
    }
    transport_metrics::get().drain_seconds.set(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      drain_start)
            .count());
  }
  // Unblock every remaining connection thread (reads AND writes fail
  // from here), then wait for the last one to deregister -- `handler`
  // and `this` must outlive them.
  for (const int client : clients_) ::shutdown(client, SHUT_RDWR);
  idle_cv_.wait(lock, [this] { return active_ == 0; });
  return 0;
}

}  // namespace nwdec::api
