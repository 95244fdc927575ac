// api::resilient_client: a retrying NDJSON client for hostile networks.
//
// Wraps one logical connection to an nwdec_service TCP endpoint and makes
// call() survive the failures the transport layer hands out: connection
// refused while the daemon restarts, resets that eat a response, the
// server's own self-protection error lines. Retries follow the error-code
// classification documented at api::error_response_json:
//
//   * "overloaded"           -- retry the same request after jittered
//                               exponential backoff (the queue shed it;
//                               no job was created);
//   * "idle_timeout", "read_timeout", "too_many_connections",
//     "draining"             -- reconnect and retry (the connection or
//                               daemon is done for, the request was
//                               never run);
//   * transport failures     -- refused connect, reset, EOF or deadline
//                               before the response line -- reconnect and
//                               retry, but ONLY for idempotent requests:
//                               a lost response does not reveal whether
//                               the submission landed, so blind re-sends
//                               could run a sweep twice. A request is
//                               idempotent when it carries a request_id
//                               (the server's dedup window makes the
//                               retry return the existing job) or its
//                               kind never enqueues work (status, cancel,
//                               stats, flush, metrics);
//   * everything else        -- returned to the caller as the answer
//                               ("timed_out", "payload_too_large",
//                               "request_id_conflict", parse errors, ...).
//
// options.auto_request_id makes every sweep/refine submission idempotent
// by minting a request_id when the caller did not supply one (prefix +
// seeded counter hash, unique per client instance), so the whole retry
// ladder applies. All jitter and minted ids derive from options.seed --
// two clients with the same seed behave identically, which the chaos
// tests rely on.
//
// Thread model: one call() at a time per client (the NDJSON protocol is
// request/response in order on a connection); use one client per thread.
#pragma once

#include <cstdint>
#include <string>

namespace nwdec::api {

struct client_options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Per-attempt connect budget (0 = the OS default, typically minutes).
  int connect_timeout_ms = 2000;
  /// Per-attempt budget for the full response line to arrive (0 = wait
  /// forever). Expiry counts as a transport failure: reconnect + retry
  /// if idempotent.
  int request_timeout_ms = 30000;
  /// Total tries per call() (first attempt included). At least 1.
  int max_attempts = 5;
  /// Jittered exponential backoff between retries: attempt k sleeps
  /// uniform[base/2, base] where base = min(initial * growth^k, max).
  int backoff_initial_ms = 50;
  int backoff_max_ms = 2000;
  double backoff_growth = 2.0;
  /// Seeds jitter and minted request_ids; same seed, same behavior.
  std::uint64_t seed = 1;
  /// Mint a request_id for sweep/refine lines that lack one, making
  /// every submission safely retryable.
  bool auto_request_id = false;
  /// Minted ids spell <prefix>-<16 hex digits>.
  std::string request_id_prefix = "client";
};

/// What one call() accomplished. `ok` means a response line was received
/// (possibly an "ok": false protocol error the caller should inspect);
/// !ok means every attempt failed at the transport layer and `error`
/// says how the last one died.
struct client_result {
  bool ok = false;
  std::string response;  ///< the response line, newline trimmed
  std::string error;     ///< last transport failure when !ok
  int attempts = 0;      ///< tries consumed (1 = no retry needed)
};

/// How the retry ladder treats an error code (see the header comment).
enum class retry_class {
  none,       ///< the answer is the answer; do not retry
  backoff,    ///< same request again after jittered backoff
  reconnect,  ///< the connection is dead; fresh connection, then retry
};

/// Classification of the server's "code" member; "" classifies as none.
retry_class classify_code(const std::string& code);

class resilient_client {
 public:
  explicit resilient_client(client_options options);
  ~resilient_client();
  resilient_client(const resilient_client&) = delete;
  resilient_client& operator=(const resilient_client&) = delete;

  /// Sends one NDJSON request line (newline optional) and returns the
  /// matching response line, retrying per the classification above.
  /// Never throws on network failure -- inspect client_result.
  client_result call(const std::string& request_line);

  /// True when `line` may be blindly re-sent: it carries a request_id,
  /// or its kind never enqueues work. Malformed lines are not idempotent
  /// (the server answers each copy with its own error line, but we have
  /// no key to collapse them under).
  static bool idempotent(const std::string& line);

  /// The request_id the last call() minted ('' when none was).
  const std::string& last_minted_id() const { return minted_id_; }

 private:
  bool ensure_connected(std::string* error);
  void disconnect();
  /// One send + one response line; false on any transport failure.
  bool attempt(const std::string& line, std::string* response,
               std::string* error);
  int backoff_ms(int attempt_index);
  std::uint64_t next_random();

  client_options options_;
  int fd_ = -1;
  std::uint64_t rng_state_;
  std::uint64_t mint_counter_ = 0;
  std::string minted_id_;
};

}  // namespace nwdec::api
