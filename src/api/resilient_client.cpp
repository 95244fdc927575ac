#include "api/resilient_client.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "util/json.h"
#include "util/net.h"

namespace nwdec::api {

namespace {

// splitmix64: tiny, seedable, and plenty for jitter and id minting.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The parsed facts retry decisions need from a request line.
struct line_shape {
  bool parsed = false;
  std::string kind;
  bool has_request_id = false;
};

line_shape inspect_line(const std::string& line) {
  line_shape shape;
  try {
    const json_value root = json_parse(line);
    if (!root.is_object()) return shape;
    shape.parsed = true;
    if (const json_value* kind = root.find("kind"))
      shape.kind = kind->as_string();
    shape.has_request_id = root.find("request_id") != nullptr;
  } catch (const std::exception&) {
    // Malformed lines go to the server as-is (it answers with its own
    // diagnostic); shape.parsed stays false.
  }
  return shape;
}

/// True for the kinds that never enqueue work -- always safe to re-send.
bool kind_never_enqueues(const std::string& kind) {
  return kind == "status" || kind == "cancel" || kind == "stats" ||
         kind == "flush" || kind == "metrics";
}

/// The "code" of an "ok": false response line; "" otherwise.
std::string response_code(const std::string& response) {
  try {
    const json_value root = json_parse(response);
    if (!root.is_object()) return "";
    const json_value* ok = root.find("ok");
    if (ok == nullptr || ok->as_bool()) return "";
    if (const json_value* code = root.find("code")) return code->as_string();
  } catch (const std::exception&) {
  }
  return "";
}

}  // namespace

retry_class classify_code(const std::string& code) {
  if (code == "overloaded") return retry_class::backoff;
  if (code == "idle_timeout" || code == "read_timeout" ||
      code == "too_many_connections" || code == "draining") {
    return retry_class::reconnect;
  }
  return retry_class::none;
}

bool resilient_client::idempotent(const std::string& line) {
  const line_shape shape = inspect_line(line);
  if (!shape.parsed) return false;
  if (kind_never_enqueues(shape.kind)) return true;
  return shape.has_request_id;
}

resilient_client::resilient_client(client_options options)
    : options_(std::move(options)), rng_state_(mix64(options_.seed)) {
  if (options_.max_attempts < 1) options_.max_attempts = 1;
}

resilient_client::~resilient_client() { disconnect(); }

void resilient_client::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool resilient_client::ensure_connected(std::string* error) {
  if (fd_ >= 0) return true;
  fd_ = net::connect_tcp(options_.host, options_.port,
                         options_.connect_timeout_ms);
  if (fd_ < 0) {
    *error = "cannot connect to " + options_.host + ":" +
             std::to_string(options_.port);
    return false;
  }
  return true;
}

std::uint64_t resilient_client::next_random() {
  rng_state_ = mix64(rng_state_);
  return rng_state_;
}

int resilient_client::backoff_ms(int attempt_index) {
  double base = static_cast<double>(options_.backoff_initial_ms);
  for (int i = 0; i < attempt_index; ++i) base *= options_.backoff_growth;
  if (base > options_.backoff_max_ms)
    base = static_cast<double>(options_.backoff_max_ms);
  // Jitter in [base/2, base]: decorrelates a thundering herd of clients
  // all kicked off the same dead server.
  const double fraction =
      0.5 + 0.5 * (static_cast<double>(next_random() >> 11) /
                   static_cast<double>(1ULL << 53));
  return static_cast<int>(base * fraction);
}

bool resilient_client::attempt(const std::string& line, std::string* response,
                               std::string* error) {
  if (!ensure_connected(error)) return false;
  std::string wire = line;
  if (wire.empty() || wire.back() != '\n') wire += '\n';
  if (!net::send_all(fd_, wire)) {
    *error = "send failed (connection reset)";
    return false;
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.request_timeout_ms);
  std::string buffer;
  char chunk[4096];
  for (;;) {
    int wait_ms = -1;
    if (options_.request_timeout_ms > 0) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) {
        *error = "no response within " +
                 std::to_string(options_.request_timeout_ms) + " ms";
        return false;
      }
      wait_ms = static_cast<int>(remaining);
    }
    const long n = net::read_some(fd_, chunk, sizeof(chunk), wait_ms);
    if (n == -2) {
      *error = "no response within " +
               std::to_string(options_.request_timeout_ms) + " ms";
      return false;
    }
    if (n == 0) {
      *error = "connection closed before the response line";
      return false;
    }
    if (n < 0) {
      *error = "read failed (connection reset)";
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      *response = buffer.substr(0, newline);
      // Anything past the newline belongs to no outstanding request on
      // this strictly request/response client; drop it.
      return true;
    }
  }
}

client_result resilient_client::call(const std::string& request_line) {
  std::string line = request_line;
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();

  minted_id_.clear();
  if (options_.auto_request_id) {
    const line_shape shape = inspect_line(line);
    if (shape.parsed && (shape.kind == "sweep" || shape.kind == "refine") &&
        !shape.has_request_id) {
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(
                        mix64(options_.seed ^ ++mint_counter_)));
      minted_id_ = options_.request_id_prefix + "-" + hex;
      // Splice the key in right after the opening brace; the request is
      // an object (shape.parsed checked), so the text form starts at '{'.
      const std::size_t brace = line.find('{');
      std::size_t after = brace + 1;
      while (after < line.size() &&
             (line[after] == ' ' || line[after] == '\t'))
        ++after;
      const bool empty_object = after < line.size() && line[after] == '}';
      line.insert(brace + 1, "\"request_id\":\"" + minted_id_ + "\"" +
                                 (empty_object ? "" : ","));
    }
  }

  const bool transport_retry_safe = idempotent(line);
  client_result result;
  for (int i = 0; i < options_.max_attempts; ++i) {
    ++result.attempts;
    const bool last = i + 1 == options_.max_attempts;
    std::string response, error;
    if (!attempt(line, &response, &error)) {
      disconnect();
      result.ok = false;
      result.response.clear();
      result.error = error;
      // An ambiguous failure (the request may have landed, the response
      // is gone) is only re-sent when the dedup window -- or the kind --
      // makes the retry a no-op server-side.
      if (!transport_retry_safe || last) return result;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms(i)));
      continue;
    }
    result.ok = true;
    result.response = response;
    result.error.clear();
    switch (classify_code(response_code(response))) {
      case retry_class::none:
        return result;
      case retry_class::backoff:
        // "overloaded" sheds before any job exists, so re-sending is
        // safe for every request kind.
        break;
      case retry_class::reconnect:
        disconnect();
        break;
    }
    if (last) return result;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms(i)));
  }
  return result;
}

}  // namespace nwdec::api
