#include "api/event_bus.h"

#include <chrono>
#include <utility>

#include "util/metrics.h"

namespace nwdec::api {

namespace {

struct bus_metrics {
  metrics::counter& published;
  metrics::counter& delivered;

  static bus_metrics& get() {
    static bus_metrics instance = [] {
      metrics::registry& reg = metrics::registry::global();
      return bus_metrics{reg.get_counter("nwdec_events_published_total"),
                         reg.get_counter("nwdec_events_delivered_total")};
    }();
    return instance;
  }
};

std::string render_line(std::uint64_t job, std::uint64_t seq,
                        const std::string& type, const std::string& body) {
  // The envelope members are fixed tokens and integers; `body` is a
  // pre-rendered ","-led fragment (api::json_fragment), so plain
  // concatenation is already well-formed JSON.
  return "{\"job\":" + std::to_string(job) +
         ",\"seq\":" + std::to_string(seq) + ",\"event\":\"" + type + "\"" +
         body + "}\n";
}

}  // namespace

std::uint64_t event_bus::publish(std::uint64_t job, const char* type,
                                 bool terminal, std::string body) {
  return publish_lazy(job, type, terminal,
                      [body = std::move(body)] { return body; });
}

// The one append path: sequence assignment and the history append happen
// under the bus lock, so history order always equals sequence order.
std::uint64_t event_bus::publish_lazy(std::uint64_t job, const char* type,
                                      bool terminal, body_fn body) {
  std::uint64_t seq = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<stream>& entry = streams_[job];
    if (entry == nullptr) entry = std::make_shared<stream>();
    entry->history.push_back({type, terminal, "", std::move(body)});
    seq = entry->history.size();
    if (terminal) entry->closed = true;
  }
  bus_metrics::get().published.inc();
  published_.notify_all();
  return seq;
}

std::optional<event_bus::cursor> event_bus::subscribe(
    std::uint64_t job, std::uint64_t from_seq) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto found = streams_.find(job);
  if (found == streams_.end()) return std::nullopt;
  return cursor(job, found->second, from_seq);
}

std::optional<job_event> event_bus::next(cursor& reader, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  stream& entry = *reader.stream_;
  const bool ready =
      !reader.ended_ &&
      published_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
        return reader.seq_ < entry.history.size() || entry.closed ||
               draining_;
      });
  if (!ready) return std::nullopt;
  if (reader.seq_ < entry.history.size()) {
    stored_event& event = entry.history[reader.seq_];
    const std::uint64_t seq = ++reader.seq_;
    if (event.body != nullptr) {
      // First read renders, under the lock so that it happens once.
      event.line = render_line(reader.job_, seq, event.type, event.body());
      event.body = nullptr;
    }
    reader.ended_ = event.terminal;
    bus_metrics::get().delivered.inc();
    return job_event{seq, event.type, event.terminal, event.line};
  }
  // Read to the end of a stream that will never grow (terminal delivered,
  // or forgotten), or the drain began.
  reader.ended_ = true;
  if (entry.closed) return std::nullopt;
  const std::uint64_t seq = entry.history.size() + 1;  // not consumed
  return job_event{
      seq, "draining", false,
      render_line(reader.job_, seq, "draining", ",\"code\":\"draining\"")};
}

void event_bus::forget(std::uint64_t job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto found = streams_.find(job);
    if (found == streams_.end()) return;
    found->second->closed = true;
    streams_.erase(found);
  }
  published_.notify_all();
}

void event_bus::close_all() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  published_.notify_all();
}

}  // namespace nwdec::api
