// api::event_bus: per-job lifecycle event streams, one copy of each event.
//
// Publishers (the job scheduler, under its own mutex) append events to a
// per-job stream; each event gets the stream's next sequence number (1, 2,
// 3, ... with no gaps -- readers detect loss by a gap, and the bus never
// creates one). The stream's history is the only copy of an event: a
// reader holds a cursor (the last seq it received), and next() hands it
// the following stored event or waits for a publish. subscribe(job,
// from_seq) opens a cursor at from_seq, so the reader first gets every
// stored event with seq > from_seq (the replay -- how a reconnecting
// client resumes), then live events. A slow reader misses nothing, and
// publishing never waits on a reader.
//
// A terminal event (done/failed/cancelled/timed_out) ends the stream: a
// cursor ends once it has delivered it, and a subscribe() after it replays
// up to and including it (a late client still gets the result payload).
// Bodies are rendered at first read and memoized; a terminal `done` body
// (the full result payload, via publish_lazy) is thus never built for a
// job nobody reads.
//
// close_all() (the HTTP gateway's drain hook) puts the whole bus in drain:
// a reader of a non-terminal stream, once it has read everything stored,
// gets a closing
//   {"job": J, "seq": S, "event": "draining", "code": "draining"}
// (S is the next unassigned seq, not consumed) and its cursor ends -- also
// for readers that attach after the drain began -- so event feeds end
// promptly on SIGTERM instead of pinning connection threads.
//
// forget() drops a job's stream (retention trim); a cursor shares
// ownership of its stream, so a reader already holding one reads it to
// the end.
//
// Locking: one bus mutex and one condition variable, nothing per reader;
// under the mutex the bus calls out only to body closures (pure renders).
// The bus must outlive every reader inside next().
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace nwdec::api {

/// One delivered event. `line` is the full NDJSON wire form, newline
/// terminated: {"job": J, "seq": S, "event": "<type>", ...body}.
struct job_event {
  std::uint64_t seq = 0;
  std::string type;
  bool terminal = false;  ///< done | failed | cancelled | timed_out
  std::string line;
};

class event_bus {
  struct stream;

 public:
  /// One reader's position in one job's stream: the last seq it received.
  /// Owned and advanced by a single reader; it shares ownership of the
  /// stream, so forget() never cuts the reader's tail.
  class cursor {
   public:
    /// True once nothing more will be delivered: after the terminal
    /// event, after the drain's closing event, or at the end of a
    /// forgotten stream.
    bool ended() const { return ended_; }

   private:
    friend class event_bus;
    cursor(std::uint64_t job, std::shared_ptr<stream> entry,
           std::uint64_t seq)
        : job_(job), stream_(std::move(entry)), seq_(seq) {}
    std::uint64_t job_;
    std::shared_ptr<stream> stream_;
    std::uint64_t seq_;
    bool ended_ = false;
  };

  event_bus() = default;
  event_bus(const event_bus&) = delete;
  event_bus& operator=(const event_bus&) = delete;

  /// Renders an event's extra body members as a ","-led fragment (or "").
  using body_fn = std::function<std::string()>;

  /// Appends one event to the job's stream (creating the stream on first
  /// publish) and wakes waiting readers. Returns the assigned sequence
  /// number.
  std::uint64_t publish(std::uint64_t job, const char* type, bool terminal,
                        std::string body);
  /// publish() with a deferred body, rendered by the first reader.
  std::uint64_t publish_lazy(std::uint64_t job, const char* type,
                             bool terminal, body_fn body);

  /// Opens a cursor after `from_seq`: the reader first gets the stored
  /// events with seq > from_seq, then live ones. nullopt for a job with no
  /// stream (never published, or forgotten).
  std::optional<cursor> subscribe(std::uint64_t job, std::uint64_t from_seq);

  /// The reader's next event, waiting up to timeout_ms for one; nullopt on
  /// timeout or once reader.ended().
  std::optional<job_event> next(cursor& reader, int timeout_ms);

  /// Drops a job's stream (retention trim); cursors already holding it
  /// read its remaining history and then end.
  void forget(std::uint64_t job);

  /// Drain hook: from now on every non-terminal stream ends, for each
  /// reader, with a closing "draining" event after the stored ones.
  /// Streams stay readable for replay; idempotent.
  void close_all();

 private:
  struct stored_event {
    std::string type;
    bool terminal = false;
    std::string line;  ///< full wire line once rendered
    body_fn body;      ///< set until the line is rendered
  };
  /// history[i] carries seq i + 1.
  struct stream {
    std::vector<stored_event> history;
    bool closed = false;  ///< terminal published, or forgotten
  };

  std::mutex mutex_;
  std::condition_variable published_;  ///< any stream grew, closed or drained
  bool draining_ = false;
  std::map<std::uint64_t, std::shared_ptr<stream>> streams_;
};

}  // namespace nwdec::api
