#include "api/dispatch.h"

#include <exception>

#include "api/events.h"
#include "service/refine.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/metrics.h"

namespace nwdec::api {

namespace {

// Opens the legacy response envelope: {"id": <echo>, "kind": K, "ok": true.
json_writer begin_response(const json_value& id, const char* kind) {
  json_writer json(json_writer::style::compact);
  json.begin_object();
  json.key("id").value(id);
  json.field("kind", kind).field("ok", true);
  return json;
}

// Closes the envelope begin_response() opened: an "ok": true line.
reply finish(json_writer& json) { return {json.end_object().str(), true, ""}; }

reply error_reply(const json_value& id, const std::string& what,
                  const char* code = "") {
  return {error_response_json(id, what, code), false, code};
}

}  // namespace

std::string error_response_json(const json_value& id,
                                const std::string& what,
                                const std::string& code) {
  json_writer json(json_writer::style::compact);
  json.begin_object();
  json.key("id").value(id);
  json.field("ok", false).field("error", what);
  if (!code.empty()) json.field("code", code);
  json.end_object();
  return json.str();
}

dispatcher::dispatcher(service::sweep_service& service)
    : dispatcher(service, options()) {}

dispatcher::dispatcher(service::sweep_service& service, options opts)
    : service_(service),
      cache_path_(std::move(opts.cache_path)),
      scheduler_(service, {opts.workers, opts.retain_finished,
                           opts.max_queued, opts.slow_request_ms,
                           opts.dedup_window}) {}

std::string dispatcher::handle_line(const std::string& line) {
  return respond(line).line;
}

reply dispatcher::respond(const std::string& line) {
  json_value id;  // null until the request parses far enough to carry one
  try {
    NWDEC_FAILPOINT("api.dispatch.handle_line");
    const json_value root = json_parse(line);
    NWDEC_EXPECTS(root.is_object(), "a request must be a JSON object");
    if (const json_value* found = root.find("id")) id = *found;
    const request parsed = parse_request(root);
    metrics::registry::global()
        .get_counter("nwdec_requests_total",
                     std::string("kind=\"") + kind_name(parsed) + "\"")
        .inc();
    return std::visit([this](const auto& r) { return handle(r); }, parsed);
  } catch (const overloaded_error& failure) {
    metrics::registry::global().get_counter("nwdec_request_errors_total").inc();
    return error_reply(id, failure.what(), "overloaded");
  } catch (const conflict_error& failure) {
    metrics::registry::global().get_counter("nwdec_request_errors_total").inc();
    return error_reply(id, failure.what(), "request_id_conflict");
  } catch (const std::exception& failure) {
    metrics::registry::global().get_counter("nwdec_request_errors_total").inc();
    return error_reply(id, failure.what());
  }
}

// Renders a terminal job in the legacy synchronous wire shape -- the
// committed daemon golden pins these bytes for sweep and refine. The
// "topped_up" member is new with the CI-target feature and appears only
// when the request asked for one (or a fixed-budget point actually
// resumed), so legacy requests keep their exact PR 3 responses.
reply dispatcher::sync_response(const json_value& id,
                                const job_result& job) {
  if (job.status.state == job_state::failed) {
    return error_reply(id, job.status.error);
  }
  if (job.status.state == job_state::cancelled) {
    return error_reply(id, "the job was cancelled");
  }
  if (job.status.state == job_state::timed_out) {
    return error_reply(id, "the job's timeout_ms deadline expired",
                       "timed_out");
  }
  if (job.status.state != job_state::done) {
    // Only a scheduler shutdown releases a synchronous wait before the
    // job is terminal; answer honestly instead of rendering an empty
    // payload as success. The job never ran, so "draining" tells a
    // resilient client the request is safe to retry against the
    // restarted daemon.
    return error_reply(
        id, "the service is shutting down before the job could run",
        "draining");
  }
  json_writer json = begin_response(
      id, job.status.kind == "sweep" ? "sweep" : "refine");
  write_result_fields(json, result_payload{job.status.kind, job.sweep,
                                           job.refined,
                                           job.report_topped_up});
  return finish(json);
}

// Shared submit path of the two job kinds: async submissions answer the
// job id immediately, synchronous ones wait for the terminal snapshot. A
// request_id retry deduplicated onto an existing job reports that job's
// CURRENT state (it may already be running or done) plus
// "deduplicated": true; first-time submissions keep their exact legacy
// bytes, so the committed golden is unchanged.
reply dispatcher::submit_job(const request& parsed, const char* kind) {
  const json_value& id = header_of(parsed).client_id;
  // Store-aware admission applies to synchronous sweeps only: async
  // submissions and refines need a job id, so they always enqueue.
  const bool allow_inline = !header_of(parsed).async_submit &&
                            std::holds_alternative<sweep_request>(parsed);
  const submit_outcome outcome =
      scheduler_.submit_or_serve(parsed, allow_inline);
  if (outcome.inline_sweep != nullptr) {
    // Answered inline from the store: render exactly the synchronous
    // done-job shape, so a warm response is byte-identical whether a
    // worker produced it or admission short-circuited it.
    job_result served;
    served.status.state = job_state::done;
    served.status.kind = "sweep";
    served.sweep = outcome.inline_sweep;
    served.report_topped_up =
        std::get<sweep_request>(parsed).min_half_width > 0.0;
    return sync_response(id, served);
  }
  const std::uint64_t job = outcome.job;
  if (header_of(parsed).async_submit) {
    json_writer json = begin_response(id, kind);
    json.field("async", true).field("job", job);
    if (outcome.deduplicated) {
      const std::optional<job_result> existing = scheduler_.inspect(job);
      json.field("state", existing.has_value()
                              ? job_state_name(existing->status.state)
                              : "forgotten")
          .field("deduplicated", true);
    } else {
      json.field("state", "queued");
    }
    return finish(json);
  }
  const std::optional<job_result> done = scheduler_.wait(job);
  if (!done.has_value()) {
    return error_reply(id, "the job result expired unfetched");
  }
  return sync_response(id, *done);
}

reply dispatcher::handle(const sweep_request& request) {
  return submit_job(request, "sweep");
}

reply dispatcher::handle(const refine_request& request) {
  return submit_job(request, "refine");
}

reply dispatcher::handle(const status_request& request) {
  const json_value& id = request.header.client_id;
  const std::optional<job_result> job =
      request.wait ? scheduler_.wait(request.job)
                   : scheduler_.inspect(request.job);
  if (!job.has_value()) {
    return error_reply(id, "unknown job id " + std::to_string(request.job) +
                               " (never submitted, or already forgotten)");
  }
  json_writer json = begin_response(id, "status");
  json.field("job", job->status.id)
      .field("state", job_state_name(job->status.state))
      .field("request_kind", job->status.kind)
      .field("priority", job->status.priority)
      .field("progress_done", job->status.progress_done)
      .field("progress_total", job->status.progress_total);
  // Out-of-band span record of a job that reached a worker: request
  // tracing is additive observability around the payload, never part of
  // it (the result bytes below are identical with or without it).
  if (job->trace.ran) {
    const job_trace& trace = job->trace;
    json.key("trace")
        .begin_object()
        .field("trace_id", format_trace_id(trace.trace_id))
        .field("queue_wait_ms", trace.queue_wait_seconds * 1000.0)
        .field("batch_jobs", trace.batch_jobs)
        .field("batch_points", trace.batch_points)
        .field("store_lookup_ms", trace.spans.store_lookup_seconds * 1000.0)
        .field("engine_ms", trace.spans.engine_seconds * 1000.0)
        .field("engine_points", trace.spans.engine_points)
        .field("mc_trials", trace.spans.mc_trials)
        .field("store_insert_ms", trace.spans.store_insert_seconds * 1000.0)
        .field("wal_append_ms", trace.spans.wal_append_seconds * 1000.0)
        .field("wal_rotation_ms", trace.spans.wal_rotation_seconds * 1000.0);
    if (job_state_terminal(job->status.state)) {
      json.field("total_ms", trace.total_seconds * 1000.0);
    }
    json.end_object();
  }
  if (job->status.state == job_state::failed ||
      job->status.state == job_state::timed_out) {
    json.field("error", job->status.error);
  } else if (job->status.state == job_state::done) {
    write_result_fields(json, result_payload{job->status.kind, job->sweep,
                                             job->refined,
                                             job->report_topped_up});
  }
  return finish(json);
}

reply dispatcher::handle(const cancel_request& request) {
  const json_value& id = request.header.client_id;
  switch (scheduler_.cancel(request.job)) {
    case cancel_outcome::cancelled: {
      json_writer json = begin_response(id, "cancel");
      json.field("job", request.job).field("state", "cancelled");
      return finish(json);
    }
    case cancel_outcome::cancelling: {
      // The running evaluation stops at its next cooperative check; a
      // status request (or the job's synchronous waiter) sees the final
      // cancelled/done/failed state.
      json_writer json = begin_response(id, "cancel");
      json.field("job", request.job).field("state", "cancelling");
      return finish(json);
    }
    case cancel_outcome::unknown:
      return error_reply(id, "unknown job id " + std::to_string(request.job) +
                                 " (never submitted, or already forgotten)");
    case cancel_outcome::finished: break;
  }
  const std::optional<job_result> job = scheduler_.inspect(request.job);
  return error_reply(
      id, "job " + std::to_string(request.job) + " is " +
              (job.has_value() ? job_state_name(job->status.state)
                               : "forgotten") +
              " and can no longer be cancelled");
}

reply dispatcher::handle(const stats_request& request) {
  const service::service_stats stats = service_.stats();
  const service::service_options& options = service_.options();

  json_writer json = begin_response(request.header.client_id, "stats");
  json.key("result")
      .begin_object()
      .field("mode", service::mc_mode_name(options.mode))
      .field("seed", std::to_string(options.seed))
      .field("adaptive", options.adaptive.has_value())
      .key("store")
      .begin_object()
      .field("entries", stats.entries)
      .field("capacity", stats.capacity)
      .field("hits", stats.store.hits)
      .field("misses", stats.store.misses)
      .field("insertions", stats.store.insertions)
      .field("evictions", stats.store.evictions);
  if (request.detail) {
    // The cost-class split and top-up counter are additive detail: the
    // legacy stats shape (and the committed golden) stays byte-identical
    // without the flag.
    json.field("cheap_entries", stats.cheap_entries)
        .field("mc_entries", stats.mc_entries)
        .field("cheap_evictions", stats.store.cheap_evictions)
        .field("mc_evictions", stats.store.mc_evictions)
        .field("topped_up", stats.topped_up);
  }
  json.end_object()
      .key("engine")
      .begin_object()
      .field("designs_built", stats.engine.designs_built)
      .field("design_reuses", stats.engine.design_reuses)
      .field("plans_built", stats.engine.plans_built)
      .field("plan_reuses", stats.engine.plan_reuses);
  if (request.detail) {
    // Appended after the legacy keys, like the store block's detail.
    json.field("codes_built", stats.engine.codes_built)
        .field("code_reuses", stats.engine.code_reuses);
  }
  json.end_object();
  if (request.detail) {
    const scheduler_stats jobs = scheduler_.stats();
    json.key("jobs")
        .begin_object()
        .field("submitted", jobs.submitted)
        .field("completed", jobs.completed)
        .field("failed", jobs.failed)
        .field("cancelled", jobs.cancelled)
        .field("timed_out", jobs.timed_out)
        .field("shed", jobs.shed)
        .field("queued", jobs.queued)
        .field("running", jobs.running)
        .field("sweep_batches", jobs.sweep_batches)
        .field("sweep_jobs_batched", jobs.sweep_jobs_batched)
        // Appended strictly after the PR 5 keys (the detail-consumer
        // byte-prefix discipline): request_id retries answered with an
        // existing job instead of a duplicate, then sweeps answered
        // inline by store-aware admission (strictly after again).
        .field("deduplicated", jobs.deduplicated)
        .field("answered_inline", jobs.answered_inline)
        .end_object();
    // Observability detail (appended strictly AFTER the PR 5 detail keys,
    // so existing detail consumers keep their byte prefixes): process
    // uptime, the live queue depth, and a summary of the job-latency
    // histogram the metrics registry accumulates.
    metrics::registry& registry = metrics::registry::global();
    json.field("uptime_ms", registry.uptime_seconds() * 1000.0)
        .field("queue_depth", jobs.queued);
    metrics::histogram& latency =
        registry.get_histogram("nwdec_job_duration_seconds");
    metrics::histogram_sample sample;
    sample.bounds = latency.bounds();
    sample.buckets = latency.bucket_counts();
    sample.count = latency.count();
    sample.sum = latency.sum();
    json.key("job_latency")
        .begin_object()
        .field("count", sample.count)
        .field("mean_ms", sample.count == 0
                              ? 0.0
                              : sample.sum * 1000.0 /
                                    static_cast<double>(sample.count))
        .field("p50_ms", metrics::histogram_quantile(sample, 0.5) * 1000.0)
        .field("p90_ms", metrics::histogram_quantile(sample, 0.9) * 1000.0)
        .field("p99_ms", metrics::histogram_quantile(sample, 0.99) * 1000.0)
        .end_object();
  }
  json.end_object();
  return finish(json);
}

reply dispatcher::handle(const metrics_request& request) {
  // The uptime gauge is set here (not continuously) so snapshots are
  // consistent: every value in one response was read at the same moment.
  metrics::registry& registry = metrics::registry::global();
  registry.get_gauge("nwdec_uptime_seconds").set(registry.uptime_seconds());
  json_writer json = begin_response(request.header.client_id, "metrics");
  json.key("result");
  metrics::write_json(json, registry.snapshot());
  return finish(json);
}

reply dispatcher::handle(const flush_request& request) {
  const service::flush_summary summary =
      service_.flush(cache_path_, request.clear);
  json_writer json = begin_response(request.header.client_id, "flush");
  json.field("persisted", summary.persisted)
      .field("entries", summary.entries)
      .field("cleared", request.clear);
  return finish(json);
}

}  // namespace nwdec::api
