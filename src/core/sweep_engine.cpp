#include "core/sweep_engine.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstring>
#include <exception>
#include <thread>
#include <unordered_map>

#include "codes/factory.h"
#include "crossbar/area_model.h"
#include "crossbar/contact_groups.h"
#include "decoder/decoder_design.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "yield/analytic_yield.h"
#include "yield/monte_carlo_yield.h"

namespace nwdec::core {

// Everything derivable from (code_type, radix, full_length, nanowires)
// alone; one entry serves every (sigma, defects, trials) grid point. The
// design shares the key's code, and the context references the design and
// the shared plan, so entries live behind shared_ptr and are immutable
// after construction (the lazily built context aside).
struct sweep_engine::prepared_design {
  decoder::decoder_design design;
  const crossbar::contact_group_plan* plan;
  crossbar::layer_geometry geometry;
  crossbar::area_breakdown area;

  prepared_design(std::shared_ptr<const codes::code> code,
                  std::size_t nanowires, const device::technology& tech,
                  const crossbar::contact_group_plan& shared_plan,
                  const crossbar::crossbar_spec& point_spec)
      : design(std::move(code), nanowires, tech),
        plan(&shared_plan),
        geometry(crossbar::derive_layer_geometry(point_spec, tech,
                                                 design.code().length,
                                                 shared_plan.group_count)),
        area(crossbar::estimate_area(geometry, tech)) {}

  // Built for the first Monte-Carlo request for this design: analytic-only
  // sweeps never pay for the O(N*M) engine tables. Concurrent requests
  // wait for the one build; a build that throws leaves the next request
  // to try again.
  const yield::trial_context& context() const {
    std::call_once(context_once_, [this] {
      context_ = std::make_unique<yield::trial_context>(design, *plan);
    });
    return *context_;
  }

 private:
  mutable std::once_flag context_once_;
  mutable std::unique_ptr<yield::trial_context> context_;
};

std::vector<sweep_request> sweep_axes::expand() const {
  NWDEC_EXPECTS(!designs.empty(), "sweep axes need at least one design point");
  const std::vector<std::size_t> nanowire_axis =
      nanowires.empty() ? std::vector<std::size_t>{0} : nanowires;
  const std::vector<double> sigma_axis =
      sigmas_vt.empty() ? std::vector<double>{-1.0} : sigmas_vt;
  const std::vector<std::optional<fab::defect_params>> defect_axis =
      defects.empty() ? std::vector<std::optional<fab::defect_params>>{
                            std::nullopt}
                      : defects;

  std::vector<sweep_request> out;
  out.reserve(designs.size() * nanowire_axis.size() * sigma_axis.size() *
              defect_axis.size());
  for (const design_point& design : designs) {
    for (const std::size_t n : nanowire_axis) {
      for (const double sigma : sigma_axis) {
        for (const std::optional<fab::defect_params>& defect : defect_axis) {
          sweep_request request;
          request.design = design;
          request.nanowires = n;
          request.sigma_vt = sigma;
          request.mc_trials = mc_trials;
          request.defects = defect;
          out.push_back(request);
        }
      }
    }
  }
  return out;
}

// See the header for the full fingerprint contract: a pure function of the
// point's parameters, so a point's Monte-Carlo run key -- from_counter(seed,
// fingerprint) -- never depends on the point's grid position or on what
// the other grid points are. Two identical requests therefore produce
// identical entries (the memoizable semantics service::result_store keys on).
std::uint64_t fingerprint(const sweep_request& request) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  // counter_seed is the raw splitmix64 cascade: same values from_counter
  // seeds streams with, without paying for an engine-state initialization
  // per mix step (this runs once per grid point on every sweep).
  const auto mix_in = [&h](std::uint64_t v) {
    h = rng::counter_seed(h, v);
  };
  const auto mix_double = [&mix_in](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix_in(bits);
  };
  mix_in(static_cast<std::uint64_t>(request.design.type));
  mix_in(request.design.radix);
  mix_in(request.design.length);
  mix_in(request.nanowires);
  mix_in(request.mc_trials);
  mix_double(request.sigma_vt);
  mix_in(request.defects.has_value() ? 1 : 0);
  if (request.defects.has_value()) {
    mix_double(request.defects->broken_probability);
    mix_double(request.defects->bridge_probability);
  }
  return h;
}

namespace {

// Field-wise equality of resolved requests, used to tell a genuine
// fingerprint collision (a bug worth failing loudly on) from the same point
// appearing twice in one grid (benign).
bool same_request(const sweep_request& a, const sweep_request& b) {
  if (a.design.type != b.design.type || a.design.radix != b.design.radix ||
      a.design.length != b.design.length || a.nanowires != b.nanowires ||
      a.sigma_vt != b.sigma_vt || a.mc_trials != b.mc_trials ||
      a.defects.has_value() != b.defects.has_value()) {
    return false;
  }
  if (a.defects.has_value()) {
    return a.defects->broken_probability == b.defects->broken_probability &&
           a.defects->bridge_probability == b.defects->bridge_probability;
  }
  return true;
}

}  // namespace

sweep_engine::sweep_engine(crossbar::crossbar_spec spec,
                           device::technology tech)
    : spec_(spec), tech_(tech) {
  spec_.validate();
  tech_.validate();
}

sweep_engine::~sweep_engine() = default;

template <typename Key, typename T, typename Build>
std::shared_ptr<const T> sweep_engine::once(latches<Key, T>& slots,
                                            const Key& key,
                                            std::size_t& built,
                                            std::size_t& reused,
                                            const Build& build) const {
  std::unique_lock<std::mutex> lock(mutex_);
  std::shared_ptr<latch<T>>& slot = slots[key];
  if (slot != nullptr) {
    ++reused;
    // Holds the latch itself: a failed build may erase it from the map.
    const std::shared_ptr<latch<T>> pending = slot;
    built_.wait(lock, [&] { return pending->ready; });
    if (pending->failure) std::rethrow_exception(pending->failure);
    return pending->value;
  }
  ++built;
  const std::shared_ptr<latch<T>> mine = std::make_shared<latch<T>>();
  slot = mine;
  lock.unlock();

  std::shared_ptr<const T> value;
  std::exception_ptr failure;
  bool remembered = false;  // a failure that is a pure function of the key
  try {
    value = build();
  } catch (const invalid_argument_error&) {
    failure = std::current_exception();
    remembered = true;
  } catch (const logic_invariant_error&) {
    failure = std::current_exception();
    remembered = true;
  } catch (...) {
    failure = std::current_exception();
  }

  lock.lock();
  mine->ready = true;
  mine->value = value;
  mine->failure = failure;
  if (failure && !remembered) slots.erase(key);
  lock.unlock();
  built_.notify_all();
  if (failure) std::rethrow_exception(failure);
  return value;
}

std::shared_ptr<const sweep_engine::prepared_design> sweep_engine::prepare(
    const sweep_request& request) const {
  const design_point& point = request.design;
  const design_key key{static_cast<int>(point.type), point.radix,
                       point.length, request.nanowires};
  return once(designs_, key, stats_.designs_built, stats_.design_reuses, [&] {
    NWDEC_FAILPOINT("engine.design.build");
    const std::shared_ptr<const codes::code> code =
        once(codes_, code_key{static_cast<int>(point.type), point.radix,
                              point.length},
             stats_.codes_built, stats_.code_reuses, [&] {
               return std::make_shared<const codes::code>(
                   codes::make_code(point.type, point.radix, point.length));
             });

    const crossbar::contact_group_plan* plan = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const plan_key shared{request.nanowires, code->size()};
      auto plan_it = plans_.find(shared);
      if (plan_it == plans_.end()) {
        plan_it = plans_
                      .emplace(shared,
                               std::make_unique<crossbar::contact_group_plan>(
                                   crossbar::plan_contact_groups(
                                       request.nanowires, code->size(),
                                       tech_)))
                      .first;
        ++stats_.plans_built;
      } else {
        ++stats_.plan_reuses;
      }
      plan = plan_it->second.get();
    }

    crossbar::crossbar_spec point_spec = spec_;
    point_spec.nanowires_per_half_cave = request.nanowires;
    return std::make_shared<const prepared_design>(code, request.nanowires,
                                                   tech_, *plan, point_spec);
  });
}

sweep_engine_report sweep_engine::run(const std::vector<sweep_request>& points,
                                      const sweep_engine_options& options)
    const {
  NWDEC_EXPECTS(!points.empty(),
                "a design-space sweep needs at least one grid point");

  std::size_t budget = options.threads;
  if (budget == 0) {
    budget = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::size_t workers = std::min(budget, points.size());
  const std::size_t inner_threads = std::max<std::size_t>(1, budget / workers);

  // Prepare phase: resolve platform defaults and bind every point to its
  // cache entry, building what is missing -- trial contexts included --
  // outside the engine lock (see the header comment). Bad grid points fail
  // fast with the factory's diagnostics before any thread starts.
  std::vector<sweep_request> resolved(points);
  std::vector<std::shared_ptr<const prepared_design>> prepared(points.size());
  std::vector<std::uint64_t> fingerprints(points.size(), 0);
  std::unordered_map<std::uint64_t, std::size_t> seen;
  seen.reserve(points.size());
  for (std::size_t k = 0; k < resolved.size(); ++k) {
    sweep_request& request = resolved[k];
    request = resolve(request);
    if (request.defects.has_value()) request.defects->validate();
    prepared[k] = prepare(request);
    if (request.mc_trials > 0) prepared[k]->context();
    // Fingerprint uniqueness check (see the fingerprint() contract):
    // distinct resolved points must never alias one run key / cache slot.
    fingerprints[k] = fingerprint(request);
    const auto [it, inserted] = seen.emplace(fingerprints[k], k);
    NWDEC_ENSURES(inserted || same_request(resolved[it->second], request),
                  "fingerprint collision between distinct grid points");
  }

  // Evaluation phase: shard points across workers through an atomic cursor.
  // Slot k belongs to point k alone and its Monte-Carlo run key depends
  // only on (seed, the point itself), so the result is independent of the
  // sharding, the grid order, and the other grid points.
  std::vector<sweep_engine_entry> entries(points.size());
  std::vector<std::exception_ptr> failures(points.size());
  std::atomic<std::size_t> cursor{0};

  const auto evaluate_one = [&](std::size_t k) {
    const sweep_request& request = resolved[k];
    const prepared_design& p = *prepared[k];
    sweep_engine_entry& entry = entries[k];
    entry.request = request;

    design_evaluation& e = entry.evaluation;
    e.point = request.design;
    e.code_space = p.design.code().size();
    e.fabrication_steps = p.design.fabrication_complexity();
    e.average_variability = p.design.average_variability_sigma_units();
    e.contact_groups = p.plan->group_count;
    const yield::yield_result yields =
        yield::analytic_yield(p.design, *p.plan, request.sigma_vt);
    e.expected_discarded = yields.expected_discarded;
    e.nanowire_yield = yields.nanowire_yield;
    e.crosspoint_yield = yields.crosspoint_yield;
    e.effective_bits = yield::effective_bits(yields, spec_.raw_bits);
    e.total_area_nm2 = p.area.total_nm2;
    e.bit_area_nm2 = crossbar::bit_area_nm2(p.area, e.effective_bits);

    if (request.mc_trials > 0) {
      yield::mc_options mc;
      mc.mode = options.mode;
      mc.threads = inner_threads;
      mc.defects = request.defects;
      mc.sigma_vt = request.sigma_vt;
      const std::uint64_t run_key =
          rng::from_counter(options.seed, fingerprints[k]).seed();

      const auto started = std::chrono::steady_clock::now();
      yield::mc_run_state state;
      if (options.mc_resume) {
        // Seed the accumulator from persisted progress. The per-trial
        // streams are counter-based, so the state at any total is
        // bit-identical whether the prefix ran here or in an earlier
        // process -- resuming only moves where the spend starts.
        if (const std::optional<mc_resume_point> seed =
                options.mc_resume(request)) {
          state = yield::mc_run_state::from_moments(seed->trials, seed->mean,
                                                    seed->m2);
        }
      }
      yield::mc_yield_result result = yield::mc_result_from_state(state);
      if (!options.mc_budget) {
        if (state.trials() < request.mc_trials) {
          mc.trials = request.mc_trials - state.trials();
          result = yield::monte_carlo_yield_resume(p.context(), mc, run_key,
                                                   state);
        }
      } else {
        // Batched leg: the hook sizes each batch from the running Wilson
        // estimate; request.mc_trials caps the schedule. The per-trial
        // streams are the same as the fixed path's, so a schedule summing
        // to T is bit-identical to a fixed T-trial run.
        while (state.trials() < request.mc_trials) {
          mc_budget_status status;
          status.trials_done = state.trials();
          status.nanowire_yield = state.mean();
          status.wilson_half_width = wilson_half_width(
              state.mean() * static_cast<double>(state.trials()),
              static_cast<double>(state.trials()));
          std::size_t batch = options.mc_budget(request, status);
          if (batch == 0) break;
          batch = std::min(batch, request.mc_trials - state.trials());
          mc.trials = batch;
          result = yield::monte_carlo_yield_resume(p.context(), mc, run_key,
                                                   state);
        }
      }
      const auto finished = std::chrono::steady_clock::now();

      if (state.trials() > 0) {
        e.has_monte_carlo = true;
        e.mc_nanowire_yield = result.nanowire_yield;
        e.mc_ci_low = result.ci.low;
        e.mc_ci_high = result.ci.high;
        entry.mc_trials_used = state.trials();
        entry.mc_m2 = state.per_trial_yield.sum_squared_deviations();
        entry.mc_seconds =
            std::chrono::duration<double>(finished - started).count();
        entry.mc_trials_per_second =
            entry.mc_seconds > 0.0
                ? static_cast<double>(state.trials()) / entry.mc_seconds
                : 0.0;
      }
    }
  };

  const auto drain = [&]() {
    for (std::size_t k = cursor.fetch_add(1); k < resolved.size();
         k = cursor.fetch_add(1)) {
      try {
        evaluate_one(k);
      } catch (...) {
        failures[k] = std::current_exception();
      }
    }
  };

  if (workers <= 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(drain);
    for (std::thread& worker : pool) worker.join();
  }
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }

  sweep_engine_report report;
  report.mode = options.mode;
  report.threads = workers;
  report.seed = options.seed;
  report.raw_bits = spec_.raw_bits;
  report.default_nanowires = spec_.nanowires_per_half_cave;
  report.default_sigma_vt = tech_.sigma_vt;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    report.cache = stats_;
  }
  report.entries = std::move(entries);
  return report;
}

sweep_engine_report sweep_engine::run(const sweep_axes& axes,
                                      const sweep_engine_options& options)
    const {
  return run(axes.expand(), options);
}

sweep_cache_stats sweep_engine::cache_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

sweep_request sweep_engine::resolve(sweep_request request) const {
  if (request.nanowires == 0) {
    request.nanowires = spec_.nanowires_per_half_cave;
  }
  if (request.sigma_vt < 0.0) request.sigma_vt = tech_.sigma_vt;
  return request;
}

namespace {

// Shortest representation that parses back to the same double, so the CSV
// round-trips exactly through strtod.
std::string format_full(double value) {
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

}  // namespace

std::string to_json(const sweep_engine_report& report) {
  json_writer json;
  json.begin_object()
      .field("bench", "sweep_engine")
      .field("mode", yield::mc_mode_name(report.mode))
      .field("threads", report.threads)
      .field("seed", report.seed)
      .field("raw_bits", report.raw_bits)
      .field("default_nanowires", report.default_nanowires)
      .field("default_sigma_vt", report.default_sigma_vt);
  json.key("cache")
      .begin_object()
      .field("designs_built", report.cache.designs_built)
      .field("design_reuses", report.cache.design_reuses)
      .field("plans_built", report.cache.plans_built)
      .field("plan_reuses", report.cache.plan_reuses)
      .field("codes_built", report.cache.codes_built)
      .field("code_reuses", report.cache.code_reuses)
      .end_object();
  json.key("points").begin_array();
  for (const sweep_engine_entry& entry : report.entries) {
    const design_evaluation& e = entry.evaluation;
    const fab::defect_params defects =
        entry.request.defects.value_or(fab::defect_params{});
    json.begin_object()
        .field("code", codes::code_type_name(entry.request.design.type))
        .field("radix", entry.request.design.radix)
        .field("length", entry.request.design.length)
        .field("nanowires", entry.request.nanowires)
        .field("sigma_vt", entry.request.sigma_vt)
        .field("mc_trials", entry.request.mc_trials)
        .field("broken_probability", defects.broken_probability)
        .field("bridge_probability", defects.bridge_probability)
        .field("omega", e.code_space)
        .field("phi", e.fabrication_steps)
        .field("average_variability", e.average_variability)
        .field("contact_groups", e.contact_groups)
        .field("expected_discarded", e.expected_discarded)
        .field("nanowire_yield", e.nanowire_yield)
        .field("crosspoint_yield", e.crosspoint_yield)
        .field("effective_bits", e.effective_bits)
        .field("total_area_nm2", e.total_area_nm2)
        .field("bit_area_nm2", e.bit_area_nm2);
    if (e.has_monte_carlo) {
      // Wilson bounds and the proportion standard error are derived from
      // the stored (mean, trials_used) payload alone, so the block stays a
      // pure function of the cached result.
      const double trials_used = static_cast<double>(entry.mc_trials_used);
      const interval wilson =
          wilson_interval(e.mc_nanowire_yield * trials_used, trials_used);
      json.field("mc_nanowire_yield", e.mc_nanowire_yield)
          .field("mc_ci_low", e.mc_ci_low)
          .field("mc_ci_high", e.mc_ci_high)
          .field("mc_wilson_low", wilson.low)
          .field("mc_wilson_high", wilson.high)
          .field("mc_stderr",
                 proportion_stderr(e.mc_nanowire_yield, trials_used))
          .field("mc_trials_used", entry.mc_trials_used)
          .field("mc_seconds", entry.mc_seconds)
          .field("mc_trials_per_second", entry.mc_trials_per_second);
    }
    json.end_object();
  }
  return json.end_array().end_object().str();
}

std::string to_csv(const sweep_engine_report& report) {
  const std::vector<std::string> header = {
      "code",           "radix",
      "length",         "nanowires",
      "sigma_vt",       "mc_trials",
      "broken_probability", "bridge_probability",
      "omega",          "phi",
      "contact_groups", "expected_discarded",
      "nanowire_yield", "crosspoint_yield",
      "effective_bits", "total_area_nm2",
      "bit_area_nm2",   "mc_nanowire_yield",
      "mc_ci_low",      "mc_ci_high",
      "mc_trials_used"};

  std::string out = csv_row(header);
  for (const sweep_engine_entry& entry : report.entries) {
    const design_evaluation& e = entry.evaluation;
    const fab::defect_params defects =
        entry.request.defects.value_or(fab::defect_params{});
    std::vector<std::string> row = {
        codes::code_type_name(entry.request.design.type),
        std::to_string(entry.request.design.radix),
        std::to_string(entry.request.design.length),
        std::to_string(entry.request.nanowires),
        format_full(entry.request.sigma_vt),
        std::to_string(entry.request.mc_trials),
        format_full(defects.broken_probability),
        format_full(defects.bridge_probability),
        std::to_string(e.code_space),
        std::to_string(e.fabrication_steps),
        std::to_string(e.contact_groups),
        format_full(e.expected_discarded),
        format_full(e.nanowire_yield),
        format_full(e.crosspoint_yield),
        format_full(e.effective_bits),
        format_full(e.total_area_nm2),
        format_full(e.bit_area_nm2),
        e.has_monte_carlo ? format_full(e.mc_nanowire_yield) : "",
        e.has_monte_carlo ? format_full(e.mc_ci_low) : "",
        e.has_monte_carlo ? format_full(e.mc_ci_high) : "",
        e.has_monte_carlo ? std::to_string(entry.mc_trials_used) : ""};
    out += csv_row(row);
  }
  return out;
}

}  // namespace nwdec::core
