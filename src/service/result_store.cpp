#include "service/result_store.h"

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "codes/code_space.h"
#include "util/error.h"
#include "util/fs.h"
#include "util/rng.h"
#include "util/stats.h"

namespace nwdec::service {

namespace {

// Version 2 added the per-entry resumable moments ("m2") and the CI-target
// provenance ("budget_target") the cross-restart top-up needs; version-1
// files are refused (the daemon starts cold and overwrites on persistence).
constexpr int store_format_version = 2;

// u64 values (seed, fingerprints) travel as decimal strings: a JSON number
// is parsed as a double, which cannot represent every 64-bit integer.
std::string u64_string(std::uint64_t value) { return std::to_string(value); }

std::uint64_t parse_u64(const json_value& node, const std::string& name) {
  const std::string& text = node.at(name).as_string();
  NWDEC_EXPECTS(!text.empty() &&
                    text.find_first_not_of("0123456789") == std::string::npos,
                "field '" + name + "' is not a decimal u64 string");
  return std::stoull(text);
}

double get_number(const json_value& node, const std::string& name) {
  return node.at(name).as_number();
}

std::size_t get_size(const json_value& node, const std::string& name) {
  const double value = node.at(name).as_number();
  NWDEC_EXPECTS(value >= 0.0 && std::floor(value) == value &&
                    value <= 9007199254740992.0,  // 2^53
                "field '" + name + "' is not a non-negative integer");
  return static_cast<std::size_t>(value);
}

}  // namespace

std::uint64_t technology_fingerprint(const device::technology& tech) {
  std::uint64_t h = 0xe7037ed1a0b428dbULL;
  const auto mix_double = [&h](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = rng::counter_seed(h, bits);
  };
  mix_double(tech.litho_pitch_nm);
  mix_double(tech.nanowire_pitch_nm);
  mix_double(tech.contact_min_width_factor);
  mix_double(tech.boundary_band_nm);
  mix_double(tech.cave_wall_overhead_nm);
  mix_double(tech.contact_depth_nm);
  mix_double(tech.supply_voltage);
  mix_double(tech.sigma_vt);
  mix_double(tech.window_fraction);
  mix_double(tech.gate_oxide_nm);
  mix_double(tech.temperature_k);
  return h;
}

void write_stored_result(json_writer& json, const stored_result& result) {
  const core::design_evaluation& e = result.evaluation;
  const fab::defect_params defects =
      result.request.defects.value_or(fab::defect_params{});
  json.begin_object()
      .field("code", codes::code_type_name(result.request.design.type))
      .field("radix", result.request.design.radix)
      .field("length", result.request.design.length)
      .field("nanowires", result.request.nanowires)
      .field("sigma_vt", result.request.sigma_vt)
      .field("mc_trials", result.request.mc_trials)
      .field("has_defects", result.request.defects.has_value())
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
      .field("bit_area_nm2", e.bit_area_nm2)
      .field("has_monte_carlo", e.has_monte_carlo);
  if (e.has_monte_carlo) {
    // The Wilson bounds and standard error are derived on the fly from the
    // stored (mean, trials_used) -- pure functions of the payload, so a
    // reloaded entry re-emits the identical block.
    const double trials_used = static_cast<double>(result.mc_trials_used);
    const interval wilson =
        wilson_interval(e.mc_nanowire_yield * trials_used, trials_used);
    json.field("mc_nanowire_yield", e.mc_nanowire_yield)
        .field("mc_ci_low", e.mc_ci_low)
        .field("mc_ci_high", e.mc_ci_high)
        .field("mc_wilson_low", wilson.low)
        .field("mc_wilson_high", wilson.high)
        .field("mc_stderr", proportion_stderr(e.mc_nanowire_yield, trials_used))
        .field("mc_trials_used", result.mc_trials_used);
  }
  json.end_object();
}

stored_result parse_stored_result(const json_value& node) {
  stored_result result;
  core::sweep_request& request = result.request;
  request.design.type = codes::parse_code_type(node.at("code").as_string());
  request.design.radix = static_cast<unsigned>(get_size(node, "radix"));
  request.design.length = get_size(node, "length");
  request.nanowires = get_size(node, "nanowires");
  request.sigma_vt = get_number(node, "sigma_vt");
  request.mc_trials = get_size(node, "mc_trials");
  if (node.at("has_defects").as_bool()) {
    request.defects = fab::defect_params{
        get_number(node, "broken_probability"),
        get_number(node, "bridge_probability")};
  }

  core::design_evaluation& e = result.evaluation;
  e.point = request.design;
  e.code_space = get_size(node, "omega");
  e.fabrication_steps = get_size(node, "phi");
  e.average_variability = get_number(node, "average_variability");
  e.contact_groups = get_size(node, "contact_groups");
  e.expected_discarded = get_number(node, "expected_discarded");
  e.nanowire_yield = get_number(node, "nanowire_yield");
  e.crosspoint_yield = get_number(node, "crosspoint_yield");
  e.effective_bits = get_number(node, "effective_bits");
  e.total_area_nm2 = get_number(node, "total_area_nm2");
  e.bit_area_nm2 = get_number(node, "bit_area_nm2");
  e.has_monte_carlo = node.at("has_monte_carlo").as_bool();
  if (e.has_monte_carlo) {
    e.mc_nanowire_yield = get_number(node, "mc_nanowire_yield");
    e.mc_ci_low = get_number(node, "mc_ci_low");
    e.mc_ci_high = get_number(node, "mc_ci_high");
    result.mc_trials_used = get_size(node, "mc_trials_used");
  }
  return result;
}

void write_store_entry(json_writer& json, std::uint64_t fingerprint,
                       const stored_result& result) {
  // The resumable moments and target provenance ride at the entry level:
  // the "result" member stays exactly the response payload
  // (write_stored_result), so the daemon's cold/warm byte identity never
  // depends on fields only the top-up machinery reads.
  json.begin_object()
      .field("fingerprint", u64_string(fingerprint))
      .field("m2", result.mc_m2)
      .field("budget_target", result.budget_target);
  json.key("result");
  write_stored_result(json, result);
  json.end_object();
}

parsed_store_entry parse_store_entry(const json_value& node) {
  parsed_store_entry entry;
  entry.fingerprint = parse_u64(node, "fingerprint");
  entry.result = parse_stored_result(node.at("result"));
  entry.result.mc_m2 = get_number(node, "m2");
  entry.result.budget_target = get_number(node, "budget_target");
  const std::uint64_t recomputed = core::fingerprint(entry.result.request);
  NWDEC_EXPECTS(entry.fingerprint == recomputed,
                "store entry fingerprint mismatch (incompatible "
                "fingerprint scheme or corrupted file)");
  return entry;
}

result_store::result_store(std::size_t capacity) : capacity_(capacity) {
  NWDEC_EXPECTS(capacity >= 1, "the result store needs capacity >= 1");
}

const stored_result* result_store::peek(std::uint64_t fingerprint) const {
  const auto found = index_.find(fingerprint);
  return found == index_.end() ? nullptr : &found->second->result;
}

const stored_result* result_store::find(std::uint64_t fingerprint) {
  const auto found = index_.find(fingerprint);
  if (found == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_list& home = list_for(found->second->result);
  home.splice(home.begin(), home, found->second);
  found->second->touched = ++touch_counter_;
  return &found->second->result;
}

void result_store::evict_one() {
  // Cost-aware policy: shed the cheap (analytic-only) class first, LRU
  // within it; Monte-Carlo entries go only when nothing cheap is left.
  lru_list& victims = !cheap_.empty() ? cheap_ : expensive_;
  if (&victims == &cheap_) {
    ++stats_.cheap_evictions;
  } else {
    ++stats_.mc_evictions;
  }
  index_.erase(victims.back().fingerprint);
  victims.pop_back();
  ++stats_.evictions;
}

void result_store::insert(std::uint64_t fingerprint, stored_result result) {
  const auto found = index_.find(fingerprint);
  if (found != index_.end()) {
    // Refresh in place; a replacement may change cost class (e.g. an
    // adaptive budget that stopped at zero trials under one policy),
    // in which case the entry migrates lists.
    lru_list& old_home = list_for(found->second->result);
    lru_list& new_home = list_for(result);
    found->second->result = std::move(result);
    new_home.splice(new_home.begin(), old_home, found->second);
    found->second->touched = ++touch_counter_;
  } else {
    lru_list& home = list_for(result);
    home.push_front(entry{fingerprint, std::move(result), ++touch_counter_});
    index_.emplace(fingerprint, home.begin());
    if (size() > capacity_) evict_one();
  }
  ++stats_.insertions;
}

void result_store::clear() {
  cheap_.clear();
  expensive_.clear();
  index_.clear();
}

std::string result_store::to_json(const store_header& header) const {
  json_writer json;
  json.begin_object()
      .field("nwdec_result_store", store_format_version)
      .field("seed", u64_string(header.seed))
      .field("mode", mc_mode_name(header.mode))
      .field("raw_bits", header.raw_bits)
      .field("tech_fingerprint", u64_string(header.tech_fingerprint))
      .field("budget_fingerprint", u64_string(header.budget_fingerprint));
  json.key("entries").begin_array();
  // Least recently used first: load_json reinserts in document order, so
  // the reloaded store has the identical recency (and eviction) order.
  // Both class lists are recency-ordered on their own; merging their tails
  // on the global touch stamp reconstructs the store-wide order.
  auto cheap_it = cheap_.rbegin();
  auto expensive_it = expensive_.rbegin();
  const auto write_entry = [&json](const entry& e) {
    write_store_entry(json, e.fingerprint, e.result);
  };
  while (cheap_it != cheap_.rend() || expensive_it != expensive_.rend()) {
    const bool take_cheap =
        expensive_it == expensive_.rend() ||
        (cheap_it != cheap_.rend() &&
         cheap_it->touched < expensive_it->touched);
    if (take_cheap) {
      write_entry(*cheap_it);
      ++cheap_it;
    } else {
      write_entry(*expensive_it);
      ++expensive_it;
    }
  }
  return json.end_array().end_object().str();
}

void result_store::load_json(const std::string& text,
                             const store_header& expected) {
  const json_value document = json_parse(text);
  NWDEC_EXPECTS(document.find("nwdec_result_store") != nullptr &&
                    get_size(document, "nwdec_result_store") ==
                        static_cast<std::size_t>(store_format_version),
                "not a result-store document (or an unknown format version)");

  store_header header;
  header.seed = parse_u64(document, "seed");
  header.mode = parse_mc_mode(document.at("mode").as_string());
  header.raw_bits = get_size(document, "raw_bits");
  header.tech_fingerprint = parse_u64(document, "tech_fingerprint");
  header.budget_fingerprint = parse_u64(document, "budget_fingerprint");
  if (!(header == expected)) {
    throw invalid_argument_error(
        "result-store header mismatch: the cache was computed under a "
        "different (seed, mode, raw_bits, technology, budget) "
        "configuration; refusing to serve stale results");
  }

  // Stage every entry before touching the store: a corrupt entry anywhere
  // in the file must leave the current contents intact (a partial load
  // would otherwise be persisted back over the good file at shutdown).
  std::vector<parsed_store_entry> staged;
  staged.reserve(document.at("entries").items().size());
  for (const json_value& entry : document.at("entries").items()) {
    staged.push_back(parse_store_entry(entry));
  }

  clear();
  for (parsed_store_entry& entry : staged) {
    insert(entry.fingerprint, std::move(entry.result));
  }
}

void result_store::save_file(const std::string& path,
                             const store_header& header) const {
  // tmp + fsync + rename: a crash mid-save leaves the previous complete
  // snapshot, never a torn file that a restart would refuse to load.
  write_file_atomic(path, to_json(header));
}

bool result_store::load_file(const std::string& path,
                             const store_header& expected) {
  const std::optional<std::string> text = read_file(path);
  if (!text.has_value()) return false;
  load_json(*text, expected);
  return true;
}

}  // namespace nwdec::service
