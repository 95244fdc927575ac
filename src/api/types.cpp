#include "api/types.h"

#include <cmath>

#include "util/error.h"

namespace nwdec::api {

namespace {

std::size_t as_size(const json_value& node, const std::string& what) {
  const double value = node.as_number();
  NWDEC_EXPECTS(value >= 0.0 && std::floor(value) == value &&
                    value <= 9007199254740992.0,  // 2^53
                "'" + what + "' must be a non-negative integer");
  return static_cast<std::size_t>(value);
}

std::size_t get_size_or(const json_value& request, const std::string& name,
                        std::size_t fallback) {
  const json_value* found = request.find(name);
  return found == nullptr ? fallback : as_size(*found, name);
}

double get_number_or(const json_value& request, const std::string& name,
                     double fallback) {
  const json_value* found = request.find(name);
  return found == nullptr ? fallback : found->as_number();
}

bool get_bool_or(const json_value& request, const std::string& name,
                 bool fallback) {
  const json_value* found = request.find(name);
  return found == nullptr ? fallback : found->as_bool();
}

request_header parse_header(const json_value& root) {
  request_header header;
  if (const json_value* found = root.find("id")) header.client_id = *found;
  header.async_submit = get_bool_or(root, "async", false);
  if (const json_value* found = root.find("priority")) {
    const double value = found->as_number();
    NWDEC_EXPECTS(std::floor(value) == value && value >= -1e6 && value <= 1e6,
                  "'priority' must be an integer in [-1e6, 1e6]");
    header.priority = static_cast<int>(value);
  }
  header.timeout_ms = get_size_or(root, "timeout_ms", 0);
  // Cap at 24h: keeps the deadline arithmetic trivially overflow-free and
  // rejects garbage (a u64-max "timeout" is a client bug, not a wish).
  NWDEC_EXPECTS(header.timeout_ms <= 86'400'000,
                "'timeout_ms' must be at most 86400000 (24 hours)");
  if (const json_value* found = root.find("request_id")) {
    header.request_id = found->as_string();
    // Visible-ASCII-only, bounded: the key is compared byte for byte and
    // echoed into diagnostics, so control bytes and unbounded blobs are
    // client bugs worth rejecting at the door.
    NWDEC_EXPECTS(!header.request_id.empty() &&
                      header.request_id.size() <= 128,
                  "'request_id' must be 1..128 characters");
    for (const char c : header.request_id) {
      NWDEC_EXPECTS(c >= 0x21 && c <= 0x7e,
                    "'request_id' must be visible ASCII (0x21..0x7e)");
    }
  }
  return header;
}

fab::defect_params parse_defects(const json_value& root) {
  const fab::defect_params defects{get_number_or(root, "broken", 0.0),
                                   get_number_or(root, "bridge", 0.0)};
  // Validate before anything downstream: a negative rate is a client bug
  // worth an error response, not a silent defect-free sweep.
  defects.validate();
  return defects;
}

sweep_request parse_sweep(const json_value& root) {
  sweep_request parsed;
  parsed.header = parse_header(root);
  parsed.radix = static_cast<unsigned>(get_size_or(root, "radix", 2));
  for (const json_value& name : root.at("codes").items()) {
    parsed.codes.push_back(codes::parse_code_type(name.as_string()));
  }
  for (const json_value& length : root.at("lengths").items()) {
    parsed.lengths.push_back(as_size(length, "lengths"));
  }
  if (const json_value* nanowires = root.find("nanowires")) {
    for (const json_value& n : nanowires->items()) {
      parsed.nanowires.push_back(as_size(n, "nanowires"));
    }
  }
  if (const json_value* sigmas = root.find("sigmas_vt")) {
    for (const json_value& sigma : sigmas->items()) {
      NWDEC_EXPECTS(sigma.as_number() >= 0.0,
                    "'sigmas_vt' values cannot be negative");
      parsed.sigmas_vt.push_back(sigma.as_number());
    }
  }
  parsed.trials = get_size_or(root, "trials", 0);
  parsed.defects = parse_defects(root);
  parsed.min_half_width = get_number_or(root, "min_half_width", 0.0);
  NWDEC_EXPECTS(
      parsed.min_half_width >= 0.0 && parsed.min_half_width < 1.0,
      "'min_half_width' must lie in [0, 1)");
  NWDEC_EXPECTS(!parsed.codes.empty() && !parsed.lengths.empty(),
                "a sweep request needs at least one code and length");
  return parsed;
}

refine_request parse_refine(const json_value& root) {
  refine_request parsed;
  parsed.header = parse_header(root);
  service::refine_request& refinement = parsed.refinement;
  refinement.design.type =
      codes::parse_code_type(root.at("code").as_string());
  refinement.design.radix =
      static_cast<unsigned>(get_size_or(root, "radix", 2));
  refinement.design.length = as_size(root.at("length"), "length");
  refinement.nanowires = get_size_or(root, "nanowires", 0);
  refinement.mc_trials = get_size_or(root, "trials", 0);
  const fab::defect_params defects = parse_defects(root);
  if (defects.broken_probability != 0.0 ||
      defects.bridge_probability != 0.0) {
    refinement.defects = defects;
  }
  refinement.sigma_low = root.at("sigma_low").as_number();
  refinement.sigma_high = root.at("sigma_high").as_number();
  refinement.yield_threshold = get_number_or(root, "threshold", 0.5);
  refinement.resolution = get_number_or(root, "resolution", 1e-3);
  return parsed;
}

std::uint64_t parse_job_id(const json_value& root) {
  return static_cast<std::uint64_t>(as_size(root.at("job"), "job"));
}

}  // namespace

core::sweep_axes sweep_request::axes() const {
  NWDEC_EXPECTS(!codes.empty() && !lengths.empty(),
                "a sweep request needs at least one code and length");
  core::sweep_axes axes;
  for (const codes::code_type type : codes) {
    for (const std::size_t length : lengths) {
      axes.designs.push_back({type, radix, length});
    }
  }
  axes.nanowires = nanowires;
  axes.sigmas_vt = sigmas_vt;
  axes.mc_trials = trials;
  if (defects.broken_probability != 0.0 ||
      defects.bridge_probability != 0.0) {
    axes.defects.push_back(defects);
  }
  return axes;
}

const char* kind_name(const request& parsed) {
  struct visitor {
    const char* operator()(const sweep_request&) const { return "sweep"; }
    const char* operator()(const refine_request&) const { return "refine"; }
    const char* operator()(const status_request&) const { return "status"; }
    const char* operator()(const cancel_request&) const { return "cancel"; }
    const char* operator()(const stats_request&) const { return "stats"; }
    const char* operator()(const flush_request&) const { return "flush"; }
    const char* operator()(const metrics_request&) const { return "metrics"; }
  };
  return std::visit(visitor{}, parsed);
}

const request_header& header_of(const request& parsed) {
  return std::visit(
      [](const auto& r) -> const request_header& { return r.header; },
      parsed);
}

request parse_request(const json_value& root) {
  NWDEC_EXPECTS(root.is_object(), "a request must be a JSON object");
  const std::string kind = root.at("kind").as_string();
  if (kind == "sweep") return parse_sweep(root);
  if (kind == "refine") return parse_refine(root);
  if (kind == "status") {
    status_request parsed;
    parsed.header = parse_header(root);
    parsed.job = parse_job_id(root);
    parsed.wait = get_bool_or(root, "wait", false);
    return parsed;
  }
  if (kind == "cancel") {
    cancel_request parsed;
    parsed.header = parse_header(root);
    parsed.job = parse_job_id(root);
    return parsed;
  }
  if (kind == "stats") {
    stats_request parsed;
    parsed.header = parse_header(root);
    parsed.detail = get_bool_or(root, "detail", false);
    return parsed;
  }
  if (kind == "flush") {
    flush_request parsed;
    parsed.header = parse_header(root);
    parsed.clear = get_bool_or(root, "clear", false);
    return parsed;
  }
  if (kind == "metrics") {
    metrics_request parsed;
    parsed.header = parse_header(root);
    return parsed;
  }
  throw invalid_argument_error(
      "unknown request kind '" + kind +
      "' (expected sweep | refine | status | cancel | stats | flush | "
      "metrics)");
}

request parse_request_line(const std::string& line) {
  return parse_request(json_parse(line));
}

namespace {

// Canonical wire form: "id"/"kind" lead, default-valued optional members
// are omitted, axes keep the client's element order.
void write_header(json_writer& json, const request_header& header,
                  const char* kind) {
  json.key("id").value(header.client_id);
  json.field("kind", kind);
  if (header.async_submit) json.field("async", true);
  if (header.priority != 0) json.field("priority", header.priority);
  if (header.timeout_ms != 0) json.field("timeout_ms", header.timeout_ms);
  if (!header.request_id.empty()) {
    json.field("request_id", header.request_id);
  }
}

void write_defects(json_writer& json, const fab::defect_params& defects) {
  if (defects.broken_probability != 0.0) {
    json.field("broken", defects.broken_probability);
  }
  if (defects.bridge_probability != 0.0) {
    json.field("bridge", defects.bridge_probability);
  }
}

struct request_writer {
  json_writer& json;

  void operator()(const sweep_request& r) const {
    write_header(json, r.header, "sweep");
    json.key("codes").begin_array();
    for (const codes::code_type type : r.codes) {
      json.value(codes::code_type_name(type));
    }
    json.end_array();
    if (r.radix != 2) json.field("radix", r.radix);
    json.key("lengths").begin_array();
    for (const std::size_t length : r.lengths) json.value(length);
    json.end_array();
    if (!r.nanowires.empty()) {
      json.key("nanowires").begin_array();
      for (const std::size_t n : r.nanowires) json.value(n);
      json.end_array();
    }
    if (!r.sigmas_vt.empty()) {
      json.key("sigmas_vt").begin_array();
      for (const double sigma : r.sigmas_vt) json.value(sigma);
      json.end_array();
    }
    if (r.trials != 0) json.field("trials", r.trials);
    write_defects(json, r.defects);
    if (r.min_half_width != 0.0) {
      json.field("min_half_width", r.min_half_width);
    }
  }

  void operator()(const refine_request& r) const {
    write_header(json, r.header, "refine");
    const service::refine_request& refinement = r.refinement;
    json.field("code", codes::code_type_name(refinement.design.type));
    if (refinement.design.radix != 2) {
      json.field("radix", refinement.design.radix);
    }
    json.field("length", refinement.design.length);
    if (refinement.nanowires != 0) {
      json.field("nanowires", refinement.nanowires);
    }
    if (refinement.mc_trials != 0) json.field("trials", refinement.mc_trials);
    write_defects(json, refinement.defects.value_or(fab::defect_params{}));
    json.field("sigma_low", refinement.sigma_low)
        .field("sigma_high", refinement.sigma_high);
    if (refinement.yield_threshold != 0.5) {
      json.field("threshold", refinement.yield_threshold);
    }
    if (refinement.resolution != 1e-3) {
      json.field("resolution", refinement.resolution);
    }
  }

  void operator()(const status_request& r) const {
    write_header(json, r.header, "status");
    json.field("job", r.job);
    if (r.wait) json.field("wait", true);
  }

  void operator()(const cancel_request& r) const {
    write_header(json, r.header, "cancel");
    json.field("job", r.job);
  }

  void operator()(const stats_request& r) const {
    write_header(json, r.header, "stats");
    if (r.detail) json.field("detail", true);
  }

  void operator()(const flush_request& r) const {
    write_header(json, r.header, "flush");
    if (r.clear) json.field("clear", true);
  }

  void operator()(const metrics_request& r) const {
    write_header(json, r.header, "metrics");
  }

};

}  // namespace

void write_request(json_writer& json, const request& parsed) {
  json.begin_object();
  std::visit(request_writer{json}, parsed);
  json.end_object();
}

std::string to_json(const request& parsed, json_writer::style style) {
  json_writer json(style);
  write_request(json, parsed);
  return json.str();
}

}  // namespace nwdec::api
