// PR 8's observability surface, end to end at the protocol layer: the
// legacy stats wire shape stays byte-identical (regression against the
// committed smoke golden), the `metrics` verb and the detailed stats
// block expose the registry, status responses of ran jobs carry the trace
// span object, recovery warnings emit one NDJSON record each, and the
// global counters track a scripted workload. The Prometheus scrape is
// tested on the HTTP gateway's /metrics route (api/http_transport_test).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/dispatch.h"
#include "service/durable_store.h"
#include "service/sweep_service.h"
#include "util/log.h"
#include "util/metrics.h"

namespace nwdec::service {
namespace {

sweep_service make_service() {
  return sweep_service(crossbar::crossbar_spec{}, device::paper_technology(),
                       {});
}

// The committed smoke workload (tools/service_smoke/requests.ndjson),
// minus the flush -- enough to reproduce the stats golden.
const std::vector<std::string> kSmokeScript = {
    R"({"id": 1, "kind": "sweep", "codes": ["TC", "BGC"], "lengths": [8, 10], "sigmas_vt": [0.04, 0.05], "trials": 60})",
    R"({"id": 2, "kind": "sweep", "codes": ["TC", "BGC"], "lengths": [8, 10], "sigmas_vt": [0.04, 0.05], "trials": 60})",
    R"({"id": 3, "kind": "refine", "code": "BGC", "length": 10, "sigma_low": 0.02, "sigma_high": 0.12, "trials": 60, "threshold": 0.5, "resolution": 0.005})",
};

TEST(ObservabilityStatsTest, LegacyStatsWireShapeIsByteIdentical) {
  // The exact stats line the committed golden
  // (tools/service_smoke/golden.ndjson) pins: adding observability must
  // not perturb one byte of the legacy (non-detail) stats response.
  const std::string golden =
      R"({"id":4,"kind":"stats","ok":true,"result":{"mode":"operational",)"
      R"("seed":"2009","adaptive":false,"store":{"entries":15,)"
      R"("capacity":65536,"hits":8,"misses":15,"insertions":15,)"
      R"("evictions":0},"engine":{"designs_built":4,"design_reuses":11,)"
      R"("plans_built":2,"plan_reuses":2}}})"
      "\n";
  sweep_service service = make_service();
  api::dispatcher handler(service);
  for (const std::string& line : kSmokeScript) handler.handle_line(line);
  EXPECT_EQ(handler.handle_line(R"({"id": 4, "kind": "stats"})"), golden);
}

TEST(ObservabilityStatsTest, DetailAddsUptimeQueueDepthAndLatency) {
  sweep_service service = make_service();
  api::dispatcher handler(service);
  handler.handle_line(kSmokeScript[0]);
  const std::string detail =
      handler.handle_line(R"({"id":9,"kind":"stats","detail":true})");
  EXPECT_NE(detail.find("\"uptime_ms\":"), std::string::npos) << detail;
  EXPECT_NE(detail.find("\"queue_depth\":"), std::string::npos) << detail;
  EXPECT_NE(detail.find("\"job_latency\":{\"count\":"), std::string::npos)
      << detail;
  EXPECT_NE(detail.find("\"mean_ms\":"), std::string::npos) << detail;
  EXPECT_NE(detail.find("\"p50_ms\":"), std::string::npos) << detail;
  EXPECT_NE(detail.find("\"p99_ms\":"), std::string::npos) << detail;
}

TEST(ObservabilityStatsTest, DetailCountsCodeBuildsAndReuses) {
  sweep_service service = make_service();
  api::dispatcher handler(service);
  for (const std::string& line : kSmokeScript) handler.handle_line(line);
  // TC and BGC at lengths 8 and 10: four codes, each built once.
  EXPECT_NE(handler.handle_line(R"({"id":9,"kind":"stats","detail":true})")
                .find(R"("plan_reuses":2,"codes_built":4,"code_reuses":0})"),
            std::string::npos);

  // A new half-cave size is a new design on an existing code.
  handler.handle_line(
      R"({"id":10,"kind":"sweep","codes":["TC"],"lengths":[8],)"
      R"("nanowires":[24]})");
  const std::string detail =
      handler.handle_line(R"({"id":11,"kind":"stats","detail":true})");
  EXPECT_NE(detail.find(R"("designs_built":5,)"), std::string::npos)
      << detail;
  EXPECT_NE(detail.find(R"("codes_built":4,"code_reuses":1})"),
            std::string::npos)
      << detail;
  EXPECT_EQ(handler.handle_line(R"({"id":12,"kind":"stats"})")
                .find("codes_built"),
            std::string::npos);
}

TEST(ObservabilityMetricsVerbTest, SnapshotsTheRegistryInBand) {
  sweep_service service = make_service();
  api::dispatcher handler(service);
  handler.handle_line(kSmokeScript[0]);
  const std::string response =
      handler.handle_line(R"({"id":7,"kind":"metrics"})");
  EXPECT_EQ(response.rfind(R"({"id":7,"kind":"metrics","ok":true,)", 0), 0u)
      << response;
  EXPECT_NE(response.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(response.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(response.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(response.find("nwdec_requests_total{kind=\\\"sweep\\\"}"),
            std::string::npos)
      << response;
  EXPECT_NE(response.find("\"nwdec_uptime_seconds\":"), std::string::npos);
}

TEST(ObservabilityTraceTest, StatusOfARanJobCarriesTheSpanObject) {
  sweep_service service = make_service();
  api::dispatcher handler(service);
  const std::string submitted = handler.handle_line(
      R"({"id":1,"kind":"sweep","codes":["BGC"],"lengths":[8],)"
      R"("sigmas_vt":[0.05],"trials":60,"async":true})");
  ASSERT_NE(submitted.find("\"job\":1"), std::string::npos) << submitted;
  const std::string status =
      handler.handle_line(R"({"id":2,"kind":"status","job":1,"wait":true})");
  EXPECT_NE(status.find("\"state\":\"done\""), std::string::npos) << status;
  EXPECT_NE(status.find("\"trace\":{\"trace_id\":\""), std::string::npos)
      << status;
  for (const char* key :
       {"\"queue_wait_ms\":", "\"batch_jobs\":", "\"batch_points\":",
        "\"store_lookup_ms\":", "\"engine_ms\":", "\"engine_points\":",
        "\"mc_trials\":", "\"store_insert_ms\":", "\"wal_append_ms\":",
        "\"total_ms\":"}) {
    EXPECT_NE(status.find(key), std::string::npos) << key << "\n" << status;
  }
  // The span actually measured the work: one job, one point, 60 trials.
  EXPECT_NE(status.find("\"batch_points\":1"), std::string::npos) << status;
  EXPECT_NE(status.find("\"mc_trials\":60"), std::string::npos) << status;
  // The 16-hex-digit trace id is distinct across jobs (minted per job from
  // the scheduler's seed, never zero in practice for this workload).
  const std::size_t id_pos = status.find("\"trace_id\":\"");
  ASSERT_NE(id_pos, std::string::npos);
  const std::string trace_id = status.substr(id_pos + 12, 16);
  EXPECT_EQ(trace_id.find_first_not_of("0123456789abcdef"),
            std::string::npos)
      << trace_id;
}

TEST(ObservabilityCountersTest, StoreCountersTrackAScriptedWorkload) {
  metrics::registry& reg = metrics::registry::global();
  metrics::counter& hits = reg.get_counter("nwdec_store_hits_total",
                                           "class=\"mc\"");
  metrics::counter& misses = reg.get_counter("nwdec_store_misses_total",
                                             "class=\"mc\"");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();

  sweep_service service = make_service();
  api::dispatcher handler(service);
  const std::string request =
      R"({"id":1,"kind":"sweep","codes":["BGC"],"lengths":[8],)"
      R"("sigmas_vt":[0.05,0.06],"trials":60})";
  handler.handle_line(request);  // cold: 2 MC misses
  handler.handle_line(request);  // warm repeat: 2 MC hits
  EXPECT_EQ(misses.value() - misses_before, 2u);
  EXPECT_EQ(hits.value() - hits_before, 2u);
}

TEST(ObservabilityRecoveryTest, OneNdjsonRecordPerQuarantineWarning) {
  metrics::counter& warnings_total =
      metrics::registry::global().get_counter("nwdec_recovery_warnings_total");
  const std::uint64_t before = warnings_total.value();

  std::ostringstream captured;
  logging::set_stream(&captured);
  recovery_report report;
  report.warnings = {"quarantined snapshot 'cache.json' (bad digest)",
                     "invalid log tail: 17 bytes dropped"};
  log_recovery(report);
  logging::set_stream(nullptr);

  std::vector<std::string> lines;
  std::istringstream in(captured.str());
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), report.warnings.size());
  for (std::size_t w = 0; w < lines.size(); ++w) {
    EXPECT_EQ(lines[w].rfind("{\"ts\":\"", 0), 0u) << lines[w];
    EXPECT_NE(lines[w].find("\"level\":\"warn\",\"component\":"
                            "\"durable_store\",\"event\":"
                            "\"recovery_warning\""),
              std::string::npos)
        << lines[w];
    // Record w carries warning w verbatim -- one record per warning, in
    // report order.
    EXPECT_NE(lines[w].find("\"warning\":\"" + report.warnings[w] + "\"}"),
              std::string::npos)
        << lines[w];
  }
  EXPECT_EQ(warnings_total.value() - before, report.warnings.size());

  // A clean recovery logs nothing and counts nothing.
  const std::uint64_t after = warnings_total.value();
  std::ostringstream clean;
  logging::set_stream(&clean);
  log_recovery(recovery_report{});
  logging::set_stream(nullptr);
  EXPECT_TRUE(clean.str().empty());
  EXPECT_EQ(warnings_total.value(), after);
}

}  // namespace
}  // namespace nwdec::service
