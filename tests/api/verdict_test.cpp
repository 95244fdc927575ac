// The verdict contract of dispatcher::respond (api/dispatch.h): the `ok`
// and `code` returned beside each response line are exactly what parsing
// that line reads ("" for a line without "code"). The HTTP gateway maps
// its status from them without parsing its own output, so every line the
// dispatcher renders -- success, thrown error or returned error -- must
// carry a matching verdict.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>

#include "api/dispatch.h"
#include "service/sweep_service.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/metrics.h"

namespace nwdec::api {
namespace {

service::sweep_service make_service() {
  return service::sweep_service(crossbar::crossbar_spec{},
                                device::paper_technology(), {});
}

// Answers `request` and checks the verdict against the parsed line.
reply respond_checked(dispatcher& handler, const std::string& request) {
  const reply answer = handler.respond(request);
  const json_value parsed = json_parse(answer.line);
  const json_value* code = parsed.find("code");
  EXPECT_EQ(answer.ok, parsed.at("ok").as_bool()) << answer.line;
  EXPECT_EQ(answer.code, code != nullptr ? code->as_string() : "")
      << answer.line;
  return answer;
}

std::uint64_t request_errors() {
  return metrics::registry::global()
      .get_counter("nwdec_request_errors_total")
      .value();
}

TEST(VerdictTest, EverySmokeScriptLineCarriesItsVerdict) {
  std::ifstream script(NWDEC_SMOKE_REQUESTS);
  ASSERT_TRUE(script.is_open()) << NWDEC_SMOKE_REQUESTS;
  service::sweep_service service = make_service();
  dispatcher handler(service);
  std::size_t answered = 0;
  for (std::string line; std::getline(script, line);) {
    if (line.empty()) continue;
    EXPECT_TRUE(respond_checked(handler, line).ok) << line;
    ++answered;
  }
  EXPECT_GT(answered, 0u);
}

TEST(VerdictTest, MalformedAndInvalidRequestsAreNotOk) {
  // The inputs of ProtocolTest.MalformedAndInvalidRequestsBecomeErrorResponses.
  service::sweep_service service = make_service();
  dispatcher handler(service);
  for (const char* request :
       {"not json at all", R"({"id": 7, "kind": "destroy"})",
        R"({"id": 11, "kind": "subscribe", "job": 1})",
        R"({"id": 8, "kind": "sweep"})",
        R"({"id": 9, "kind": "sweep", "codes": ["XYZ"], "lengths": [8]})",
        R"({"id": 10, "kind": "sweep", "codes": ["GC"], "lengths": [7]})",
        R"([1, 2, 3])",
        R"({"id": 12, "kind": "sweep", "codes": ["BGC"], "lengths": [8],)"
        R"( "broken": -0.05})"}) {
    const reply answer = respond_checked(handler, request);
    EXPECT_FALSE(answer.ok) << request;
    EXPECT_EQ(answer.code, "") << request;
  }
  EXPECT_TRUE(respond_checked(handler, R"({"id": 11, "kind": "sweep", )"
                                       R"("codes": ["BGC"], "lengths": [8]})")
                  .ok);
}

TEST(VerdictTest, RequestIdReusedWithAnotherPayloadIsAConflict) {
  service::sweep_service service = make_service();
  dispatcher handler(service);
  const std::string first =
      R"({"id":1,"kind":"sweep","request_id":"k1","codes":["BGC"],)"
      R"("lengths":[8],"sigmas_vt":[0.05],"trials":60})";
  const std::string other =
      R"({"id":2,"kind":"sweep","request_id":"k1","codes":["BGC"],)"
      R"("lengths":[8],"sigmas_vt":[0.05],"trials":80})";
  EXPECT_TRUE(respond_checked(handler, first).ok);
  const reply conflict = respond_checked(handler, other);
  EXPECT_FALSE(conflict.ok);
  EXPECT_EQ(conflict.code, "request_id_conflict");
}

TEST(VerdictTest, ExpiredDeadlineIsTimedOut) {
  // RobustnessTest.DispatcherRendersDeadlineExpiryWithTimedOutCode's
  // setup: a synchronous sweep queued behind the only worker's refine.
  service::sweep_service service = make_service();
  dispatcher handler(service, {1, "", 64});
  EXPECT_TRUE(
      respond_checked(handler,
                      R"({"id":1,"kind":"refine","code":"BGC","length":8,)"
                      R"("sigma_low":0.02,"sigma_high":0.12,)"
                      R"("trials":20000,"async":true})")
          .ok);
  const reply expired =
      respond_checked(handler,
                      R"({"id":2,"kind":"sweep","codes":["BGC"],)"
                      R"("lengths":[8],"trials":100000,"timeout_ms":50})");
  EXPECT_FALSE(expired.ok);
  EXPECT_EQ(expired.code, "timed_out");
}

TEST(VerdictTest, ReturnedErrorLinesAreNotOkAndNotCountedAsRequestErrors) {
  struct disarm_guard {
    ~disarm_guard() { failpoints::disarm_all(); }
  } guard;
  service::sweep_service service = make_service();
  dispatcher handler(service);
  const std::uint64_t errors_before = request_errors();

  EXPECT_FALSE(
      respond_checked(handler, R"({"id":1,"kind":"status","job":99})").ok);
  EXPECT_FALSE(
      respond_checked(handler, R"({"id":2,"kind":"cancel","job":99})").ok);
  EXPECT_TRUE(respond_checked(handler,
                              R"({"id":3,"kind":"sweep","async":true,)"
                              R"("codes":["BGC"],"lengths":[8],"trials":40})")
                  .ok);
  EXPECT_TRUE(respond_checked(handler,
                              R"({"id":4,"kind":"status","job":1,)"
                              R"("wait":true})")
                  .ok);
  EXPECT_FALSE(
      respond_checked(handler, R"({"id":5,"kind":"cancel","job":1})").ok);

  // A synchronous job that fails on its worker.
  failpoints::arm("api.job.sweep.evaluate", failpoints::action::error);
  EXPECT_FALSE(respond_checked(handler,
                               R"({"id":6,"kind":"sweep","codes":["TC"],)"
                               R"("lengths":[8],"trials":40})")
                   .ok);
  failpoints::disarm_all();
  EXPECT_EQ(request_errors(), errors_before);

  // A thrown error still counts once.
  EXPECT_FALSE(respond_checked(handler, "not json at all").ok);
  EXPECT_EQ(request_errors(), errors_before + 1);
}

TEST(VerdictTest, CancelledSyncJobIsNotOk) {
  // The only worker runs a long job; the synchronous sweep queued behind
  // it is cancelled while its client waits.
  service::sweep_service service = make_service();
  dispatcher handler(service, {1, "", 64});
  EXPECT_TRUE(respond_checked(handler,
                              R"({"id":1,"kind":"sweep","async":true,)"
                              R"("codes":["BGC"],"lengths":[8],)"
                              R"("trials":50000000})")
                  .ok);
  while (handler.scheduler().stats().running < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  reply released;
  std::thread waiter([&] {
    released = respond_checked(handler,
                               R"({"id":2,"kind":"sweep","codes":["TC"],)"
                               R"("lengths":[8],"trials":40})");
  });
  while (handler.scheduler().stats().queued < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  handler.scheduler().cancel_all();
  waiter.join();
  EXPECT_FALSE(released.ok) << released.line;
  EXPECT_NE(released.line.find("cancelled"), std::string::npos)
      << released.line;
}

}  // namespace
}  // namespace nwdec::api
