// Tests of the lvf2d serving layer (src/serve/): wire-protocol
// framing, the hot-entry LRU, admission control, the
// graceful-degradation handler chain, and — the concurrency contract
// — eight client threads hammering the handlers while EM faults are
// injected, where every answer must stay valid and degraded rather
// than crashed or poisoned. The Serve* suites run under the TSan gate
// (scripts/check.sh --tsan).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <netinet/in.h>
#include <poll.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cells/characterize_cache.h"
#include "cells/library.h"
#include "core/cancel.h"
#include "core/status.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "report.h"
#include "robust/faults.h"
#include "serve/admission.h"
#include "serve/handlers.h"
#include "serve/lru.h"
#include "serve/protocol.h"
#include "serve/reqtrace.h"
#include "serve/server.h"
#include "serve/telemetry.h"

namespace lvf2 {
namespace {

// ---------------------------------------------------------------- protocol

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  void close_writer() {
    ::close(fds[0]);
    fds[0] = -1;
  }
};

TEST(ServeProtocol, FrameRoundTrip) {
  SocketPair sp;
  const std::string body = R"({"id":7,"op":"ping","params":{}})";
  ASSERT_TRUE(serve::write_frame(sp.fds[0], body).is_ok());
  std::string got;
  ASSERT_TRUE(serve::read_frame(sp.fds[1], got).is_ok());
  EXPECT_EQ(got, body);

  // Several frames back to back stay framed.
  ASSERT_TRUE(serve::write_frame(sp.fds[0], "first").is_ok());
  ASSERT_TRUE(serve::write_frame(sp.fds[0], "second").is_ok());
  ASSERT_TRUE(serve::read_frame(sp.fds[1], got).is_ok());
  EXPECT_EQ(got, "first");
  ASSERT_TRUE(serve::read_frame(sp.fds[1], got).is_ok());
  EXPECT_EQ(got, "second");
}

TEST(ServeProtocol, CleanEofIsCancelled) {
  SocketPair sp;
  sp.close_writer();
  std::string got;
  const core::Status st = serve::read_frame(sp.fds[1], got);
  EXPECT_EQ(st.code(), core::StatusCode::kCancelled);
}

TEST(ServeProtocol, MidFrameEofIsUnavailable) {
  SocketPair sp;
  // Header promising 100 bytes, then only 10 arrive before EOF.
  const unsigned char header[4] = {0, 0, 0, 100};
  ASSERT_EQ(::write(sp.fds[0], header, 4), 4);
  ASSERT_EQ(::write(sp.fds[0], "0123456789", 10), 10);
  sp.close_writer();
  std::string got;
  const core::Status st = serve::read_frame(sp.fds[1], got);
  EXPECT_EQ(st.code(), core::StatusCode::kUnavailable);
}

TEST(ServeProtocol, OversizedFrameIsResourceExhausted) {
  SocketPair sp;
  const std::uint32_t huge = serve::kMaxFrameBytes + 1;
  const unsigned char header[4] = {
      static_cast<unsigned char>(huge >> 24),
      static_cast<unsigned char>(huge >> 16),
      static_cast<unsigned char>(huge >> 8),
      static_cast<unsigned char>(huge)};
  ASSERT_EQ(::write(sp.fds[0], header, 4), 4);
  std::string got;
  const core::Status st = serve::read_frame(sp.fds[1], got);
  EXPECT_EQ(st.code(), core::StatusCode::kResourceExhausted);
}

TEST(ServeProtocol, ParseRequestFull) {
  serve::Request request;
  const core::Status st = serve::parse_request(
      R"({"id":42,"op":"arc_dist","deadline_ms":25,)"
      R"("params":{"cell":"INV_X1","load_idx":1}})",
      request);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(request.id, 42u);
  EXPECT_EQ(request.op, "arc_dist");
  EXPECT_DOUBLE_EQ(request.deadline_ms, 25.0);
  EXPECT_EQ(request.params.string_or("cell", ""), "INV_X1");
  EXPECT_DOUBLE_EQ(request.params.number_or("load_idx", -1.0), 1.0);
}

TEST(ServeProtocol, ParseRequestMissingOpKeepsId) {
  serve::Request request;
  const core::Status st = serve::parse_request(R"({"id":9})", request);
  EXPECT_FALSE(st.is_ok());
  // The id survives so the error can be answered on the right request.
  EXPECT_EQ(request.id, 9u);
}

TEST(ServeProtocol, ParseRequestGarbageIsParseError) {
  serve::Request request;
  const core::Status st = serve::parse_request("{nope", request);
  EXPECT_FALSE(st.is_ok());
}

TEST(ServeProtocol, RenderResponseRoundTrips) {
  obs::JsonValue result;
  result.type = obs::JsonValue::Type::kObject;
  obs::JsonValue pong;
  pong.type = obs::JsonValue::Type::kNumber;
  pong.number = 1.0;
  result.object.emplace_back("pong", pong);

  const std::string ok_body = serve::render_response(
      5, core::Status::ok(), "cached", 1.5, &result);
  const std::optional<obs::JsonValue> ok_doc = obs::json_parse(ok_body);
  ASSERT_TRUE(ok_doc.has_value() && ok_doc->is_object()) << ok_body;
  EXPECT_DOUBLE_EQ(ok_doc->number_or("id", -1.0), 5.0);
  EXPECT_EQ(ok_doc->string_or("status", ""), "ok");
  EXPECT_EQ(ok_doc->string_or("degradation", ""), "cached");
  EXPECT_DOUBLE_EQ(ok_doc->number_or("elapsed_ms", -1.0), 1.5);
  EXPECT_EQ(ok_doc->find("retry_after_ms"), nullptr);
  ASSERT_NE(ok_doc->find("result"), nullptr);
  EXPECT_DOUBLE_EQ(ok_doc->find("result")->number_or("pong", 0.0), 1.0);

  const std::string rej_body = serve::render_response(
      6, core::Status::resource_exhausted("queue full"), "none", 0.1,
      nullptr, 75.0);
  const std::optional<obs::JsonValue> rej_doc = obs::json_parse(rej_body);
  ASSERT_TRUE(rej_doc.has_value() && rej_doc->is_object()) << rej_body;
  EXPECT_EQ(rej_doc->string_or("status", ""), "resource_exhausted");
  EXPECT_DOUBLE_EQ(rej_doc->number_or("retry_after_ms", 0.0), 75.0);
  EXPECT_NE(rej_doc->string_or("error", ""), "");
}

// --------------------------------------------------------------------- lru

TEST(ServeLru, HitMissEvict) {
  serve::Lru<std::string> lru("test.lru", 2);
  EXPECT_FALSE(lru.get(1).has_value());
  lru.put(1, "one");
  lru.put(2, "two");
  EXPECT_EQ(lru.get(1).value_or(""), "one");
  // 1 is now most-recent, so inserting 3 evicts 2.
  lru.put(3, "three");
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_FALSE(lru.get(2).has_value());
  EXPECT_EQ(lru.get(1).value_or(""), "one");
  EXPECT_EQ(lru.get(3).value_or(""), "three");
  // Refreshing an existing key replaces the value, no growth.
  lru.put(3, "replaced");
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.get(3).value_or(""), "replaced");
}

TEST(ServeLru, SetCapacityEvictsDown) {
  serve::Lru<std::string> lru("test.lru", 8);
  for (std::uint64_t k = 0; k < 8; ++k) lru.put(k, "v");
  lru.set_capacity(3);
  EXPECT_EQ(lru.capacity(), 3u);
  EXPECT_LE(lru.size(), 3u);
  // The most recently touched keys survive.
  EXPECT_TRUE(lru.get(7).has_value());
}

TEST(ServeLru, ZeroCapacityDisables) {
  serve::Lru<std::string> lru("test.lru", 0);
  lru.put(1, "one");
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_FALSE(lru.get(1).has_value());
}

TEST(ServeLru, CountsUnderItsPrefixAndHoldsAnyValue) {
  serve::Lru<std::array<double, 2>> lru("test.lru_prefix", 2);
  const auto count = [](const char* suffix) {
    return obs::counter(std::string("test.lru_prefix.") + suffix).value();
  };
  const std::uint64_t hit0 = count("hit"), miss0 = count("miss");
  const std::uint64_t store0 = count("store"), evict0 = count("evict");
  EXPECT_FALSE(lru.get(1).has_value());
  lru.put(1, {1.0, -1.0});
  lru.put(2, {2.0, -2.0});
  EXPECT_EQ(lru.get(1).value(), (std::array<double, 2>{1.0, -1.0}));
  lru.put(3, {3.0, -3.0});  // evicts 2, the least recent
  EXPECT_FALSE(lru.get(2).has_value());
  lru.put(3, {4.0, -4.0});  // a refresh is no store
  EXPECT_EQ(count("hit"), hit0 + 1);
  EXPECT_EQ(count("miss"), miss0 + 2);
  EXPECT_EQ(count("store"), store0 + 3);
  EXPECT_EQ(count("evict"), evict0 + 1);
  lru.clear();
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(count("evict"), evict0 + 1);
}

// --------------------------------------------------------------- admission

struct FakeItem {
  int id = 0;
  bool shed = false;
};

TEST(ServeAdmission, WatermarkMarksShedAndFullRejects) {
  serve::AdmissionQueue<FakeItem> queue(4, 3);
  EXPECT_EQ(queue.try_push({1}), serve::Admit::kAccepted);
  EXPECT_EQ(queue.try_push({2}), serve::Admit::kAccepted);
  EXPECT_EQ(queue.try_push({3}), serve::Admit::kAcceptedShed);
  EXPECT_EQ(queue.try_push({4}), serve::Admit::kAcceptedShed);
  EXPECT_EQ(queue.try_push({5}), serve::Admit::kRejected);
  EXPECT_EQ(queue.depth(), 4u);
  EXPECT_EQ(queue.high_water(), 4u);

  // The shed verdict is carried on the item itself.
  std::vector<bool> shed;
  for (int i = 0; i < 4; ++i) shed.push_back(queue.pop()->shed);
  EXPECT_EQ(shed, (std::vector<bool>{false, false, true, true}));
}

TEST(ServeAdmission, CloseDrainsPendingThenEndsForever) {
  serve::AdmissionQueue<FakeItem> queue(4, 4);
  EXPECT_EQ(queue.try_push({1}), serve::Admit::kAccepted);
  queue.close();
  EXPECT_TRUE(queue.closed());
  // New work is refused, queued work still drains.
  EXPECT_EQ(queue.try_push({2}), serve::Admit::kRejected);
  const auto drained = queue.pop();
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->id, 1);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(ServeAdmission, PopBlocksUntilPush) {
  serve::AdmissionQueue<FakeItem> queue(4, 4);
  std::optional<FakeItem> got;
  std::thread popper([&] { got = queue.pop(); });
  EXPECT_EQ(queue.try_push({11}), serve::Admit::kAccepted);
  popper.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 11);
}

TEST(ServeAdmission, RetryAfterHintIsClamped) {
  EXPECT_DOUBLE_EQ(serve::retry_after_hint_ms(0), 25.0);
  EXPECT_DOUBLE_EQ(serve::retry_after_hint_ms(1), 25.0);
  EXPECT_DOUBLE_EQ(serve::retry_after_hint_ms(20), 100.0);
  EXPECT_DOUBLE_EQ(serve::retry_after_hint_ms(100000), 1000.0);
}

// ---------------------------------------------------------------- handlers

// HandlerContext owns a mutex (the LRU) and is not movable, so tests
// configure a local instance in place.
void configure_context(serve::HandlerContext& ctx) {
  ctx.library = cells::build_paper_library();
  ctx.characterize.grid = cells::SlewLoadGrid::reduced(4);  // 2x2
  ctx.characterize.mc_samples = 200;
  ctx.lru.set_capacity(64);
}

serve::Request make_arc_request(const std::string& op,
                                const std::string& cell,
                                double deadline_ms = 0.0) {
  serve::Request request;
  request.id = 1;
  request.op = op;
  request.deadline_ms = deadline_ms;
  std::string params = "{\"cell\":";
  obs::json_append_string(params, cell);
  params += ",\"load_idx\":0,\"slew_idx\":0}";
  request.params = *obs::json_parse(params);
  return request;
}

double result_number(const serve::HandlerResult& result,
                     const char* outer, const char* inner = nullptr) {
  const obs::JsonValue* v = result.result.find(outer);
  if (v == nullptr) return std::nan("");
  if (inner == nullptr) return v->number;
  return v->number_or(inner, std::nan(""));
}

TEST(ServeHandlers, PingAndUnknownOp) {
  serve::HandlerContext ctx;
  configure_context(ctx);
  serve::Request ping;
  ping.op = "ping";
  const serve::HandlerResult pong =
      serve::handle_request(ctx, ping, serve::ExecMode::kFull);
  EXPECT_TRUE(pong.status.is_ok());
  EXPECT_EQ(pong.degradation, "none");

  serve::Request bogus;
  bogus.op = "frobnicate";
  const serve::HandlerResult err =
      serve::handle_request(ctx, bogus, serve::ExecMode::kFull);
  EXPECT_EQ(err.status.code(), core::StatusCode::kInvalidArgument);
}

TEST(ServeHandlers, UnknownCellIsNotFound) {
  serve::HandlerContext ctx;
  configure_context(ctx);
  const serve::HandlerResult result = serve::handle_request(
      ctx, make_arc_request("arc_dist", "NO_SUCH_CELL"),
      serve::ExecMode::kFull);
  EXPECT_EQ(result.status.code(), core::StatusCode::kNotFound);
  EXPECT_EQ(result.degradation, "none");
}

TEST(ServeHandlers, GridIndexOutOfRangeIsInvalid) {
  serve::HandlerContext ctx;
  configure_context(ctx);
  serve::Request request = make_arc_request("arc_dist", "INV_X1");
  request.params = *obs::json_parse(
      R"({"cell":"INV_X1","load_idx":7,"slew_idx":0})");  // grid is 2x2
  const serve::HandlerResult result =
      serve::handle_request(ctx, request, serve::ExecMode::kFull);
  EXPECT_EQ(result.status.code(), core::StatusCode::kInvalidArgument);
}

TEST(ServeHandlers, FloorModeAnswersPointMass) {
  serve::HandlerContext ctx;
  configure_context(ctx);
  const serve::HandlerResult result = serve::handle_request(
      ctx, make_arc_request("arc_dist", "INV_X1"),
      serve::ExecMode::kShedFloor);
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.degradation, "point_mass");
  const double mean = result_number(result, "delay", "mean");
  EXPECT_TRUE(std::isfinite(mean) && mean > 0.0) << mean;
  EXPECT_DOUBLE_EQ(result_number(result, "delay", "stddev"), 0.0);
}

TEST(ServeHandlers, LightModeAnswersSingleSn) {
  serve::HandlerContext ctx;
  configure_context(ctx);
  const serve::HandlerResult result = serve::handle_request(
      ctx, make_arc_request("arc_dist", "INV_X1"),
      serve::ExecMode::kShedLight);
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.degradation, "single_sn");
  EXPECT_GT(result_number(result, "delay", "stddev"), 0.0);
  // The honest single-component answer: mixture weight pinned to 0.
  ASSERT_NE(result.result.find("lvf2_delay"), nullptr);
  EXPECT_DOUBLE_EQ(result.result.find("lvf2_delay")->number_or("lambda", -1),
                   0.0);
}

TEST(ServeHandlers, FullComputeSeedsLruForShedRequests) {
  serve::HandlerContext ctx;
  configure_context(ctx);
  const serve::Request request = make_arc_request("arc_dist", "INV_X1");
  const serve::HandlerResult full =
      serve::handle_request(ctx, request, serve::ExecMode::kFull);
  ASSERT_TRUE(full.status.is_ok()) << full.status.to_string();
  EXPECT_EQ(full.degradation, "none");
  ASSERT_GT(ctx.lru.size(), 0u);

  // A later shed request for the same entry rides the hot LRU: rung 1
  // of the chain, tagged "cached", numerically identical to the full
  // answer.
  const serve::HandlerResult shed =
      serve::handle_request(ctx, request, serve::ExecMode::kShedLight);
  ASSERT_TRUE(shed.status.is_ok()) << shed.status.to_string();
  EXPECT_EQ(shed.degradation, "cached");
  EXPECT_DOUBLE_EQ(result_number(shed, "delay", "mean"),
                   result_number(full, "delay", "mean"));
}

TEST(ServeHandlers, ExpiredDeadlineShedsToFloorNotError) {
  serve::HandlerContext ctx;
  configure_context(ctx);
  const std::uint64_t sheds_before =
      obs::counter("serve.shed.deadline").value();
  core::DeadlineGuard guard(0.0);  // already expired
  const serve::HandlerResult result = serve::handle_request(
      ctx, make_arc_request("arc_dist", "NAND2_X1"),
      serve::ExecMode::kFull);
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.degradation, "point_mass");
  EXPECT_GT(obs::counter("serve.shed.deadline").value(), sheds_before);
}

TEST(ServeHandlers, DegradedOpsStayFinite) {
  serve::HandlerContext ctx;
  configure_context(ctx);
  const serve::HandlerResult bin = serve::handle_request(
      ctx, make_arc_request("bin", "INV_X1"), serve::ExecMode::kShedFloor);
  ASSERT_TRUE(bin.status.is_ok());
  // The re-inflated point mass still has a (tiny) positive sigma, so
  // the sigma-bin probabilities are the standard-normal band masses;
  // they must be finite, in [0, 1], and sum to ~1.
  const obs::JsonValue* probs = bin.result.find("probabilities");
  ASSERT_NE(probs, nullptr);
  ASSERT_FALSE(probs->array.empty());
  double total = 0.0;
  for (const obs::JsonValue& v : probs->array) {
    ASSERT_TRUE(std::isfinite(v.number));
    EXPECT_GE(v.number, 0.0);
    EXPECT_LE(v.number, 1.0);
    total += v.number;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);

  const serve::HandlerResult yield = serve::handle_request(
      ctx, make_arc_request("yield3", "INV_X1"), serve::ExecMode::kShedFloor);
  ASSERT_TRUE(yield.status.is_ok());
  // The point-mass floor re-inflates stddev-0 moments to a tiny
  // positive scale (robust.stats.point_mass), so the 3-sigma yield is
  // Phi(3), not exactly 1.
  const double y = result_number(yield, "yield");
  EXPECT_TRUE(std::isfinite(y));
  EXPECT_GE(y, 0.99);
  EXPECT_LE(y, 1.0);

  serve::Request path = make_arc_request("path_ssta", "INV_X1");
  path.params.object.emplace_back("depth", [] {
    obs::JsonValue v;
    v.type = obs::JsonValue::Type::kNumber;
    v.number = 6.0;
    return v;
  }());
  const serve::HandlerResult ssta = serve::handle_request(
      ctx, path, serve::ExecMode::kShedLight);
  ASSERT_TRUE(ssta.status.is_ok()) << ssta.status.to_string();
  EXPECT_TRUE(std::isfinite(result_number(ssta, "arrival_mean_ns")));
  EXPECT_TRUE(std::isfinite(result_number(ssta, "yield_3sigma")));
}

TEST(ServeHandlers, YieldHsFullRunsImportanceSampling) {
  serve::HandlerContext ctx;
  configure_context(ctx);
  serve::Request request = make_arc_request("yield_hs", "INV_X1");
  request.params.object.emplace_back("sigma", [] {
    obs::JsonValue v;
    v.type = obs::JsonValue::Type::kNumber;
    v.number = 2.0;
    return v;
  }());
  request.params.object.emplace_back("max_samples", [] {
    obs::JsonValue v;
    v.type = obs::JsonValue::Type::kNumber;
    v.number = 2048.0;
    return v;
  }());
  const serve::HandlerResult result =
      serve::handle_request(ctx, request, serve::ExecMode::kFull);
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.degradation, "none");
  const obs::JsonValue* method = result.result.find("method");
  ASSERT_NE(method, nullptr);
  EXPECT_EQ(method->string, "importance");
  const double p = result_number(result, "p_fail");
  EXPECT_TRUE(std::isfinite(p));
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
  const double ess = result_number(result, "ess");
  const double samples = result_number(result, "samples");
  EXPECT_GT(ess, 0.0);
  EXPECT_LE(ess, samples);
  EXPECT_LE(samples, 2048.0);
  EXPECT_TRUE(std::isfinite(result_number(result, "threshold_ns")));

  // Determinism: the op derives its seed from the arc identity, so the
  // same request answers with the same bits.
  const serve::HandlerResult again =
      serve::handle_request(ctx, request, serve::ExecMode::kFull);
  ASSERT_TRUE(again.status.is_ok());
  EXPECT_EQ(result_number(again, "p_fail"), p);
}

TEST(ServeHandlers, YieldHsShedAnswersFromModelTail) {
  serve::HandlerContext ctx;
  configure_context(ctx);
  const serve::HandlerResult floor = serve::handle_request(
      ctx, make_arc_request("yield_hs", "INV_X1"), serve::ExecMode::kShedFloor);
  ASSERT_TRUE(floor.status.is_ok()) << floor.status.to_string();
  EXPECT_EQ(floor.degradation, "point_mass");
  const obs::JsonValue* method = floor.result.find("method");
  ASSERT_NE(method, nullptr);
  EXPECT_EQ(method->string, "model_tail");
  const double p = floor.result.find("p_fail")->number;
  EXPECT_TRUE(std::isfinite(p));
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);

  // An expired deadline degrades mid-compute to the floor answer
  // instead of erroring — the IS loops are checkpointed.
  core::DeadlineGuard guard(0.0);
  const serve::HandlerResult shed = serve::handle_request(
      ctx, make_arc_request("yield_hs", "NAND2_X1"), serve::ExecMode::kFull);
  ASSERT_TRUE(shed.status.is_ok()) << shed.status.to_string();
  EXPECT_EQ(shed.degradation, "point_mass");
}

// ---------------------------------------------------- yield_hs shift memo

serve::Request make_yield_hs_request(const std::string& cell, double sigma) {
  serve::Request request = make_arc_request("yield_hs", cell);
  for (const auto& [name, value] :
       {std::pair{"sigma", sigma}, std::pair{"max_samples", 8192.0}}) {
    obs::JsonValue v;
    v.type = obs::JsonValue::Type::kNumber;
    v.number = value;
    request.params.object.emplace_back(name, v);
  }
  return request;
}

// The comparable form of an answer: status, degradation and the result
// at 17 significant digits.
std::string rendered(const serve::HandlerResult& result) {
  return result.status.to_string() + "|" + result.degradation + "|" +
         obs::json_write(result.result, obs::JsonWriteOptions{17});
}

std::uint64_t counter_value(const char* name) {
  return obs::counter(name).value();
}

TEST(ServeYieldHs, WarmAnswerBitwiseEqualsCold) {
  const serve::Request request = make_yield_hs_request("INV_X1", 3.0);
  serve::HandlerContext fresh;
  configure_context(fresh);
  const serve::HandlerResult cold =
      serve::handle_request(fresh, request, serve::ExecMode::kFull);
  ASSERT_TRUE(cold.status.is_ok()) << cold.status.to_string();
  ASSERT_EQ(cold.result.find("method")->string, "importance");

  serve::HandlerContext ctx;
  configure_context(ctx);
  const std::uint64_t miss0 = counter_value("serve.yield_shift.miss");
  const serve::HandlerResult first =
      serve::handle_request(ctx, request, serve::ExecMode::kFull);
  EXPECT_EQ(counter_value("serve.yield_shift.miss"), miss0 + 1);
  EXPECT_EQ(ctx.yield_shift.size(), 1u);
  const std::uint64_t hit0 = counter_value("serve.yield_shift.hit");
  const serve::HandlerResult warm =
      serve::handle_request(ctx, request, serve::ExecMode::kFull);
  EXPECT_EQ(counter_value("serve.yield_shift.hit"), hit0 + 1);
  EXPECT_EQ(rendered(first), rendered(cold));
  EXPECT_EQ(rendered(warm), rendered(cold));

  // Another sigma is another threshold and seed: its own memo entry.
  const serve::HandlerResult other = serve::handle_request(
      ctx, make_yield_hs_request("INV_X1", 4.0), serve::ExecMode::kFull);
  ASSERT_TRUE(other.status.is_ok());
  EXPECT_EQ(ctx.yield_shift.size(), 2u);
  EXPECT_NE(rendered(other), rendered(cold));

  // The stats op reports the memo's traffic.
  serve::Request stats;
  stats.op = "stats";
  const serve::HandlerResult st =
      serve::handle_request(ctx, stats, serve::ExecMode::kFull);
  EXPECT_EQ(st.result.number_or("yield_shift_hit", -1.0),
            static_cast<double>(counter_value("serve.yield_shift.hit")));
  EXPECT_EQ(st.result.number_or("yield_shift_miss", -1.0),
            static_cast<double>(counter_value("serve.yield_shift.miss")));
}

TEST(ServeYieldHs, CancelledPilotStoresNothing) {
  const serve::Request request = make_yield_hs_request("NAND2_X1", 3.0);
  serve::HandlerContext ctx;
  configure_context(ctx);
  // Warm the entry, so the expired deadline below first fires in the
  // pilot's sampling loop rather than in the characterization.
  ASSERT_TRUE(serve::handle_request(ctx, make_arc_request("arc_dist",
                                                          "NAND2_X1"),
                                    serve::ExecMode::kFull)
                  .status.is_ok());
  const std::uint64_t miss0 = counter_value("serve.yield_shift.miss");
  const std::uint64_t store0 = counter_value("serve.yield_shift.store");
  {
    core::DeadlineGuard guard(0.0);  // already expired
    const serve::HandlerResult shed =
        serve::handle_request(ctx, request, serve::ExecMode::kFull);
    ASSERT_TRUE(shed.status.is_ok()) << shed.status.to_string();
    EXPECT_EQ(shed.degradation, "cached");
    EXPECT_EQ(shed.result.find("method")->string, "model_tail");
  }
  // The request missed the memo, then was cancelled before the store.
  EXPECT_EQ(counter_value("serve.yield_shift.miss"), miss0 + 1);
  EXPECT_EQ(counter_value("serve.yield_shift.store"), store0);
  EXPECT_EQ(ctx.yield_shift.size(), 0u);

  const std::uint64_t hit0 = counter_value("serve.yield_shift.hit");
  const serve::HandlerResult full =
      serve::handle_request(ctx, request, serve::ExecMode::kFull);
  EXPECT_EQ(counter_value("serve.yield_shift.hit"), hit0);
  EXPECT_EQ(counter_value("serve.yield_shift.miss"), miss0 + 2);

  serve::HandlerContext fresh;
  configure_context(fresh);
  const serve::HandlerResult cold =
      serve::handle_request(fresh, request, serve::ExecMode::kFull);
  ASSERT_EQ(cold.result.find("method")->string, "importance");
  EXPECT_EQ(rendered(full), rendered(cold));
}

// The registry document rides in the reply as is: a counter past
// %.9g's reach still renders as its exact integer.
TEST(ServeHandlers, MetricsOpRendersLargeCountersExactly) {
  serve::HandlerContext ctx;
  configure_context(ctx);
  obs::counter("test.serve.big").add(5000000000ull);
  serve::Request request;
  request.op = "metrics";
  request.params = obs::json_object();
  const serve::HandlerResult result =
      serve::handle_request(ctx, request, serve::ExecMode::kFull);
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  const std::string reply = serve::render_response(
      1, result.status, result.degradation, 0.0, &result.result, 0.0);
  EXPECT_NE(reply.find("\"test.serve.big\":5000000000"), std::string::npos);
}

TEST(ServeHandlers, MetricsOpExposesSnapshotAndPrometheus) {
  serve::HandlerContext ctx;
  configure_context(ctx);
  // Seed the telemetry so the snapshot has at least one op row.
  serve::ServeTelemetry& telemetry = serve::ServeTelemetry::instance();
  telemetry.record_request("ping");
  telemetry.record_response("ping", /*is_ok=*/true, "none",
                            /*queue_ms=*/0.25, /*exec_ms=*/1.5,
                            /*budget_ms=*/250.0);

  serve::Request request;
  request.op = "metrics";
  request.params = *obs::json_parse("{}");
  const serve::HandlerResult json_result =
      serve::handle_request(ctx, request, serve::ExecMode::kFull);
  ASSERT_TRUE(json_result.status.is_ok()) << json_result.status.to_string();
  const obs::JsonValue* ops = json_result.result.find("ops");
  ASSERT_NE(ops, nullptr);
  ASSERT_TRUE(ops->is_object());
  const obs::JsonValue* ping_row = ops->find("ping");
  ASSERT_NE(ping_row, nullptr);
  EXPECT_GE(ping_row->number_or("requests", 0.0), 1.0);
  EXPECT_GE(ping_row->number_or("responded", 0.0), 1.0);
  ASSERT_NE(ping_row->find("deadline"), nullptr);
  EXPECT_GE(ping_row->find("deadline")->number_or("total", 0.0), 1.0);
  ASSERT_NE(ping_row->find("queue_ms"), nullptr);
  // The registry block carries everything except the per-op series,
  // which the rows above already report.
  const obs::JsonValue* registry = json_result.result.find("registry");
  ASSERT_NE(registry, nullptr);
  ASSERT_NE(registry->find("digests"), nullptr);
  EXPECT_TRUE(registry->find("digests")->has("serve.queue_ms"));
  EXPECT_FALSE(
      registry->find("digests")->has("serve.op.queue_ms{op=\"ping\"}"));
  EXPECT_FALSE(
      registry->find("counters")->has("serve.op.requests{op=\"ping\"}"));
  EXPECT_GE(json_result.result.number_or("uptime_s", -1.0), 0.0);

  request.params = *obs::json_parse(R"({"format":"prometheus"})");
  const serve::HandlerResult prom_result =
      serve::handle_request(ctx, request, serve::ExecMode::kFull);
  ASSERT_TRUE(prom_result.status.is_ok()) << prom_result.status.to_string();
  const std::string text = prom_result.result.string_or("text", "");
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
  EXPECT_NE(text.find("lvf2_serve_uptime_seconds"), std::string::npos);
  EXPECT_NE(text.find("lvf2_serve_op_requests_total{op=\"ping\"}"),
            std::string::npos);

  request.params = *obs::json_parse(R"({"format":"xml"})");
  const serve::HandlerResult bad =
      serve::handle_request(ctx, request, serve::ExecMode::kFull);
  EXPECT_EQ(bad.status.code(), core::StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------- concurrency

class ServeConcurrency : public ::testing::Test {
 protected:
  void TearDown() override { robust::FaultInjector::instance().clear(); }
};

// The satellite contract: eight threads issuing requests while EM
// faults are injected must each get a valid, possibly-degraded answer
// — never a crash, never a poisoned (non-finite) number, never a
// cross-request mixup. gtest assertions are not thread-safe, so the
// workers only collect and the main thread judges.
TEST_F(ServeConcurrency, EightThreadsStayValidUnderEmFaults) {
  robust::FaultInjector& injector = robust::FaultInjector::instance();
  ASSERT_TRUE(injector.configure("em.collapse;seed=29").is_ok());
  const std::uint64_t degraded_before =
      obs::counter("robust.downgrade.single_sn").value();

  serve::HandlerContext ctx;
  configure_context(ctx);
  ctx.characterize.mc_samples = 160;
  const char* kCells[8] = {"INV_X1",   "BUFF_X1", "NAND2_X1", "NOR2_X1",
                           "AND2_X1",  "OR2_X1",  "XOR2_X1",  "MUX2_X1"};

  struct Outcome {
    std::string cell;
    serve::HandlerResult result;
  };
  std::mutex outcomes_mutex;
  std::vector<Outcome> outcomes;

  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      // Mix of modes: full computes hit the faulted EM fits, shed
      // requests exercise the LRU and analytic fallbacks concurrently.
      const serve::ExecMode modes[3] = {serve::ExecMode::kFull,
                                        serve::ExecMode::kShedLight,
                                        serve::ExecMode::kShedFloor};
      for (int k = 0; k < 3; ++k) {
        const serve::Request request =
            make_arc_request("arc_dist", kCells[t]);
        serve::HandlerResult result =
            serve::handle_request(ctx, request, modes[k]);
        std::lock_guard<std::mutex> lock(outcomes_mutex);
        outcomes.push_back({kCells[t], std::move(result)});
      }
    });
  }
  for (std::thread& w : workers) w.join();

  ASSERT_EQ(outcomes.size(), 24u);
  for (const Outcome& o : outcomes) {
    SCOPED_TRACE(o.cell);
    ASSERT_TRUE(o.result.status.is_ok()) << o.result.status.to_string();
    const std::string& tag = o.result.degradation;
    EXPECT_TRUE(tag == "none" || tag == "cached" || tag == "single_sn" ||
                tag == "point_mass")
        << tag;
    // No cross-request mixup and no poisoned numbers.
    EXPECT_EQ(o.result.result.string_or("cell", ""), o.cell);
    const double mean = result_number(o.result, "delay", "mean");
    EXPECT_TRUE(std::isfinite(mean) && mean > 0.0) << mean;
  }
  // The injected EM faults must have actually engaged the degradation
  // chain inside the full fits.
  EXPECT_GT(injector.injected_count(robust::Fault::kEmCollapse), 0u);
  EXPECT_GT(obs::counter("robust.downgrade.single_sn").value(),
            degraded_before);
}

TEST_F(ServeConcurrency, LruSurvivesThrash) {
  serve::Lru<std::string> lru("test.lru", 16);
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 400; ++i) {
        const std::uint64_t key = (i + static_cast<std::uint64_t>(t)) % 32;
        if (i % 3 == 0) {
          lru.put(key, std::string(8, 'x'));
        } else {
          (void)lru.get(key);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_LE(lru.size(), 16u);
}

TEST_F(ServeConcurrency, AdmissionQueueSurvivesThrash) {
  serve::AdmissionQueue<FakeItem> queue(8, 6);
  std::atomic<int> popped{0};
  std::atomic<int> pushed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        if (queue.try_push({i}) != serve::Admit::kRejected) {
          pushed.fetch_add(1);
        }
      }
    });
  }
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      while (queue.pop().has_value()) popped.fetch_add(1);
    });
  }
  // Give producers time to finish, then close; poppers drain and exit.
  for (int t = 0; t < 4; ++t) workers[static_cast<std::size_t>(t)].join();
  queue.close();
  for (std::size_t t = 4; t < workers.size(); ++t) workers[t].join();
  EXPECT_EQ(popped.load(), pushed.load());
}

// Deterministic single-flight check: the test poses as the leader by
// planting the entry's key in inflight_keys, so the real request must
// take the follower path (bumping serve.coalesced before it waits).
// Releasing the key wakes it; the cache is still cold, so it retries
// and becomes the leader itself.
TEST_F(ServeConcurrency, CoalescedFollowerWaitsThenRetries) {
  serve::HandlerContext ctx;
  configure_context(ctx);
  const cells::Cell* cell = ctx.library.find("INV_X1");
  ASSERT_NE(cell, nullptr);
  ASSERT_FALSE(cell->arcs.empty());
  const cells::TimingArc& arc = cell->arcs.front();
  const std::uint64_t key =
      cells::entry_cache_key(ctx.corner, ctx.characterize, *cell, arc,
                             arc.label(), 0, 0);
  obs::Counter& coalesced = obs::counter("serve.coalesced");
  const std::uint64_t before = coalesced.value();
  {
    std::lock_guard<std::mutex> lock(ctx.flight_mutex);
    ASSERT_TRUE(ctx.inflight_keys.insert(key).second);
  }
  serve::HandlerResult result;
  std::thread follower([&] {
    result = serve::handle_request(
        ctx, make_arc_request("arc_dist", "INV_X1"), serve::ExecMode::kFull);
  });
  for (int i = 0; i < 1000 && coalesced.value() == before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(coalesced.value(), before);
  {
    std::lock_guard<std::mutex> lock(ctx.flight_mutex);
    ctx.inflight_keys.erase(key);
  }
  ctx.flight_cv.notify_all();
  follower.join();
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.degradation, "none");
  const double mean = result_number(result, "delay", "mean");
  EXPECT_TRUE(std::isfinite(mean) && mean > 0.0) << mean;
  EXPECT_GT(ctx.lru.size(), 0u);
}

// Eight racing full computes of the same entry: whether a thread ends
// up leader, coalesced follower, or late cache hit, everyone gets the
// same full-quality bytes (the compute is seeded, so equality is
// exact) and nobody is told it was degraded.
TEST_F(ServeConcurrency, ConcurrentIdenticalFullComputesAgree) {
  serve::HandlerContext ctx;
  configure_context(ctx);
  ctx.characterize.mc_samples = 400;  // slow enough that threads overlap

  std::mutex results_mutex;
  std::vector<serve::HandlerResult> results;
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&] {
      serve::HandlerResult r = serve::handle_request(
          ctx, make_arc_request("arc_dist", "NAND2_X1"),
          serve::ExecMode::kFull);
      std::lock_guard<std::mutex> lock(results_mutex);
      results.push_back(std::move(r));
    });
  }
  for (std::thread& w : workers) w.join();

  ASSERT_EQ(results.size(), 8u);
  const double mean0 = result_number(results.front(), "delay", "mean");
  ASSERT_TRUE(std::isfinite(mean0) && mean0 > 0.0) << mean0;
  for (const serve::HandlerResult& r : results) {
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    EXPECT_EQ(r.degradation, "none");
    EXPECT_DOUBLE_EQ(result_number(r, "delay", "mean"), mean0);
  }
}

// ----------------------------------------------------- request tracing

TEST(ServeReqTrace, RingIsFifoAndBounded) {
  serve::TraceRing ring;
  serve::RequestTrace t;
  for (std::size_t i = 0; i < serve::TraceRing::kCapacity; ++i) {
    t.rid = i + 1;
    ASSERT_TRUE(ring.try_push(t));
  }
  t.rid = 999999;
  EXPECT_FALSE(ring.try_push(t));  // full: drop, never overwrite
  serve::RequestTrace out;
  for (std::size_t i = 0; i < serve::TraceRing::kCapacity; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_EQ(out.rid, i + 1);
  }
  EXPECT_FALSE(ring.try_pop(out));
  // FIFO holds across the wrap-around boundary.
  for (std::uint64_t i = 0; i < 3 * serve::TraceRing::kCapacity; ++i) {
    t.rid = i;
    ASSERT_TRUE(ring.try_push(t));
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_EQ(out.rid, i);
  }
}

TEST(ServeReqTrace, ConcurrentRecordingIsAccountedAndParseable) {
  if (serve::reqtrace_enabled()) {
    GTEST_SKIP() << "an access-log session is already active";
  }
  serve::RequestTraceLog& log = serve::RequestTraceLog::instance();
  const std::string path = testing::TempDir() + "lvf2_access_test.jsonl";
  ASSERT_TRUE(log.configure(path, /*max_kb=*/16384));
  const std::uint64_t written_before = log.written();
  const std::uint64_t dropped_before = log.dropped();
  log.start();
  ASSERT_TRUE(serve::reqtrace_enabled());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        serve::RequestTrace trace;
        trace.rid = static_cast<std::uint64_t>(t) * kPerThread +
                    static_cast<std::uint64_t>(i) + 1;
        trace.conn = static_cast<std::uint64_t>(t) + 1;
        trace.queue_ms = 0.25;
        trace.exec_ms = 1.5;
        trace.bytes_in = 64;
        trace.bytes_out = 256;
        serve::RequestTrace::set_field(trace.op, "arc_dist");
        serve::RequestTrace::set_field(trace.status, "ok");
        serve::RequestTrace::set_field(trace.degradation, "none");
        serve::RequestTrace::set_field(trace.mode, "ok");
        log.record(trace);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  log.stop();
  EXPECT_FALSE(serve::reqtrace_enabled());

  // Every record is accounted for: written to the log or counted as a
  // ring-overflow drop. Nothing vanishes, nothing is double-counted.
  const std::uint64_t written = log.written() - written_before;
  const std::uint64_t dropped = log.dropped() - dropped_before;
  EXPECT_EQ(written + dropped,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_GT(written, 0u);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::uint64_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    const std::optional<obs::JsonValue> doc = obs::json_parse(line);
    ASSERT_TRUE(doc.has_value() && doc->is_object()) << line;
    EXPECT_GT(doc->number_or("rid", 0.0), 0.0);
    EXPECT_EQ(doc->string_or("op", ""), "arc_dist");
    EXPECT_EQ(doc->string_or("mode", ""), "ok");
    EXPECT_DOUBLE_EQ(doc->number_or("exec_ms", 0.0), 1.5);
    EXPECT_DOUBLE_EQ(doc->number_or("bytes_out", 0.0), 256.0);
  }
  EXPECT_EQ(lines, written);
  std::remove(path.c_str());
}

TEST(ServeReqTrace, RotationCapsTheLogFile) {
  if (serve::reqtrace_enabled()) {
    GTEST_SKIP() << "an access-log session is already active";
  }
  serve::RequestTraceLog& log = serve::RequestTraceLog::instance();
  const std::string path = testing::TempDir() + "lvf2_access_rotate.jsonl";
  const std::string rotated = path + ".1";
  std::remove(rotated.c_str());
  ASSERT_TRUE(log.configure(path, /*max_kb=*/1));
  log.start();

  const auto burst = [&log](std::uint64_t base) {
    for (std::uint64_t i = 0; i < 30; ++i) {  // ~4 KB per burst
      serve::RequestTrace trace;
      trace.rid = base + i;
      serve::RequestTrace::set_field(trace.op, "ping");
      serve::RequestTrace::set_field(trace.status, "ok");
      serve::RequestTrace::set_field(trace.degradation, "none");
      serve::RequestTrace::set_field(trace.mode, "ok");
      log.record(trace);
    }
  };
  burst(1);
  // Let the writer flush the first burst so the second append finds a
  // non-empty over-cap file and rotates it to <path>.1.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  burst(1000);
  log.stop();

  std::ifstream live(path);
  EXPECT_TRUE(live.is_open());
  std::ifstream old(rotated);
  EXPECT_TRUE(old.is_open());
  for (std::ifstream* f : {&live, &old}) {
    std::string line;
    while (std::getline(*f, line)) {
      if (line.empty()) continue;
      const std::optional<obs::JsonValue> doc = obs::json_parse(line);
      ASSERT_TRUE(doc.has_value() && doc->is_object()) << line;
      EXPECT_EQ(doc->string_or("op", ""), "ping");
    }
  }
  std::remove(path.c_str());
  std::remove(rotated.c_str());
}

// ------------------------------------------------------- report: serve

TEST(ServeReport, AccessLogSummaryRollsUpOps) {
  const std::string text =
      R"({"rid":1,"conn":1,"op":"arc_dist","status":"ok","degradation":"none","mode":"ok","queue_ms":0.2,"exec_ms":4.0,"bytes_in":60,"bytes_out":300})"
      "\n"
      R"({"rid":2,"conn":1,"op":"arc_dist","status":"ok","degradation":"cached","mode":"ok","queue_ms":0.1,"exec_ms":0.5,"bytes_in":60,"bytes_out":300})"
      "\n"
      R"({"rid":3,"conn":2,"op":"arc_dist","status":"not_found","degradation":"none","mode":"ok","queue_ms":0.1,"exec_ms":0.2,"bytes_in":55,"bytes_out":90})"
      "\n"
      R"({"rid":4,"conn":3,"op":"ping","status":"unavailable","degradation":"none","mode":"refused","queue_ms":0,"exec_ms":0,"bytes_in":20,"bytes_out":80})"
      "\n"
      "this line is not json\n";
  std::string error;
  const std::optional<std::string> summary =
      tools::render_access_log(text, &error);
  ASSERT_TRUE(summary.has_value()) << error;
  EXPECT_NE(summary->find("4 record(s), 1 malformed line(s)"),
            std::string::npos)
      << *summary;
  EXPECT_NE(summary->find("arc_dist"), std::string::npos);
  EXPECT_NE(summary->find("cached=1"), std::string::npos) << *summary;

  // All-garbage input is an error, not an empty report.
  EXPECT_FALSE(tools::render_access_log("nope\n", &error).has_value());
  EXPECT_FALSE(error.empty());
}

// ------------------------------------------------------------ end to end

int connect_tcp(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServeServer, EndToEndQueryShedAndDrain) {
  serve::ServerOptions options;
  options.listen = "tcp:0";
  options.queue_capacity = 16;
  options.characterize.grid = cells::SlewLoadGrid::reduced(4);
  options.characterize.mc_samples = 160;
  serve::Server server(std::move(options));
  ASSERT_TRUE(server.start().is_ok());
  ASSERT_GT(server.tcp_port(), 0);

  const int fd = connect_tcp(server.tcp_port());
  ASSERT_GE(fd, 0);

  // Plain ping round trip.
  ASSERT_TRUE(
      serve::write_frame(fd, R"({"id":1,"op":"ping","params":{}})").is_ok());
  std::string reply;
  ASSERT_TRUE(serve::read_frame(fd, reply).is_ok());
  std::optional<obs::JsonValue> doc = obs::json_parse(reply);
  ASSERT_TRUE(doc.has_value()) << reply;
  EXPECT_DOUBLE_EQ(doc->number_or("id", 0.0), 1.0);
  EXPECT_EQ(doc->string_or("status", ""), "ok");

  // A microscopically budgeted query must come back ok + degraded,
  // not as an error (DESIGN.md decision 19).
  ASSERT_TRUE(serve::write_frame(
                  fd,
                  R"({"id":2,"op":"arc_dist","deadline_ms":0.001,)"
                  R"("params":{"cell":"INV_X1"}})")
                  .is_ok());
  ASSERT_TRUE(serve::read_frame(fd, reply).is_ok());
  doc = obs::json_parse(reply);
  ASSERT_TRUE(doc.has_value()) << reply;
  EXPECT_DOUBLE_EQ(doc->number_or("id", 0.0), 2.0);
  EXPECT_EQ(doc->string_or("status", ""), "ok");
  EXPECT_NE(doc->string_or("degradation", ""), "none");

  // An unknown cell is a per-request error, never a dropped
  // connection.
  ASSERT_TRUE(serve::write_frame(
                  fd,
                  R"({"id":3,"op":"yield3","params":{"cell":"NOPE"}})")
                  .is_ok());
  ASSERT_TRUE(serve::read_frame(fd, reply).is_ok());
  doc = obs::json_parse(reply);
  ASSERT_TRUE(doc.has_value()) << reply;
  EXPECT_EQ(doc->string_or("status", ""), "not_found");

  // The stats op counts every answered request, errors included.
  ASSERT_TRUE(
      serve::write_frame(fd, R"({"id":4,"op":"stats","params":{}})").is_ok());
  ASSERT_TRUE(serve::read_frame(fd, reply).is_ok());
  doc = obs::json_parse(reply);
  ASSERT_TRUE(doc.has_value()) << reply;
  const obs::JsonValue* stats = doc->find("result");
  ASSERT_NE(stats, nullptr) << reply;
  EXPECT_GE(stats->number_or("completed", 0.0), 3.0) << reply;

  server.request_stop();
  server.wait();
  ::close(fd);
  EXPECT_DOUBLE_EQ(obs::gauge("serve.drained").value(), 1.0);
}

// Refusals answered during the drain race window must carry the
// server-minted request id so clients (and the soak harness) can
// correlate them with their own logs. The window is inherently racy —
// frames already in flight when request_stop() lands may be admitted,
// refused, or cut off by the read shutdown — so this asserts the
// id-bearing format on whatever refusals actually surface, never a
// minimum count (lvf2d_soak owns the statistical version).
TEST(ServeServer, DrainRefusalsCarryTheRequestId) {
  serve::ServerOptions options;
  options.listen = "tcp:0";
  options.queue_capacity = 16;
  options.characterize.grid = cells::SlewLoadGrid::reduced(4);
  serve::Server server(std::move(options));
  ASSERT_TRUE(server.start().is_ok());
  const int fd = connect_tcp(server.tcp_port());
  ASSERT_GE(fd, 0);

  for (int i = 0; i < 32; ++i) {
    const std::string body =
        "{\"id\":" + std::to_string(i + 1) + ",\"op\":\"ping\"}";
    if (!serve::write_frame(fd, body).is_ok()) break;
  }
  server.request_stop();
  // wait() is what finally closes the drained connections, so it must
  // run concurrently with the read loop or EOF never arrives.
  std::thread waiter([&server] { server.wait(); });

  int replies = 0;
  std::string reply;
  std::vector<std::string> bodies;
  while (serve::read_frame(fd, reply).is_ok()) {
    ++replies;
    bodies.push_back(reply);
  }
  waiter.join();
  ::close(fd);

  EXPECT_LE(replies, 32);
  for (const std::string& body : bodies) {
    const std::optional<obs::JsonValue> doc = obs::json_parse(body);
    ASSERT_TRUE(doc.has_value() && doc->is_object()) << body;
    if (doc->string_or("status", "") == "ok") continue;
    const std::string error = doc->string_or("error", "");
    EXPECT_NE(error.find("request "), std::string::npos) << body;
    EXPECT_NE(error.find("not admitted"), std::string::npos) << body;
  }
}

// Requests are served as they arrive: while connection A's slow
// request holds one dispatch thread, connection B's ping runs on the
// other and is answered first. Ordering-based: A must still be
// unanswered when B's reply is in hand. A's chain runs serially, so
// the machine's other cores stay free for B.
TEST(ServeServer, SlowRequestDoesNotBlockOtherConnection) {
  serve::ServerOptions options;
  options.listen = "tcp:0";
  options.max_inflight = 2;
  options.characterize.grid = cells::SlewLoadGrid::reduced(4);
  options.characterize.mc_samples = 160;
  serve::Server server(std::move(options));
  ASSERT_TRUE(server.start().is_ok());
  const int fd_a = connect_tcp(server.tcp_port());
  const int fd_b = connect_tcp(server.tcp_port());
  ASSERT_GE(fd_a, 0);
  ASSERT_GE(fd_b, 0);

  obs::Gauge& inflight = obs::gauge("serve.inflight");
  ASSERT_EQ(inflight.value(), 0.0);
  ASSERT_TRUE(serve::write_frame(
                  fd_a,
                  R"({"id":1,"op":"path_ssta","params":{"cell":"INV_X1",)"
                  R"("depth":64}})")
                  .is_ok());
  // A is being processed once the in-flight gauge rises.
  for (int i = 0; i < 100000 && inflight.value() < 1.0; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_GE(inflight.value(), 1.0);

  ASSERT_TRUE(
      serve::write_frame(fd_b, R"({"id":2,"op":"ping","params":{}})").is_ok());
  std::string reply;
  ASSERT_TRUE(serve::read_frame(fd_b, reply).is_ok());
  std::optional<obs::JsonValue> doc = obs::json_parse(reply);
  ASSERT_TRUE(doc.has_value()) << reply;
  EXPECT_EQ(doc->string_or("status", ""), "ok");
  pollfd pending{fd_a, POLLIN, 0};
  EXPECT_EQ(::poll(&pending, 1, 0), 0) << "A answered before B's ping";

  ASSERT_TRUE(serve::read_frame(fd_a, reply).is_ok());
  doc = obs::json_parse(reply);
  ASSERT_TRUE(doc.has_value()) << reply;
  EXPECT_DOUBLE_EQ(doc->number_or("id", 0.0), 1.0);
  EXPECT_EQ(doc->string_or("status", ""), "ok");

  server.request_stop();
  server.wait();
  ::close(fd_a);
  ::close(fd_b);
}

TEST(ServeServer, OversizedFrameIsAnsweredAndConnectionClosed) {
  serve::ServerOptions options;
  options.listen = "tcp:0";
  options.characterize.grid = cells::SlewLoadGrid::reduced(4);
  serve::Server server(std::move(options));
  ASSERT_TRUE(server.start().is_ok());
  const int fd = connect_tcp(server.tcp_port());
  ASSERT_GE(fd, 0);

  const std::uint32_t huge = serve::kMaxFrameBytes + 1;
  const unsigned char header[4] = {
      static_cast<unsigned char>(huge >> 24),
      static_cast<unsigned char>(huge >> 16),
      static_cast<unsigned char>(huge >> 8),
      static_cast<unsigned char>(huge)};
  ASSERT_EQ(::write(fd, header, 4), 4);
  std::string reply;
  ASSERT_TRUE(serve::read_frame(fd, reply).is_ok());
  const std::optional<obs::JsonValue> doc = obs::json_parse(reply);
  ASSERT_TRUE(doc.has_value()) << reply;
  EXPECT_EQ(doc->string_or("status", ""), "resource_exhausted");
  // The server then closes the connection — the stream is unframed.
  const core::Status eof = serve::read_frame(fd, reply);
  EXPECT_FALSE(eof.is_ok());
  ::close(fd);

  server.request_stop();
  server.wait();
}

}  // namespace
}  // namespace lvf2
