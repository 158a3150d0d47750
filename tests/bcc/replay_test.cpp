// BCC trace replay: header round-trip, bit-identical re-execution, and the
// protocol-keyed dispatch of the one replayer.
#include "bcc/replay.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bcc/harness.hpp"
#include "obs/checker.hpp"
#include "obs/trace.hpp"

namespace chc::bcc {
namespace {

std::vector<std::string> traced_byz_run(ByzRunConfig bc) {
  obs::MemorySink sink;
  obs::Tracer tracer(&sink);
  bc.lossy.tracer = &tracer;
  const core::Workload w = make_byz_workload(
      bc.lossy.base.cc.n, bc.lossy.base.cc.d, bc.lossy.base.pattern,
      bc.lossy.base.seed, [&] {
        std::vector<sim::ProcessId> faulty;
        for (const auto& [p, spec] : bc.behaviors) faulty.push_back(p);
        return faulty;
      }());
  run_bcc_custom(bc, w);
  return sink.lines();
}

ByzRunConfig small_run(std::uint64_t seed) {
  ByzRunConfig bc;
  bc.lossy.base.cc = core::CCConfig{.n = 4, .f = 1, .d = 1, .eps = 0.15};
  bc.lossy.base.seed = seed;
  bc.behaviors[1] = BehaviorSpec{BehaviorKind::kEquivocate, 1};
  return bc;
}

TEST(BccReplay, HeaderRoundTripsThroughJsonl) {
  const std::vector<std::string> lines = traced_byz_run(small_run(9));
  ASSERT_FALSE(lines.empty());
  obs::TraceHeader h;
  std::string err;
  ASSERT_TRUE(obs::parse_header(lines[0], h, &err)) << err;
  EXPECT_EQ(h.protocol, "bcc");
  ASSERT_EQ(h.byz.size(), 1u);
  EXPECT_EQ(h.byz[0].p, 1u);
  EXPECT_EQ(h.byz[0].kind, static_cast<int>(BehaviorKind::kEquivocate));
  EXPECT_EQ(h.byz[0].param, 1u);

  ByzRunConfig bc;
  core::Workload w;
  ASSERT_TRUE(byz_config_from_header(h, &bc, &w, &err)) << err;
  EXPECT_EQ(bc.lossy.base.cc.n, 4u);
  EXPECT_EQ(bc.behaviors.size(), 1u);
  EXPECT_EQ(bc.behaviors.at(1).kind, BehaviorKind::kEquivocate);
  EXPECT_EQ(w.faulty, std::vector<sim::ProcessId>{1});
}

TEST(BccReplay, ReExecutionIsBitIdentical) {
  for (std::uint64_t seed : {1ULL, 23ULL, 77ULL}) {
    const std::vector<std::string> lines = traced_byz_run(small_run(seed));
    const ReplayResult rr = replay_trace_lines(lines);
    ASSERT_TRUE(rr.ran) << "seed=" << seed << ": " << rr.error;
    EXPECT_TRUE(rr.identical)
        << "seed=" << seed << " line " << rr.first_diff_line << "\n  orig: "
        << rr.expected << "\n  replay: " << rr.actual;
    EXPECT_EQ(rr.replayed_lines, lines.size());
  }
}

TEST(BccReplay, UnknownProtocolIsRefusedByName) {
  // A header whose protocol no harness runs must fail cleanly and name the
  // protocol, not re-execute through some other harness and diverge.
  std::vector<std::string> lines = traced_byz_run(small_run(3));
  obs::TraceHeader h;
  ASSERT_TRUE(obs::parse_header(lines[0], h, nullptr));
  h.protocol = "xyz";
  lines[0] = obs::to_jsonl(h);
  const ReplayResult rr = replay_trace_lines(lines);
  EXPECT_FALSE(rr.ran);
  EXPECT_NE(rr.error.find("\"xyz\""), std::string::npos) << rr.error;
}

TEST(BccReplay, ByzReplayerRefusesCrashTraces) {
  obs::TraceHeader h;
  h.protocol = "cc";
  ByzRunConfig bc;
  core::Workload w;
  std::string err;
  EXPECT_FALSE(byz_config_from_header(h, &bc, &w, &err));
}

TEST(BccReplay, TamperedTraceDiverges) {
  // Flip one recorded event: replay must flag exactly that line instead of
  // claiming bit-identity — the property that makes traces tamper-evident.
  std::vector<std::string> lines = traced_byz_run(small_run(15));
  std::size_t target = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::size_t at = lines[i].find("\"t\":");
    if (at != std::string::npos) {
      lines[i].insert(at + 4, "9");
      target = i + 1;  // 1-based
      break;
    }
  }
  ASSERT_NE(target, 0u);
  const ReplayResult rr = replay_trace_lines(lines);
  ASSERT_TRUE(rr.ran) << rr.error;
  EXPECT_FALSE(rr.identical);
  EXPECT_EQ(rr.first_diff_line, target);
}

TEST(BccReplay, BoundaryTracesReplayBelowTheBound) {
  // allow_below_bound is not serialized; the replayer must reconstruct it
  // from n < 3f + 1 and still reproduce the stalled run bit-for-bit.
  ByzRunConfig bc;
  bc.lossy.base.cc = core::CCConfig{.n = 3, .f = 1, .d = 1, .eps = 0.15};
  bc.lossy.base.seed = 4;
  bc.behaviors[0] = BehaviorSpec{BehaviorKind::kSilent, 0};
  bc.allow_below_bound = true;
  const std::vector<std::string> lines = traced_byz_run(bc);
  const ReplayResult rr = replay_trace_lines(lines);
  ASSERT_TRUE(rr.ran) << rr.error;
  EXPECT_TRUE(rr.identical);
}

TEST(BccReplay, CheckerAcceptsByzTraces) {
  const std::vector<std::string> lines = traced_byz_run(small_run(31));
  const obs::CheckReport report = obs::check_trace_lines(lines);
  ASSERT_TRUE(report.parsed) << report.parse_error;
  EXPECT_TRUE(report.ok());
  // The summary must surface containments routed around declared-Byzantine
  // senders rather than silently dropping them.
  if (report.containments_skipped != 0) {
    EXPECT_NE(obs::summary_line(report).find("containments_skipped"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace chc::bcc
