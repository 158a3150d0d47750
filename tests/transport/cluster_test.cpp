// Cluster runtime tests: NodeRuntime over LoopbackHub (threaded, the TSan
// target; see loopback_cluster.hpp), with and without injected link
// faults, TCP reconnect with epoch bump, and the line RPC.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "geometry/polytope.hpp"
#include "loopback_cluster.hpp"
#include "obs/checker.hpp"
#include "transport/rpc.hpp"
#include "transport/tcp.hpp"

namespace chc::transport {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

bool deadline_passed(Clock::time_point dl) { return Clock::now() >= dl; }

TEST(ClusterSpec, ParsesAndRejects) {
  std::string err;
  const auto good = parse_cluster_spec("127.0.0.1:9001,localhost:9002", &err);
  ASSERT_EQ(good.size(), 2u) << err;
  EXPECT_EQ(good[0].host, "127.0.0.1");
  EXPECT_EQ(good[0].port, 9001);
  EXPECT_EQ(good[1].host, "localhost");
  EXPECT_EQ(good[1].port, 9002);

  EXPECT_TRUE(parse_cluster_spec("", &err).empty());
  EXPECT_TRUE(parse_cluster_spec("127.0.0.1", &err).empty());
  EXPECT_TRUE(parse_cluster_spec("127.0.0.1:notaport", &err).empty());
  EXPECT_TRUE(parse_cluster_spec("127.0.0.1:70000", &err).empty());
  EXPECT_TRUE(parse_cluster_spec(":9001", &err).empty());
}

/// Grabs an ephemeral port the OS is unlikely to rebind immediately.
std::uint16_t reserve_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

WireFrame tagged(std::uint64_t instance, std::uint8_t byte) {
  WireFrame f;
  f.kind = FrameKind::kData;
  f.instance = instance;
  f.payload = {byte};
  return f;
}

/// Pumps both transports until `want` frames arrived at `sink`, or 5 s.
std::vector<WireFrame> pump_until(TcpTransport& a, TcpTransport& sink,
                                  std::size_t want) {
  std::vector<WireFrame> got;
  const auto dl = Clock::now() + std::chrono::seconds(5);
  while (got.size() < want && !deadline_passed(dl)) {
    a.poll(2, [](NodeId, WireFrame) {});
    sink.poll(2, [&](NodeId, WireFrame f) { got.push_back(std::move(f)); });
  }
  return got;
}

TEST(Tcp, DeliversAndObservesEpochBumpOnReconnect) {
  const std::uint16_t p0 = reserve_port();
  const std::uint16_t p1 = reserve_port();
  const std::vector<PeerAddr> cluster = {{"127.0.0.1", p0},
                                         {"127.0.0.1", p1}};

  auto a = std::make_unique<TcpTransport>(0, cluster, /*epoch=*/0);
  TcpTransport b(1, cluster, /*epoch=*/0);
  EXPECT_EQ(a->listen_port(), p0);
  EXPECT_EQ(b.listen_port(), p1);

  ASSERT_TRUE(a->send(1, tagged(7, 0x11)));
  auto got = pump_until(*a, b, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].instance, 7u);
  EXPECT_EQ(got[0].payload, (codec::Buffer{0x11}));
  ASSERT_TRUE(b.peer_epoch(0).has_value());
  EXPECT_EQ(*b.peer_epoch(0), 0u);

  // Frames flow the other way on b's own outbound connection.
  ASSERT_TRUE(b.send(0, tagged(8, 0x22)));
  got = pump_until(b, *a, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].instance, 8u);
  ASSERT_TRUE(a->peer_epoch(1).has_value());

  // Crash node 0 and restart it as epoch 1: b must see the new HELLO.
  a.reset();
  a = std::make_unique<TcpTransport>(0, cluster, /*epoch=*/1);
  ASSERT_TRUE(a->send(1, tagged(9, 0x33)));
  got = pump_until(*a, b, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].instance, 9u);
  ASSERT_TRUE(b.peer_epoch(0).has_value());
  EXPECT_EQ(*b.peer_epoch(0), 1u);
  EXPECT_GE(b.stats().accepts, 2u);
}

TEST(Rpc, LineServerAnswersConcurrentClients) {
  LineServer server(0);
  ASSERT_GT(server.port(), 0);

  std::atomic<bool> stop{false};
  std::thread pump([&] {
    while (!stop.load()) {
      server.poll(5, [](const std::string& req) { return "echo:" + req; });
    }
  });

  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      LineClient cl;
      if (!cl.connect_to("127.0.0.1", server.port(), 2000)) return;
      for (int i = 0; i < 25; ++i) {
        const std::string msg =
            "c" + std::to_string(c) + "m" + std::to_string(i);
        const auto resp = cl.request(msg, 2000);
        if (resp && *resp == "echo:" + msg) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  pump.join();
  EXPECT_EQ(ok.load(), 100);
}

class LoopbackClusterTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 5;
  static constexpr double kEps = 0.25;

  void SetUp() override {
    trace_dir_ = fs::temp_directory_path() /
                 ("chc_loopback_" +
                  std::to_string(::getpid() ^
                                 static_cast<unsigned>(
                                     reinterpret_cast<std::uintptr_t>(this))));
    fs::create_directories(trace_dir_);
    cluster_ = std::make_unique<LoopbackCluster>(kN, trace_dir_.string());
  }

  void TearDown() override {
    cluster_.reset();
    std::error_code ec;
    fs::remove_all(trace_dir_, ec);
  }

  InstanceSpec make_spec(std::uint64_t iid, std::uint64_t seed) {
    return make_instance_spec(kN, /*f=*/1, /*d=*/2, kEps, iid, seed);
  }

  void expect_agreement(std::uint64_t iid) {
    const std::vector<geo::Polytope> decisions = cluster_->decisions(iid);
    ASSERT_EQ(decisions.size(), kN);
    for (std::size_t a = 0; a + 1 < decisions.size(); ++a) {
      ASSERT_FALSE(decisions[a].is_empty());
      for (std::size_t b = a + 1; b < decisions.size(); ++b) {
        EXPECT_LE(geo::hausdorff(decisions[a], decisions[b]), kEps + 1e-9)
            << "nodes " << a << " and " << b << " disagree";
      }
    }
  }

  fs::path trace_dir_;
  std::unique_ptr<LoopbackCluster> cluster_;
};

TEST_F(LoopbackClusterTest, FiveNodesDecideThenSurviveCrashRestart) {
  // Wave 1: plain run to decision on all five nodes.
  cluster_->start_instance(make_spec(1, 11));
  ASSERT_TRUE(cluster_->run_until_all_decide(1, 60)) << "wave 1 stalled";
  expect_agreement(1);

  // Crash node 0: endpoint destruction closes its mailbox, exactly like a
  // dead TCP peer. Restart as epoch 1 with an empty queue.
  cluster_->restart(0, /*epoch=*/1);

  // Wave 2: a fresh instance submitted to everyone, including the
  // restarted incarnation — full-rejoin proof.
  cluster_->start_instance(make_spec(2, 12));
  ASSERT_TRUE(cluster_->run_until_all_decide(2, 60))
      << "wave 2 stalled after restart";
  expect_agreement(2);

  // Clean shutdown, then every per-node trace must pass the checker.
  for (std::size_t i = 0; i < kN; ++i) cluster_->node(i).shutdown();
  std::size_t checked = 0;
  for (const auto& entry : fs::directory_iterator(trace_dir_)) {
    if (entry.path().extension() != ".jsonl") continue;
    const obs::CheckReport rep = obs::check_trace_file(entry.path().string());
    EXPECT_TRUE(rep.ok()) << entry.path() << ": "
                          << (rep.parsed && !rep.violations.empty()
                                  ? rep.violations[0].detail
                                  : rep.parse_error);
    EXPECT_EQ(rep.header.env, "live");
    ++checked;
  }
  // 5 nodes x wave 1 + 5 x wave 2 + node 0's epoch-0 trace of instance 2?
  // No: instance 2 started after the restart, so node 0 wrote e1 only.
  // Wave 1 on node 0 is an e0 trace cut off by the crash.
  EXPECT_EQ(checked, 10u);
}

TEST(AdversaryFuzz, ShimmedCcOnNodeRuntime) {
  // Algorithm CC on real threads over a lossy network: every link drops
  // and duplicates frames, and the incorrect-input node is killed once it
  // has finished round 1. The survivors' reliable shims absorb the faults;
  // their decisions must satisfy validity and eps-agreement.
  InstanceSpec spec;
  spec.id = 1;
  spec.cc = core::CCConfig{.n = 5, .f = 1, .d = 2, .eps = 0.15};
  spec.inputs = {geo::Vec{0.0, 0.0}, geo::Vec{1.0, 0.0}, geo::Vec{0.0, 1.0},
                 geo::Vec{1.0, 1.0}, geo::Vec{1.8, 1.9}};
  constexpr std::size_t kIncorrect = 4;
  spec.faulty = {kIncorrect};
  const geo::Polytope correct_hull = geo::Polytope::from_points(
      {spec.inputs[0], spec.inputs[1], spec.inputs[2], spec.inputs[3]});
  net::PolicySchedule lossy;
  lossy.add(0.0, net::NetworkPolicy::lossy(0.2, 0.05));

  for (std::uint64_t seed : {101u, 202u, 303u}) {
    spec.seed = seed;
    LoopbackCluster cluster(spec.cc.n);
    cluster.arm(lossy, seed);
    cluster.start_instance(spec);
    ASSERT_TRUE(cluster.step_until(
        [](std::size_t i, NodeRuntime& node) {
          return i != kIncorrect || node.status(1).round >= 1;
        },
        60))
        << "seed " << seed << ": node " << kIncorrect
        << " never finished round 1";
    cluster.crash(kIncorrect);
    ASSERT_TRUE(cluster.run_until_all_decide(1, 60))
        << "seed " << seed
        << ": processes did not decide over the lossy network";

    std::uint64_t drops = 0;
    for (std::size_t i = 0; i < kIncorrect; ++i) {
      drops += cluster.link(i).stats().injected_drops;
    }
    EXPECT_GT(drops, 0u) << "seed " << seed;
    const std::vector<geo::Polytope> decisions = cluster.decisions(1);
    ASSERT_EQ(decisions.size(), kIncorrect) << "seed " << seed;
    for (const auto& dec : decisions) {
      EXPECT_TRUE(correct_hull.contains(dec, 1e-6)) << "seed " << seed;
    }
    for (std::size_t a = 0; a < decisions.size(); ++a) {
      for (std::size_t b = a + 1; b < decisions.size(); ++b) {
        EXPECT_LT(geo::hausdorff(decisions[a], decisions[b]), spec.cc.eps)
            << "seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace chc::transport
