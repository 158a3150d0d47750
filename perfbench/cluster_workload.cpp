// cluster-tcp-d1: four transport::NodeRuntime over real TcpTransport on
// 127.0.0.1, in one process, on two node threads of two nodes each.
//
// Two threads, not one per node: NodeRuntime::step() keeps its thread
// busy, and four busy threads on a 4-vCPU shared host leave no CPU for
// anything else, so every other task on the host lands in the latency
// tail (per-pass p99 spread 9-47 ms, and run medians 0.20 apart as
// IQR/median over five seeds).
//
// The node threads are also the client: an instance is released into a
// shared table, every node thread starts it on each of its nodes, and it is
// decided once all four nodes report a decision. The node thread that
// observes the fourth decision records the latency and releases the next
// instance, keeping a fixed number outstanding (closed loop). Instance k
// runs entry k mod N of a fixed, seed-determined instance set.
//
// The traced variant wraps each TcpTransport in a TimingTransport
// decorator (bench-owned) that times send() and poll(), separates the
// handler time NodeRuntime spends inside poll(), counts frames and bytes,
// and keeps a sample of sent frames for the codec replay.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "codec/codec.hpp"
#include "common/thread_pool.hpp"
#include "core/workload.hpp"
#include "geometry/polytope.hpp"
#include "replay.hpp"
#include "transport/node.hpp"
#include "transport/payload.hpp"
#include "transport/tcp.hpp"
#include "transport/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace chc;
using transport::NodeId;
using transport::WireFrame;

constexpr std::size_t kNodes = 4;  // n = (d+2)f+1 at d = 1, f = 1
constexpr std::size_t kThreads = 2;  ///< node threads; kNodes / kThreads each

// Keep in sync with the workload description in BENCHMARK.json.
constexpr std::size_t kF = 1, kD = 1;
constexpr double kEps = 0.15;
constexpr std::size_t kWindow = 8;      ///< outstanding instances
constexpr std::size_t kInstances = 1024;  ///< instance set, once per pass
constexpr std::size_t kWarmup = 16;      ///< untimed instances per set-up
constexpr std::size_t kCapacity = kWarmup + kInstances;  ///< ids per cluster

/// [u32 len][u32 crc][u8 kind][u64 instance] ahead of every payload.
constexpr std::size_t kEnvelopeBytes = 17;

std::uint16_t reserve_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  ::close(fd);
  if (!ok) throw std::runtime_error("cannot reserve a loopback port");
  return ntohs(addr.sin_port);
}

/// Times every call into the wrapped transport. Used by one node thread
/// only; read after that thread has been joined. NodeRuntime sends acks and
/// data from inside its poll() handler, so the timers are kept disjoint:
/// send time counts only in send_s, handler time only in handler_s, and
/// the rest of poll() in poll_s.
class TimingTransport final : public transport::Transport {
 public:
  explicit TimingTransport(transport::Transport& inner) : inner_(inner) {}

  NodeId self() const override { return inner_.self(); }
  std::size_t n() const override { return inner_.n(); }

  bool send(NodeId to, const WireFrame& frame) override {
    const auto t0 = Clock::now();
    const bool queued = inner_.send(to, frame);
    const double dt = seconds_since(t0);
    send_s += dt;
    if (!in_poll_) send_outside_poll_s += dt;
    ++frames_sent;
    bytes_sent += frame.payload.size() + kEnvelopeBytes;
    if (frames_sent % kSampleEvery == 0 && sample.size() < kMaxSample) {
      sample.push_back(frame);
    }
    return queued;
  }

  std::size_t poll(int timeout_ms, const Handler& h) override {
    double handler = 0.0;
    const double send_before = send_s;
    in_poll_ = true;
    const auto t0 = Clock::now();
    const std::size_t got =
        inner_.poll(timeout_ms, [&](NodeId from, WireFrame frame) {
          const auto t1 = Clock::now();
          h(from, std::move(frame));
          handler += seconds_since(t1);
        });
    const double wall = seconds_since(t0);
    in_poll_ = false;
    poll_wall_s += wall;
    poll_s += wall - handler;
    handler_s += handler - (send_s - send_before);
    return got;
  }

  double send_s = 0.0;     ///< inside inner send(), wherever called
  double poll_s = 0.0;     ///< inside inner poll(), handlers excluded
  double handler_s = 0.0;  ///< NodeRuntime's frame dispatch, sends excluded
  double poll_wall_s = 0.0;          ///< whole poll() calls
  double send_outside_poll_s = 0.0;  ///< part of send_s not in poll()
  std::uint64_t frames_sent = 0, bytes_sent = 0;
  std::vector<WireFrame> sample;  ///< every kSampleEvery-th sent frame

 private:
  static constexpr std::uint64_t kSampleEvery = 16;
  static constexpr std::size_t kMaxSample = 4096;
  transport::Transport& inner_;
  bool in_poll_ = false;
};

/// One released instance.
struct Flight {
  std::atomic<bool> ready{false};  ///< submit time published
  Clock::time_point submit;
  std::atomic<std::size_t> reported{0};  ///< nodes decided (or failed)
  std::atomic<bool> failed{false};
  double latency_ms = 0.0;  ///< written by the completing node thread
  Clock::time_point done;
  std::array<std::vector<geo::Vec>, kNodes> decision;  ///< per node
};

/// Per node step accounting (traced variant only).
struct StepStats {
  double step_busy_s = 0.0;  ///< NodeRuntime::step() minus its poll and sends
  std::array<double, 10> busy_by_tenth{};   ///< by progress through
  std::array<double, 10> steps_by_tenth{};  ///< the timed phase
};

/// A four-node cluster with its node threads and the release table.
class Cluster {
 public:
  Cluster(const std::vector<transport::InstanceSpec>& set, bool timed)
      : set_(set), flights_(new Flight[kCapacity]) {
    std::vector<transport::PeerAddr> addrs;
    for (std::size_t i = 0; i < kNodes; ++i) {
      addrs.push_back({"127.0.0.1", reserve_port()});
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      tcp_.push_back(std::make_unique<transport::TcpTransport>(i, addrs));
      transport::Transport* t = tcp_.back().get();
      if (timed) {
        timing_.push_back(std::make_unique<TimingTransport>(*t));
        t = timing_.back().get();
      }
      transport::NodeConfig cfg;
      cfg.id = i;
      cfg.n = kNodes;
      nodes_.push_back(std::make_unique<transport::NodeRuntime>(cfg, *t));
    }
    steps_.resize(kNodes);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads_.emplace_back([this, t] { thread_loop(t); });
    }
  }

  ~Cluster() { stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  struct Phase {
    std::uint64_t first = 0, end = 0;  ///< ids [first, end) released
    double wall_s = 0.0, cpu_s = 0.0;
    bool stalled = false;
  };

  /// Runs `count` more instances, kWindow outstanding, and waits for them.
  /// With `measured`, node threads bucket their step time by tenths of it.
  Phase run(std::uint64_t count, bool measured) {
    Phase ph;
    ph.first = next_id_.load();
    ph.end = std::min<std::uint64_t>(ph.first + count, kCapacity);
    limit_.store(ph.end);
    phase_first_.store(ph.first);
    phase_count_.store(ph.end - ph.first);
    measuring_.store(measured);
    const double cpu0 = process_cpu_seconds();
    const auto start = Clock::now();
    for (std::size_t j = 0; j < kWindow; ++j) try_release(start);
    // Sleep until the last instance completes; wake once a second to check
    // for a stall (no instance finished for 20 s).
    std::uint64_t seen = completed_.load();
    auto progress = Clock::now();
    std::unique_lock<std::mutex> lock(done_mu_);
    while (!done_cv_.wait_for(lock, std::chrono::seconds(1), [&] {
      return completed_.load() >= ph.end;
    })) {
      const std::uint64_t done = completed_.load();
      if (done != seen) {
        seen = done;
        progress = Clock::now();
      } else if (seconds_since(progress) > 20.0) {
        ph.stalled = true;
        break;
      }
    }
    lock.unlock();
    measuring_.store(false);
    Clock::time_point last = start;
    for (std::uint64_t id = ph.first; id < ph.end; ++id) {
      if (flights_[id].reported.load() == kNodes) {
        last = std::max(last, flights_[id].done);
      }
    }
    ph.wall_s = std::chrono::duration<double>(last - start).count();
    ph.cpu_s = process_cpu_seconds() - cpu0;
    return ph;
  }

  /// Stops and joins the node threads (idempotent).
  void stop() {
    stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  const Flight& flight(std::uint64_t id) const { return flights_[id]; }
  std::uint64_t completed() const { return completed_.load(); }
  const transport::NodeRuntime& node(std::size_t i) const { return *nodes_[i]; }
  const transport::TcpTransport& tcp(std::size_t i) const { return *tcp_[i]; }
  const TimingTransport* timing(std::size_t i) const {
    return timing_.empty() ? nullptr : timing_[i].get();
  }
  const StepStats& steps(std::size_t i) const { return steps_[i]; }
  /// Wall time of node thread t, from its start to stop().
  double thread_life_s(std::size_t t) const { return life_s_[t]; }

 private:
  /// Claims the next id below the phase limit and publishes its submit
  /// time; node threads start ids in order once published.
  void try_release(Clock::time_point now) {
    std::uint64_t id = next_id_.load();
    do {
      if (id >= limit_.load()) return;
    } while (!next_id_.compare_exchange_weak(id, id + 1));
    flights_[id].submit = now;
    flights_[id].ready.store(true, std::memory_order_release);
  }

  /// Node thread t runs nodes t, t + kThreads, ... in turn, one
  /// non-blocking step each, so a node never waits on its neighbour's poll.
  void thread_loop(std::size_t t) {
    const auto born = Clock::now();
    std::array<std::uint64_t, kNodes> started{};  // next id to start, per node
    // Per node: started here, not yet decided here.
    std::array<std::vector<std::uint64_t>, kNodes> mine;
    while (!stop_.load()) {
      for (std::size_t k = t; k < kNodes; k += kThreads) {
        step_node(k, started[k], mine[k]);
      }
    }
    life_s_[t] = seconds_since(born);
  }

  void step_node(std::size_t k, std::uint64_t& started,
                 std::vector<std::uint64_t>& mine) {
    transport::NodeRuntime& node = *nodes_[k];
    TimingTransport* timing = timing_.empty() ? nullptr : timing_[k].get();
    StepStats& st = steps_[k];
    while (started < next_id_.load() &&
           flights_[started].ready.load(std::memory_order_acquire)) {
      transport::InstanceSpec spec = set_[started % set_.size()];
      spec.id = started + 1;
      node.start_instance(spec);
      mine.push_back(started++);
    }
    if (timing == nullptr) {
      node.step(0);
    } else {
      const double poll_before = timing->poll_wall_s;
      const double send_before = timing->send_outside_poll_s;
      const auto t0 = Clock::now();
      node.step(0);
      const double busy = seconds_since(t0) -
                          (timing->poll_wall_s - poll_before) -
                          (timing->send_outside_poll_s - send_before);
      st.step_busy_s += busy;
      if (measuring_.load()) {
        // Progress through the phase, by instances completed.
        const std::uint64_t done = completed_.load() - phase_first_.load();
        const std::size_t tenth = std::min<std::uint64_t>(
            9, done * 10 / std::max<std::uint64_t>(1, phase_count_.load()));
        st.busy_by_tenth[tenth] += busy;
        st.steps_by_tenth[tenth] += 1.0;
      }
    }
    for (std::size_t j = 0; j < mine.size();) {
      const std::uint64_t id = mine[j];
      const auto status = node.status(id + 1);
      if (!status.decided && !status.failed) {
        ++j;
        continue;
      }
      Flight& fl = flights_[id];
      fl.decision[k] = status.decision;
      if (status.failed) fl.failed.store(true);
      mine[j] = mine.back();
      mine.pop_back();
      if (fl.reported.fetch_add(1) + 1 == kNodes) {
        const auto now = Clock::now();
        fl.done = now;
        fl.latency_ms =
            std::chrono::duration<double, std::milli>(now - fl.submit)
                .count();
        try_release(now);
        if (completed_.fetch_add(1) + 1 == limit_.load()) {
          std::lock_guard<std::mutex> lock(done_mu_);
          done_cv_.notify_one();
        }
      }
    }
  }

  const std::vector<transport::InstanceSpec>& set_;
  std::unique_ptr<Flight[]> flights_;
  std::vector<std::unique_ptr<transport::TcpTransport>> tcp_;
  std::vector<std::unique_ptr<TimingTransport>> timing_;
  std::vector<std::unique_ptr<transport::NodeRuntime>> nodes_;
  std::vector<StepStats> steps_;
  std::array<double, kThreads> life_s_{};

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> limit_{0};  ///< release no id at or above
  std::atomic<std::uint64_t> phase_first_{0}, phase_count_{1};
  std::atomic<bool> measuring_{false};
  std::atomic<bool> stop_{false};
  std::mutex done_mu_;  ///< with done_cv_: the phase's last completion
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

std::vector<transport::InstanceSpec> make_instance_set(std::uint64_t seed) {
  std::vector<transport::InstanceSpec> set;
  for (std::size_t i = 0; i < kInstances; ++i) {
    const std::uint64_t s = mix_seed(seed, i);
    const core::Workload w = core::make_workload(
        kNodes, kF, kD, core::InputPattern::kUniform, s);
    transport::InstanceSpec spec;
    spec.cc = core::CCConfig{.n = kNodes, .f = kF, .d = kD, .eps = kEps};
    spec.cc.input_magnitude = std::max(1.0, w.correct_magnitude);
    spec.seed = s;
    spec.inputs = w.inputs;
    spec.faulty = w.faulty;
    set.push_back(std::move(spec));
  }
  return set;
}

/// The same instances as single in-process simulations (the replay's
/// input): no crashes, no injected loss, no shim.
std::vector<ReplaySpec> replay_set(const std::vector<transport::InstanceSpec>& set) {
  std::vector<ReplaySpec> out;
  for (const transport::InstanceSpec& spec : set) {
    ReplaySpec r;
    r.run.base.cc = spec.cc;
    r.run.base.crash_style = core::CrashStyle::kNone;
    r.run.base.seed = spec.seed;
    r.run.reliable = false;
    r.workload.inputs = spec.inputs;
    r.workload.faulty.assign(spec.faulty.begin(), spec.faulty.end());
    out.push_back(std::move(r));
  }
  return out;
}

/// Outcome counts of the instances [first, end) of one cluster.
struct Checked {
  std::uint64_t failed = 0;     ///< some node did not decide
  std::uint64_t incorrect = 0;  ///< decisions violate agreement/validity
};

/// Checks every instance of [first, end): all four nodes decided, pairwise
/// Hausdorff distance within eps, every decision inside the hull of the
/// fault-free inputs.
Checked check_decisions(const Cluster& c,
                        const std::vector<transport::InstanceSpec>& set,
                        std::uint64_t first, std::uint64_t end) {
  Checked out;
  for (std::uint64_t id = first; id < end; ++id) {
    const Flight& fl = c.flight(id);
    const transport::InstanceSpec& spec = set[id % set.size()];
    bool decided = fl.reported.load() == kNodes && !fl.failed.load();
    for (std::size_t k = 0; decided && k < kNodes; ++k) {
      decided = !fl.decision[k].empty();
    }
    if (!decided) {
      ++out.failed;
      continue;
    }
    std::vector<geo::Vec> correct;
    for (std::size_t p = 0; p < spec.inputs.size(); ++p) {
      bool faulty = false;
      for (const std::uint64_t q : spec.faulty) faulty |= q == p;
      if (!faulty) correct.push_back(spec.inputs[p]);
    }
    const geo::Polytope hull = geo::Polytope::from_points(correct);
    bool ok = true;
    std::vector<geo::Polytope> decisions;
    for (std::size_t k = 0; k < kNodes; ++k) {
      for (const geo::Vec& v : fl.decision[k]) ok = ok && hull.contains(v);
      decisions.push_back(geo::Polytope::from_points(fl.decision[k]));
    }
    for (std::size_t a = 0; a < decisions.size(); ++a) {
      for (std::size_t b = a + 1; b < decisions.size(); ++b) {
        ok = ok && geo::hausdorff(decisions[a], decisions[b]) <= kEps + 1e-9;
      }
    }
    if (!ok) ++out.incorrect;
  }
  return out;
}

struct CodecTimes {
  double encode_us = 0.0, decode_us = 0.0;
  std::size_t frames = 0;
};

/// Re-encodes and re-decodes the sampled frames through the wire path:
/// encode = payload twin (to_rel_frame + codec::encode, or the ack twin) +
/// CRC framing; decode = FrameReader + codec::decode_rel_frame +
/// transport::from_rel_frame (or the ack twin).
CodecTimes replay_codec(const std::vector<WireFrame>& frames, Result& r) {
  struct Decoded {
    WireFrame frame;
    std::optional<net::RelData> data;
    std::optional<net::RelAck> ack;
    codec::Buffer bytes;
  };
  std::vector<Decoded> set;
  for (const WireFrame& f : frames) {
    Decoded d;
    d.frame = f;
    d.bytes = transport::frame_bytes(f);
    if (f.kind == transport::FrameKind::kData) {
      const auto rel = codec::decode_rel_frame(f.payload);
      if (rel) d.data = transport::from_rel_frame(*rel);
      if (!d.data) r.fail("sampled DATA frame does not decode");
    } else if (f.kind == transport::FrameKind::kAck) {
      const auto ack = codec::decode_rel_ack(f.payload);
      if (ack) d.ack = transport::from_rel_ack(*ack);
      if (!d.ack) r.fail("sampled ACK frame does not decode");
    }
    if (d.data || d.ack) set.push_back(std::move(d));
  }
  CodecTimes t;
  if (set.empty()) return t;
  std::size_t reps = 0;
  std::size_t sink = 0;
  const auto e0 = Clock::now();
  do {
    for (const Decoded& d : set) {
      WireFrame out;
      out.kind = d.frame.kind;
      out.instance = d.frame.instance;
      if (d.data) {
        const auto rel = transport::to_rel_frame(*d.data);
        if (!rel) {
          r.fail("sampled DATA frame does not re-encode");
          continue;
        }
        out.payload = codec::encode(*rel);
      } else {
        out.payload = codec::encode_rel_ack(transport::to_rel_ack(*d.ack));
      }
      sink += transport::frame_bytes(out).size();
    }
    ++reps;
  } while (seconds_since(e0) < 0.05);
  t.encode_us = seconds_since(e0) * 1e6 /
                static_cast<double>(reps * set.size());
  reps = 0;
  const auto d0 = Clock::now();
  do {
    for (const Decoded& d : set) {
      transport::FrameReader reader;
      reader.feed(d.bytes.data(), d.bytes.size());
      const auto f = reader.next();
      if (!f) {
        r.fail("framed sample does not reassemble");
        continue;
      }
      if (f->kind == transport::FrameKind::kData) {
        const auto rel = codec::decode_rel_frame(f->payload);
        sink += rel && transport::from_rel_frame(*rel) ? 1 : 0;
      } else {
        const auto ack = codec::decode_rel_ack(f->payload);
        sink += ack ? transport::from_rel_ack(*ack).cum_ack : 0;
      }
    }
    ++reps;
  } while (seconds_since(d0) < 0.05);
  t.decode_us = seconds_since(d0) * 1e6 /
                static_cast<double>(reps * set.size());
  t.frames = set.size();
  std::printf("codec replay: %zu sampled frames (checksum %zu)\n", t.frames,
              sink);
  return t;
}

/// Builds a cluster, retrying when a reserved port was taken meanwhile.
std::unique_ptr<Cluster> make_cluster(
    const std::vector<transport::InstanceSpec>& set, bool timed) {
  for (int attempt = 0;; ++attempt) {
    try {
      return std::make_unique<Cluster>(set, timed);
    } catch (const std::runtime_error&) {
      if (attempt == 4) throw;
    }
  }
}

/// Per-layer totals over the passes of a traced series.
struct Layers {
  double send_s = 0, poll_s = 0, handler_s = 0, busy_s = 0, life_s = 0;
  double frames = 0, bytes = 0, dropped = 0, hwm = 0;
  double retransmits = 0, acks = 0, resident = 0;
  std::uint64_t completed = 0;  ///< instances incl. warm-up
  std::array<double, 10> busy{}, steps{};
  std::vector<WireFrame> sample;

  void add(const Cluster& c) {
    completed += c.completed();
    for (std::size_t t = 0; t < kThreads; ++t) life_s += c.thread_life_s(t);
    for (std::size_t k = 0; k < kNodes; ++k) {
      const TimingTransport& t = *c.timing(k);
      const StepStats& s = c.steps(k);
      send_s += t.send_s;
      poll_s += t.poll_s;
      handler_s += t.handler_s;
      frames += static_cast<double>(t.frames_sent);
      bytes += static_cast<double>(t.bytes_sent);
      if (sample.size() < 4096) {
        sample.insert(sample.end(), t.sample.begin(), t.sample.end());
      }
      busy_s += s.step_busy_s;
      for (std::size_t j = 0; j < 10; ++j) {
        busy[j] += s.busy_by_tenth[j];
        steps[j] += s.steps_by_tenth[j];
      }
      dropped += static_cast<double>(c.tcp(k).stats().frames_dropped);
      hwm = std::max(hwm, static_cast<double>(c.tcp(k).stats().outq_hwm_bytes));
      const net::ShimStats shim = c.node(k).shim_stats();
      retransmits += static_cast<double>(shim.retransmits);
      acks += static_cast<double>(shim.acks_sent);
      // Every pass and node ends with the same resident set.
      resident = static_cast<double>(c.node(k).instance_count());
    }
  }
};

/// Passes while Passes::more() asks for them: a fresh cluster and its
/// warm-up (set-up), then the instance set once (timed).
Passes run_passes(const std::vector<transport::InstanceSpec>& set,
                  double seconds, bool timed, Layers* layers, Result& r) {
  Passes passes;
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    const StealMeter steal;
    std::unique_ptr<Cluster> c = make_cluster(set, timed);
    const Cluster::Phase warm = c->run(kWarmup, /*measured=*/false);
    const double setup = seconds_since(t0);
    const Cluster::Phase ph = c->run(kInstances, /*measured=*/true);
    c->stop();
    if (warm.stalled || ph.stalled) r.note_failure("cluster stalled");
    const Checked warm_check = check_decisions(*c, set, warm.first, warm.end);
    const Checked check = check_decisions(*c, set, ph.first, ph.end);
    if (warm_check.failed > 0) r.note_failure("warm-up instances failed");
    if (warm_check.incorrect + check.incorrect > 0) {
      r.fail(std::to_string(warm_check.incorrect + check.incorrect) +
             " instances decided incorrectly");
    }
    const std::uint64_t bad = check.failed + check.incorrect;
    if (check.failed > 0) {
      r.note_failure(std::to_string(check.failed) +
                     " instances did not decide on every node");
    }
    std::vector<double> latency_ms;
    for (std::uint64_t id = ph.first; id < ph.end; ++id) {
      latency_ms.push_back(c->flight(id).latency_ms);
    }
    passes.add(ph.wall_s, ph.cpu_s, ph.end - ph.first,
               ph.end - ph.first - bad, setup, latency_ms, steal.share());
    if (layers != nullptr) layers->add(*c);
  } while (passes.more(seconds_since(start), seconds));
  return passes;
}

}  // namespace

bool is_cluster_workload(const std::string& name) {
  return name == "cluster-tcp-d1";
}

Result run_cluster(const Args& args) {
  // The node threads are the whole thread budget: no geometry pool workers.
  common::ThreadPool::set_global_threads(1);
  const std::vector<transport::InstanceSpec> set = make_instance_set(args.seed);
  std::printf("workload cluster-tcp-d1: nodes=%zu node_threads=%zu "
              "geo_threads=1 window=%zu instance_set=%zu warmup=%zu n=%zu "
              "f=%zu d=%zu eps=%.2f time_scale=2e-3\n",
              kNodes, kThreads, kWindow, kInstances, kWarmup, kNodes, kF, kD,
              kEps);
  Result r;
  const double plain_s = args.trace ? args.seconds * 0.4 : args.seconds;
  const Passes plain = run_passes(set, plain_s, /*timed=*/false, nullptr, r);
  plain.report(r, !args.trace);
  if (!args.trace) return r;

  // Traced series: fresh clusters behind TimingTransport decorators.
  Layers l;
  const Passes traced =
      run_passes(set, args.seconds * 0.4, /*timed=*/true, &l, r);
  std::printf("traced series: ");
  traced.report(r, /*end_to_end=*/false);
  const CodecTimes codec = replay_codec(l.sample, r);
  const ReplayStats rs = replay(replay_set(set), args.seconds * 0.2);
  report_replay(rs, r);

  const double all = static_cast<double>(l.completed);
  r.add("net.retransmits_per_decide", l.retransmits / all, "count");
  r.add("net.acks_per_decide", l.acks / all, "count");
  r.add("codec.encode_us_per_frame", codec.encode_us, "us");
  r.add("codec.decode_us_per_frame", codec.decode_us, "us");
  r.add("transport.frames_per_decide", l.frames / all, "count");
  r.add("transport.bytes_per_decide", l.bytes / all, "B");
  r.add("transport.send_ms_per_decide", l.send_s * 1e3 / all, "ms");
  r.add("transport.poll_ms_per_decide", l.poll_s * 1e3 / all, "ms");
  r.add("transport.frames_dropped", l.dropped, "count");
  r.add("transport.outq_hwm_bytes", l.hwm, "B");
  r.add("transport.send_share", l.send_s / l.life_s, "ratio");
  r.add("transport.poll_share", l.poll_s / l.life_s, "ratio");
  r.add("node.dispatch_ms_per_decide", l.handler_s * 1e3 / all, "ms");
  r.add("node.step_busy_ms_per_decide", l.busy_s * 1e3 / all, "ms");
  r.add("node.dispatch_share", l.handler_s / l.life_s, "ratio");
  r.add("node.step_busy_share", l.busy_s / l.life_s, "ratio");
  r.add("node.resident_instances", l.resident, "count");
  const double early = l.steps[0] > 0 ? l.busy[0] / l.steps[0] : 0.0;
  const double late = l.steps[9] > 0 ? l.busy[9] / l.steps[9] : 0.0;
  r.add("node.step_busy_late_over_early", early > 0 ? late / early : 0.0,
        "ratio");
  // Tracing overhead: decorated vs plain cluster decides/s.
  const double plain_rate = median(plain.rate);
  const double traced_rate = median(traced.rate);
  r.add("trace.overhead_frac", plain_rate / traced_rate - 1.0, "ratio");
  std::printf("traced: decides_per_s=%.3f plain decides_per_s=%.3f "
              "node_thread_wall=%.3fs\n",
              traced_rate, plain_rate, l.life_s);
  // The four timers are disjoint, so the rest of the node threads' wall
  // time is client work (start_instance, status checks) and loop overhead.
  std::printf("node thread wall: send %.3f + poll %.3f + dispatch %.3f + "
              "step_busy %.3f + other %.3f\n",
              l.send_s / l.life_s, l.poll_s / l.life_s,
              l.handler_s / l.life_s, l.busy_s / l.life_s,
              1.0 - (l.send_s + l.poll_s + l.handler_s + l.busy_s) / l.life_s);
  return r;
}

}  // namespace perfbench
