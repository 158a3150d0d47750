#include "nemesis/presets.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/workload.hpp"

namespace chc::nemesis {

namespace {

/// Non-faulty pids, ascending.
std::vector<sim::ProcessId> others(const std::vector<sim::ProcessId>& faulty,
                                   std::size_t n) {
  std::vector<sim::ProcessId> out;
  for (sim::ProcessId p = 0; p < n; ++p) {
    bool is_faulty = false;
    for (const sim::ProcessId q : faulty) is_faulty |= (p == q);
    if (!is_faulty) out.push_back(p);
  }
  return out;
}

std::vector<Preset> make_presets() {
  std::vector<Preset> out;

  {
    Preset p;
    p.name = "partition_heal";
    p.description =
        "symmetric partition {0,1} | {2,3,4} at t=4, heals at t=30; "
        "everything stalls below the n-f quorum, then decides";
    p.build = [](const std::vector<sim::ProcessId>&, std::size_t) {
      return Scenario{}.partition(4.0, 30.0, {0, 1});
    };
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "asym_partition";
    p.description =
        "one-way cut: process 0's outbound links drop from t=3 to t=25 "
        "while its inbound links stay up";
    p.build = [](const std::vector<sim::ProcessId>&, std::size_t n) {
      return Scenario{}.partition_one_way(3.0, 25.0, {0}, others({0}, n));
    };
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "crash_recover";
    p.description =
        "the faulty process crashes mid-round at t=6 and restarts with "
        "fresh state at t=25 (state loss; shim epochs resynchronize)";
    p.crash_count = 1;
    p.build = [](const std::vector<sim::ProcessId>& faulty, std::size_t) {
      Scenario s;
      s.crash(faulty[0], 6.0).recover(faulty[0], 25.0);
      return s;
    };
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "delay_storm";
    p.description =
        "all message delays multiply by 12 during t in [2, 20): spurious "
        "retransmissions, dedup, then normal progress";
    p.build = [](const std::vector<sim::ProcessId>&, std::size_t) {
      return Scenario{}.delay_storm(2.0, 20.0, 12.0);
    };
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "partition_crash_recover";
    p.description =
        "partition of two correct processes (t=4..18) composed with a "
        "crash-recover of the faulty process (crash t=8, recover t=26)";
    p.crash_count = 1;
    p.build = [](const std::vector<sim::ProcessId>& faulty, std::size_t n) {
      const std::vector<sim::ProcessId> ok = others(faulty, n);
      Scenario s;
      s.partition(4.0, 18.0, {ok[0], ok[1]});
      s.crash(faulty[0], 8.0).recover(faulty[0], 26.0);
      return s;
    };
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "churn";
    p.description =
        "staggered crash-recover churn: two faulty processes bounce at "
        "overlapping times (n=7, f=2, d=1)";
    p.n = 7;
    p.f = 2;
    p.d = 1;  // n >= (d+2)f + 1 requires d=1 at n=7, f=2
    p.crash_count = 2;
    p.build = [](const std::vector<sim::ProcessId>& faulty, std::size_t) {
      Scenario s;
      s.crash(faulty[0], 5.0).recover(faulty[0], 20.0);
      s.crash(faulty[1], 12.0).recover(faulty[1], 28.0);
      return s;
    };
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "byz_equivocator";
    p.description =
        "the faulty process runs the Byzantine track, equivocating across "
        "receiver halves; BCC (n=5, f=1, d=2) must still decide";
    p.crash_count = 1;
    p.build = [](const std::vector<sim::ProcessId>& faulty, std::size_t) {
      return Scenario{}.byzantine(
          faulty[0], {bcc::BehaviorKind::kEquivocate, /*param=*/1});
    };
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "byz_silent_partition";
    p.description =
        "Byzantine silence composed with a healing partition (n=7, f=2, "
        "d=1): one faulty process mute, one forging its input";
    p.n = 7;
    p.f = 2;
    p.d = 1;  // n >= max(3f, (d+2)f) + 1 at n=7, f=2 requires d=1
    p.crash_count = 2;
    p.build = [](const std::vector<sim::ProcessId>& faulty, std::size_t n) {
      const std::vector<sim::ProcessId> ok = others(faulty, n);
      Scenario s;
      s.partition(4.0, 24.0, {ok[0], ok[1]});
      s.byzantine(faulty[0], {bcc::BehaviorKind::kSilent, /*param=*/3});
      s.byzantine(faulty[1], {bcc::BehaviorKind::kForgePoint, /*param=*/0});
      return s;
    };
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "over_budget";
    p.description =
        "f+1 simultaneous crashes with no recovery: the run must stall "
        "safely (checker-clean, non-deciding), never violate";
    p.crash_count = 1;
    p.expect = Expect::kStallSafe;
    p.build = [](const std::vector<sim::ProcessId>& faulty, std::size_t n) {
      Scenario s;
      s.crash(faulty[0], 6.0);
      s.crash(others(faulty, n)[0], 6.0);  // one more than the budget
      return s;
    };
    out.push_back(std::move(p));
  }

  // The Byzantine resilience-boundary matrix: one behavior class per point.
  const auto byz = [&out](std::string name, std::string description,
                          std::size_t n, std::size_t f, std::size_t d,
                          bcc::BehaviorKind kind, std::uint64_t param,
                          Expect expect = Expect::kDecide) {
    Preset p = byzantine_preset(n, f, d, kind, param, expect);
    p.name = std::move(name);
    p.description = std::move(description);
    out.push_back(std::move(p));
  };
  byz("equivocate_d1",
      "n=4 f=1 d=1: the classic split-brain sender; reliable broadcast "
      "must converge every origin to one value (or none) and decide",
      4, 1, 1, bcc::BehaviorKind::kEquivocate, 1);
  byz("equivocate_d2",
      "n=5 f=1 d=2: equivocation in the plane, exactly at the "
      "(d+2)f + 1 vector-consensus bound",
      5, 1, 2, bcc::BehaviorKind::kEquivocate, 0);
  byz("forge_outlier",
      "n=4 f=1 d=1: protocol-abiding liar broadcasting a far outlier "
      "input; the decided hull must stay inside the fault-free hull",
      4, 1, 1, bcc::BehaviorKind::kForgePoint, 0);
  byz("silent_midcast",
      "n=7 f=2 d=1: two processes fall silent a few sends into their "
      "broadcasts (the Byzantine analogue of a mid-broadcast crash)",
      7, 2, 1, bcc::BehaviorKind::kSilent, 5);
  byz("malformed_flood",
      "n=4 f=1 d=1: every message from the faulty process is cycling "
      "garbage (bad types, tags, origins, slots, sizes, NaNs); correct "
      "processes must shed it all and decide among themselves",
      4, 1, 1, bcc::BehaviorKind::kMalformed, 0);
  byz("rbc_stall_3f",
      "n=3 f=1 d=1 (n = 3f): the 2f+1 READY quorum needs every process "
      "including the silent one, so nothing is ever delivered — the "
      "documented failure mode below n = 3f + 1",
      3, 1, 1, bcc::BehaviorKind::kSilent, 0, Expect::kRbcStall);
  // A silence budget no run reaches: effectively protocol-abiding, still
  // distrusted.
  byz("vector_bound_gap",
      "n=4 f=1 d=2: reliable broadcast works (n >= 3f + 1) but "
      "n < (d+2)f + 1, so Γ(X) is empty and every fault-free process "
      "halts at round 0 — the vector-consensus boundary of 1302.2543",
      4, 1, 2, bcc::BehaviorKind::kSilent, 1'000'000, Expect::kRound0Empty);
  return out;
}

std::vector<Preset> make_live_presets() {
  std::vector<Preset> out;

  {
    Preset p;
    p.name = "partition_heal";
    p.description =
        "symmetric partition {0,1} | rest active from submit, heals at "
        "t=40; the minority stalls below quorum, then everyone decides";
    p.build = [](const std::vector<sim::ProcessId>&, std::size_t) {
      return Scenario{}.partition(0.0, 40.0, {0, 1});
    };
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "asym_partition";
    p.description =
        "one-way cut: node 0's outbound links drop from submit to t=40 "
        "while its inbound links stay up";
    p.build = [](const std::vector<sim::ProcessId>&, std::size_t n) {
      return Scenario{}.partition_one_way(0.0, 40.0, {0}, others({0}, n));
    };
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "flapping_partition";
    p.description =
        "the {0,1} cut flaps with period 16 (8 open, 8 healed) until "
        "t=64 — links that never settle; retransmission rides the gaps";
    p.build = [](const std::vector<sim::ProcessId>&, std::size_t) {
      return Scenario{}.partition_flapping(0.0, 64.0, 16.0, {0, 1});
    };
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "rolling_partition";
    p.description =
        "each period-12 window isolates one node round-robin until t=60 "
        "— the cut rolls around the whole ring";
    p.build = [](const std::vector<sim::ProcessId>&, std::size_t) {
      return Scenario{}.partition_rolling(0.0, 60.0, 12.0);
    };
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "crash_recover_skew";
    p.description =
        "the faulty node is SIGKILLed at t=8 and restarted (epoch+1, "
        "fresh state) at t=60 while one correct node runs its clock 1.5x "
        "fast and another 0.6x slow — skewed RTOs misfire across nodes";
    p.crash_count = 1;
    p.build = [](const std::vector<sim::ProcessId>& faulty, std::size_t n) {
      const std::vector<sim::ProcessId> ok = others(faulty, n);
      Scenario s;
      s.crash(faulty.at(0), 8.0).recover(faulty.at(0), 60.0);
      s.clock_skew(ok.at(0), 1.5);
      s.clock_skew(ok.at(1), 0.6);
      return s;
    };
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "pause_resume";
    p.description =
        "the faulty node freezes under SIGSTOP from t=4 to t=48 (no "
        "state loss — unlike a crash its timers resume where they left "
        "off) and still decides after the thaw";
    p.crash_count = 1;
    p.build = [](const std::vector<sim::ProcessId>& faulty, std::size_t) {
      return Scenario{}.pause(faulty.at(0), 4.0, 48.0);
    };
    out.push_back(std::move(p));
  }
  {
    Preset p;
    p.name = "lossy_links";
    p.description =
        "every link drops 15%, duplicates 10% and reorders 20% of frames "
        "for the whole run — the shim's retransmit/dedup does the work";
    p.build = [](const std::vector<sim::ProcessId>&, std::size_t) {
      return Scenario{}.base_policy(
          net::NetworkPolicy::lossy(0.15, 0.10, 0.20));
    };
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace

const std::vector<Preset>& presets() {
  static const std::vector<Preset> kPresets = make_presets();
  return kPresets;
}

const std::vector<Preset>& live_presets() {
  static const std::vector<Preset> kPresets = make_live_presets();
  return kPresets;
}

const Preset* find_preset(const std::string& name,
                          const std::vector<Preset>& list) {
  for (const Preset& p : list) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::string_view protocol_of(const Preset& p) {
  std::vector<sim::ProcessId> faulty(p.crash_count);
  std::iota(faulty.begin(), faulty.end(), sim::ProcessId{0});
  return p.build(faulty, p.n).byzantine_plans().empty() ? "cc" : "bcc";
}

Preset byzantine_preset(std::size_t n, std::size_t f, std::size_t d,
                        bcc::BehaviorKind kind, std::uint64_t param,
                        Expect expect) {
  Preset p;
  p.name = "byzantine";
  p.n = n;
  p.f = f;
  p.d = d;
  p.crash_count = f;
  p.expect = expect;
  p.build = [kind, param](const std::vector<sim::ProcessId>& faulty,
                          std::size_t) {
    Scenario s;
    for (std::size_t i = 0; i < faulty.size(); ++i) {
      s.byzantine(faulty[i], {kind, param + i});
    }
    return s;
  };
  return p;
}

Preset sample_preset(std::uint64_t seed) {
  // Independent of the workload stream: the composer draws structure, the
  // seed handed to run_preset draws inputs / faulty pids / delays.
  Rng rng(seed ^ 0x6E656D6573697321ULL);

  struct Ingredient {
    int kind = 0;  // 0 sym partition, 1 one-way partition, 2 crash, 3 storm
    double t0 = 0.0, t1 = 0.0, factor = 1.0;
    std::vector<sim::ProcessId> side;
    bool with_recovery = false;
  };

  constexpr std::size_t kN = 5;
  const auto n_elems = static_cast<std::size_t>(rng.uniform_int(1, 3));
  std::vector<Ingredient> mix;
  bool used_crash = false;
  std::size_t crash_count = 0;
  // Overlapping storms multiply their factors, and a combined factor past
  // the shim's give-up horizon (~260 time units of unacked silence at
  // default ReliableParams) makes every sender abandon every channel — the
  // run would stall even though no fault budget was exceeded. Sampled
  // scenarios promise to decide, so the combined product stays <= 60
  // (worst in-flight delay 60 x 1.0 base, well under the horizon).
  double storm_budget = 60.0;
  for (std::size_t i = 0; i < n_elems; ++i) {
    Ingredient ing;
    ing.kind = static_cast<int>(rng.uniform_int(0, 3));
    if (ing.kind == 2 && used_crash) ing.kind = 3;  // one crash plan max
    if (ing.kind == 3 && storm_budget < 3.0) ing.kind = 0;  // budget spent
    switch (ing.kind) {
      case 0:
      case 1: {
        ing.t0 = rng.uniform(1.0, 8.0);
        ing.t1 = ing.t0 + rng.uniform(5.0, 20.0);
        const auto k = static_cast<std::size_t>(rng.uniform_int(1, 2));
        for (const std::size_t p : rng.sample_indices(kN, k)) {
          ing.side.push_back(p);
        }
        break;
      }
      case 2: {
        used_crash = true;
        crash_count = 1;
        ing.t0 = rng.uniform(2.0, 10.0);
        ing.with_recovery = rng.bernoulli(0.5);
        ing.t1 = ing.t0 + rng.uniform(10.0, 20.0);
        break;
      }
      case 3: {
        ing.t0 = rng.uniform(0.0, 8.0);
        ing.t1 = ing.t0 + rng.uniform(4.0, 14.0);
        ing.factor = rng.uniform(3.0, std::min(15.0, storm_budget));
        storm_budget /= ing.factor;
        break;
      }
    }
    mix.push_back(std::move(ing));
  }

  Preset p;
  p.name = "fuzz";
  p.description = "seeded random composition of partitions/crash/storms";
  p.n = kN;
  p.crash_count = crash_count;
  p.build = [mix](const std::vector<sim::ProcessId>& faulty, std::size_t n) {
    Scenario s;
    for (const Ingredient& ing : mix) {
      switch (ing.kind) {
        case 0:
          s.partition(ing.t0, ing.t1, ing.side);
          break;
        case 1:
          s.partition_one_way(ing.t0, ing.t1, ing.side,
                              others(ing.side, n));
          break;
        case 2:
          s.crash(faulty.at(0), ing.t0);
          if (ing.with_recovery) s.recover(faulty.at(0), ing.t1);
          break;
        case 3:
          s.delay_storm(ing.t0, ing.t1, ing.factor);
          break;
      }
    }
    return s;
  };
  return p;
}

Preset sample_byz_preset(std::uint64_t seed) {
  // Structure stream, independent of the workload stream run_preset
  // derives from the seed it is handed.
  Rng rng(seed ^ 0x42595A46555A5AULL);
  const std::size_t d = rng.bernoulli(0.4) ? 2 : 1;
  const std::size_t f = (d == 1 && rng.bernoulli(0.3)) ? 2 : 1;
  // Smallest deciding n for (f, d), plus a little headroom.
  const std::size_t floor_n = std::max(3 * f, (d + 2) * f) + 1;
  const std::size_t n =
      floor_n + static_cast<std::size_t>(rng.uniform_int(0, 2));
  bcc::BehaviorKind kind = bcc::BehaviorKind::kSilent;
  CHC_CHECK(bcc::behavior_from_int(static_cast<int>(rng.uniform_int(0, 3)),
                                   kind),
            "sampler out of range");
  const auto param = static_cast<std::uint64_t>(rng.uniform_int(0, 7));
  Preset p = byzantine_preset(n, f, d, kind, param);
  p.name = "byz_fuzz";
  p.description = "seeded random deciding tuple + behavior";
  p.pattern = rng.bernoulli(0.25) ? core::InputPattern::kClustered
                                  : core::InputPattern::kUniform;
  return p;
}

Preset sample_live_preset(std::uint64_t seed) {
  // Structure comes from this stream; inputs / faulty pids come from the
  // workload seed the controller passes separately.
  Rng rng(seed ^ 0x6C6976656E656D21ULL);  // "livenem!"

  struct Ingredient {
    int kind = 0;  // 0 sym, 1 one-way, 2 flap, 3 roll, 4 kill, 5 pause
    double t0 = 0.0, t1 = 0.0, period = 0.0;
    bool with_recovery = false;
    std::vector<sim::ProcessId> side;
  };

  constexpr std::size_t kN = 5;
  const auto n_elems = static_cast<std::size_t>(rng.uniform_int(1, 3));
  std::vector<Ingredient> mix;
  bool used_crash = false;
  bool used_pause = false;
  std::size_t crash_count = 0;
  for (std::size_t i = 0; i < n_elems; ++i) {
    Ingredient ing;
    ing.kind = static_cast<int>(rng.uniform_int(0, 5));
    // One process-level fault per run keeps the f=1 budget honest even
    // when the pause lands on a node a cut also isolates.
    if (ing.kind == 4 && (used_crash || used_pause)) ing.kind = 0;
    if (ing.kind == 5 && (used_crash || used_pause)) ing.kind = 1;
    switch (ing.kind) {
      case 0:
      case 1: {
        ing.t0 = 0.0;
        ing.t1 = rng.uniform(20.0, 56.0);
        const auto k = static_cast<std::size_t>(rng.uniform_int(1, 2));
        for (const std::size_t p : rng.sample_indices(kN, k)) {
          ing.side.push_back(p);
        }
        break;
      }
      case 2: {
        ing.t0 = 0.0;
        ing.t1 = rng.uniform(32.0, 72.0);
        ing.period = rng.uniform(10.0, 24.0);
        const auto k = static_cast<std::size_t>(rng.uniform_int(1, 2));
        for (const std::size_t p : rng.sample_indices(kN, k)) {
          ing.side.push_back(p);
        }
        break;
      }
      case 3: {
        ing.t0 = 0.0;
        ing.t1 = rng.uniform(30.0, 60.0);
        ing.period = rng.uniform(8.0, 16.0);
        break;
      }
      case 4: {
        used_crash = true;
        crash_count = 1;
        ing.t0 = rng.uniform(2.0, 12.0);
        ing.with_recovery = rng.bernoulli(0.6);
        ing.t1 = ing.t0 + rng.uniform(30.0, 50.0);
        break;
      }
      case 5: {
        used_pause = true;
        crash_count = 1;  // target the workload-faulty node
        ing.t0 = rng.uniform(0.0, 8.0);
        ing.t1 = ing.t0 + rng.uniform(16.0, 40.0);
        break;
      }
    }
    mix.push_back(std::move(ing));
  }
  const bool lossy_base = rng.bernoulli(0.4);
  const bool with_skew = rng.bernoulli(0.5);
  const double skew_rate = rng.bernoulli(0.5) ? rng.uniform(1.2, 2.0)
                                              : rng.uniform(0.5, 0.9);

  Preset p;
  p.name = "fuzz";
  p.description = "seeded random composition of live cuts/kills/pauses/skew";
  p.n = kN;
  p.crash_count = crash_count;
  p.build = [mix, lossy_base, with_skew,
             skew_rate](const std::vector<sim::ProcessId>& faulty,
                        std::size_t n) {
    Scenario s;
    if (lossy_base) {
      s.base_policy(net::NetworkPolicy::lossy(0.10, 0.05, 0.10));
    }
    for (const Ingredient& ing : mix) {
      switch (ing.kind) {
        case 0:
          s.partition(ing.t0, ing.t1, ing.side);
          break;
        case 1:
          s.partition_one_way(ing.t0, ing.t1, ing.side,
                              others(ing.side, n));
          break;
        case 2:
          s.partition_flapping(ing.t0, ing.t1, ing.period, ing.side);
          break;
        case 3:
          s.partition_rolling(ing.t0, ing.t1, ing.period);
          break;
        case 4:
          s.crash(faulty.at(0), ing.t0);
          if (ing.with_recovery) s.recover(faulty.at(0), ing.t1);
          break;
        case 5:
          s.pause(faulty.at(0), ing.t0, ing.t1);
          break;
      }
    }
    if (with_skew) {
      // Skew a node no other ingredient kills or pauses.
      const std::vector<sim::ProcessId> ok = others(faulty, n);
      s.clock_skew(ok.at(0), skew_rate);
    }
    return s;
  };
  return p;
}

ScenarioResult run_preset(const Preset& preset, std::uint64_t seed,
                          obs::Registry* metrics) {
  CHC_CHECK(preset.build != nullptr, "preset has no scenario builder");
  ScenarioSpec spec;
  spec.name = preset.name;
  spec.cc.n = preset.n;
  spec.cc.f = preset.f;
  spec.cc.d = preset.d;
  spec.cc.eps = preset.eps;
  spec.pattern = preset.pattern;
  spec.seed = seed;
  spec.crash_count = preset.crash_count;
  spec.expect = preset.expect;
  // The builder needs the faulty pids; make_workload is deterministic in
  // (n, f, d, pattern, seed), so this is the same set run_scenario derives.
  const core::Workload w = core::make_workload(
      preset.n, preset.crash_count, preset.d, spec.pattern, seed,
      spec.cc.fault_model == core::FaultModel::kCrashIncorrectInputs);
  spec.scenario = preset.build(w.faulty, preset.n);
  return run_scenario(spec, metrics);
}

}  // namespace chc::nemesis
