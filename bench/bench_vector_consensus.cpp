// E6 — Convex hull consensus vs vector consensus (§1's reduction claim).
//
// Two comparisons on identical workloads:
//  (a) output expressiveness: CC decides a polytope with positive measure;
//      vector consensus decides a single point (measure 0). Any point of
//      the CC output (e.g. its centroid) solves vector consensus, so CC
//      strictly generalizes the baseline.
//  (b) cost: messages and simulated completion time.
#include <iostream>
#include <vector>

#include "baselines/vector_consensus.hpp"
#include "bench_util.hpp"
#include "core/harness.hpp"

using namespace chc;

int main(int argc, char** argv) {
  const bool quick = bench::init(argc, argv).quick;
  bench::print_experiment_header(
      "E6", "convex hull consensus vs vector consensus baseline");

  struct Sys {
    std::size_t n, f;
  };
  const std::vector<Sys> systems = quick
      ? std::vector<Sys>{{7, 1}}
      : std::vector<Sys>{{7, 1}, {9, 2}, {13, 2}, {19, 3}};
  const std::size_t seeds = quick ? 2 : 3;

  Table t({"n", "f", "algo", "ok", "out_measure", "max_disagree", "msgs",
           "sim_time"});
  bool reduction_ok = true;

  for (const auto& sys : systems) {
    double cc_meas = 0, cc_dh = 0, cc_time = 0;
    double vc_dist = 0, vc_time = 0;
    std::uint64_t cc_msgs = 0, vc_msgs = 0;
    std::size_t cc_ok = 0, vc_ok = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      core::RunConfig rc;
      rc.cc = core::CCConfig{.n = sys.n, .f = sys.f, .d = 2, .eps = 0.05};
      rc.pattern = core::InputPattern::kUniform;
      rc.crash_style = core::CrashStyle::kMidBroadcast;
      rc.seed = 40 + seed;

      const auto cc = core::run_cc_once(rc);
      if (cc.cert.all_decided && cc.cert.validity && cc.cert.agreement) {
        ++cc_ok;
      }
      cc_meas += cc.cert.min_output_measure;
      cc_dh = std::max(cc_dh, cc.cert.max_pairwise_hausdorff);
      cc_msgs += cc.stats.messages_sent;
      cc_time += cc.stats.end_time;

      // Reduction: centroids of CC outputs solve vector consensus.
      std::vector<geo::Vec> centroids;
      for (sim::ProcessId p : cc.correct) {
        const auto& dec = cc.trace->of(p).decision;
        if (dec.has_value()) centroids.push_back(dec->vertex_centroid());
      }
      for (std::size_t a = 0; a < centroids.size(); ++a) {
        for (std::size_t b = a + 1; b < centroids.size(); ++b) {
          if (centroids[a].dist(centroids[b]) >= rc.cc.eps + 1e-9) {
            reduction_ok = false;
          }
        }
      }

      const auto vc = baselines::run_vector_consensus(rc);
      if (vc.all_decided && vc.validity && vc.agreement) ++vc_ok;
      vc_dist = std::max(vc_dist, vc.max_pairwise_dist);
      vc_msgs += vc.stats.messages_sent;
      vc_time += vc.stats.end_time;
    }
    const double inv = 1.0 / static_cast<double>(seeds);
    t.add_row({Table::num(sys.n), Table::num(sys.f), "hull-consensus",
               Table::num(cc_ok), Table::num(cc_meas * inv, 4),
               Table::num(cc_dh, 3),
               Table::num(std::size_t(double(cc_msgs) * inv)),
               Table::num(cc_time * inv, 4)});
    t.add_row({Table::num(sys.n), Table::num(sys.f), "vector-consensus",
               Table::num(vc_ok), "0 (point)", Table::num(vc_dist, 3),
               Table::num(std::size_t(double(vc_msgs) * inv)),
               Table::num(vc_time * inv, 4)});
  }
  bench::emit(t);
  std::cout << "CC-centroid reduction solves vector consensus in all runs: "
            << (reduction_ok ? "yes" : "NO")
            << "\n(paper §1: a convex hull consensus solution trivially "
               "yields vector consensus)\n";
  return reduction_ok ? 0 : 1;
}
