// E8b — Stable-vector message complexity vs n (Figure).
//
// The write + double-collect-with-write-back construction costs O(n) per
// collect and a handful of collects per process; total messages scale as
// O(n^2) per instance (all n processes run one). The table records
// measured totals and per-process collect counts under crash pressure.
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "dsm/stable_vector.hpp"
#include "sim/simulation.hpp"

using namespace chc;

namespace {

class SvHost final : public sim::Process {
 public:
  SvHost(std::size_t n, std::size_t f,
         std::vector<std::optional<std::size_t>>* collects)
      : n_(n), f_(f), collects_(collects) {}

  void on_start(sim::Context& ctx) override {
    sv_ = std::make_unique<dsm::StableVector>(n_, f_, ctx.self());
    sv_->start(ctx, geo::Vec{static_cast<double>(ctx.self())},
               [this](sim::Context& c, const dsm::StableVectorResult&) {
                 (*collects_)[c.self()] = sv_->collects_performed();
               });
  }
  void on_message(sim::Context& ctx, const sim::Message& msg) override {
    sv_->on_message(ctx, msg);
  }
  void on_timer(sim::Context& ctx, int token) override {
    sv_->on_timer(ctx, token);
  }

 private:
  std::size_t n_, f_;
  std::vector<std::optional<std::size_t>>* collects_;
  std::unique_ptr<dsm::StableVector> sv_;
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::init(argc, argv).quick;
  bench::print_experiment_header(
      "E8b", "stable vector message complexity vs n");

  const std::vector<std::size_t> ns = quick
      ? std::vector<std::size_t>{5, 9}
      : std::vector<std::size_t>{5, 9, 13, 17, 25, 33};

  Table t({"n", "f", "crashes", "messages", "msgs/n^2", "max_collects",
           "sim_time"});
  for (const std::size_t n : ns) {
    const std::size_t f = (n - 1) / 4;
    for (const bool with_crashes : {false, true}) {
      sim::CrashSchedule cs;
      if (with_crashes) {
        for (std::size_t i = 0; i < f; ++i) {
          cs.set(i, sim::CrashPlan::after(3 + 2 * i * n));
        }
      }
      std::vector<std::optional<std::size_t>> collects(n);
      sim::Simulation sim(n, 123 + n,
                          std::make_unique<sim::UniformDelay>(0.1, 1.0), cs);
      for (sim::ProcessId p = 0; p < n; ++p) {
        sim.add_process(std::make_unique<SvHost>(n, f, &collects));
      }
      const auto rr = sim.run();
      std::size_t max_collects = 0;
      for (const auto& c : collects) {
        if (c.has_value()) max_collects = std::max(max_collects, *c);
      }
      t.add_row(
          {Table::num(n), Table::num(f), with_crashes ? "yes" : "no",
           Table::num(static_cast<std::size_t>(rr.stats.messages_sent)),
           Table::num(static_cast<double>(rr.stats.messages_sent) /
                          (static_cast<double>(n) * static_cast<double>(n)),
                      3),
           Table::num(max_collects), Table::num(rr.stats.end_time, 4)});
    }
  }
  bench::emit(t);
  std::cout << "msgs/n^2 staying flat confirms the O(n^2) total message "
               "complexity of the\nwrite + double-collect construction.\n";
  return 0;
}
