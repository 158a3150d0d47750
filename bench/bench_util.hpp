// Shared helpers for the experiment harnesses (E1..E10).
//
// Every harness prints a header naming the experiment and a fixed-format
// table; EXPERIMENTS.md records these tables as the paper-vs-measured
// evidence. Flags, parsed by common/cli like every tool's: --quick shrinks
// sweeps (CI-sized runs), --csv switches the tables to CSV, and a harness
// that writes a run report takes --report FILE. Any other argument prints
// usage and exits 2, so a typo cannot silently run the wrong experiment.
#pragma once

#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"

namespace chc::bench {

struct Options {
  bool quick = false;
  std::string report;  ///< --report FILE; empty when absent
};

namespace detail {
inline bool& csv_flag() {
  static bool flag = false;
  return flag;
}
}  // namespace detail

/// Call once at the top of main. `with_report`: the harness takes
/// --report FILE.
inline Options init(int argc, char** argv, bool with_report = false) {
  const auto usage = [&] {
    std::cerr << "usage: " << argv[0] << " [--quick] [--csv]"
              << (with_report ? " [--report FILE]" : "") << "\n";
  };
  Options opts;
  cli::Args args(argc, argv, usage);
  while (args.next()) {
    if (args.is("--quick")) opts.quick = true;
    else if (args.is("--csv")) detail::csv_flag() = true;
    else if (with_report && args.is("--report")) opts.report = args.value();
    else args.unknown();
  }
  return opts;
}

inline void print_experiment_header(const std::string& id,
                                    const std::string& title) {
  if (detail::csv_flag()) {
    std::cout << "# " << id << ": " << title << "\n";
    return;
  }
  std::cout << "\n================================================\n"
            << id << ": " << title << "\n"
            << "================================================\n";
}

inline void emit(const Table& t) {
  if (detail::csv_flag()) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
  std::cout << "\n";
}

}  // namespace chc::bench
