// chc_nemesis: runs nemesis fault scenarios — partitions, heal, crash-
// recover, delay storms, churn, and the Byzantine adversaries and
// resilience-boundary points — against Algorithm CC (protocol cc) or its
// Byzantine sibling BCC (protocol bcc), writes the JSONL traces, and
// verifies every run: offline checker, bit-identical replay, quiescence
// and the preset's expectation.
//
//   chc_nemesis --list                         show the preset matrix
//   chc_nemesis --preset NAME [--seed N]       one scenario run
//   chc_nemesis --all [--seed N]               every preset once
//   chc_nemesis --sweep [--seed N]             every preset, 3 seeds each
//   chc_nemesis --fuzz N [--seed BASE]         N sampled scenarios
//
// --protocol cc|bcc keeps only that protocol's presets for --list, --all
// and --sweep, and picks the --fuzz sampler: the crash-fault composer
// without it or for cc, the Byzantine adversary sampler for bcc.
//
// Every mode exits non-zero if any run fails (checker violation, replay
// divergence, or an outcome contradicting the preset's expectation — e.g.
// a healed partition that never decides, or an over-budget or n = 3f
// scenario that "decides" anyway) or if a trace or report cannot be
// written. With --out / --out-dir the traces are written for chc_check /
// archival, as byz_NAME_SEED.jsonl for bcc runs and nemesis_NAME_SEED.jsonl
// for cc runs; by default only failing traces are written (those are the
// interesting ones). --report writes the metrics registry JSON.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <system_error>
#include <vector>

#include "common/cli.hpp"
#include "nemesis/presets.hpp"
#include "nemesis/runner.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace chc;

void usage() {
  std::cerr << "usage:\n"
               "  chc_nemesis --list [--protocol cc|bcc]\n"
               "  chc_nemesis --preset NAME [--seed N] [--out FILE]\n"
               "              [--report FILE]\n"
               "  chc_nemesis --all|--sweep [--protocol cc|bcc] [--seed N]\n"
               "              [--out-dir DIR] [--report FILE]\n"
               "  chc_nemesis --fuzz N [--protocol cc|bcc] [--seed BASE]\n"
               "              [--out-dir DIR] [--report FILE]\n";
}

/// Writes one line per entry; false, after a diagnostic, when the file
/// cannot be written.
bool write_lines(const std::vector<std::string>& lines,
                 const std::string& path) {
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << "\n";
  out.close();
  if (!out) std::cerr << "cannot write " << path << "\n";
  return static_cast<bool>(out);
}

struct Tally {
  std::size_t ran = 0, failed = 0, unwritten = 0;
};

/// Runs one preset; writes the trace when a path is given or the run
/// failed (failing traces land in out_dir, or ./ without one).
void run_and_report(const nemesis::Preset& preset, std::uint64_t seed,
                    obs::Registry* metrics, const std::string& out_path,
                    const std::string& out_dir, Tally& tally) {
  const nemesis::ScenarioResult r = nemesis::run_preset(preset, seed, metrics);
  std::cout << nemesis::summarize(r) << "\n";
  ++tally.ran;
  if (!r.passed) ++tally.failed;
  std::string path = out_path;
  if (path.empty() && (!out_dir.empty() || !r.passed)) {
    const std::string dir = out_dir.empty() ? "." : out_dir;
    const char* prefix =
        nemesis::protocol_of(preset) == "bcc" ? "/byz_" : "/nemesis_";
    path = dir + prefix + r.name + "_" + std::to_string(seed) + ".jsonl";
  }
  if (!path.empty() && !write_lines(r.trace_lines, path)) ++tally.unwritten;
}

}  // namespace

int main(int argc, char** argv) {
  std::string preset_name, protocol, out, out_dir, report;
  std::uint64_t seed = 1;
  std::size_t fuzz = 0;
  bool list = false, all = false, sweep = false;

  cli::Args args(argc, argv, usage);
  while (args.next()) {
    if (args.is("--list")) list = true;
    else if (args.is("--all")) all = true;
    else if (args.is("--sweep")) sweep = true;
    else if (args.is("--preset")) preset_name = args.value();
    else if (args.is("--protocol")) {
      protocol = args.value();
      if (protocol != "cc" && protocol != "bcc") {
        args.fail("--protocol needs cc or bcc, got '" + protocol + "'");
      }
    }
    else if (args.is("--seed")) seed = args.count();
    else if (args.is("--fuzz")) fuzz = args.count();
    else if (args.is("--out")) out = args.value();
    else if (args.is("--out-dir")) out_dir = args.value();
    else if (args.is("--report")) report = args.value();
    else args.unknown();
  }

  std::vector<const nemesis::Preset*> matrix;
  for (const nemesis::Preset& p : nemesis::presets()) {
    if (protocol.empty() || nemesis::protocol_of(p) == protocol) {
      matrix.push_back(&p);
    }
  }

  if (list) {
    for (const nemesis::Preset* p : matrix) {
      std::cout << p->name << "  (" << nemesis::protocol_of(*p)
                << ", n=" << p->n << " f=" << p->f << " d=" << p->d
                << ", expect " << nemesis::expect_name(p->expect) << ")\n    "
                << p->description << "\n";
    }
    return 0;
  }

  std::error_code ec;
  if (!out_dir.empty() && !std::filesystem::create_directories(out_dir, ec) &&
      ec) {
    std::cerr << "cannot create " << out_dir << ": " << ec.message() << "\n";
    return 1;
  }
  obs::Registry metrics;
  Tally tally;

  if (fuzz > 0) {
    for (std::size_t i = 0; i < fuzz; ++i) {
      const std::uint64_t s = seed + i;
      run_and_report(protocol == "bcc" ? nemesis::sample_byz_preset(s)
                                       : nemesis::sample_preset(s),
                     s, &metrics, "", out_dir, tally);
    }
  } else if (all || sweep) {
    // The sweep runs every preset under three seeds, so both sides of
    // n = 3f+1 and the (d+2)f+1 gap are exercised repeatedly.
    const std::uint64_t seeds = sweep ? 3 : 1;
    for (const nemesis::Preset* p : matrix) {
      for (std::uint64_t k = 0; k < seeds; ++k) {
        run_and_report(*p, seed + k, &metrics, "", out_dir, tally);
      }
    }
  } else if (!preset_name.empty()) {
    const nemesis::Preset* p = nemesis::find_preset(preset_name);
    if (p == nullptr) {
      std::cerr << "unknown preset: " << preset_name << " (try --list)\n";
      return 2;
    }
    run_and_report(*p, seed, &metrics, out, out_dir, tally);
  } else {
    usage();
    return 2;
  }

  if (!report.empty() && !write_lines({metrics.to_json()}, report)) {
    ++tally.unwritten;
  }
  std::cout << (tally.ran - tally.failed) << "/" << tally.ran
            << " scenario runs passed\n";
  if (tally.unwritten > 0) {
    std::cout << tally.unwritten << " file(s) could not be written\n";
  }
  return tally.failed == 0 && tally.unwritten == 0 ? 0 : 1;
}
