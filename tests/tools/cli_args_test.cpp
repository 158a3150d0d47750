// Argument-validation parity across the CLI tools: every driver must
// reject garbage numeric values, unknown flags, and missing required
// arguments with exit code 2 and its usage text — never an uncaught
// std::stoul exception (a crash with exit 134/139) and never a silent
// misparse like "5x" -> 5.
//
// Each binary's path is injected at compile time via the CHC_TOOL_*_BIN
// and CHC_BENCH_HARNESS_BIN definitions in tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <string>
#include <sys/wait.h>

namespace {

struct CmdResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr interleaved
};

CmdResult run_cmd(const std::string& cmd) {
  CmdResult r;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf;
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.output.append(buf.data(), got);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

struct ToolCase {
  const char* name;
  const char* bin;
  /// A numeric option each tool accepts, to feed garbage into.
  const char* numeric_opt;
};

const ToolCase kTools[] = {
    {"chc_nemesis", CHC_TOOL_NEMESIS_BIN, "--seed"},
    {"chc_record", CHC_TOOL_RECORD_BIN, "--seed"},
    {"chc_cluster", CHC_TOOL_CLUSTER_BIN, "--nodes"},
    {"chc_check", CHC_TOOL_CHECK_BIN, "--max-violations"},
    {"chc_serve", CHC_TOOL_SERVE_BIN, "--instances"},
    {"chc_node", CHC_TOOL_NODE_BIN, "--id"},
};

TEST(CliArgs, GarbageNumericValueExitsTwoWithDiagnostic) {
  for (const ToolCase& t : kTools) {
    for (const char* bad : {"5x", "x", "-3", "", "99999999999999999999999"}) {
      const CmdResult r = run_cmd(std::string(t.bin) + " " +
                                  t.numeric_opt + " '" + bad + "'");
      EXPECT_EQ(r.exit_code, 2)
          << t.name << " " << t.numeric_opt << " '" << bad
          << "' -> exit " << r.exit_code << "\n" << r.output;
      EXPECT_NE(r.output.find("needs a non-negative integer"),
                std::string::npos)
          << t.name << " '" << bad << "': " << r.output;
      EXPECT_NE(r.output.find("usage"), std::string::npos)
          << t.name << " '" << bad << "': " << r.output;
    }
  }
}

TEST(CliArgs, UnknownFlagExitsTwoWithUsage) {
  for (const ToolCase& t : kTools) {
    const CmdResult r = run_cmd(std::string(t.bin) + " --definitely-bogus");
    EXPECT_EQ(r.exit_code, 2) << t.name << ": " << r.output;
    EXPECT_NE(r.output.find("usage"), std::string::npos)
        << t.name << ": " << r.output;
  }
  // The experiment harnesses share bench::init: a typo must not silently
  // run the wrong experiment, and --report is only for the harnesses that
  // write one.
  for (const char* bad_args :
       {"--definitely-bogus", "--quick --qiuck", "--report out.jsonl"}) {
    const CmdResult r =
        run_cmd(std::string(CHC_BENCH_HARNESS_BIN) + " " + bad_args);
    EXPECT_EQ(r.exit_code, 2) << bad_args << ": " << r.output;
    EXPECT_NE(r.output.find("usage"), std::string::npos)
        << bad_args << ": " << r.output;
  }
}

TEST(CliArgs, MissingOptionValueExitsTwo) {
  for (const ToolCase& t : kTools) {
    const CmdResult r =
        run_cmd(std::string(t.bin) + " " + t.numeric_opt);
    EXPECT_EQ(r.exit_code, 2) << t.name << ": " << r.output;
    EXPECT_NE(r.output.find("needs a value"), std::string::npos)
        << t.name << ": " << r.output;
  }
}

TEST(CliArgs, GarbageRealValueExitsTwo) {
  struct RealCase {
    const char* bin;
    const char* opt;
  };
  for (const RealCase& c :
       {RealCase{CHC_TOOL_RECORD_BIN, "--eps"},
        RealCase{CHC_TOOL_CLUSTER_BIN, "--soak"},
        RealCase{CHC_TOOL_CHECK_BIN, "--tol"}}) {
    for (const char* bad : {"1.5x", "nan", "x", ""}) {
      const CmdResult r =
          run_cmd(std::string(c.bin) + " " + c.opt + " '" + bad + "'");
      EXPECT_EQ(r.exit_code, 2)
          << c.opt << " '" << bad << "': " << r.output;
      EXPECT_NE(r.output.find("needs a finite number"), std::string::npos)
          << c.opt << " '" << bad << "': " << r.output;
    }
  }
}

TEST(CliArgs, NodeRejectsBadValuesAndBareInvocation) {
  // Beyond the shared cases above: a time scale or clock rate of 0, below
  // 0, inf or nan would stall or break the node's model clock, and an
  // epoch past UINT32_MAX would reach the transport truncated. Each must
  // die on its own diagnostic, not on the missing --cluster after it.
  struct Bad {
    const char* args;
    const char* diagnostic;
  };
  for (const Bad& c : {Bad{"--client-port 70000", "--client-port needs"},
                       Bad{"--time-scale x", "--time-scale needs"},
                       Bad{"--time-scale inf", "--time-scale needs"},
                       Bad{"--time-scale 0", "--time-scale needs"},
                       Bad{"--time-scale -1", "--time-scale needs"},
                       Bad{"--time-scale nan", "--time-scale needs"},
                       Bad{"--clock-rate inf", "--clock-rate needs"},
                       Bad{"--clock-rate 0", "--clock-rate needs"},
                       Bad{"--epoch 4294967296", "--epoch needs"},
                       Bad{"", "bad --cluster"}}) {
    const CmdResult r =
        run_cmd(std::string(CHC_TOOL_NODE_BIN) + " " + c.args);
    EXPECT_EQ(r.exit_code, 2) << "chc_node " << c.args << ": " << r.output;
    EXPECT_NE(r.output.find(c.diagnostic), std::string::npos)
        << "chc_node " << c.args << ": " << r.output;
    EXPECT_NE(r.output.find("usage"), std::string::npos)
        << "chc_node " << c.args << ": " << r.output;
  }
  // The largest epoch is accepted; only the missing --cluster stops it.
  const CmdResult r =
      run_cmd(std::string(CHC_TOOL_NODE_BIN) + " --epoch 4294967295");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("bad --cluster"), std::string::npos) << r.output;
}

TEST(CliArgs, NemesisRejectsUnknownProtocol) {
  const CmdResult r =
      run_cmd(std::string(CHC_TOOL_NEMESIS_BIN) + " --all --protocol xyz");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--protocol needs cc or bcc, got 'xyz'"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("usage"), std::string::npos) << r.output;
}

TEST(CliArgs, NemesisReportsUnwritableTraceAndReport) {
  // A passing run whose trace or report cannot be written must not exit 0:
  // the file is what CI archives and re-checks.
  const std::string path = (std::filesystem::temp_directory_path() /
                            "chc_cli_no_such_dir" / "x.jsonl")
                               .string();
  for (const std::string opt : {"--out", "--report"}) {
    const CmdResult r =
        run_cmd(std::string(CHC_TOOL_NEMESIS_BIN) +
                " --preset partition_heal --seed 1 " + opt + " " + path);
    EXPECT_EQ(r.exit_code, 1) << opt << ": " << r.output;
    EXPECT_NE(r.output.find("cannot write " + path), std::string::npos)
        << opt << ": " << r.output;
    EXPECT_NE(r.output.find("1/1 scenario runs passed"), std::string::npos)
        << opt << ": " << r.output;
  }
}

TEST(CliArgs, NoModeExitsTwoWithUsage) {
  // Tools that require a mode/required argument print usage and exit 2
  // when invoked bare. (chc_serve and chc_cluster run with defaults, so
  // they are exercised via the bad-value cases above instead.)
  for (const char* bin :
       {CHC_TOOL_NEMESIS_BIN, CHC_TOOL_RECORD_BIN, CHC_TOOL_CHECK_BIN}) {
    const CmdResult r = run_cmd(bin);
    EXPECT_EQ(r.exit_code, 2) << bin << ": " << r.output;
    EXPECT_NE(r.output.find("usage"), std::string::npos)
        << bin << ": " << r.output;
  }
}

TEST(CliArgs, HelpExitsZero) {
  for (const ToolCase& t : kTools) {
    const CmdResult r = run_cmd(std::string(t.bin) + " --help");
    EXPECT_EQ(r.exit_code, 0) << t.name << ": " << r.output;
    EXPECT_NE(r.output.find("usage"), std::string::npos) << t.name;
  }
}

}  // namespace
