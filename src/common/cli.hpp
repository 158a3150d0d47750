// Command-line parsing shared by every tool and bench harness.
//
// One contract everywhere: a numeric option's whole value must parse (no
// "5x" read as 5, no silent wrap on overflow, no "nan"), and a bad,
// missing or unknown argument prints a one-line diagnostic, then the
// program's usage text, and exits 2. --help / -h print the usage and
// exit 0. Output files go through write_lines, so a trace or report that
// cannot be written is reported, never lost silently.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace chc::cli {

/// Whole-value unsigned decimal; nullopt on anything else or on overflow.
std::optional<std::uint64_t> parse_count(std::string_view s);

/// Whole-value finite real; nullopt on anything else.
std::optional<double> parse_real(std::string_view s);

/// Writes each line plus '\n' to `path`, replacing the file. On failure
/// prints "cannot write PATH" to stderr and returns false; the caller
/// exits 1.
bool write_lines(const std::string& path,
                 const std::vector<std::string>& lines);

/// Walks argv, one option at a time:
///
///   cli::Args args(argc, argv, usage);
///   while (args.next()) {
///     if (args.is("--seed")) seed = args.count();
///     else if (args.is("--out")) out = args.value();
///     else args.unknown();
///   }
class Args {
 public:
  using Usage = std::function<void()>;

  Args(int argc, char** argv, Usage usage)
      : argc_(argc), argv_(argv), usage_(std::move(usage)) {}

  /// Advances to the next argument; false once argv is exhausted.
  bool next();

  /// The current argument.
  const std::string& arg() const { return arg_; }
  bool is(std::string_view option) const { return arg_ == option; }

  /// The value following the current option.
  std::string value();
  /// value() as a count no larger than `max`.
  std::uint64_t count(std::uint64_t max = UINT64_MAX);
  /// value() as a finite real.
  double real();
  /// value() as a finite real > 0.
  double positive();

  /// Prints `message`, then the usage text, and exits 2.
  [[noreturn]] void fail(const std::string& message) const;
  /// The current argument is no known option: usage and exit 0 for
  /// --help / -h, otherwise "unknown option" and exit 2.
  [[noreturn]] void unknown() const;

 private:
  int argc_;
  char** argv_;
  Usage usage_;
  int i_ = 0;
  std::string arg_;
};

}  // namespace chc::cli
