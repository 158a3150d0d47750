#include "common/cli.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace chc::cli {

std::optional<std::uint64_t> parse_count(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char ch : s) {
    if (ch < '0' || ch > '9' || v > (UINT64_MAX - 9) / 10) return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  return v;
}

std::optional<double> parse_real(std::string_view s) {
  const std::string str(s);
  char* end = nullptr;
  const double v = std::strtod(str.c_str(), &end);
  if (str.empty() || *end != '\0' || !std::isfinite(v)) return std::nullopt;
  return v;
}

bool write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << '\n';
  out.close();
  if (!out) std::cerr << "cannot write " << path << "\n";
  return static_cast<bool>(out);
}

bool Args::next() {
  if (++i_ >= argc_) return false;
  arg_ = argv_[i_];
  return true;
}

std::string Args::value() {
  if (i_ + 1 >= argc_) fail(arg_ + " needs a value");
  return argv_[++i_];
}

std::uint64_t Args::count(std::uint64_t max) {
  const std::string v = value();
  const auto n = parse_count(v);
  if (!n || *n > max) {
    std::string want = "a non-negative integer";
    if (max != UINT64_MAX) want += " <= " + std::to_string(max);
    fail(arg_ + " needs " + want + ", got '" + v + "'");
  }
  return *n;
}

double Args::real() {
  const std::string v = value();
  const auto x = parse_real(v);
  if (!x) fail(arg_ + " needs a finite number, got '" + v + "'");
  return *x;
}

double Args::positive() {
  const std::string v = value();
  const auto x = parse_real(v);
  if (!x || *x <= 0.0) {
    fail(arg_ + " needs a finite number > 0, got '" + v + "'");
  }
  return *x;
}

void Args::fail(const std::string& message) const {
  std::cerr << message << "\n";
  usage_();
  std::exit(2);
}

void Args::unknown() const {
  if (arg_ == "--help" || arg_ == "-h") {
    usage_();
    std::exit(0);
  }
  fail("unknown option: " + arg_);
}

}  // namespace chc::cli
