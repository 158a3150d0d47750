#include "bcc/replay.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <utility>

#include "common/check.hpp"
#include "core/replay.hpp"

namespace chc::bcc {

namespace {

bool fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

bool cc_config_from_header(const obs::TraceHeader& h, ByzRunConfig* bc,
                           core::Workload* w, std::string* error) {
  ByzRunConfig out;
  if (!core::config_from_header(h, &out.lossy, w, error)) return false;
  if (bc != nullptr) *bc = std::move(out);
  return true;
}

core::LossyRunOutput run_cc(const ByzRunConfig& bc, const core::Workload& w) {
  CHC_CHECK(bc.behaviors.empty(), "a cc run has no byzantine behaviors");
  return core::run_cc_lossy_custom(bc.lossy, w);
}

const Protocol kProtocols[] = {
    {"cc", cc_config_from_header, run_cc},
    {"bcc", byz_config_from_header, run_bcc_custom},
};

}  // namespace

const Protocol* find_protocol(std::string_view name) {
  for (const Protocol& p : kProtocols) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

bool byz_config_from_header(const obs::TraceHeader& h, ByzRunConfig* bc,
                            core::Workload* w, std::string* error) {
  if (h.protocol != "bcc") {
    return fail(error, "not a bcc trace (protocol=" + h.protocol + ")");
  }
  ByzRunConfig out;
  core::Workload workload;
  if (!core::config_from_header(h, &out.lossy, &workload, error)) return false;
  for (const obs::HeaderByz& b : h.byz) {
    if (b.p >= h.n) return fail(error, "byzantine id out of range");
    BehaviorSpec spec;
    if (!behavior_from_int(b.kind, spec.kind)) {
      return fail(error, "unknown behavior kind");
    }
    spec.param = b.param;
    if (!out.behaviors.emplace(static_cast<sim::ProcessId>(b.p), spec)
             .second) {
      return fail(error, "duplicate byzantine id");
    }
  }
  const std::set<sim::ProcessId> faulty(workload.faulty.begin(),
                                        workload.faulty.end());
  if (faulty.size() != out.behaviors.size() ||
      !std::all_of(out.behaviors.begin(), out.behaviors.end(),
                   [&](const auto& kv) { return faulty.count(kv.first) != 0; })) {
    return fail(error, "behavior list does not match the faulty set");
  }
  // Not recorded explicitly: below the bound the original run must have
  // opted in, at or above it the flag has no effect.
  out.allow_below_bound = h.n < 3 * h.f + 1;
  if (bc != nullptr) *bc = std::move(out);
  if (w != nullptr) *w = std::move(workload);
  return true;
}

ReplayResult replay_trace_lines(const std::vector<std::string>& lines) {
  ReplayResult r;
  if (lines.empty()) {
    r.error = "empty trace";
    return r;
  }
  obs::TraceHeader header;
  std::string error;
  if (!obs::parse_header(lines[0], header, &error)) {
    r.error = "header: " + error;
    return r;
  }
  const Protocol* protocol = find_protocol(header.protocol);
  if (protocol == nullptr) {
    r.error = "no harness runs protocol \"" + header.protocol + "\"";
    return r;
  }
  ByzRunConfig bc;
  core::Workload workload;
  if (!protocol->from_header(header, &bc, &workload, &error)) {
    r.error = error;
    return r;
  }

  obs::MemorySink sink;
  obs::Tracer tracer(&sink);
  bc.lossy.tracer = &tracer;
  (void)protocol->run(bc, workload);
  r.ran = true;

  const std::vector<std::string> replayed = sink.lines();
  r.original_lines = lines.size();
  r.replayed_lines = replayed.size();
  const std::size_t common = std::min(lines.size(), replayed.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (lines[i] != replayed[i]) {
      r.first_diff_line = i + 1;
      r.expected = lines[i];
      r.actual = replayed[i];
      return r;
    }
  }
  if (lines.size() != replayed.size()) {
    r.first_diff_line = common + 1;
    if (lines.size() > common) r.expected = lines[common];
    if (replayed.size() > common) r.actual = replayed[common];
    return r;
  }
  r.identical = true;
  return r;
}

ReplayResult replay_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    ReplayResult r;
    r.error = "cannot open " + path;
    return r;
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return replay_trace_lines(lines);
}

}  // namespace chc::bcc
