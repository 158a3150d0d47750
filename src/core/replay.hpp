// Crash-CC half of deterministic replay: a trace header back into the run
// configuration that produced it. The header carries everything
// run_cc_lossy_custom consumes, so this configuration re-executes the run
// bit for bit; the protocol-keyed replay itself is bcc/replay.hpp.
//
// Only env == "sim" traces are replayable (live cluster traces are
// wall-clock scheduled).
#pragma once

#include <string>

#include "core/lossy.hpp"
#include "obs/trace.hpp"

namespace chc::core {

/// Rebuilds the run configuration + workload a header describes. Returns
/// false (with *error) when the header is not replayable (wrong env,
/// out-of-range enums, malformed workload).
bool config_from_header(const obs::TraceHeader& h, LossyRunConfig* lc,
                        Workload* w, std::string* error);

}  // namespace chc::core
