// ExperimentConfig persistence: a line-oriented "key = value" format so
// experiment campaigns can be versioned and re-run from files (and the rmrn
// CLI can take --config).
//
//   # comments and blank lines allowed
//   num_nodes = 500
//   loss_prob = 0.05
//   num_packets = 60
//   rp.cost_model = expected | timeout-only | rtt-only
//   ...
//
// One key table (config_io.cpp) binds every key to its field, and both
// functions below walk it, so a key is written exactly when it is readable.
// Two fields are deliberately not keys: rp.num_threads (runtime tuning; a
// plan is bit-identical for every thread count) and rp.excluded_peers (node
// ids, meaningful for one topology only).  topology.num_nodes is taken from
// num_nodes.
#pragma once

#include <iosfwd>

#include "harness/experiment.hpp"

namespace rmrn::harness {

/// Writes every key (including defaults) so the file is a complete record
/// of the run.
void writeConfig(std::ostream& out, const ExperimentConfig& config);

/// Parses a config written by writeConfig (or hand-edited).  Values are
/// checked like flags: a malformed number, trailing junk, a sign on an
/// unsigned field or a value its field cannot hold, an unknown key or enum
/// name all throw std::runtime_error naming the line and the key.  Omitted
/// keys keep their defaults.
[[nodiscard]] ExperimentConfig readConfig(std::istream& in);

}  // namespace rmrn::harness
