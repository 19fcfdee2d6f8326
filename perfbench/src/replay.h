// Replay of inputs captured in the traced run through each layer's public
// entry point, giving a host cost in nanoseconds per call. Cost per call
// times the calls the run made estimates that layer's share of the run.
#pragma once

#include <string>
#include <vector>

#include "rddr/plugin.h"

namespace perfbench {

/// pg::MessageReader over captured pgwire units (startup packets skipped).
double replay_pgwire(const std::vector<rddr::core::Unit>& units);

/// http::RequestParser / ResponseParser over captured HTTP units.
double replay_http(const std::vector<rddr::core::Unit>& units, bool requests);

/// sqldb::parse_sql (lex + parse), per statement.
double replay_parse(const std::vector<std::string>& scripts);

/// sqldb::Session::execute, per statement, on a scratch pgbench dataset
/// (with a durable storage engine attached when `durable`). Includes the
/// parse; subtract replay_parse for execution alone.
double replay_execute(const std::vector<std::string>& scripts, int accounts,
                    uint64_t data_seed, bool durable);

struct DiffCost {
  double ns_per_compare = 0;  // DiffEngine::compare + forward_downstream
  double raw_equal_frac = 0;
  double bytes_per_compare = 0;
};

/// rddr::core::DiffEngine over captured N-way response batches, with the
/// filter pair and default known variance the deployments use.
DiffCost replay_diff(const rddr::core::ProtocolPlugin& plugin,
                     const std::vector<std::vector<rddr::core::Unit>>& batches);

/// Bare event dispatch of a fresh sim::Simulator (self-rescheduling empty
/// events), per event.
double replay_events();

}  // namespace perfbench
