// Every harness::RunCounters field by name, for field-wise test checks.
//
// The list is written out here, independently of the merge's own field
// list in src/harness/experiment.cpp, so a counter the merge drops shows up
// as a named mismatch; the static_assert fails when a counter is added to
// RunCounters but not here.  The event counts and absorbed_arrivals stay
// out of the list: parallel runs fire extra handoff events and absorb no
// arrival, so only some checks compare them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>

#include "harness/experiment.hpp"

namespace rmrn::test_support {

inline constexpr std::size_t kNamedCounters = 25;
using NamedCounters =
    std::array<std::pair<std::string_view, std::uint64_t>, kNamedCounters>;

/// Every counter but the event counts (absorbed_arrivals, events_processed,
/// events_by_kind), in declaration order.
[[nodiscard]] inline NamedCounters namedCounters(
    const harness::RunCounters& c) {
  return {{
      {"losses", c.losses},
      {"recoveries", c.recoveries},
      {"recovery_hops", c.recovery_hops},
      {"data_hops", c.data_hops},
      {"source_requests", c.source_requests},
      {"duplicate_deliveries", c.duplicate_deliveries},
      {"retries", c.retries},
      {"timeouts", c.timeouts},
      {"blacklist_events", c.blacklist_events},
      {"failovers", c.failovers},
      {"source_fallbacks", c.source_fallbacks},
      {"abandoned", c.abandoned},
      {"residual", c.residual},
      {"chaos_link_drops", c.chaos_link_drops},
      {"duplicates_created", c.duplicates_created},
      {"duplicate_requests_suppressed", c.duplicate_requests_suppressed},
      {"duplicate_sessions", c.duplicate_sessions},
      {"abandoned_sessions", c.abandoned_sessions},
      {"unreachable_clients", c.unreachable_clients},
      {"reachable_losses", c.reachable_losses},
      {"reachable_recoveries", c.reachable_recoveries},
      {"residual_reachable", c.residual_reachable},
      {"source_repair_multicasts", c.source_repair_multicasts},
      {"fec_nacks_sent", c.fec_nacks_sent},
      {"recovery_digest", c.recovery_digest},
  }};
}

static_assert(sizeof(harness::RunCounters) ==
                  (kNamedCounters + 2) * sizeof(std::uint64_t) +
                      sizeof(harness::RunCounters::events_by_kind),
              "namedCounters() misses a RunCounters field");

}  // namespace rmrn::test_support
