#include "harness/transfer.hpp"

#include "harness/parsim.hpp"

namespace rmrn::harness {

TransferReport runTransfer(const net::Topology& topology,
                           const TransferConfig& config) {
  return runParallelTransfer(topology, config,
                             {.target_regions = 1, .workers = 1})
      .transfer;
}

}  // namespace rmrn::harness
