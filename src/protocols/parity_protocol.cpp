#include "protocols/parity_protocol.hpp"

#include <stdexcept>

namespace rmrn::protocols {

template class NackWaveProtocol<ParityDecoder>;

ParityProtocol::ParityProtocol(sim::SimNetwork& network,
                               metrics::RecoveryMetrics& metrics,
                               const ProtocolConfig& config,
                               const ParityConfig& parity_config)
    : NackWaveProtocol(network, metrics, config, parity_config.block_size,
                       parity_config.gather_window_ms, ParityDecoder{}),
      parity_(parity_config) {
  if (parity_.block_size == 0 || parity_.gather_window_ms < 0.0) {
    throw std::invalid_argument("ParityProtocol: bad parity config");
  }
}

}  // namespace rmrn::protocols
