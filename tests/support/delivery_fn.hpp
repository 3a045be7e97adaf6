// A sim::DeliverySink that hands every arrival to a callable, for tests that
// watch or react to deliveries.  It absorbs nothing, so every arrival fires
// as an event; installed in front of a protocol, it runs the protocol with
// no arrival absorbed (the reference an absorbing run must equal).
#pragma once

#include <functional>
#include <utility>

#include "net/types.hpp"
#include "sim/network.hpp"
#include "sim/packet.hpp"

namespace rmrn::test_support {

class DeliveryFn final : public sim::DeliverySink {
 public:
  using Handler = std::function<void(net::NodeId, const sim::Packet&)>;

  explicit DeliveryFn(Handler handler) : handler_(std::move(handler)) {}

  void deliver(net::NodeId at, const sim::Packet& packet) override {
    handler_(at, packet);
  }

 private:
  Handler handler_;
};

}  // namespace rmrn::test_support
