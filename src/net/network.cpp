#include "net/network.hpp"

#include <stdexcept>

namespace p3s::net {

void EndpointTable::add(const std::string& name, Network::Handler handler) {
  if (!handlers_.emplace(name, std::move(handler)).second) {
    throw std::invalid_argument("duplicate endpoint '" + name + "'");
  }
}

bool EndpointTable::deliver(const std::string& from, const std::string& to,
                            BytesView frame) const {
  const auto it = handlers_.find(to);
  if (it == handlers_.end()) return false;
  // Copy the handler: the receiver may unregister itself while handling.
  const Network::Handler handler = it->second;
  handler(from, frame);
  return true;
}

void DirectNetwork::send(const std::string& from, const std::string& to,
                         Bytes frame) {
  ++tick_;
  observe(from, to, frame.size(), frame);
  endpoints_.deliver(from, to, frame);
}

}  // namespace p3s::net
