// Test-side honest-but-curious (HBC) services, paper §6.1: a DS, RS,
// PBE-TS or anonymizer that follows the protocol but remembers everything
// that reaches it. Services keep no record of what they saw. A view
// rebuilds it from a WireLog: the frames the wire carried to that service,
// in wire order, each opened with the service's own key. Privacy tests can
// then check everything a curious service could read.
//
// Wire order is the order in which a service opens frames on a fault-free
// AsyncNetwork, which delivers frames in the order they were sent. The DS
// view replays the channels' sequence numbers in that order, so every test
// that uses a view runs without a fault plan.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/guid.hpp"
#include "common/serial.hpp"
#include "net/secure.hpp"
#include "p3s/anonymizer.hpp"
#include "p3s/dissemination.hpp"
#include "p3s/exchange.hpp"
#include "p3s/messages.hpp"
#include "wire_log.hpp"

namespace p3s::test {

/// One frame addressed to a service, as that service can read it.
struct SeenFrame {
  std::string from;
  core::FrameType type;
  Bytes bytes;
};
using HbcView = std::vector<SeenFrame>;

namespace hbc_detail {

inline SeenFrame as_crossed(const WireLog::Frame& f) {
  Reader r(f.bytes);
  return {f.from, core::read_frame_type(r), f.bytes};
}

}  // namespace hbc_detail

/// DS: a kChannelHello becomes that sender's session (it carries only the
/// session key, so it is not itself in the view). Each later kChannelRecord
/// from that sender is opened into its inner frame: the inner type and the
/// inner frame's bytes. Other frames, such as the RS's store acks, and
/// records the DS cannot open appear as they crossed.
inline HbcView ds_view(const WireLog& wire, const pairing::Pairing& pairing,
                       const core::DisseminationServer& ds) {
  HbcView view;
  std::map<std::string, net::SecureSession> sessions;
  for (const WireLog::Frame& f : wire.frames()) {
    if (f.to != ds.name()) continue;
    Reader r(f.bytes);
    const core::FrameType type = core::read_frame_type(r);
    if (type == core::FrameType::kChannelHello) {
      auto session =
          net::SecureSession::accept(pairing, ds.identity().secret, r.bytes());
      if (session.has_value()) {
        sessions.insert_or_assign(f.from, std::move(*session));
      }
      continue;
    }
    const auto it = sessions.find(f.from);
    if (type == core::FrameType::kChannelRecord && it != sessions.end()) {
      if (const auto inner = it->second.open(r.bytes())) {
        Reader ir(*inner);
        view.push_back({f.from, core::read_frame_type(ir), *inner});
        continue;
      }
    }
    view.push_back(hbc_detail::as_crossed(f));
  }
  return view;
}

/// RS and PBE-TS (`Service` is either): a kContentRequest or kTokenRequest
/// appears as its envelope opened with the service's key, that is
/// bytes(Ks) followed by the request fields: (Ks, GUID) or (Ks, certificate,
/// interest). Other frames, such as the DS's stores, appear as they crossed.
template <typename Service>
HbcView envelope_view(const WireLog& wire, const pairing::Pairing& pairing,
                      const Service& service) {
  HbcView view;
  for (const WireLog::Frame& f : wire.frames()) {
    if (f.to != service.name()) continue;
    Reader r(f.bytes);
    const core::FrameType type = core::read_frame_type(r);
    if (type == core::FrameType::kContentRequest ||
        type == core::FrameType::kTokenRequest) {
      const auto request = core::open_request(
          pairing, service.identity().secret, core::read_tagged(r).payload);
      if (request.has_value()) {
        Writer plain;
        plain.bytes(request->ks);
        plain.raw(request->fields);
        view.push_back({f.from, type, plain.take()});
        continue;
      }
    }
    view.push_back(hbc_detail::as_crossed(f));
  }
  return view;
}

/// Anonymizer: it holds no key for what it relays, so its frames appear as
/// they crossed.
inline HbcView anonymizer_view(const WireLog& wire,
                               const core::Anonymizer& anon) {
  HbcView view;
  for (const WireLog::Frame& f : wire.frames()) {
    if (f.to == anon.name()) view.push_back(hbc_detail::as_crossed(f));
  }
  return view;
}

/// What the anonymizer reads off each kAnonForward header.
struct Route {
  std::string requester;
  std::string destination;
};
inline std::vector<Route> anon_routes(const HbcView& anon) {
  std::vector<Route> routes;
  for (const SeenFrame& f : anon) {
    if (f.type != core::FrameType::kAnonForward) continue;
    Reader r(f.bytes);
    core::read_frame_type(r);
    routes.push_back({f.from, r.str()});
  }
  return routes;
}

/// How often each GUID was asked for, from an RS view's opened content
/// requests: the per-GUID count §6.1 allows the RS to keep.
inline std::map<Guid, std::size_t> requested_guids(const HbcView& rs) {
  std::map<Guid, std::size_t> counts;
  for (const SeenFrame& f : rs) {
    if (f.type != core::FrameType::kContentRequest) continue;
    Reader r(f.bytes);
    r.bytes();  // Ks
    ++counts[Guid::from_bytes(r.raw(Guid::kSize))];
  }
  return counts;
}

/// Does any frame of `view` contain `needle` as a byte substring?
inline bool contains(const HbcView& view, BytesView needle) {
  return std::any_of(view.begin(), view.end(), [&](const SeenFrame& f) {
    return std::search(f.bytes.begin(), f.bytes.end(), needle.begin(),
                       needle.end()) != f.bytes.end();
  });
}

}  // namespace p3s::test
