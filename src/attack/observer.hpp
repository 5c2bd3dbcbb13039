// Eavesdropper's instrument (DESIGN.md §11): what an adversary on the wire
// records. Fed from a network's wire tap, it keeps each frame as a
// Sighting — time, endpoints, size — and never copies the ciphertext
// bytes, so no attack built on this observer can accidentally depend on
// frame CONTENT. Everything the adversarial workload suite infers, it
// infers from shape alone (the paper's §6.1 network-observer model).
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "net/network.hpp"

namespace p3s::attack {

/// Frame metadata available to a wire eavesdropper. Deliberately excludes
/// the frame bytes (see file comment).
struct Sighting {
  double time = 0.0;
  std::string from;
  std::string to;
  std::size_t size = 0;
};

struct LinkStats {
  std::size_t frames = 0;
  std::size_t bytes = 0;
};

/// Thread-safe per-link accumulator for the parallel sweep in
/// EavesdropperObserver::link_tally(). Accumulation is commutative, so the
/// tally is deterministic regardless of worker interleaving.
class LinkTally {
 public:
  void add(const Sighting& s) {
    std::lock_guard<std::mutex> lock(mutex_);
    LinkStats& stats = links_[{s.from, s.to}];
    ++stats.frames;
    stats.bytes += s.size;
  }

  std::map<std::pair<std::string, std::string>, LinkStats> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return links_;
  }

 private:
  mutable std::mutex mutex_;  // guards the tally during the parallel sweep
  std::map<std::pair<std::string, std::string>, LinkStats> links_
      P3S_GUARDED_BY(mutex_);
};

class EavesdropperObserver {
 public:
  /// Become `net`'s wire tap: from now on every frame is kept as a
  /// Sighting. The observer must outlive every later send on `net`.
  void watch(net::Network& net) {
    net.set_tap([this](const net::TrafficRecord& rec) {
      sightings_.push_back(
          {rec.time, std::string(rec.from), std::string(rec.to), rec.size});
    });
  }

  const std::vector<Sighting>& sightings() const { return sightings_; }

  /// Frames from → to, in wire order. An empty string is a wildcard.
  std::vector<Sighting> on_link(const std::string& from,
                                const std::string& to) const;

  /// Did `from` send anything to `to` in (after, until]?
  bool sent_in_window(const std::string& from, const std::string& to,
                      double after, double until) const;

  /// Per-link frame/byte totals, swept in parallel on the global pool.
  std::map<std::pair<std::string, std::string>, LinkStats> link_tally() const;

  /// Distinct frame sizes seen on a link — the padding check: a hardened
  /// link collapses onto bucket multiples.
  std::set<std::size_t> sizes_on(const std::string& from,
                                 const std::string& to) const;

 private:
  std::vector<Sighting> sightings_;
};

}  // namespace p3s::attack
