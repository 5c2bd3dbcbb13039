// Test-side eavesdropper: a network's wire tap that keeps a copy of every
// frame, in wire order. Networks keep no such copy themselves; tests that
// assert on what crossed the wire create one of these next to the network.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "net/network.hpp"

namespace p3s::test {

class WireLog {
 public:
  struct Frame {
    double time = 0.0;
    std::string from;
    std::string to;
    std::size_t size = 0;
    Bytes bytes;
  };

  /// Become `net`'s tap until destroyed; `net` must outlive the log.
  explicit WireLog(net::Network& net) : net_(net) {
    net_.set_tap([this](const net::TrafficRecord& rec) {
      frames_.push_back({rec.time, std::string(rec.from), std::string(rec.to),
                         rec.size, Bytes(rec.frame.begin(), rec.frame.end())});
    });
  }
  ~WireLog() { net_.set_tap(nullptr); }
  WireLog(const WireLog&) = delete;
  WireLog& operator=(const WireLog&) = delete;

  const std::vector<Frame>& frames() const { return frames_; }
  std::size_t size() const { return frames_.size(); }
  void clear() { frames_.clear(); }

  /// Does any frame contain `needle` as a byte substring?
  bool contains(BytesView needle) const {
    return std::any_of(frames_.begin(), frames_.end(), [&](const Frame& f) {
      return std::search(f.bytes.begin(), f.bytes.end(), needle.begin(),
                         needle.end()) != f.bytes.end();
    });
  }

  /// Frames sent from → to.
  std::size_t count(const std::string& from, const std::string& to) const {
    return static_cast<std::size_t>(
        std::count_if(frames_.begin(), frames_.end(), [&](const Frame& f) {
          return f.from == from && f.to == to;
        }));
  }

 private:
  net::Network& net_;
  std::vector<Frame> frames_;
};

}  // namespace p3s::test
