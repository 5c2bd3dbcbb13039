// Instrumentation seam for the hermetic primitive layers (math, crypto,
// pairing). Those modules may not depend on src/obs (the layering DAG
// enforced by tools/p3s-lint forbids it), yet their hot paths are exactly
// the ones the observability layer wants to time. The inversion: primitives
// emit through this dependency-free probe API; src/obs installs a Sink that
// routes probe events into its Registry when (and only when) obs is linked
// into the process. With no sink installed every probe call is a single
// relaxed atomic load — test binaries that link only the primitive layers
// pay nothing and need no obs symbols.
//
// Names are interned once (string literals, catalogued in
// src/obs/catalog.hpp — the metric-vocab lint cross-checks every literal)
// into dense ids so the per-event path never hashes a string.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace p3s::probe {

/// Receiver side of the seam. Implemented by src/obs (Registry adapter);
/// `now` must return seconds on the sink's clock so simulated-time guards
/// keep working for probe-timed scopes.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual double now() const = 0;
  virtual void observe(std::size_t id, double value) = 0;  // histograms
  virtual void add(std::size_t id, std::uint64_t delta) = 0;  // counters
};

/// Intern a metric name (must be a string literal or otherwise outlive the
/// process) and return its dense id. Thread-safe; re-interning the same
/// spelling returns the same id.
std::size_t intern(const char* name);

/// The name interned as `id`, or nullptr (for sinks).
const char* interned_name(std::size_t id);

/// Install (or clear, with nullptr) the process-wide sink. The sink must
/// outlive all subsequent probe calls; installation is one atomic store.
void set_sink(Sink* sink);
Sink* sink();

inline void add(std::size_t id, std::uint64_t delta = 1) {
  if (Sink* s = sink()) s->add(id, delta);
}

inline void observe(std::size_t id, double value) {
  if (Sink* s = sink()) s->observe(id, value);
}

/// Times a scope on the sink's clock into the histogram `id`: `samples`
/// equal samples that sum to the elapsed time, one per operation of a
/// batch. Captures the sink once so install/clear races cannot mismatch
/// start/stop clocks.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::size_t id, std::size_t samples = 1)
      : id_(id), samples_(samples), sink_(sink()) {
    if (sink_ != nullptr) start_ = sink_->now();
  }
  ~ScopedTimer() {
    if (sink_ == nullptr || samples_ == 0) return;
    const double each =
        (sink_->now() - start_) / static_cast<double>(samples_);
    for (std::size_t i = 0; i < samples_; ++i) sink_->observe(id_, each);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::size_t id_;
  std::size_t samples_;
  Sink* sink_;
  double start_ = 0.0;
};

}  // namespace p3s::probe
