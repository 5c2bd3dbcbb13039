// Privacy-safe observability: a low-overhead metrics registry (monotonic
// counters, gauges, fixed-bucket latency/size histograms) plus lightweight
// trace spans. Design constraints, in order:
//
//  1. Privacy (paper §6.1 threat model). Metric names and label key/values
//     are a CLOSED vocabulary: lowercase [a-z0-9_.] identifiers registered
//     up front (src/obs/catalog.hpp). Runtime data — subscriber interest,
//     metadata values, payload bytes, pseudonyms, endpoint names — can
//     never flow into a name, a label, or an exported snapshot; the
//     registry rejects anything outside the vocabulary charset at
//     registration time and tests/obs_test.cpp + tests/privacy_test.cpp
//     machine-check exported snapshots for leaks.
//  2. Overhead. The hot write paths (Counter::inc, Gauge::set,
//     Histogram::record) are lock-free (relaxed atomics, counters sharded
//     across cache lines for concurrent writers) and allocation-free; a
//     disabled registry reduces every write to one relaxed atomic load.
//  3. Time. Latency spans ride the registry clock: std::steady_clock by
//     default, or whatever clock a ClockGuard installs (a test can install
//     a network's logical clock).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/annotations.hpp"

namespace p3s::obs {

enum class MetricType { kCounter, kGauge, kHistogram };

/// Label set attached to a metric instance. Keys and values must be drawn
/// from the closed vocabulary charset ([a-z0-9_], value also allows '.');
/// they are part of the metric identity ("name{k=v,...}").
using Labels = std::map<std::string, std::string, std::less<>>;

/// Monotonic counter. Sharded across cache lines so concurrent writers do
/// not bounce one line; reads sum the shards (eventually exact: inc is a
/// single relaxed fetch_add, so no increment is ever lost).
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    shard().fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  friend class Registry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  static constexpr std::size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::atomic<std::uint64_t>& shard() noexcept {
    // Cheap thread->shard mapping; collisions only cost contention.
    const auto id =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return shards_[id % kShards].v;
  }
  void reset() noexcept {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }
  std::array<Shard, kShards> shards_;
  const std::atomic<bool>* enabled_;
};

/// Last-write-wins signed gauge (queue depths, session counts, item counts).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }
  std::atomic<std::int64_t> value_{0};
  const std::atomic<bool>* enabled_;
};

/// Fixed-bucket histogram with atomic bucket counts. Bucket upper bounds are
/// chosen at registration (exponential_bounds below); the last bucket is an
/// implicit +inf overflow. Percentiles interpolate linearly inside the
/// winning bucket, so their resolution is one bucket width by construction.
class Histogram {
 public:
  /// `count` bounds: start, start*factor, start*factor^2, ...
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t count);
  /// Default latency bounds: 1us .. ~137s, factor 2 (28 buckets).
  static std::vector<double> latency_bounds() {
    return exponential_bounds(1e-6, 2.0, 28);
  }
  /// Default size bounds: 16B .. 1GB, factor 4 (14 buckets).
  static std::vector<double> size_bounds() {
    return exponential_bounds(16.0, 4.0, 14);
  }

  void record(double value) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept;
  double mean() const noexcept {
    const auto n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  /// p in [0,1]; returns 0 when empty. Linear interpolation in-bucket.
  double percentile(double p) const noexcept;
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Observation count at or below bounds_[i] (plus overflow at size()).
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Histogram(const std::atomic<bool>* enabled, std::vector<double> bounds);
  void reset() noexcept;

  std::vector<double> bounds_;                    // sorted upper bounds
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // double bits, CAS-accumulated
  const std::atomic<bool>* enabled_;
};

/// One completed trace span: which catalogued operation ran, when (registry
/// clock), and for how long. `name` points at the interned metric name — a
/// closed-vocabulary string, never runtime data.
struct SpanRecord {
  const char* name = nullptr;
  double start = 0.0;
  double duration = 0.0;
};

struct MetricSnapshot {
  std::string name;  // "base{k=v,...}" when labeled
  MetricType type;
  std::string unit;
  std::string help;
  std::uint64_t counter_value = 0;
  std::int64_t gauge_value = 0;
  std::uint64_t count = 0;  // histogram
  double sum = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

struct RegistrySnapshot {
  double time = 0.0;  // registry clock at snapshot
  bool enabled = true;
  std::vector<MetricSnapshot> metrics;  // sorted by name
  std::vector<SpanRecord> spans;        // most recent first, bounded
};

/// Metric registry. Registration (counter/gauge/histogram) takes a mutex and
/// may allocate; callers cache the returned reference (stable for the
/// registry's lifetime) so the hot path never touches the map again.
class Registry {
 public:
  using Clock = std::function<double()>;

  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide default registry, pre-registered with the full P3S
  /// metric catalogue (src/obs/catalog.hpp).
  static Registry& global();

  /// Get-or-create. Throws std::invalid_argument when the name or a label
  /// violates the closed vocabulary, or when the name exists with a
  /// different type. unit/help are recorded on first registration.
  Counter& counter(std::string_view name, const Labels& labels = {},
                   std::string_view unit = "1", std::string_view help = "");
  Gauge& gauge(std::string_view name, const Labels& labels = {},
               std::string_view unit = "1", std::string_view help = "");
  Histogram& histogram(std::string_view name, const Labels& labels = {},
                       std::string_view unit = "seconds",
                       std::string_view help = "",
                       std::vector<double> bounds = {});

  /// Master switch. Disabled: every write is one relaxed load, timers skip
  /// the clock read entirely.
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Time source for spans/timers, in seconds. Default: steady_clock.
  /// Pass nullptr to restore the default. Prefer ClockGuard (RAII).
  void set_clock(Clock clock);
  double now() const;

  /// Record a completed span into the bounded ring (drops oldest).
  void record_span(const char* name, double start, double duration);

  /// Zero all metric values and spans; registrations are kept.
  void reset();

  /// Consistent, name-sorted view for the exporters.
  RegistrySnapshot snapshot() const;

  /// True when `name` + every label key/value fit the closed vocabulary.
  static bool valid_name(std::string_view name);
  static bool valid_label(std::string_view key, std::string_view value);

 private:
  struct Entry {
    MetricType type;
    std::string unit;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& find_or_create(std::string_view name, const Labels& labels,
                        MetricType type, std::string_view unit,
                        std::string_view help, std::vector<double> bounds);

  static constexpr std::size_t kSpanRing = 1024;

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> metrics_ P3S_GUARDED_BY(mutex_);
  std::atomic<bool> enabled_{true};
  Clock clock_ P3S_GUARDED_BY(mutex_);  // empty = steady_clock

  std::array<SpanRecord, kSpanRing> spans_{};
  std::atomic<std::uint64_t> span_next_{0};
};

/// RAII clock override: installs `clock` on construction, restores the
/// steady default on destruction.
class ClockGuard {
 public:
  ClockGuard(Registry& registry, Registry::Clock clock) : registry_(registry) {
    registry_.set_clock(std::move(clock));
  }
  ~ClockGuard() { registry_.set_clock(nullptr); }
  ClockGuard(const ClockGuard&) = delete;
  ClockGuard& operator=(const ClockGuard&) = delete;

 private:
  Registry& registry_;
};

/// Times a scope on the registry clock into a histogram, optionally also
/// recording a trace span (pass the interned metric name). Does nothing —
/// not even a clock read — when the registry is disabled.
class ScopedTimer {
 public:
  ScopedTimer(Registry& registry, Histogram& histogram,
              const char* span_name = nullptr)
      : registry_(registry), histogram_(histogram), span_name_(span_name) {
    if (registry_.enabled()) {
      armed_ = true;
      start_ = registry_.now();
    }
  }
  ~ScopedTimer() {
    if (!armed_) return;
    const double dt = registry_.now() - start_;
    histogram_.record(dt);
    if (span_name_ != nullptr) registry_.record_span(span_name_, start_, dt);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Registry& registry_;
  Histogram& histogram_;
  const char* span_name_;
  double start_ = 0.0;
  bool armed_ = false;
};

}  // namespace p3s::obs
