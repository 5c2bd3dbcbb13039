// Turning a run into numbers: percentiles, process memory, the per-layer
// metrics and self-time table of a traced pass, and its Chrome trace export.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "probe.hpp"

namespace perfbench {

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// VmRSS / VmHWM of this process in KiB (0 when /proc is unavailable).
double rss_kib();
double peak_rss_kib();

/// The span names the harness records, in the order they are reported.
const std::vector<const char*>& reported_spans();

/// Per-span calls, time and median, hit ratio, queueing and per-layer CPU
/// parallelism of the traced measured phase.
void span_metrics(const std::vector<Span>& spans, std::size_t pubs,
                  std::vector<Metric>& out);

/// Self time by span name inside every publish→deliver window (the publish
/// call to the end of its last subscriber dispatch). Queued dispatch never
/// nests spans, so a span's duration is its self time.
struct LayerTimes {
  std::map<std::string_view, double> self;  // seconds per span name
  double window = 0.0;                      // all windows together
  double covered = 0.0;                     // the sum of `self`
  double coverage() const { return window > 0.0 ? covered / window : 0.0; }
};
LayerTimes layer_times(const std::vector<Span>& spans);

/// One row per span name plus the harness's uncovered remainder; the rows
/// sum to the windows.
void print_layer_table(const LayerTimes& layers, std::size_t pubs, std::FILE* to);

/// Chrome trace-event JSON (opens in Perfetto): one complete event per span
/// with its parent and publication, plus flow arrows along parent links.
void write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& title, const std::string& path);

}  // namespace perfbench
