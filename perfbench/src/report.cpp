#include "report.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

namespace {

double status_kib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return std::stod(line.substr(prefix.size()));
  }
  return 0.0;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double rss_kib() { return status_kib("VmRSS"); }
double peak_rss_kib() { return status_kib("VmHWM"); }

const std::vector<const char*>& reported_spans() {
  static const std::vector<const char*> names = {
      "pub.publish",   "ds.publish",     "rs.store",      "rs.fetch",
      "rs.gc",         "anon.relay",     "ts.token",      "sub.subscribe",
      "sub.token",     "sub.match_miss", "sub.match_hit", "sub.deliver"};
  return names;
}

void span_metrics(const std::vector<Span>& spans, std::size_t pubs,
                  std::vector<Metric>& out) {
  const double n = static_cast<double>(pubs);
  std::map<std::string_view, std::vector<double>> durations;
  std::map<std::string_view, double> cpu;
  std::vector<double> waits;
  for (const Span& s : spans) {
    durations[s.name].push_back(s.end - s.start);
    cpu[s.name] += s.cpu;
    if (s.queued >= 0.0) waits.push_back(s.queued);
  }
  const auto total = [&](std::string_view name) {
    double sum = 0.0;
    for (const double d : durations[name]) sum += d;
    return sum;
  };
  for (const char* name : reported_spans()) {
    const std::vector<double>& d = durations[name];
    const std::string base(name);
    out.push_back({base + ".calls_per_pub", static_cast<double>(d.size()) / n,
                   "calls/pub"});
    out.push_back({base + ".ms_per_pub", total(name) * 1e3 / n, "ms/pub"});
    out.push_back({base + ".us_p50", quantile(d, 0.5) * 1e6, "us"});
  }
  const double hits = static_cast<double>(durations["sub.match_hit"].size());
  const double misses = static_cast<double>(durations["sub.match_miss"].size());
  out.push_back({"sub.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
                 "ratio"});

  out.push_back({"net.queue_wait_ms_p50", quantile(waits, 0.5) * 1e3, "ms"});
  const auto cpu_per_wall = [&](std::initializer_list<std::string_view> names) {
    double c = 0.0;
    double w = 0.0;
    for (const std::string_view name : names) {
      c += cpu[name];
      w += total(name);
    }
    return w > 0.0 ? c / w : 0.0;
  };
  out.push_back({"exec.sub_match_cpu_per_wall",
                 cpu_per_wall({"sub.match_miss", "sub.match_hit"}), "ratio"});
  out.push_back({"exec.pub_publish_cpu_per_wall", cpu_per_wall({"pub.publish"}),
                 "ratio"});
  out.push_back({"exec.ds_publish_cpu_per_wall", cpu_per_wall({"ds.publish"}),
                 "ratio"});
}

LayerTimes layer_times(const std::vector<Span>& spans) {
  // publish→deliver window of every publication that has a pub.publish span:
  // from the publish call to the end of its last subscriber dispatch.
  std::map<std::uint32_t, std::pair<double, double>> windows;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "pub.publish") windows[s.pub] = {s.start, s.end};
  }
  for (const Span& s : spans) {
    const auto it = windows.find(s.pub);
    if (it != windows.end() && s.role == Role::kSub && s.start >= it->second.first) {
      it->second.second = std::max(it->second.second, s.end);
    }
  }
  LayerTimes out;
  for (const auto& [pub, w] : windows) out.window += w.second - w.first;
  for (const Span& s : spans) {
    const auto it = windows.find(s.pub);
    if (it == windows.end() || s.start < it->second.first ||
        s.end > it->second.second) {
      continue;
    }
    out.self[s.name] += s.end - s.start;
    out.covered += s.end - s.start;
  }
  return out;
}

void print_layer_table(const LayerTimes& layers, std::size_t pubs, std::FILE* to) {
  const double n = static_cast<double>(pubs);
  std::fprintf(to, "self time by layer, publish -> last delivery (%zu publications)\n",
               pubs);
  std::fprintf(to, "  %-22s %12s %8s\n", "layer", "ms/pub", "share");
  const auto row = [&](const char* name, double seconds) {
    std::fprintf(to, "  %-22s %12.3f %7.1f%%\n", name, seconds * 1e3 / n,
                 layers.window > 0.0 ? 100.0 * seconds / layers.window : 0.0);
  };
  for (const char* name : reported_spans()) {
    const auto it = layers.self.find(name);
    if (it != layers.self.end()) row(name, it->second);
  }
  row("harness (uncovered)", layers.window - layers.covered);
  row("total", layers.window);
}

void write_chrome_trace(const std::vector<Span>& spans, const std::string& title,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const double t0 = spans.empty() ? 0.0 : spans.front().start;
  const auto us = [t0](double t) { return (t - t0) * 1e6; };
  const auto tid = [](Role role) { return static_cast<int>(role) + 1; };
  out.precision(17);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\""
      << title << "\"}}";
  for (std::size_t r = 0; r < kRoleCount; ++r) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << r + 1 << ",\"args\":{\"name\":\"" << role_name(static_cast<Role>(r))
        << "\"}}";
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"" << role_name(s.role)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid(s.role)
        << ",\"ts\":" << us(s.start) << ",\"dur\":" << (s.end - s.start) * 1e6
        << ",\"args\":{\"span\":" << i + 1 << ",\"parent\":" << s.parent
        << ",\"pub\":" << s.pub << ",\"cpu_us\":" << s.cpu * 1e6 << "}}";
    if (s.parent != 0) {
      const Span& p = spans[s.parent - 1];
      out << ",\n{\"name\":\"cause\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":" << i + 1
          << ",\"pid\":1,\"tid\":" << tid(p.role) << ",\"ts\":" << us(p.start)
          << "},\n{\"name\":\"cause\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
             "\"id\":"
          << i + 1 << ",\"pid\":1,\"tid\":" << tid(s.role)
          << ",\"ts\":" << us(s.start) << "}";
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
