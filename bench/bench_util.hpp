// Shared helpers for the table/figure reproduction binaries.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "obs/export.hpp"

namespace p3s::benchutil {

/// Standard bench epilogue: print the metrics snapshot as aligned text and
/// write the JSON form to BENCH_<name>.json (in $P3S_BENCH_JSON_DIR when
/// set, else the working directory) for trajectory tooling. Set
/// P3S_BENCH_JSON=0 to skip the file. See OBSERVABILITY.md for the schema.
inline void emit_metrics(const std::string& name) {
  obs::Registry& reg = obs::Registry::global();
  std::printf("\n=== metrics snapshot (OBSERVABILITY.md) ===\n%s",
              obs::render_text(reg).c_str());
  const char* flag = std::getenv("P3S_BENCH_JSON");
  if (flag != nullptr && std::string(flag) == "0") return;
  const char* dir = std::getenv("P3S_BENCH_JSON_DIR");
  const std::string path =
      (dir != nullptr ? std::string(dir) + "/" : std::string()) + "BENCH_" +
      name + ".json";
  try {
    obs::write_json_file(reg, path);
    std::printf("[metrics json -> %s]\n", path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metrics json not written: %s\n", e.what());
  }
}

/// Wall-clock seconds for `iters` runs of `fn`, averaged.
inline double time_op(int iters, const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count() /
         static_cast<double>(iters);
}

inline std::string human_bytes(double bytes) {
  char buf[32];
  if (bytes >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.0fMB", bytes / (1024.0 * 1024.0));
  } else if (bytes >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.0fKB", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fB", bytes);
  }
  return buf;
}

inline std::string human_time(double seconds) {
  char buf[32];
  if (seconds >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fus", seconds * 1e6);
  }
  return buf;
}

}  // namespace p3s::benchutil
