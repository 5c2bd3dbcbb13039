#include "common/probe.hpp"

#include <cstring>
#include <mutex>
#include <vector>

#include "common/annotations.hpp"

namespace p3s::probe {

namespace {
std::atomic<Sink*> g_sink{nullptr};

struct InternTable {
  std::mutex mutex;
  std::vector<const char*> names P3S_GUARDED_BY(mutex);
};

InternTable& table() {
  static InternTable* t = new InternTable();  // never destroyed
  return *t;
}
}  // namespace

std::size_t intern(const char* name) {
  InternTable& t = table();
  std::lock_guard<std::mutex> lock(t.mutex);
  for (std::size_t i = 0; i < t.names.size(); ++i) {
    if (std::strcmp(t.names[i], name) == 0) return i;
  }
  t.names.push_back(name);
  return t.names.size() - 1;
}

const char* interned_name(std::size_t id) {
  InternTable& t = table();
  std::lock_guard<std::mutex> lock(t.mutex);
  return id < t.names.size() ? t.names[id] : nullptr;
}

void set_sink(Sink* sink) { g_sink.store(sink, std::memory_order_release); }

Sink* sink() { return g_sink.load(std::memory_order_acquire); }

}  // namespace p3s::probe
