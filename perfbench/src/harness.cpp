#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <stdexcept>

#include "p3s/messages.hpp"

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {
// 8-limb multiply-accumulate rows (the shape of the program's Montgomery
// products) interleaved with ChaCha-style add-rotate-xor rounds (the shape
// of its AEAD).
std::uint64_t calibration_kernel(int reps) {
  std::uint64_t a[8];
  std::uint64_t b[8];
  std::uint64_t t[17] = {};
  std::uint32_t x[16];
  for (int i = 0; i < 8; ++i) {
    a[i] = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1);
    b[i] = ~a[i] ^ static_cast<std::uint64_t>(i * 0x1234567);
  }
  for (int i = 0; i < 16; ++i) x[i] = 0x61707865u * static_cast<std::uint32_t>(i + 3);
  const auto rotl = [](std::uint32_t v, int n) { return (v << n) | (v >> (32 - n)); };
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < 8; ++i) {
      unsigned __int128 carry = 0;
      for (int j = 0; j < 8; ++j) {
        carry += static_cast<unsigned __int128>(a[i]) * b[j] + t[i + j];
        t[i + j] = static_cast<std::uint64_t>(carry);
        carry >>= 64;
      }
      t[i + 8] += static_cast<std::uint64_t>(carry);
    }
    for (int i = 0; i < 8; ++i) a[i] ^= t[i + 4];
    for (int k = 0; k < 4; ++k) {
      x[0] += x[4]; x[12] = rotl(x[12] ^ x[0], 16);
      x[8] += x[12]; x[4] = rotl(x[4] ^ x[8], 12);
      x[1] += x[5]; x[13] = rotl(x[13] ^ x[1], 8);
      x[9] += x[13]; x[5] = rotl(x[5] ^ x[9], 7);
    }
    b[r & 7] ^= x[r & 15];
  }
  return t[3] ^ a[5] ^ x[7];
}
}  // namespace

double calibration_seconds() {
  double best = 1e9;
  for (int i = 0; i < 3; ++i) {
    const double start = wall_now();
    const std::uint64_t v = calibration_kernel(1500);
    asm volatile("" : : "r"(v));
    best = std::min(best, wall_now() - start);
  }
  return best;
}

const char* role_name(Role role) {
  switch (role) {
    case Role::kPub: return "pub";
    case Role::kDs: return "ds";
    case Role::kRs: return "rs";
    case Role::kAnon: return "anon";
    case Role::kTs: return "ts";
    case Role::kSub: return "sub";
    case Role::kOther: break;
  }
  return "other";
}

// Endpoint names are the benchmark's own: P3sConfig's service names plus
// "pub" and "sub-NNN" (see the Deployment constructor in workload.cpp).
Role role_of(const std::string& endpoint) {
  if (endpoint == "pub") return Role::kPub;
  if (endpoint == "ds") return Role::kDs;
  if (endpoint == "rs") return Role::kRs;
  if (endpoint == "anon") return Role::kAnon;
  if (endpoint == "pbe-ts") return Role::kTs;
  if (endpoint.rfind("sub-", 0) == 0) return Role::kSub;
  return Role::kOther;
}

void BenchNetwork::register_endpoint(const std::string& name,
                                     Handler handler) {
  if (!endpoints_.emplace(name, Endpoint{std::move(handler), role_of(name)})
           .second) {
    throw std::invalid_argument("BenchNetwork: duplicate endpoint " + name);
  }
}

void BenchNetwork::unregister_endpoint(const std::string& name) {
  endpoints_.erase(name);
}

void BenchNetwork::withhold_content_response(std::uint64_t nth) {
  withhold_nth_ = nth;
  rs_responses_ = 0;
}

void BenchNetwork::send(const std::string& from, const std::string& to,
                        p3s::Bytes frame) {
  const Role sender = role_of(from);
  ++totals_.frames;
  totals_.bytes += frame.size();
  totals_.egress[static_cast<std::size_t>(sender)] += frame.size();
  sent_in_current_ = true;
  if (withhold_nth_ != 0 && sender == Role::kRs && !frame.empty() &&
      frame[0] ==
          static_cast<std::uint8_t>(p3s::core::FrameType::kContentResponse) &&
      ++rs_responses_ == withhold_nth_) {
    return;  // counted as sent, never delivered
  }
  queue_.push_back(Frame{from, to, std::move(frame), current_,
                         tracing_ ? wall_now() : 0.0});
  if (queue_.size() > depth_max_) depth_max_ = queue_.size();
}

const char* BenchNetwork::classify(const Span& span, bool sent) const {
  switch (span.role) {
    case Role::kPub:
      return "pub.ack";
    case Role::kDs:
      return span.from == Role::kPub ? "ds.publish" : "ds.register";
    case Role::kRs:
      return span.from == Role::kDs ? "rs.store" : "rs.fetch";
    case Role::kAnon:
      return "anon.relay";
    case Role::kTs:
      return "ts.token";
    case Role::kSub: {
      if (span.from == Role::kDs) {
        return sent ? "sub.match_hit" : "sub.match_miss";
      }
      // A response reaches the subscriber through the anonymizer: the
      // service that answered is the sender of the relay's input frame.
      Role origin = span.from;
      if (origin == Role::kAnon && span.parent != 0) {
        origin = spans_[span.parent - 1].from;
      }
      if (origin == Role::kRs) return "sub.deliver";
      if (origin == Role::kTs) return "sub.token";
      return "sub.other";
    }
    case Role::kOther:
      break;
  }
  return "other";
}

void BenchNetwork::run_until_idle() {
  const double drain_start = wall_now();
  while (!queue_.empty()) {
    Frame frame = std::move(queue_.front());
    queue_.pop_front();
    const auto it = endpoints_.find(frame.to);
    if (it == endpoints_.end()) continue;  // dropped, like a dead host
    // Copy: a receiver may unregister itself while handling.
    const Handler handler = it->second.handler;
    const Role role = it->second.role;
    if (!tracing_) {
      handler(frame.from, frame.bytes);
      if (role == Role::kSub) last_sub_end_ = wall_now();
      continue;
    }
    Span span;
    span.pub = pub_;
    span.role = role;
    span.from = role_of(frame.from);
    span.parent = frame.cause;
    span.cpu = cpu_now();
    span.start = wall_now();
    span.queued = span.start - frame.enqueued;
    current_ = static_cast<std::uint32_t>(spans_.size() + 1);
    sent_in_current_ = false;
    handler(frame.from, frame.bytes);
    span.end = wall_now();
    span.cpu = cpu_now() - span.cpu;
    current_ = 0;
    span.name = classify(span, sent_in_current_);
    if (role == Role::kSub) last_sub_end_ = span.end;
    spans_.push_back(span);
  }
  drain_seconds_ += wall_now() - drain_start;
}

void BenchNetwork::call(const char* name, Role role,
                        const std::function<void()>& fn) {
  if (!tracing_) {
    fn();
    return;
  }
  Span span;
  span.name = name;
  span.pub = pub_;
  span.role = role;
  span.from = role;
  span.cpu = cpu_now();
  span.start = wall_now();
  current_ = static_cast<std::uint32_t>(spans_.size() + 1);
  fn();
  span.end = wall_now();
  span.cpu = cpu_now() - span.cpu;
  current_ = 0;
  spans_.push_back(span);
}

}  // namespace perfbench
