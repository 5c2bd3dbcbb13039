#include "model/analytic.hpp"

#include <algorithm>
#include <stdexcept>

namespace p3s::model {

namespace {
// Hardened shaping (DESIGN.md §11): padding inflates every frame's wire
// cost, cover traffic multiplies the frame count — both scale the NIC-bound
// rates down by (1+pad)(1+cover).
double wire_shaping(const ModelParams& p) {
  return (1.0 + p.anon_pad_overhead) * (1.0 + p.anon_cover_fraction);
}

// Copies one relay-tree node serializes per publication: at most `fanout`,
// and never more than there are subscribers.
double relay_copies(const ModelParams& p, unsigned fanout) {
  if (fanout < 2) throw std::invalid_argument("relay tree needs fanout >= 2");
  return static_cast<double>(std::min<std::size_t>(fanout, p.n_subscribers));
}

unsigned tree_levels(std::size_t n, unsigned fanout) {
  unsigned levels = 0;
  std::size_t reach = 1;
  while (reach < n) {
    reach *= fanout;
    ++levels;
  }
  return levels == 0 ? 1 : levels;
}
}  // namespace

BaselineLatency baseline_latency(const ModelParams& p, double payload_bytes) {
  BaselineLatency out;
  // The baseline ships payload+metadata; SSL framing overhead is negligible
  // (paper: "difference in the size of cleartext and ciphertext is
  // insignificant").
  out.t1 = p.latency_s + p.serialization_s(payload_bytes, p.bandwidth_bps);
  out.t2 = static_cast<double>(p.n_subscribers) * p.t_baseline_match_s;
  out.t3 = p.match_fraction * static_cast<double>(p.n_subscribers) * out.t1;
  return out;
}

P3sLatency p3s_latency(const ModelParams& p, double payload_bytes) {
  P3sLatency out;
  const double ser_pe = p.serialization_s(p.metadata_ct_bytes, p.bandwidth_bps);
  const double c_a = p.abe_ct_bytes(payload_bytes);

  out.tp1 = p.latency_s + ser_pe + p.t_pbe_encrypt_s;
  out.tp2 = p.latency_s + static_cast<double>(p.n_subscribers) * ser_pe;
  out.tp3 = p.t_pbe_match_s;
  out.tp4 = p.latency_s + p.serialization_s(p.guid_bytes, p.bandwidth_bps);

  out.tb1 = p.latency_s + p.serialization_s(c_a, p.bandwidth_bps) +
            p.t_abe_encrypt_s;
  out.tb2 = p.latency_s + p.serialization_s(c_a, p.lan_bandwidth_bps);

  // Last matching subscriber: waits for the RS to serialize the payload to
  // all f·N_s requesters, plus latency, plus its CP-ABE decryption.
  out.tr = p.latency_s +
           p.serialization_s(c_a, p.bandwidth_bps) * p.match_fraction *
               static_cast<double>(p.n_subscribers) +
           p.t_abe_decrypt_s;
  return out;
}

BaselineThroughput baseline_throughput(const ModelParams& p,
                                       double payload_bytes) {
  BaselineThroughput out;
  out.r_match = static_cast<double>(p.broker_threads) /
                (static_cast<double>(p.n_subscribers) * p.t_baseline_match_s);
  out.r_send = p.bandwidth_bps /
               (payload_bytes * 8.0 * static_cast<double>(p.n_subscribers) *
                p.match_fraction);
  return out;
}

P3sThroughput p3s_throughput_hierarchical(const ModelParams& p,
                                          double payload_bytes,
                                          unsigned fanout) {
  P3sThroughput out = p3s_throughput(p, payload_bytes);
  // Each relay (including the DS root) serializes at most `fanout` copies
  // per publication instead of N_s.
  out.r_ds = p.bandwidth_bps / (p.metadata_ct_bytes * 8.0 *
                                relay_copies(p, fanout) * wire_shaping(p));
  return out;
}

P3sLatency p3s_latency_hierarchical(const ModelParams& p, double payload_bytes,
                                    unsigned fanout) {
  const double copies = relay_copies(p, fanout);
  P3sLatency out = p3s_latency(p, payload_bytes);
  const double ser_pe = p.serialization_s(p.metadata_ct_bytes, p.bandwidth_bps);
  const unsigned levels = tree_levels(p.n_subscribers, fanout);
  out.tp2 = static_cast<double>(levels) * (p.latency_s + copies * ser_pe);
  return out;
}

P3sThroughput p3s_throughput(const ModelParams& p, double payload_bytes) {
  P3sThroughput out;
  const double c_a = p.abe_ct_bytes(payload_bytes);
  // Cover and padding load the wire only: a subscriber's parse rejects a
  // cover broadcast's garbage before any pairing work, so the match rate
  // pays neither factor.
  out.r_ds = p.bandwidth_bps / (p.metadata_ct_bytes * 8.0 *
                                static_cast<double>(p.n_subscribers) *
                                wire_shaping(p));
  out.r_match = static_cast<double>(p.sub_match_threads) / p.t_pbe_match_s;
  out.r_rs = p.bandwidth_bps /
             (c_a * 8.0 * static_cast<double>(p.n_subscribers) *
              p.match_fraction * wire_shaping(p));
  return out;
}

}  // namespace p3s::model
