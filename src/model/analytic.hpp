// The paper's §6.2 analytic end-to-end latency and throughput models for the
// baseline broker and for P3S, with per-term breakdowns so benches can print
// the same decomposition as Fig. 6/7.
#pragma once

#include "model/params.hpp"

namespace p3s::model {

// --- Latency (paper Fig. 6) --------------------------------------------------------

struct BaselineLatency {
  double t1;  ///< publisher → broker: ℓ + ser(c)
  double t2;  ///< broker matching: N_s · t_match
  double t3;  ///< broker → matching subscribers: f·N_s · t1
  double total() const { return t1 + t2 + t3; }
};

struct P3sLatency {
  // metadata path (t_p):
  double tp1;  ///< PBE-encrypt + send metadata to DS: ℓ + ser(P_E) + enc_P
  double tp2;  ///< DS fan-out, last subscriber: ℓ + N_s·ser(P_E)
  double tp3;  ///< local PBE match: t_PBE
  double tp4;  ///< content request to RS: ℓ + ser(G)
  // content path (t_b):
  double tb1;  ///< CP-ABE encrypt + send to DS: ℓ + ser(c_A) + enc_A
  double tb2;  ///< DS → RS over the LAN: ℓ + ser_LAN(c_A)
  // response path (t_r):
  double tr;   ///< RS → all f·N_s matching subscribers + dec_A

  double metadata_path() const { return tp1 + tp2 + tp3 + tp4; }
  double content_path() const { return tb1 + tb2; }
  /// t_P = max(t_p, t_b) + t_r (worst case; see paper).
  double total() const {
    const double tp = metadata_path();
    const double tb = content_path();
    return (tp > tb ? tp : tb) + tr;
  }
};

BaselineLatency baseline_latency(const ModelParams& p, double payload_bytes);
P3sLatency p3s_latency(const ModelParams& p, double payload_bytes);

// --- Throughput (paper Fig. 7), publications per second ------------------------------

struct BaselineThroughput {
  double r_match;  ///< z / (N_s · t_match)
  double r_send;   ///< ℬ / (c · N_s · f)
  double total() const { return r_match < r_send ? r_match : r_send; }
  const char* bottleneck() const {
    return r_match < r_send ? "broker-matching" : "broker-nic";
  }
};

struct P3sThroughput {
  double r_ds;     ///< ℬ / (P_E · N_s): DS metadata broadcast
  double r_match;  ///< w / t_PBE: subscriber-local matching
  double r_rs;     ///< ℬ / (c_A · N_s · f): RS payload service
  double total() const {
    double m = r_ds;
    if (r_match < m) m = r_match;
    if (r_rs < m) m = r_rs;
    return m;
  }
  const char* bottleneck() const {
    if (r_ds <= r_match && r_ds <= r_rs) return "ds-nic";
    if (r_match <= r_rs) return "subscriber-matching";
    return "rs-nic";
  }
};

BaselineThroughput baseline_throughput(const ModelParams& p,
                                       double payload_bytes);
P3sThroughput p3s_throughput(const ModelParams& p, double payload_bytes);

// --- Hierarchical dissemination (paper §6.2: "This issue can be addressed by
// reconfiguring the P3S architecture to use hierarchical dissemination") ------

/// P3S throughput when the DS broadcast runs over a relay tree of fan-out
/// `fanout`: each node forwards the PBE metadata to at most `fanout`
/// children, so the per-NIC broadcast cost drops from N_s·ser(P_E) to
/// fanout·ser(P_E). Throws std::invalid_argument when fanout < 2.
P3sThroughput p3s_throughput_hierarchical(const ModelParams& p,
                                          double payload_bytes,
                                          unsigned fanout);

/// Latency with the relay tree: the fan-out term becomes
/// levels·(ℓ + fanout·ser(P_E)) with levels = ceil(log_fanout(N_s)).
/// Throws std::invalid_argument when fanout < 2.
P3sLatency p3s_latency_hierarchical(const ModelParams& p, double payload_bytes,
                                    unsigned fanout);

}  // namespace p3s::model
