// Model parameters (paper Table 1) with the crypto-cost knobs that the paper
// measured from its prototype. bench_table1_params re-measures them from OUR
// primitives and feeds them back into these structures, reproducing the
// paper's methodology end to end.
#pragma once

#include <cstddef>

namespace p3s::model {

struct ModelParams {
  // --- network (Table 1) ----------------------------------------------------
  double latency_s = 0.045;          ///< ℓ = 45 ms
  double bandwidth_bps = 10e6;       ///< ℬ = 10 Mbps (client links)
  double lan_bandwidth_bps = 100e6;  ///< DS↔RS LAN (paper §6.2 latency sketch)

  // --- sizes (Table 1) --------------------------------------------------------
  double metadata_ct_bytes = 10'000;  ///< P_E: PBE-encrypted metadata ≈ 10 KB
  double guid_bytes = 10;             ///< |GUID| ≈ 10 bytes
  std::size_t abe_policy_attrs = 10;  ///< v: attributes in CP-ABE policy
  std::size_t abe_k_bits = 384;       ///< k: CP-ABE security parameter

  // --- population -------------------------------------------------------------
  std::size_t n_subscribers = 100;  ///< N_s
  double match_fraction = 0.05;     ///< f

  // --- measured operation costs (paper §6.2 prose) -----------------------------
  double t_pbe_encrypt_s = 0.030;        ///< enc_P ≈ 30 ms
  double t_pbe_match_s = 0.030;          ///< t_PBE ≈ 30 ms (38 ms worst case)
  double t_abe_encrypt_s = 0.003;        ///< enc_A ("fairly fast", ≈ 3 ms)
  double t_abe_decrypt_s = 0.012;        ///< dec_A ≈ 12 ms
  double t_baseline_match_s = 0.00005;   ///< 0.05 ms per XPath subscription test

  // --- hardware threads ---------------------------------------------------------
  unsigned broker_threads = 4;     ///< z: broker matching threads (baseline)
  unsigned sub_match_threads = 2;  ///< w: subscriber PBE-match threads (paper: 2)

  // --- traffic-shaping overheads (DESIGN.md §11 hardening) ----------------------
  /// Fractional byte inflation from bucketed frame padding (0.0 = off). A
  /// frame padded to the next multiple of a bucket carries on average half a
  /// bucket of dead bytes; callers derive the fraction from their bucket /
  /// typical-frame-size ratio.
  double anon_pad_overhead = 0.0;
  /// Cover/decoy frames injected per genuine frame (0.0 = off). They cost
  /// wire time only: a cover broadcast is indistinguishable from a real one
  /// on the wire, but a subscriber's parse rejects its garbage before any
  /// pairing work.
  double anon_cover_fraction = 0.0;

  /// CP-ABE ciphertext size: c_A = c + 2vk (two group elements of k bits per
  /// policy attribute; paper: "estimated from theory to be c_A = 2vk + c").
  double abe_ct_bytes(double payload_bytes) const {
    return payload_bytes +
           2.0 * static_cast<double>(abe_policy_attrs) *
               static_cast<double>(abe_k_bits) / 8.0;
  }

  double serialization_s(double bytes, double bps) const {
    return bytes * 8.0 / bps;
  }

  /// Paper Table 1 values verbatim.
  static ModelParams paper_defaults() { return ModelParams{}; }
};

}  // namespace p3s::model
