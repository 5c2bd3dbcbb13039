#include "probe.hpp"

#include <algorithm>
#include <stdexcept>

#include "abe/cpabe.hpp"
#include "common/serial.hpp"
#include "crypto/aead.hpp"
#include "crypto/sha256.hpp"
#include "net/secure.hpp"
#include "pairing/ecies.hpp"
#include "pbe/hve.hpp"

namespace perfbench {

namespace {

using p3s::Bytes;
namespace pairing = p3s::pairing;
namespace pbe = p3s::pbe;

// Keeps a probed result observable so the call cannot be dropped.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// Median seconds per call of `fn`: at least `min_reps` calls, then more
/// until about `budget` seconds were spent.
template <typename F>
double median_seconds(F&& fn, int min_reps = 5, double budget = 0.15) {
  std::vector<double> times;
  double spent = 0.0;
  while (static_cast<int>(times.size()) < min_reps ||
         (spent < budget && times.size() < 1000)) {
    const double start = wall_now();
    fn();
    const double dt = wall_now() - start;
    times.push_back(dt);
    spent += dt;
  }
  std::sort(times.begin(), times.end());
  const std::size_t n = times.size();
  return n % 2 == 1 ? times[n / 2] : 0.5 * (times[n / 2 - 1] + times[n / 2]);
}

/// Random metadata that matches the interest at `hit` (none when hit is
/// out of range) and no other interest of `interests`.
pbe::Metadata metadata_for(const pbe::MetadataSchema& schema,
                           const std::vector<pbe::Interest>& interests,
                           std::size_t hit, p3s::Rng& gen) {
  for (;;) {
    pbe::Metadata md;
    for (const auto& spec : schema.attributes()) {
      md[spec.name] = spec.values[gen.uniform(spec.values.size())];
    }
    if (hit < interests.size()) {
      for (const auto& [attr, value] : interests[hit]) md[attr] = value;
    }
    bool ok = true;
    for (std::size_t i = 0; i < interests.size(); ++i) {
      if (i != hit && pbe::interest_matches(interests[i], md)) ok = false;
    }
    if (ok) return md;
  }
}

}  // namespace

void probe_primitives(const Scenario& scenario, Deployment& deployment,
                      std::vector<Metric>& out) {
  const pairing::Pairing& p = deployment.pairing();
  const auto pairing_ptr = deployment.system().ara().abe_pk().pairing;
  const pbe::HveKeys& hve_keys = deployment.system().ara().hve_keys();
  const WorkloadSpec& spec = *scenario.spec;
  p3s::TestRng rng(0x9e3779b97f4a7c15ull ^ spec.payload_bytes);
  const auto us = [&](const char* name, double seconds) {
    out.push_back({name, seconds * 1e6, "us"});
  };

  // --- pbe: the subscriber's tokens and one broadcast that hits the last.
  const std::vector<pbe::Interest>& interests = deployment.interests(0);
  std::vector<pbe::HveToken> tokens;
  std::vector<std::uint32_t> positions;
  for (const auto& interest : interests) {
    tokens.push_back(pbe::hve_gen_token(
        hve_keys, scenario.schema.encode_interest(interest), rng));
    positions.insert(positions.end(), tokens.back().positions.begin(),
                     tokens.back().positions.end());
  }
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  std::vector<const pbe::HveToken*> token_ptrs;
  for (const auto& t : tokens) token_ptrs.push_back(&t);
  const Bytes guid = rng.bytes(16);
  const auto encrypt = [&](const pbe::Metadata& md) {
    return pbe::hve_encrypt_bytes(hve_keys.pk,
                                  scenario.schema.encode_metadata(md), guid, rng);
  };
  const Bytes hit_ct =
      encrypt(metadata_for(scenario.schema, interests, interests.size() - 1, rng));
  const Bytes miss_ct =
      encrypt(metadata_for(scenario.schema, interests, interests.size(), rng));
  const pbe::BitVector bits = scenario.schema.encode_metadata(
      metadata_for(scenario.schema, interests, interests.size(), rng));
  us("pbe.encrypt_us", median_seconds([&] {
       keep(pbe::hve_encrypt_bytes(hve_keys.pk, bits, guid, rng));
     }, 3));
  const Bytes kem = p3s::Reader(miss_ct).bytes();
  us("pbe.ct_deserialize_us", median_seconds([&] {
       keep(pbe::HveCiphertext::deserialize(p, kem));
     }));
  us("pbe.match_prepare_us", median_seconds([&] {
       keep(pbe::hve_match_prepare(p, miss_ct, &positions));
     }));
  const pbe::HveMatchCt miss = pbe::hve_match_prepare(p, miss_ct, &positions);
  const pbe::HveMatchCt hit = pbe::hve_match_prepare(p, hit_ct, &positions);
  if (pbe::hve_match_any(p, token_ptrs, miss).matched() ||
      !pbe::hve_match_any(p, token_ptrs, hit).matched()) {
    throw std::logic_error("probe: HVE match disagrees with the plaintext");
  }
  us("pbe.match_any_miss_us", median_seconds([&] {
       keep(pbe::hve_match_any(p, token_ptrs, miss));
     }));
  us("pbe.match_any_hit_us", median_seconds([&] {
       keep(pbe::hve_match_any(p, token_ptrs, hit));
     }));
  const pbe::Pattern pattern = scenario.schema.encode_interest(interests.front());
  us("pbe.gen_token_us", median_seconds([&] {
       keep(pbe::hve_gen_token(hve_keys, pattern, rng));
     }));

  // --- abe: the workload's policy over (GUID, payload), as the publisher
  // encrypts it.
  const p3s::abe::CpabeKeys abe_keys = p3s::abe::cpabe_setup(pairing_ptr, rng);
  const std::set<std::string> granted{"staff", "cleared"};
  const auto sk = p3s::abe::cpabe_keygen(abe_keys, granted, rng);
  const auto sk_denied = p3s::abe::cpabe_keygen(abe_keys, {"staff"}, rng);
  p3s::Writer tuple;
  tuple.raw(guid);
  tuple.bytes(rng.bytes(spec.payload_bytes));
  const Bytes abe_ct = p3s::abe::cpabe_encrypt_bytes(abe_keys.pk, tuple.data(),
                                                     scenario.policy, rng);
  if (!p3s::abe::cpabe_decrypt_bytes(abe_keys.pk, sk, abe_ct).has_value() ||
      p3s::abe::cpabe_decrypt_bytes(abe_keys.pk, sk_denied, abe_ct).has_value()) {
    throw std::logic_error("probe: CP-ABE decrypt disagrees with the policy");
  }
  us("abe.encrypt_us", median_seconds([&] {
       keep(p3s::abe::cpabe_encrypt_bytes(abe_keys.pk, tuple.data(),
                                         scenario.policy, rng));
     }));
  us("abe.decrypt_us", median_seconds([&] {
       keep(p3s::abe::cpabe_decrypt_bytes(abe_keys.pk, sk, abe_ct));
     }));
  us("abe.decrypt_denied_us", median_seconds([&] {
       keep(p3s::abe::cpabe_decrypt_bytes(abe_keys.pk, sk_denied, abe_ct));
     }));
  us("abe.keygen_us", median_seconds([&] {
       keep(p3s::abe::cpabe_keygen(abe_keys, granted, rng));
     }));

  // --- pairing: 12-term products (the 6 probed positions × 2 of one token).
  constexpr std::size_t kTerms = 12;
  std::vector<pairing::PairTerm> terms;
  std::vector<pairing::MillerPrecomp> precomps;
  for (std::size_t i = 0; i < kTerms; ++i) {
    terms.push_back({p.random_g1(rng), p.random_g1(rng)});
    precomps.push_back(p.miller_precompute(terms.back().p));
  }
  std::vector<pairing::PrecompPairTerm> precomp_terms;
  for (std::size_t i = 0; i < kTerms; ++i) {
    precomp_terms.push_back({&precomps[i], terms[i].q});
  }
  us("pairing.pair_product_us", median_seconds([&] {
       keep(p.pair_product(terms));
     }));
  us("pairing.pair_product_precomp_us", median_seconds([&] {
       keep(p.pair_product_precomp(precomp_terms));
     }));
  us("pairing.miller_precompute_us", median_seconds([&] {
       keep(p.miller_precompute(terms[0].p));
     }));
  const pairing::Point point = p.random_g1(rng);
  const auto scalar = p.random_nonzero_scalar(rng);
  us("pairing.g1_mul_us", median_seconds([&] {
       keep(p.mul(point, scalar));
     }));
  us("pairing.g1_mul_gen_us", median_seconds([&] {
       keep(p.mul(p.generator(), scalar));
     }));
  const pairing::Fq2 gt = p.random_gt(rng);
  us("pairing.gt_pow_us", median_seconds([&] {
       keep(p.gt_pow(gt, scalar));
     }));
  const Bytes name = p3s::str_to_bytes("cleared");
  us("pairing.hash_to_g1_us", median_seconds([&] {
       keep(p.hash_to_g1(name));
     }));
  const Bytes point_bytes = p.serialize_g1(point);
  us("pairing.g1_deserialize_us", median_seconds([&] {
       keep(p.deserialize_g1(point_bytes));
     }));
  // ECIES at the content-request size: (Ks, GUID).
  const pairing::EciesKeyPair ecies = pairing::ecies_keygen(p, rng);
  const Bytes request = rng.bytes(32 + 16);
  const Bytes sealed = pairing::ecies_encrypt(p, ecies.public_key, request, rng);
  us("pairing.ecies_encrypt_us", median_seconds([&] {
       keep(pairing::ecies_encrypt(p, ecies.public_key, request, rng));
     }));
  us("pairing.ecies_decrypt_us", median_seconds([&] {
       keep(pairing::ecies_decrypt(p, ecies.secret, sealed));
     }));

  // --- math: the field kernels behind GT and G1 arithmetic.
  constexpr int kBatch = 200;
  const pairing::Fq2 gt2 = p.random_gt(rng);
  out.push_back({"math.gt_mul_ns", median_seconds([&] {
                   pairing::Fq2 acc = gt;
                   for (int i = 0; i < kBatch; ++i) acc = p.gt_mul(acc, gt2);
                   keep(acc);
                 }) * 1e9 / kBatch, "ns"});
  const pairing::Point point2 = p.random_g1(rng);
  out.push_back({"math.g1_add_ns", median_seconds([&] {
                   pairing::Point acc = point;
                   for (int i = 0; i < kBatch; ++i) acc = p.add(acc, point2);
                   keep(acc);
                 }) * 1e9 / kBatch, "ns"});

  // --- crypto at the payload size.
  const Bytes key = rng.bytes(32);
  const Bytes payload = rng.bytes(spec.payload_bytes);
  const Bytes aad = p3s::str_to_bytes("content-resp");
  const double mb = static_cast<double>(spec.payload_bytes) / 1e6;
  const p3s::crypto::AeadCiphertext aead_ct =
      p3s::crypto::aead_encrypt(key, payload, aad, rng);
  out.push_back({"crypto.aead_seal_mb_s", mb / median_seconds([&] {
                   keep(p3s::crypto::aead_encrypt(key, payload, aad, rng));
                 }), "MB/s"});
  out.push_back({"crypto.aead_open_mb_s", mb / median_seconds([&] {
                   keep(p3s::crypto::aead_decrypt(key, aead_ct, aad));
                 }), "MB/s"});
  out.push_back({"crypto.sha256_mb_s", mb / median_seconds([&] {
                   keep(p3s::crypto::Sha256::digest(payload));
                 }), "MB/s"});

  // --- secure channel at the broadcast record size (HVE ct + frame header).
  const pairing::EciesKeyPair ds_keys = pairing::ecies_keygen(p, rng);
  Bytes hello;
  p3s::net::SecureSession client =
      p3s::net::SecureSession::initiate(p, ds_keys.public_key, rng, hello);
  auto server = p3s::net::SecureSession::accept(p, ds_keys.secret, hello);
  if (!server.has_value()) throw std::logic_error("probe: channel handshake failed");
  const Bytes record = rng.bytes(miss_ct.size() + 5);
  std::vector<double> seal_s;
  std::vector<double> open_s;
  for (int i = 0; i < 200; ++i) {
    double t = wall_now();
    const Bytes sealed_record = client.seal(record, rng);
    seal_s.push_back(wall_now() - t);
    t = wall_now();
    keep(server->open(sealed_record));
    open_s.push_back(wall_now() - t);
  }
  std::sort(seal_s.begin(), seal_s.end());
  std::sort(open_s.begin(), open_s.end());
  us("net.chan_seal_us", seal_s[seal_s.size() / 2]);
  us("net.chan_open_us", open_s[open_s.size() / 2]);
}

}  // namespace perfbench
