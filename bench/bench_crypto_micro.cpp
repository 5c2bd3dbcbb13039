// Google-benchmark microbenchmarks for every cryptographic primitive in the
// stack — the measurements that parameterize the §6.2 models (enc_P, t_PBE,
// enc_A, dec_A) plus the substrate operations underneath them.
#include <benchmark/benchmark.h>

#include "abe/cpabe.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "crypto/aead.hpp"
#include "crypto/sha256.hpp"
#include "pairing/ecies.hpp"
#include "pairing/pairing.hpp"
#include "pairing/schnorr.hpp"
#include "pbe/hve.hpp"

#include "bench_util.hpp"

namespace {

using namespace p3s;  // NOLINT

pairing::PairingPtr pp() { return pairing::Pairing::test_pairing(); }

// The shipped group whose F_q takes `limbs` 64-bit limbs: 3 for the test
// group (160-bit q), 8 for the paper group (512-bit q).
pairing::PairingPtr group_with_limbs(std::int64_t limbs) {
  return limbs == 8 ? pairing::Pairing::paper_pairing() : pp();
}

void BM_Sha256_1KB(benchmark::State& state) {
  TestRng rng(1);
  const Bytes data = rng.bytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KB);

// AEAD at a 1 KiB record and at the bulk_fetch payload size (256 KiB).
void BM_AeadSeal(benchmark::State& state) {
  TestRng rng(2);
  const Bytes key = rng.bytes(32);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::aead_encrypt(key, data, {}, rng));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AeadSeal)->Arg(1024)->Arg(262144);

void BM_AeadOpen(benchmark::State& state) {
  TestRng rng(2);
  const Bytes key = rng.bytes(32);
  const auto ct = crypto::aead_encrypt(
      key, rng.bytes(static_cast<std::size_t>(state.range(0))), {}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::aead_decrypt(key, ct, {}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AeadOpen)->Arg(1024)->Arg(262144);

// One F_q Montgomery product, chained so each waits for the last: the
// kernel's latency at the test group's and the paper group's limb count.
void BM_FeMul(benchmark::State& state) {
  TestRng rng(14);
  const auto p = group_with_limbs(state.range(0));
  const math::Montgomery& mq = p->mont_q();
  namespace fqm = pairing::fqm;
  fqm::Fe x = fqm::fe_from(mq, math::BigInt::random_below(rng, p->q()));
  const fqm::Fe y = fqm::fe_from(mq, math::BigInt::random_below(rng, p->q()));
  for (auto _ : state) {
    fqm::fe_mul(mq, x, y, x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FeMul)->Arg(3)->Arg(8);

// One F_q inversion (the safegcd kernel behind every affine conversion and
// F_q² inversion), chained like BM_FeMul, and the Fermat exponentiation
// x^(q−2) it replaced, as the reference.
pairing::fqm::Fe random_unit(const pairing::Pairing& p, Rng& rng) {
  const math::BigInt one{1};
  return pairing::fqm::fe_from(
      p.mont_q(), one + math::BigInt::random_below(rng, p.q() - one));
}

void BM_FeInv(benchmark::State& state) {
  TestRng rng(16);
  const auto p = group_with_limbs(state.range(0));
  pairing::fqm::Fe x = random_unit(*p, rng);
  for (auto _ : state) {
    x = pairing::fqm::fe_inv(p->mont_q(), x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FeInv)->Arg(3)->Arg(8);

void BM_FeInv_Fermat(benchmark::State& state) {
  TestRng rng(16);
  const auto p = group_with_limbs(state.range(0));
  const math::BigInt e = p->q() - math::BigInt{2};
  pairing::fqm::Fe x = random_unit(*p, rng);
  for (auto _ : state) {
    x = pairing::fqm::fe_pow(p->mont_q(), x, e);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FeInv_Fermat)->Arg(3)->Arg(8);

void BM_G1_ScalarMul(benchmark::State& state) {
  TestRng rng(3);
  const auto p = pp();
  const auto pt = p->random_g1(rng);
  const auto k = p->random_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p->mul(pt, k));
  }
}
BENCHMARK(BM_G1_ScalarMul);

void BM_G1_ScalarMul_Paper(benchmark::State& state) {
  TestRng rng(3);
  const auto p = pairing::Pairing::paper_pairing();
  const auto pt = p->random_g1(rng);
  const auto k = p->random_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p->mul(pt, k));
  }
}
BENCHMARK(BM_G1_ScalarMul_Paper);

// n multiplications as one batch (one inversion) against n single calls
// (n inversions), in the group with range(0) limbs, on random bases
// (range(2) = 0) or on the generator's fixed-base table (1): n = 2 is an
// ECIES encryption, 12 a token's products at 6 positions, 78 an
// hve_encrypt at width 39.
std::vector<pairing::MulTerm> mul_terms(const benchmark::State& state,
                                        const pairing::Pairing& p) {
  TestRng rng(16);
  std::vector<pairing::MulTerm> terms;
  for (std::int64_t i = 0; i < state.range(1); ++i) {
    terms.push_back({state.range(2) == 1 ? p.generator() : p.random_g1(rng),
                     p.random_scalar(rng)});
  }
  return terms;
}

void BM_G1_MulBatch(benchmark::State& state) {
  const auto p = group_with_limbs(state.range(0));
  const auto terms = mul_terms(state, *p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p->mul_batch(terms));
  }
}
BENCHMARK(BM_G1_MulBatch)->ArgsProduct({{3, 8}, {2, 12, 78}, {0, 1}});

void BM_G1_MulSeparate(benchmark::State& state) {
  const auto p = group_with_limbs(state.range(0));
  const auto terms = mul_terms(state, *p);
  for (auto _ : state) {
    for (const pairing::MulTerm& t : terms) {
      benchmark::DoNotOptimize(p->mul(t.p, t.k));
    }
  }
}
BENCHMARK(BM_G1_MulSeparate)->ArgsProduct({{3, 8}, {2, 12, 78}, {0, 1}});

void BM_G1_ScalarMul_Reference(benchmark::State& state) {
  TestRng rng(3);
  const auto p = pp();
  const auto pt = p->random_g1(rng);
  const auto k = p->random_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::point_mul(pt, k, p->mont_q()));
  }
}
BENCHMARK(BM_G1_ScalarMul_Reference);

void BM_G1_ScalarMul_FixedBase(benchmark::State& state) {
  TestRng rng(3);
  const auto p = pp();
  const pairing::FixedBaseTable table(p->mont_q(), p->random_g1(rng),
                                      p->r().bit_length());
  const auto k = p->random_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.mul(k));
  }
}
BENCHMARK(BM_G1_ScalarMul_FixedBase);

void BM_Pairing(benchmark::State& state) {
  TestRng rng(4);
  const auto p = pp();
  const auto a = p->random_g1(rng);
  const auto b = p->random_g1(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p->pair(a, b));
  }
}
BENCHMARK(BM_Pairing);

void BM_Pairing_Reference(benchmark::State& state) {
  TestRng rng(4);
  const auto p = pp();
  const auto a = p->random_g1(rng);
  const auto b = p->random_g1(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p->pair_reference(a, b));
  }
}
BENCHMARK(BM_Pairing_Reference);

void BM_PairProduct(benchmark::State& state) {
  TestRng rng(4);
  const auto p = pp();
  std::vector<pairing::PairTerm> terms;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    terms.push_back({p->random_g1(rng), p->random_g1(rng)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(p->pair_product(terms));
  }
  // Per-pairing cost: divide by the term count when comparing to BM_Pairing.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PairProduct)->Arg(2)->Arg(8)->Arg(21)->Arg(80);

void BM_GtPow(benchmark::State& state) {
  TestRng rng(4);
  const auto p = pp();
  const auto a = p->random_gt(rng);
  const auto e = p->random_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p->gt_pow(a, e));
  }
}
BENCHMARK(BM_GtPow);

void BM_GtPow_FixedBase(benchmark::State& state) {
  TestRng rng(4);
  const auto p = pp();
  const auto e = p->random_scalar(rng);
  for (auto _ : state) {
    // The GT generator hits the Pairing-owned e(g,g) table.
    benchmark::DoNotOptimize(p->gt_pow(p->gt_generator(), e));
  }
}
BENCHMARK(BM_GtPow_FixedBase);

void BM_HashToG1(benchmark::State& state) {
  const auto p = pp();
  std::uint64_t i = 0;
  for (auto _ : state) {
    Writer w;
    w.u64(i++);
    benchmark::DoNotOptimize(p->hash_to_g1(w.data()));
  }
}
BENCHMARK(BM_HashToG1);

void BM_HashToG1_Paper(benchmark::State& state) {
  const auto p = pairing::Pairing::paper_pairing();
  std::uint64_t i = 0;
  for (auto _ : state) {
    Writer w;
    w.u64(i++);
    benchmark::DoNotOptimize(p->hash_to_g1(w.data()));
  }
}
BENCHMARK(BM_HashToG1_Paper);

void BM_Ecies_Encrypt(benchmark::State& state) {
  TestRng rng(5);
  const auto p = pp();
  const auto kp = pairing::ecies_keygen(*p, rng);
  const Bytes msg = rng.bytes(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::ecies_encrypt(*p, kp.public_key, msg, rng));
  }
}
BENCHMARK(BM_Ecies_Encrypt);

void BM_Schnorr_Sign(benchmark::State& state) {
  TestRng rng(6);
  const auto p = pp();
  const auto kp = pairing::schnorr_keygen(*p, rng);
  const Bytes msg = rng.bytes(64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pairing::schnorr_sign(*p, kp.secret, msg, rng));
  }
}
BENCHMARK(BM_Schnorr_Sign);

// --- HVE: enc_P and t_PBE as a function of vector width -------------------------

void BM_Hve_Encrypt(benchmark::State& state) {
  TestRng rng(7);
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  const auto keys = pbe::hve_setup(pp(), width, rng);
  pbe::BitVector x(width);
  for (auto& b : x) b = static_cast<std::uint8_t>(rng.uniform(2));
  const Bytes guid = rng.bytes(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pbe::hve_encrypt_bytes(keys.pk, x, guid, rng));
  }
}
BENCHMARK(BM_Hve_Encrypt)->Arg(8)->Arg(20)->Arg(40);

void BM_Hve_Match(benchmark::State& state) {
  TestRng rng(8);
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  const auto keys = pbe::hve_setup(pp(), width, rng);
  pbe::BitVector x(width);
  pbe::Pattern w(width);
  for (std::size_t i = 0; i < width; ++i) {
    x[i] = static_cast<std::uint8_t>(rng.uniform(2));
    w[i] = static_cast<std::int8_t>(x[i]);  // full-width match: worst case
  }
  const Bytes ct = pbe::hve_encrypt_bytes(keys.pk, x, rng.bytes(16), rng);
  const auto tok = pbe::hve_gen_token(keys, w, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pbe::hve_query_bytes(*keys.pk.pairing, tok, ct));
  }
}
BENCHMARK(BM_Hve_Match)->Arg(8)->Arg(20)->Arg(40);

// Multi-token matching: a subscriber holding T tokens evaluates one
// broadcast. The sequential baseline runs the full per-token hve_query
// (every token parses the broadcast and walks its own Miller chains); the
// batch path parses once (hve_match_prepare) and runs one multi-output
// Miller loop for all tokens (hve_match_any), in which tokens probing the
// same position share its chains, split over the global pool
// (P3S_THREADS).
struct HveMatchFixture {
  pairing::PairingPtr p = pp();
  pbe::HveKeys keys;
  Bytes ct;
  std::vector<pbe::HveToken> tokens;
  std::vector<const pbe::HveToken*> token_ptrs;

  HveMatchFixture(std::size_t width, std::size_t n_tokens) {
    TestRng rng(13);
    keys = pbe::hve_setup(p, width, rng);
    pbe::BitVector x(width);
    for (auto& b : x) b = static_cast<std::uint8_t>(rng.uniform(2));
    ct = pbe::hve_encrypt_bytes(keys.pk, x, rng.bytes(16), rng);
    for (std::size_t t = 0; t < n_tokens; ++t) {
      // Sparse predicates (6 fixed positions), all deliberately mismatched:
      // no early out, every token pays full evaluation — the worst case.
      pbe::Pattern w(width, pbe::kWildcard);
      for (std::size_t i = 0; i < 6; ++i) {
        const std::size_t pos = (t * 7 + i * 5) % width;
        w[pos] = static_cast<std::int8_t>(1 - x[pos]);
      }
      tokens.push_back(pbe::hve_gen_token(keys, w, rng));
    }
    for (const auto& tok : tokens) token_ptrs.push_back(&tok);
  }
};

void BM_Hve_MatchAny_Sequential(benchmark::State& state) {
  const HveMatchFixture fx(40, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (const auto& tok : fx.tokens) {
      benchmark::DoNotOptimize(pbe::hve_query_bytes(*fx.p, tok, fx.ct));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Hve_MatchAny_Sequential)->Arg(4)->Arg(16);

void BM_Hve_MatchAny(benchmark::State& state) {
  const HveMatchFixture fx(40, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const pbe::HveMatchCt prepared = pbe::hve_match_prepare(*fx.p, fx.ct);
    benchmark::DoNotOptimize(
        pbe::hve_match_any(*fx.p, fx.token_ptrs, prepared));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Hve_MatchAny)->Arg(4)->Arg(16);

// Parsing one broadcast (its KEM and DEM halves), the only per-broadcast
// work hve_match_any does not include.
void BM_Hve_MatchPrepare(benchmark::State& state) {
  const HveMatchFixture fx(40, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pbe::hve_match_prepare(*fx.p, fx.ct));
  }
}
BENCHMARK(BM_Hve_MatchPrepare);

void BM_Hve_GenToken(benchmark::State& state) {
  TestRng rng(9);
  const std::size_t width = 40;
  const auto keys = pbe::hve_setup(pp(), width, rng);
  pbe::Pattern w(width, pbe::kWildcard);
  for (std::size_t i = 0; i < 6; ++i) w[i] = 1;  // typical sparse predicate
  for (auto _ : state) {
    benchmark::DoNotOptimize(pbe::hve_gen_token(keys, w, rng));
  }
}
BENCHMARK(BM_Hve_GenToken);

// BM_Hve_GenToken in the paper group, named outside the CI perf-smoke
// filter so the committed histograms get no paper-group samples.
void BM_GenToken_Paper(benchmark::State& state) {
  TestRng rng(9);
  const std::size_t width = 40;
  const auto keys =
      pbe::hve_setup(pairing::Pairing::paper_pairing(), width, rng);
  pbe::Pattern w(width, pbe::kWildcard);
  for (std::size_t i = 0; i < 6; ++i) w[i] = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pbe::hve_gen_token(keys, w, rng));
  }
}
BENCHMARK(BM_GenToken_Paper);

// --- CP-ABE: enc_A and dec_A as a function of policy size -------------------------

abe::PolicyNode and_policy(int v) {
  std::vector<abe::PolicyNode> leaves;
  for (int i = 0; i < v; ++i) {
    leaves.push_back(abe::PolicyNode::leaf("attr" + std::to_string(i)));
  }
  return abe::PolicyNode::threshold(static_cast<unsigned>(v), std::move(leaves));
}

void BM_Cpabe_Encrypt(benchmark::State& state) {
  TestRng rng(10);
  const auto keys = abe::cpabe_setup(pp(), rng);
  const auto policy = and_policy(static_cast<int>(state.range(0)));
  const Bytes payload = rng.bytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        abe::cpabe_encrypt_bytes(keys.pk, payload, policy, rng));
  }
}
BENCHMARK(BM_Cpabe_Encrypt)->Arg(2)->Arg(5)->Arg(10);

// Keys, a v-attribute AND policy, a key that satisfies it and one KEM
// ciphertext. Both decrypt benchmarks time only the KEM decryption of that
// ciphertext (no deserialization, no AEAD), so they compare like for like.
struct CpabeDecryptCase {
  abe::CpabeKeys keys;
  abe::CpabeSecretKey sk;
  abe::CpabeCiphertext ct;
};

CpabeDecryptCase cpabe_decrypt_case(int v) {
  TestRng rng(11);
  abe::CpabeKeys keys = abe::cpabe_setup(pp(), rng);
  std::set<std::string> attrs;
  for (int i = 0; i < v; ++i) attrs.insert("attr" + std::to_string(i));
  abe::CpabeSecretKey sk = abe::cpabe_keygen(keys, attrs, rng);
  const auto m = keys.pk.pairing->random_gt(rng);
  abe::CpabeCiphertext ct = abe::cpabe_encrypt(keys.pk, m, and_policy(v), rng);
  return {std::move(keys), std::move(sk), std::move(ct)};
}

void BM_Cpabe_Decrypt(benchmark::State& state) {
  const auto c = cpabe_decrypt_case(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(abe::cpabe_decrypt(c.keys.pk, c.sk, c.ct));
  }
}
BENCHMARK(BM_Cpabe_Decrypt)->Arg(2)->Arg(5)->Arg(10);

void BM_Cpabe_Decrypt_Reference(benchmark::State& state) {
  const auto c = cpabe_decrypt_case(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        abe::cpabe_decrypt_reference(c.keys.pk, c.sk, c.ct));
  }
}
BENCHMARK(BM_Cpabe_Decrypt_Reference)->Arg(10);

void BM_Cpabe_KeyGen(benchmark::State& state) {
  TestRng rng(12);
  const auto keys = abe::cpabe_setup(pp(), rng);
  std::set<std::string> attrs;
  for (int i = 0; i < 10; ++i) attrs.insert("attr" + std::to_string(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(abe::cpabe_keygen(keys, attrs, rng));
  }
}
BENCHMARK(BM_Cpabe_KeyGen);

}  // namespace

// Expanded BENCHMARK_MAIN() with the standard metrics epilogue. The pairing
// stack now carries whole-primitive instrumentation (the p3s.crypto.* group),
// so the epilogue's JSON snapshot doubles as a latency record for the fast
// paths exercised above — scripts/perf_smoke.sh diffs two of these snapshots
// to flag regressions.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  p3s::benchutil::emit_metrics("crypto_micro");
  return 0;
}
