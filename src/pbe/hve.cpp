#include "pbe/hve.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/serial.hpp"
#include "crypto/aead.hpp"
#include "crypto/hmac.hpp"
#include "exec/pool.hpp"
#include "math/modular.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"

namespace p3s::pbe {

using math::mod;
using math::mod_add;
using math::mod_inv;
using math::mod_mul;
using math::mod_sub;

bool hve_match_plain(const BitVector& x, const Pattern& w) {
  if (x.size() != w.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (w[i] != kWildcard && w[i] != static_cast<std::int8_t>(x[i])) return false;
  }
  return true;
}

// --- Serialization ---------------------------------------------------------------

namespace {
void write_points(Writer& w, const pairing::Pairing& p,
                  const std::vector<Point>& pts) {
  w.u32(static_cast<std::uint32_t>(pts.size()));
  for (const Point& pt : pts) w.raw(p.serialize_g1(pt));
}

std::vector<Point> read_points(Reader& r, const pairing::Pairing& p) {
  const std::uint32_t n = r.u32();
  if (n > 1u << 20) throw std::invalid_argument("hve: vector too long");
  std::vector<Point> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(p.deserialize_g1(r.raw(p.g1_bytes())));
  }
  return out;
}
}  // namespace

Bytes HvePublicKey::serialize() const {
  Writer w;
  write_points(w, *pairing, t);
  write_points(w, *pairing, v);
  write_points(w, *pairing, r);
  write_points(w, *pairing, m);
  w.raw(pairing->serialize_gt(omega));
  return w.take();
}

HvePublicKey HvePublicKey::deserialize(PairingPtr pairing, BytesView data) {
  Reader rd(data);
  HvePublicKey pk;
  pk.t = read_points(rd, *pairing);
  pk.v = read_points(rd, *pairing);
  pk.r = read_points(rd, *pairing);
  pk.m = read_points(rd, *pairing);
  pk.omega = pairing->deserialize_gt(rd.raw(pairing->gt_bytes()));
  rd.expect_done();
  if (pk.v.size() != pk.t.size() || pk.r.size() != pk.t.size() ||
      pk.m.size() != pk.t.size()) {
    throw std::invalid_argument("HvePublicKey: ragged vectors");
  }
  pk.pairing = std::move(pairing);
  return pk;
}

Bytes HveCiphertext::serialize(const pairing::Pairing& pairing) const {
  Writer wr;
  wr.raw(pairing.serialize_gt(c0));
  write_points(wr, pairing, x);
  write_points(wr, pairing, w);
  return wr.take();
}

HveCiphertext HveCiphertext::deserialize(const pairing::Pairing& pairing,
                                         BytesView data) {
  Reader rd(data);
  HveCiphertext ct;
  ct.c0 = pairing.deserialize_gt(rd.raw(pairing.gt_bytes()));
  ct.x = read_points(rd, pairing);
  ct.w = read_points(rd, pairing);
  rd.expect_done();
  if (ct.w.size() != ct.x.size()) {
    throw std::invalid_argument("HveCiphertext: ragged vectors");
  }
  return ct;
}

Bytes HveToken::serialize(const pairing::Pairing& pairing) const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(positions.size()));
  for (std::uint32_t p : positions) w.u32(p);
  write_points(w, pairing, y);
  write_points(w, pairing, l);
  return w.take();
}

HveToken HveToken::deserialize(const pairing::Pairing& pairing, BytesView data) {
  Reader rd(data);
  HveToken tok;
  const std::uint32_t n = rd.u32();
  if (n > 1u << 20) throw std::invalid_argument("HveToken: too many positions");
  tok.positions.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) tok.positions.push_back(rd.u32());
  tok.y = read_points(rd, pairing);
  tok.l = read_points(rd, pairing);
  rd.expect_done();
  if (tok.y.size() != tok.positions.size() ||
      tok.l.size() != tok.positions.size()) {
    throw std::invalid_argument("HveToken: ragged vectors");
  }
  return tok;
}

namespace {
void write_scalars(Writer& w, const std::vector<BigInt>& xs) {
  w.u32(static_cast<std::uint32_t>(xs.size()));
  for (const BigInt& x : xs) w.bytes(x.to_bytes());
}

std::vector<BigInt> read_scalars(Reader& r) {
  const std::uint32_t n = r.u32();
  if (n > 1u << 20) throw std::invalid_argument("hve: scalar vector too long");
  std::vector<BigInt> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(BigInt::from_bytes(r.bytes()));
  return out;
}

// The per-position inverses hve_gen_token reads, once per key.
void derive_inverses(HveMasterKey& msk, const BigInt& order) {
  const auto invert = [&](const std::vector<BigInt>& xs) {
    std::vector<BigInt> out;
    out.reserve(xs.size());
    for (const BigInt& x : xs) out.push_back(mod_inv(x, order));
    return out;
  };
  msk.t_inv = invert(msk.t);
  msk.v_inv = invert(msk.v);
  msk.r_inv = invert(msk.r);
  msk.m_inv = invert(msk.m);
}
}  // namespace

Bytes HveMasterKey::serialize() const {
  Writer w;
  write_scalars(w, t);
  write_scalars(w, v);
  write_scalars(w, r);
  write_scalars(w, m);
  w.bytes(y.to_bytes());
  return w.take();
}

HveMasterKey HveMasterKey::deserialize(const BigInt& order,
                                       BytesView data) {
  Reader rd(data);
  HveMasterKey msk;
  msk.t = read_scalars(rd);
  msk.v = read_scalars(rd);
  msk.r = read_scalars(rd);
  msk.m = read_scalars(rd);
  msk.y = BigInt::from_bytes(rd.bytes());
  rd.expect_done();
  if (msk.v.size() != msk.t.size() || msk.r.size() != msk.t.size() ||
      msk.m.size() != msk.t.size()) {
    throw std::invalid_argument("HveMasterKey: ragged vectors");
  }
  derive_inverses(msk, order);
  return msk;
}

Bytes HveKeys::serialize() const {
  Writer w;
  w.bytes(pk.serialize());
  w.bytes(msk.serialize());
  return w.take();
}

HveKeys HveKeys::deserialize(PairingPtr pairing, BytesView data) {
  Reader r(data);
  HveKeys keys;
  keys.pk = HvePublicKey::deserialize(std::move(pairing), r.bytes());
  keys.msk = HveMasterKey::deserialize(keys.pk.pairing->r(), r.bytes());
  r.expect_done();
  if (keys.msk.t.size() != keys.pk.width()) {
    throw std::invalid_argument("HveKeys: pk/msk width mismatch");
  }
  return keys;
}

// --- Core scheme --------------------------------------------------------------------

HveKeys hve_setup(PairingPtr pairing, std::size_t width, Rng& rng) {
  if (width == 0) throw std::invalid_argument("hve_setup: zero width");
  const pairing::Pairing& p = *pairing;
  HveKeys keys;
  keys.pk.pairing = pairing;
  keys.msk.y = p.random_nonzero_scalar(rng);
  keys.pk.omega = p.gt_pow(p.gt_generator(), keys.msk.y);

  // The exponents are drawn t, v, r, m in turn; their 4·width generator
  // products are one batch with one inversion.
  std::vector<pairing::MulTerm> terms;
  terms.reserve(4 * width);
  for (auto* exps : {&keys.msk.t, &keys.msk.v, &keys.msk.r, &keys.msk.m}) {
    for (std::size_t i = 0; i < width; ++i) {
      exps->push_back(p.random_nonzero_scalar(rng));
      terms.push_back({p.generator(), exps->back()});
    }
  }
  const std::vector<Point> points = p.mul_batch(terms);
  auto first = points.begin();
  for (auto* pts : {&keys.pk.t, &keys.pk.v, &keys.pk.r, &keys.pk.m}) {
    pts->assign(first, first + static_cast<std::ptrdiff_t>(width));
    first += static_cast<std::ptrdiff_t>(width);
  }
  derive_inverses(keys.msk, p.r());
  return keys;
}

HveCiphertext hve_encrypt(const HvePublicKey& pk, const BitVector& x,
                          const Fq2& message, Rng& rng) {
  const pairing::Pairing& p = *pk.pairing;
  if (x.size() != pk.width()) {
    throw std::invalid_argument("hve_encrypt: width mismatch");
  }
  const BigInt s = p.random_nonzero_scalar(rng);

  HveCiphertext ct;
  ct.c0 = p.gt_mul(message, p.gt_inv(p.gt_pow(pk.omega, s)));
  // (X_i, W_i) for every position, as one batch with one inversion.
  std::vector<pairing::MulTerm> terms;
  terms.reserve(2 * x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] > 1) throw std::invalid_argument("hve_encrypt: non-binary bit");
    BigInt si = p.random_scalar(rng);
    BigInt s_minus_si = mod_sub(s, si, p.r());
    terms.push_back({x[i] == 1 ? pk.t[i] : pk.r[i], std::move(s_minus_si)});
    terms.push_back({x[i] == 1 ? pk.v[i] : pk.m[i], std::move(si)});
  }
  const std::vector<Point> points = p.mul_batch(terms);
  ct.x.reserve(x.size());
  ct.w.reserve(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ct.x.push_back(points[2 * i]);
    ct.w.push_back(points[2 * i + 1]);
  }
  return ct;
}

HveToken hve_gen_token(const HveKeys& keys, const Pattern& w, Rng& rng) {
  const pairing::Pairing& p = *keys.pk.pairing;
  if (w.size() != keys.pk.width()) {
    throw std::invalid_argument("hve_gen_token: width mismatch");
  }
  if (keys.msk.t_inv.size() != w.size()) {
    throw std::invalid_argument("hve_gen_token: master key inverses missing");
  }
  HveToken tok;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w[i] != kWildcard && w[i] != 0 && w[i] != 1) {
      throw std::invalid_argument("hve_gen_token: bad pattern symbol");
    }
    if (w[i] != kWildcard) tok.positions.push_back(static_cast<std::uint32_t>(i));
  }
  if (tok.positions.empty()) {
    throw std::invalid_argument(
        "hve_gen_token: all-wildcard predicates are not permitted");
  }

  // Split y into shares a_i over the non-wildcard positions.
  std::vector<BigInt> shares;
  shares.reserve(tok.positions.size());
  BigInt sum{};
  for (std::size_t j = 0; j + 1 < tok.positions.size(); ++j) {
    BigInt a = p.random_scalar(rng);
    sum = mod_add(sum, a, p.r());
    shares.push_back(std::move(a));
  }
  shares.push_back(mod_sub(keys.msk.y, sum, p.r()));

  // (Y_i, L_i) for every position: 2|S| generator multiplications as one
  // batch with one inversion.
  const HveMasterKey& msk = keys.msk;
  std::vector<pairing::MulTerm> terms;
  terms.reserve(2 * tok.positions.size());
  for (std::size_t j = 0; j < tok.positions.size(); ++j) {
    const std::size_t i = tok.positions[j];
    const BigInt& a = shares[j];
    const bool one = w[i] == 1;
    terms.push_back(
        {p.generator(), mod_mul(a, one ? msk.t_inv[i] : msk.r_inv[i], p.r())});
    terms.push_back(
        {p.generator(), mod_mul(a, one ? msk.v_inv[i] : msk.m_inv[i], p.r())});
  }
  const std::vector<Point> points = p.mul_batch(terms);
  tok.y.reserve(tok.positions.size());
  tok.l.reserve(tok.positions.size());
  for (std::size_t j = 0; j < tok.positions.size(); ++j) {
    tok.y.push_back(points[2 * j]);
    tok.l.push_back(points[2 * j + 1]);
  }
  return tok;
}

Fq2 hve_query(const pairing::Pairing& pairing, const HveToken& token,
              const HveCiphertext& ct) {
  // All 2|S| pairings share one interleaved Miller loop and a single final
  // exponentiation — this is the subscriber's hot path.
  std::vector<pairing::PairTerm> terms;
  terms.reserve(2 * token.positions.size());
  for (std::size_t j = 0; j < token.positions.size(); ++j) {
    const std::size_t i = token.positions[j];
    if (i >= ct.width()) {
      throw std::invalid_argument("hve_query: token/ciphertext width mismatch");
    }
    terms.push_back({ct.x[i], token.y[j]});
    terms.push_back({ct.w[i], token.l[j]});
  }
  return pairing.gt_mul(ct.c0, pairing.pair_product(terms));
}

Fq2 hve_query_reference(const pairing::Pairing& pairing, const HveToken& token,
                        const HveCiphertext& ct) {
  Fq2 acc = pairing.gt_one();
  for (std::size_t j = 0; j < token.positions.size(); ++j) {
    const std::size_t i = token.positions[j];
    if (i >= ct.width()) {
      throw std::invalid_argument("hve_query: token/ciphertext width mismatch");
    }
    acc = pairing.gt_mul(acc, pairing.pair_reference(ct.x[i], token.y[j]));
    acc = pairing.gt_mul(acc, pairing.pair_reference(ct.w[i], token.l[j]));
  }
  return pairing.gt_mul(ct.c0, acc);
}

// --- KEM-DEM wrapper -----------------------------------------------------------------

namespace {
Bytes kem_key(const pairing::Pairing& p, const Fq2& z) {
  return crypto::hkdf(str_to_bytes("p3s-hve-kem-v1"), p.serialize_gt(z), {}, 32);
}
}  // namespace

Bytes hve_encrypt_bytes(const HvePublicKey& pk, const BitVector& x,
                        BytesView payload, Rng& rng) {
  const pairing::Pairing& p = *pk.pairing;
  const Fq2 z = p.random_gt(rng);
  const HveCiphertext kem = hve_encrypt(pk, x, z, rng);
  const crypto::AeadCiphertext dem =
      crypto::aead_encrypt(kem_key(p, z), payload, str_to_bytes("hve"), rng);
  Writer w;
  w.bytes(kem.serialize(p));
  w.bytes(dem.serialize());
  return w.take();
}

std::size_t hve_encrypt_bytes_size(const pairing::Pairing& pairing,
                                   std::size_t width,
                                   std::size_t payload_size) {
  // Each Writer::bytes and point-vector length is a 4-byte prefix; the DEM
  // is a 12-byte nonce and the payload with its 16-byte tag.
  constexpr std::size_t kPrefix = 4, kNonce = 12, kTag = 16;
  const std::size_t kem =
      pairing.gt_bytes() + 2 * (kPrefix + width * pairing.g1_bytes());
  const std::size_t dem = kPrefix + kNonce + kPrefix + payload_size + kTag;
  return kPrefix + kem + kPrefix + dem;
}

std::optional<Bytes> hve_query_bytes(const pairing::Pairing& pairing,
                                     const HveToken& token, BytesView data) {
  try {
    Reader r(data);
    const HveCiphertext kem = HveCiphertext::deserialize(pairing, r.bytes());
    const crypto::AeadCiphertext dem =
        crypto::AeadCiphertext::deserialize(r.bytes());
    r.expect_done();
    const Fq2 z = hve_query(pairing, token, kem);
    return crypto::aead_decrypt(kem_key(pairing, z), dem, str_to_bytes("hve"));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

// --- Batch matching -------------------------------------------------------------------

namespace {
struct MatchMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Histogram& prepare =
      reg.histogram(obs::names::kCryptoHvePrepareSeconds);
  obs::Histogram& batch = reg.histogram(obs::names::kCryptoHveBatchSeconds);
  obs::Histogram& batch_tokens =
      reg.histogram(obs::names::kCryptoHveBatchTokens);
};

MatchMetrics& match_metrics() {
  static MatchMetrics m;
  return m;
}
}  // namespace

HveMatchCt hve_match_prepare(const pairing::Pairing& pairing, BytesView data,
                             const std::vector<std::uint32_t>* /*positions*/) {
  obs::ScopedTimer timer(obs::Registry::global(), match_metrics().prepare);
  Reader r(data);
  HveMatchCt ct;
  ct.kem = HveCiphertext::deserialize(pairing, r.bytes());
  ct.dem = crypto::AeadCiphertext::deserialize(r.bytes());
  r.expect_done();
  return ct;
}

HveMatchResult hve_match_any(const pairing::Pairing& pairing,
                             std::span<const HveToken* const> tokens,
                             const HveMatchCt& ct, exec::Pool* pool) {
  obs::ScopedTimer timer(obs::Registry::global(), match_metrics().batch);
  match_metrics().batch_tokens.record(static_cast<double>(tokens.size()));

  // Chains 2i and 2i + 1 run on X_i and W_i; token j's terms on position i
  // fold (X_i, Y) and (W_i, L) into output j, the terms of hve_query.
  const std::size_t width = ct.width();
  std::vector<pairing::MillerChain> chains(2 * width);
  for (std::size_t i = 0; i < width; ++i) {
    chains[2 * i].p = ct.kem.x[i];
    chains[2 * i + 1].p = ct.kem.w[i];
  }
  std::vector<std::uint8_t> fits(tokens.size(), 0);
  for (std::size_t j = 0; j < tokens.size(); ++j) {
    const HveToken& tok = *tokens[j];
    fits[j] = std::all_of(tok.positions.begin(), tok.positions.end(),
                          [&](std::uint32_t i) { return i < width; });
    if (!fits[j]) continue;
    for (std::size_t k = 0; k < tok.positions.size(); ++k) {
      const std::size_t i = tok.positions[k];
      chains[2 * i].evals.push_back({tok.y[k], j});
      chains[2 * i + 1].evals.push_back({tok.l[k], j});
    }
  }
  std::erase_if(chains,
                [](const pairing::MillerChain& c) { return c.evals.empty(); });

  // Each part of the split is one loop call with its own accumulators;
  // their product is the accumulator of one call over every chain.
  exec::Pool& p = pool != nullptr ? *pool : exec::Pool::global();
  const std::size_t parts = std::min(p.thread_count(), chains.size());
  std::vector<std::vector<Fq2>> partial(parts);
  p.parallel_for(0, parts, [&](std::size_t k) {
    const std::size_t first = chains.size() * k / parts;
    const std::size_t last = chains.size() * (k + 1) / parts;
    partial[k] = pairing.miller_multi(
        std::span(chains).subspan(first, last - first), tokens.size());
  });
  std::vector<Fq2> f(tokens.size(), pairing.gt_one());
  for (const std::vector<Fq2>& part : partial) {
    for (std::size_t j = 0; j < f.size(); ++j) {
      f[j] = pairing.gt_mul(f[j], part[j]);
    }
  }

  HveMatchResult res;
  for (std::size_t j = 0; j < tokens.size(); ++j) {
    if (!fits[j]) continue;
    const Fq2 z =
        pairing.gt_mul(ct.kem.c0, pairing.final_exponentiation(f[j]));
    auto payload =
        crypto::aead_decrypt(kem_key(pairing, z), ct.dem, str_to_bytes("hve"));
    if (!payload.has_value()) continue;
    res.token_index = j;
    res.payload = std::move(*payload);
    break;
  }
  return res;
}

}  // namespace p3s::pbe
