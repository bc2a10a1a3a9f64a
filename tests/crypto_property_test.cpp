// Parameterized property sweeps for the crypto substrate — broad-range
// checks complementing the KATs in crypto_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "crypto/aead.h"
#include "crypto/aes.h"
#include "crypto/chacha20.h"
#include "crypto/ed25519.h"
#include "crypto/fe25519.h"
#include "crypto/hmac.h"
#include "crypto/modes.h"
#include "crypto/rng.h"
#include "crypto/sc25519.h"
#include "crypto/sha2.h"
#include "crypto/x25519.h"
#include "ed25519_small_order.h"
#include "util/hex.h"

namespace apna::crypto {
namespace {

// ---- CMAC length sweep: streaming/two-span implementation vs a simple
// reference built directly from RFC 4493 pseudo-code. -------------------------

std::array<std::uint8_t, 16> reference_cmac(const Aes128& aes,
                                            const std::array<std::uint8_t, 16>& k1,
                                            const std::array<std::uint8_t, 16>& k2,
                                            ByteSpan m) {
  const std::size_t n = (m.size() + 15) / 16;
  std::array<std::uint8_t, 16> x{};
  auto xor_block = [&](const std::uint8_t* p) {
    for (int i = 0; i < 16; ++i) x[i] ^= p[i];
  };
  if (n == 0) {
    std::uint8_t last[16] = {0x80};
    xor_block(last);
    for (int i = 0; i < 16; ++i) x[i] ^= k2[i];
    aes.encrypt_block(x.data(), x.data());
    return x;
  }
  for (std::size_t b = 0; b + 1 < n; ++b) {
    xor_block(m.data() + 16 * b);
    aes.encrypt_block(x.data(), x.data());
  }
  const std::size_t rem = m.size() - 16 * (n - 1);
  std::uint8_t last[16] = {};
  std::memcpy(last, m.data() + 16 * (n - 1), rem);
  const std::array<std::uint8_t, 16>* subkey = &k1;
  if (rem < 16) {
    last[rem] = 0x80;
    subkey = &k2;
  }
  xor_block(last);
  for (int i = 0; i < 16; ++i) x[i] ^= (*subkey)[i];
  aes.encrypt_block(x.data(), x.data());
  return x;
}

class CmacLengthSweep : public ::testing::TestWithParam<int> {};

TEST_P(CmacLengthSweep, MatchesReferenceAndSplitInvariance) {
  ChaChaRng rng(1000 + GetParam());
  const Bytes key = rng.bytes(16);
  const AesCmac cmac(key);
  const Bytes msg = rng.bytes(GetParam());

  // Recompute the RFC 4493 subkeys independently.
  Aes128 aes(key);
  std::array<std::uint8_t, 16> l{};
  aes.encrypt_block(l.data(), l.data());
  auto dbl = [](std::array<std::uint8_t, 16> v) {
    const std::uint8_t carry = v[0] >> 7;
    for (int i = 0; i < 15; ++i)
      v[i] = static_cast<std::uint8_t>((v[i] << 1) | (v[i + 1] >> 7));
    v[15] = static_cast<std::uint8_t>(v[15] << 1);
    if (carry) v[15] ^= 0x87;
    return v;
  };
  const auto k1 = dbl(l);
  const auto k2 = dbl(k1);

  const auto expect = reference_cmac(aes, k1, k2, msg);
  EXPECT_EQ(hex_encode(cmac.mac(msg)), hex_encode(expect));

  // Split invariance at several cut points.
  for (std::size_t cut : {std::size_t{0}, msg.size() / 3, msg.size() / 2,
                          msg.size()}) {
    EXPECT_EQ(hex_encode(cmac.mac2(ByteSpan(msg.data(), cut),
                                   ByteSpan(msg.data() + cut,
                                            msg.size() - cut))),
              hex_encode(expect))
        << "len=" << msg.size() << " cut=" << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, CmacLengthSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 47,
                                           48, 63, 64, 65, 127, 128, 129,
                                           255, 256, 1000, 1460, 4096));

TEST(CmacManyProperty, InterleavedLanesMatchScalarAcrossShapes) {
  // aes_cmac_many interleaves up to 16 chains with DIFFERENT keys and
  // lockstep-retires lanes of different lengths; every (a, b) extent shape
  // (empty input, a-only, straddle, b-only, complete vs padded final
  // block) must produce the scalar mac2 tag bit-for-bit.
  ChaChaRng rng(7707);
  constexpr std::size_t kJobs = 19;  // > 2 lane groups, ragged tail
  const std::size_t lens[] = {0,  1,  15, 16,  17,  31,  32,  44, 52, 63,
                              64, 65, 80, 127, 200, 460, 512, 733, 1000};
  std::vector<AesCmac> keys;
  std::vector<Bytes> as, bs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    keys.emplace_back(rng.bytes(16));
    as.push_back(rng.bytes(lens[i % std::size(lens)]));
    bs.push_back(rng.bytes(lens[(i * 7 + 3) % std::size(lens)]));
  }
  std::vector<CmacJob> jobs;
  for (std::size_t i = 0; i < kJobs; ++i)
    jobs.push_back(CmacJob{&keys[i], as[i], bs[i]});
  std::array<std::uint8_t, 16> tags[kJobs];
  aes_cmac_many(jobs, tags);
  for (std::size_t i = 0; i < kJobs; ++i)
    EXPECT_EQ(hex_encode(tags[i]), hex_encode(keys[i].mac2(as[i], bs[i])))
        << "job " << i << " a=" << as[i].size() << " b=" << bs[i].size();
}

// ---- Software backend parity ------------------------------------------------------
// On AES-NI hosts the soft backend otherwise only runs in one direct test;
// force it through the public API so portability is continuously verified.

TEST(SoftBackend, Fips197KnownAnswer) {
  Aes128 soft(must_hex("000102030405060708090a0b0c0d0e0f"),
              Aes128::Backend::soft);
  EXPECT_STREQ(soft.backend(), "soft");
  const Bytes pt = must_hex("00112233445566778899aabbccddeeff");
  std::uint8_t ct[16];
  soft.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex_encode(ByteSpan(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(SoftBackend, AgreesWithAutoBackendEverywhere) {
  ChaChaRng rng(14);
  for (int trial = 0; trial < 8; ++trial) {
    const Bytes key = rng.bytes(16);
    Aes128 auto_aes(key);
    Aes128 soft_aes(key, Aes128::Backend::soft);

    // Block + batch.
    const Bytes blocks = rng.bytes(16 * 7);
    Bytes out_auto(blocks.size()), out_soft(blocks.size());
    auto_aes.encrypt_blocks(blocks.data(), out_auto.data(), 7);
    soft_aes.encrypt_blocks(blocks.data(), out_soft.data(), 7);
    EXPECT_EQ(hex_encode(out_auto), hex_encode(out_soft));

    // CTR.
    const Bytes iv = rng.bytes(16);
    const Bytes msg = rng.bytes(123);
    EXPECT_EQ(hex_encode(aes_ctr(auto_aes, iv.data(), msg)),
              hex_encode(aes_ctr(soft_aes, iv.data(), msg)));

    // CBC-MAC chain (the fused kernel vs the scalar loop).
    std::uint8_t x_auto[16] = {}, x_soft[16] = {};
    const Bytes chain = rng.bytes(16 * 5);
    auto_aes.cbc_mac_absorb(x_auto, chain.data(), 5);
    soft_aes.cbc_mac_absorb(x_soft, chain.data(), 5);
    EXPECT_EQ(hex_encode(ByteSpan(x_auto, 16)),
              hex_encode(ByteSpan(x_soft, 16)));
  }
}

// ---- AES CTR vs ECB cross-check ------------------------------------------------

TEST(AesProperty, CtrKeystreamMatchesManualEcb) {
  ChaChaRng rng(2);
  const Bytes key = rng.bytes(16);
  Aes128 aes(key);
  std::uint8_t ctr[16];
  Bytes iv = rng.bytes(16);
  std::memcpy(ctr, iv.data(), 16);

  const Bytes zeros(48, 0);
  const Bytes ks = aes_ctr(aes, iv.data(), zeros);
  for (int blk = 0; blk < 3; ++blk) {
    std::uint8_t expect[16];
    aes.encrypt_block(ctr, expect);
    EXPECT_EQ(hex_encode(ByteSpan(ks.data() + 16 * blk, 16)),
              hex_encode(ByteSpan(expect, 16)));
    for (int i = 15; i >= 12; --i)
      if (++ctr[i] != 0) break;
  }
}

// ---- AEAD cross-suite independence ------------------------------------------------

TEST(AeadProperty, SuitesAreMutuallyIncompatible) {
  ChaChaRng rng(3);
  const Bytes key = rng.bytes(32);
  const Bytes nonce = rng.bytes(12);
  const Bytes pt = rng.bytes(64);
  auto chacha = Aead::create(AeadSuite::chacha20_poly1305, key);
  auto etm = Aead::create(AeadSuite::aes128_ctr_cmac, key);
  EXPECT_FALSE(etm->open(nonce, {}, chacha->seal(nonce, {}, pt)).has_value());
  EXPECT_FALSE(chacha->open(nonce, {}, etm->seal(nonce, {}, pt)).has_value());
}

TEST(AeadProperty, AadOnlyMessages) {
  ChaChaRng rng(4);
  for (auto suite :
       {AeadSuite::chacha20_poly1305, AeadSuite::aes128_ctr_cmac}) {
    auto aead = Aead::create(suite, rng.bytes(32));
    const Bytes nonce = rng.bytes(12);
    const Bytes aad = rng.bytes(100);
    const Bytes sealed = aead->seal(nonce, aad, {});
    EXPECT_EQ(sealed.size(), Aead::kTagSize);
    auto opened = aead->open(nonce, aad, sealed);
    ASSERT_TRUE(opened.has_value());
    EXPECT_TRUE(opened->empty());
    Bytes wrong_aad = aad;
    wrong_aad[50] ^= 1;
    EXPECT_FALSE(aead->open(nonce, wrong_aad, sealed).has_value());
  }
}

// ---- Field arithmetic: ring axioms over random elements ----------------------------

class FeAxioms : public ::testing::TestWithParam<int> {};

TEST_P(FeAxioms, AssociativityDistributivity) {
  ChaChaRng rng(5000 + GetParam());
  auto random_fe = [&] {
    Bytes b = rng.bytes(32);
    b[31] &= 0x3f;
    return fe_frombytes(b.data());
  };
  const Fe a = random_fe(), b = random_fe(), c = random_fe();
  // (a*b)*c == a*(b*c)
  EXPECT_TRUE(fe_equal(fe_mul(fe_mul(a, b), c), fe_mul(a, fe_mul(b, c))));
  // a*(b+c) == a*b + a*c
  EXPECT_TRUE(fe_equal(fe_mul(a, fe_add(b, c)),
                       fe_add(fe_mul(a, b), fe_mul(a, c))));
  // (a-b)+b == a
  EXPECT_TRUE(fe_equal(fe_add(fe_sub(a, b), b), a));
  // neg(neg(a)) == a
  EXPECT_TRUE(fe_equal(fe_neg(fe_neg(a)), a));
  // a^2 == a*a via fe_sq
  EXPECT_TRUE(fe_equal(fe_sq(a), fe_mul(a, a)));
  // small-scalar mul agrees with repeated addition
  EXPECT_TRUE(fe_equal(fe_mul_small(a, 3), fe_add(fe_add(a, a), a)));
}

INSTANTIATE_TEST_SUITE_P(Random, FeAxioms, ::testing::Range(0, 12));

// ---- X25519: contributory-ish sanity + basepoint consistency -----------------------

TEST(X25519Property, LadderMatchesIteratedBase) {
  // x25519(a, x25519(b, G)) == x25519(b, x25519(a, G)) — the DH property,
  // swept across several pairs.
  ChaChaRng rng(6);
  for (int i = 0; i < 4; ++i) {
    auto a = X25519KeyPair::generate(rng);
    auto b = X25519KeyPair::generate(rng);
    EXPECT_EQ(hex_encode(x25519(a.priv, b.pub)),
              hex_encode(x25519(b.priv, a.pub)));
  }
}

TEST(X25519Property, ClampingMakesLowBitsIrrelevant) {
  ChaChaRng rng(7);
  X25519PrivateKey k{};
  rng.fill(MutByteSpan(k.data(), 32));
  X25519PrivateKey k2 = k;
  k2[0] ^= 0x07;  // clamped away
  EXPECT_EQ(hex_encode(x25519_base(k)), hex_encode(x25519_base(k2)));
  X25519PrivateKey k3 = k;
  k3[15] ^= 0x10;  // a real scalar bit
  EXPECT_NE(hex_encode(x25519_base(k)), hex_encode(x25519_base(k3)));
}

// ---- Ed25519: message-length sweep -----------------------------------------------

class Ed25519Lengths : public ::testing::TestWithParam<int> {};

TEST_P(Ed25519Lengths, SignVerifyRoundtrip) {
  ChaChaRng rng(9000 + GetParam());
  auto kp = Ed25519KeyPair::generate(rng);
  const Bytes msg = rng.bytes(GetParam());
  const auto sig = kp.sign(msg);
  EXPECT_TRUE(ed25519_verify(kp.pub, msg, sig));
  if (!msg.empty()) {
    Bytes bad = msg;
    bad[msg.size() / 2] ^= 1;
    EXPECT_FALSE(ed25519_verify(kp.pub, bad, sig));
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, Ed25519Lengths,
                         ::testing::Values(0, 1, 32, 64, 100, 1000));

TEST(Ed25519Property, DistinctSeedsDistinctKeys) {
  ChaChaRng rng(8);
  std::set<std::string> pubs;
  for (int i = 0; i < 16; ++i)
    pubs.insert(hex_encode(Ed25519KeyPair::generate(rng).pub));
  EXPECT_EQ(pubs.size(), 16u);
}

TEST(Ed25519Property, SignatureNotValidForOtherKey) {
  ChaChaRng rng(9);
  auto kp1 = Ed25519KeyPair::generate(rng);
  auto kp2 = Ed25519KeyPair::generate(rng);
  const Bytes msg = to_bytes("cross-key");
  EXPECT_FALSE(ed25519_verify(kp2.pub, msg, kp1.sign(msg)));
}

// ---- Hash/HKDF edge cases ----------------------------------------------------------

TEST(ShaProperty, BlockBoundaryLengths) {
  // Lengths straddling the padding boundaries must hash consistently
  // between incremental and one-shot paths.
  ChaChaRng rng(10);
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 127u,
                          128u, 129u}) {
    const Bytes data = rng.bytes(len);
    Sha256 inc;
    for (std::size_t i = 0; i < data.size(); ++i)
      inc.update(ByteSpan(data.data() + i, 1));
    EXPECT_EQ(hex_encode(inc.finish()), hex_encode(Sha256::hash(data)))
        << len;

    Sha512 inc512;
    for (std::size_t i = 0; i < data.size(); ++i)
      inc512.update(ByteSpan(data.data() + i, 1));
    EXPECT_EQ(hex_encode(inc512.finish()), hex_encode(Sha512::hash(data)))
        << len;
  }
}

TEST(HkdfProperty, OutputLengthsAndPrefixProperty) {
  ChaChaRng rng(11);
  const Bytes ikm = rng.bytes(32);
  const Bytes salt = rng.bytes(13);
  const Bytes info = to_bytes("ctx");
  const Bytes long_out = hkdf(salt, ikm, info, 96);
  EXPECT_EQ(long_out.size(), 96u);
  // HKDF output is prefix-consistent for the same inputs.
  const Bytes short_out = hkdf(salt, ikm, info, 32);
  EXPECT_TRUE(std::equal(short_out.begin(), short_out.end(),
                         long_out.begin()));
  // Different salt/info breaks it.
  EXPECT_NE(hex_encode(hkdf(salt, ikm, to_bytes("ctx2"), 32)),
            hex_encode(short_out));
}

// ---- ChaCha20 counter independence ---------------------------------------------------

TEST(ChaChaProperty, BlocksAreIndependentByCounter) {
  ChaChaRng rng(12);
  const Bytes key = rng.bytes(32);
  const Bytes nonce = rng.bytes(12);
  std::uint8_t b0[64], b1[64], b0_again[64];
  chacha20_block(key.data(), 0, nonce.data(), b0);
  chacha20_block(key.data(), 1, nonce.data(), b1);
  chacha20_block(key.data(), 0, nonce.data(), b0_again);
  EXPECT_NE(hex_encode(ByteSpan(b0, 64)), hex_encode(ByteSpan(b1, 64)));
  EXPECT_EQ(hex_encode(ByteSpan(b0, 64)), hex_encode(ByteSpan(b0_again, 64)));

  // Streaming at an offset equals block-by-block XOR.
  const Bytes pt = rng.bytes(130);
  Bytes ct(pt.size());
  chacha20_xcrypt(key.data(), 0, nonce.data(), pt, ct);
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_EQ(ct[i], pt[i] ^ b0[i]);
  for (std::size_t i = 64; i < 128; ++i)
    EXPECT_EQ(ct[i], pt[i] ^ b1[i - 64]);
}

// ---- Backend-tier equivalence -----------------------------------------------------
// Every compiled AES tier (soft / aesni / avx2 / vaes_avx512) must produce
// bit-identical output through every public entry point; forcing a tier the
// CPU lacks silently downgrades, so the loop below self-skips without ever
// crashing on narrower hosts.

std::vector<Aes128::Backend> compiled_tiers() {
  std::vector<Aes128::Backend> tiers = {Aes128::Backend::soft};
  for (const Aes128::Backend b :
       {Aes128::Backend::aesni, Aes128::Backend::avx2,
        Aes128::Backend::vaes_avx512}) {
    if (Aes128::resolve_backend(b) == b) tiers.push_back(b);
  }
  return tiers;
}

TEST(BackendTiers, ForcedSoftCmacMatchesHardware) {
  // The explicit non-AESNI fallback check: a CMAC computed entirely on the
  // portable bitsliced path equals the hardware tiers for every extent
  // shape the lane kernels handle (empty / partial / multi-block).
  ChaChaRng rng(4242);
  for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                std::size_t{16}, std::size_t{47},
                                std::size_t{256}, std::size_t{1000}}) {
    const Bytes key = rng.bytes(16);
    const Bytes a = rng.bytes(len);
    const Bytes b = rng.bytes((len * 3 + 5) % 97);
    const AesCmac soft(key, Aes128::Backend::soft);
    const AesCmac hw(key);
    EXPECT_STREQ(soft.backend(), "soft");
    EXPECT_EQ(hex_encode(soft.mac(a)), hex_encode(hw.mac(a))) << len;
    EXPECT_EQ(hex_encode(soft.mac2(a, b)), hex_encode(hw.mac2(a, b))) << len;
  }
}

TEST(BackendTiers, EncryptBlocksAgreesOnEveryCompiledTier) {
  ChaChaRng rng(515);
  const Bytes key = rng.bytes(16);
  // 37 blocks: exercises the 16-wide main loop, an 8-wide step, and a
  // scalar tail on every tier.
  const Bytes pt = rng.bytes(37 * 16);
  Bytes want(pt.size());
  Aes128 soft(key, Aes128::Backend::soft);
  soft.encrypt_blocks(pt.data(), want.data(), 37);
  for (const Aes128::Backend tier : compiled_tiers()) {
    Aes128 aes(key, tier);
    ASSERT_EQ(aes.tier(), tier);
    Bytes got(pt.size());
    aes.encrypt_blocks(pt.data(), got.data(), 37);
    EXPECT_EQ(hex_encode(got), hex_encode(want)) << aes.backend();
  }
}

TEST(BackendTiers, CmacManyMixedTierGroupsMatchScalar) {
  // aes_cmac_many groups consecutive hardware keys by their MINIMUM tier
  // and widens to 16 lanes when the group supports it; soft keys fall out
  // as scalar jobs. Mixing all compiled tiers in one batch must still give
  // scalar-identical tags for every job.
  ChaChaRng rng(616);
  const auto tiers = compiled_tiers();
  constexpr std::size_t kJobs = 41;  // 16-wide + 8-wide + ragged tail
  std::vector<AesCmac> keys;
  std::vector<Bytes> as, bs;
  keys.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    keys.emplace_back(rng.bytes(16), tiers[i % tiers.size()]);
    as.push_back(rng.bytes((i * 29) % 301));
    bs.push_back(rng.bytes((i * 13 + 7) % 129));
  }
  std::vector<CmacJob> jobs;
  for (std::size_t i = 0; i < kJobs; ++i)
    jobs.push_back(CmacJob{&keys[i], as[i], bs[i]});
  std::vector<std::array<std::uint8_t, 16>> tags(kJobs);
  aes_cmac_many(jobs, tags.data());
  for (std::size_t i = 0; i < kJobs; ++i)
    EXPECT_EQ(hex_encode(tags[i]), hex_encode(keys[i].mac2(as[i], bs[i])))
        << "job " << i << " tier " << keys[i].backend();
}

TEST(BackendTiers, CmacManyEveryJobCountMatchesMac2) {
  // Every job count from 1 to 33 on every compiled tier: the serial path
  // for groups too small to interleave, both lane widths, a ragged tail
  // group, and straggler lanes that finish serially once the shorter IMIX
  // inputs (128 / 512 / 1518 B frames, in an unbalanced order) retire.
  ChaChaRng rng(818);
  constexpr std::size_t kMaxJobs = 33;
  const std::size_t frames[] = {128, 1518, 128, 512, 128, 128, 512,
                                128, 128,  1518, 128, 512, 128};
  for (const Aes128::Backend tier : compiled_tiers()) {
    std::vector<AesCmac> keys;
    keys.reserve(kMaxJobs);
    std::vector<Bytes> as, bs;
    for (std::size_t i = 0; i < kMaxJobs; ++i) {
      keys.emplace_back(rng.bytes(16), tier);
      as.push_back(rng.bytes(40 + (i % 4) * 4));  // packet MAC preambles
      bs.push_back(rng.bytes(frames[i % std::size(frames)] - 52));
    }
    std::vector<CmacJob> jobs;
    for (std::size_t i = 0; i < kMaxJobs; ++i)
      jobs.push_back(CmacJob{&keys[i], as[i], bs[i]});
    for (std::size_t n = 1; n <= kMaxJobs; ++n) {
      std::vector<std::array<std::uint8_t, 16>> tags(n);
      aes_cmac_many(std::span<const CmacJob>(jobs.data(), n), tags.data());
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hex_encode(tags[i]), hex_encode(keys[i].mac2(as[i], bs[i])))
            << keys[i].backend() << " jobs " << n << " job " << i;
    }
  }
}

TEST(BackendTiers, ChaChaWideKernelsMatchScalarBlocks) {
  // The 4-way SSE2 and 8-way AVX2 kernels must reproduce the scalar block
  // sequence exactly, including the 32-bit counter wrap.
  ChaChaRng rng(717);
  const Bytes key = rng.bytes(32);
  const Bytes nonce = rng.bytes(12);
  for (const std::uint32_t counter : {0u, 1u, 0xfffffffdu}) {
    std::uint8_t want[512];
    for (int b = 0; b < 8; ++b)
      chacha20_block(key.data(), counter + static_cast<std::uint32_t>(b),
                     nonce.data(), want + 64 * b);
    std::uint8_t got4[256];
    detail::chacha20_blocks4_sse2(key.data(), counter, nonce.data(), got4);
    EXPECT_EQ(hex_encode(ByteSpan(got4, 256)),
              hex_encode(ByteSpan(want, 256)))
        << "sse2 counter=" << counter;
    if (detail::chacha20_avx2_supported()) {
      std::uint8_t got8[512];
      detail::chacha20_blocks8_avx2(key.data(), counter, nonce.data(), got8);
      EXPECT_EQ(hex_encode(ByteSpan(got8, 512)),
                hex_encode(ByteSpan(want, 512)))
          << "avx2 counter=" << counter;
    }
  }
}

TEST(BackendTiers, ChaChaXcryptMatchesScalarReferenceAcrossLengths) {
  // chacha20_xcrypt mixes 8-, 4- and 1-block strides; every length around
  // the stride boundaries, including 2-7-block tails after a full 8-block
  // stride (576, 640, 960 B), must equal the scalar XOR reference from
  // any start counter, across the 32-bit counter wrap too.
  ChaChaRng rng(818);
  const Bytes key = rng.bytes(32);
  const Bytes nonce = rng.bytes(12);
  for (const std::uint32_t counter : {1u, 9u, 0xfffffffcu}) {
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
          std::size_t{65}, std::size_t{128}, std::size_t{255},
          std::size_t{256}, std::size_t{257}, std::size_t{448},
          std::size_t{511}, std::size_t{512}, std::size_t{513},
          std::size_t{576}, std::size_t{640}, std::size_t{960},
          std::size_t{1337}}) {
      const Bytes pt = rng.bytes(len);
      Bytes want(len);
      std::uint8_t block[64];
      for (std::size_t off = 0; off < len; off += 64) {
        chacha20_block(key.data(),
                       counter + static_cast<std::uint32_t>(off / 64),
                       nonce.data(), block);
        for (std::size_t i = off; i < std::min(len, off + 64); ++i)
          want[i] = static_cast<std::uint8_t>(pt[i] ^ block[i - off]);
      }
      Bytes got(len);
      chacha20_xcrypt(key.data(), counter, nonce.data(), pt, got);
      EXPECT_EQ(hex_encode(got), hex_encode(want))
          << "counter=" << counter << " len=" << len;
    }
  }
}

/// RFC 8439 §2.8 composed from the production chacha20_block and one-shot
/// poly1305: ciphertext ‖ tag.
Bytes reference_chacha20_poly1305(ByteSpan key, ByteSpan nonce, ByteSpan aad,
                                  ByteSpan pt) {
  std::uint8_t block[64];
  chacha20_block(key.data(), 0, nonce.data(), block);
  std::uint8_t otk[32];
  std::memcpy(otk, block, 32);
  Bytes out(pt.size());
  for (std::size_t off = 0; off < pt.size(); off += 64) {
    chacha20_block(key.data(), 1 + static_cast<std::uint32_t>(off / 64),
                   nonce.data(), block);
    for (std::size_t i = off; i < std::min(pt.size(), off + 64); ++i)
      out[i] = static_cast<std::uint8_t>(pt[i] ^ block[i - off]);
  }
  auto pad16 = [](Bytes& b) { b.resize((b.size() + 15) / 16 * 16, 0); };
  Bytes mac_data(aad.begin(), aad.end());
  pad16(mac_data);
  append(mac_data, out);
  pad16(mac_data);
  std::uint8_t lens[16];
  store_le64(lens, aad.size());
  store_le64(lens + 8, pt.size());
  append(mac_data, ByteSpan(lens, 16));
  const auto tag = poly1305(otk, mac_data);
  append(out, tag);
  return out;
}

TEST(BackendTiers, ChaCha20Poly1305MatchesComposedReferenceAtEveryLength) {
  // Seal and open at the running ChaCha cap (APNA_CRYPTO_BACKEND; ci.sh
  // runs this suite under soft and aesni too) against the composed
  // reference, at every plaintext length 0-1100 with 0 and 48 B of aad.
  ChaChaRng rng(919);
  const Bytes key = rng.bytes(32);
  const ChaCha20Poly1305 aead(key);
  const Bytes msg = rng.bytes(1100);
  const Bytes aad48 = rng.bytes(48);
  for (std::size_t len = 0; len <= 1100; ++len) {
    for (const ByteSpan aad : {ByteSpan{}, ByteSpan(aad48)}) {
      const Bytes nonce = rng.bytes(12);
      const ByteSpan pt(msg.data(), len);
      const Bytes want = reference_chacha20_poly1305(key, nonce, aad, pt);
      const Bytes sealed = aead.seal(nonce, aad, pt);
      ASSERT_EQ(hex_encode(sealed), hex_encode(want))
          << "len=" << len << " aad=" << aad.size();
      auto opened = aead.open(nonce, aad, want);
      ASSERT_TRUE(opened.has_value()) << "len=" << len << " aad=" << aad.size();
      ASSERT_TRUE(std::equal(opened->begin(), opened->end(), pt.begin(),
                             pt.end()))
          << "len=" << len << " aad=" << aad.size();
    }
  }
}

// ---- Ed25519 batch verification ---------------------------------------------------
// The accept/reject SETS must be bit-identical to per-signature
// ed25519_verify under randomized corruption (the bisection fallback
// contract consumed by ServicePool's PoP sweep).

struct BatchFixture {
  std::vector<std::array<std::uint8_t, 32>> seeds, pubs;
  std::vector<Bytes> msgs;
  std::vector<Ed25519Signature> sigs;

  explicit BatchFixture(std::size_t n, ChaChaRng& rng) {
    for (std::size_t i = 0; i < n; ++i) {
      std::array<std::uint8_t, 32> seed{};
      rng.fill(seed);
      const auto pub = ed25519_public_key(seed);
      Bytes msg = rng.bytes(rng.next_u64() % 96);
      sigs.push_back(ed25519_sign(seed, pub, msg));
      seeds.push_back(seed);
      pubs.push_back(pub);
      msgs.push_back(std::move(msg));
    }
  }

  std::vector<Ed25519BatchItem> items() const {
    std::vector<Ed25519BatchItem> out;
    for (std::size_t i = 0; i < sigs.size(); ++i)
      out.push_back({&pubs[i], msgs[i], &sigs[i]});
    return out;
  }

  void check_matches_scalar() const {
    const auto batch_items = items();
    const auto out = std::make_unique<bool[]>(batch_items.size());
    const bool all = ed25519_verify_batch(
        {batch_items.data(), batch_items.size()}, out.get());
    bool expect_all = true;
    for (std::size_t i = 0; i < batch_items.size(); ++i) {
      const bool scalar = ed25519_verify(pubs[i], msgs[i], sigs[i]);
      EXPECT_EQ(out[i], scalar) << "item " << i;
      expect_all = expect_all && scalar;
    }
    EXPECT_EQ(all, expect_all);
  }
};

TEST(Ed25519Batch, AllValidBatchesAccept) {
  ChaChaRng rng(2024);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{16}, std::size_t{33}}) {
    BatchFixture f(n, rng);
    f.check_matches_scalar();
  }
}

TEST(Ed25519Batch, RandomizedCorruptionsMatchScalarExactly) {
  ChaChaRng rng(31337);
  for (int round = 0; round < 12; ++round) {
    const std::size_t n = 1 + rng.next_u64() % 24;
    BatchFixture f(n, rng);
    // Corrupt a random subset in randomized ways; bisection must isolate
    // exactly the scalar-rejected items.
    const std::size_t bad = rng.next_u64() % (n + 1);
    for (std::size_t k = 0; k < bad; ++k) {
      const std::size_t i = rng.next_u64() % n;
      switch (rng.next_u64() % 6) {
        case 0: f.sigs[i][rng.next_u64() % 32] ^= 1 << (rng.next_u64() % 8);
          break;  // corrupt R half
        case 1: f.sigs[i][32 + rng.next_u64() % 31] ^= 1; break;  // S half
        case 2:
          if (!f.msgs[i].empty())
            f.msgs[i][rng.next_u64() % f.msgs[i].size()] ^= 0x40;
          else
            f.msgs[i].push_back(0x5a);
          break;
        case 3: f.pubs[i][rng.next_u64() % 32] ^= 0x04; break;
        case 4: f.sigs[i][63] |= 0xe0; break;  // non-canonical S
        case 5:  // a key that proves nothing, with its forgery
          f.pubs[i] = test::small_order_key(
              rng.next_u64() % test::kSmallOrderKeysHex.size());
          f.sigs[i] = test::base_point_signature();
          break;
      }
    }
    f.check_matches_scalar();
  }
}

TEST(Ed25519Batch, SwappedSignaturesBothRejected) {
  ChaChaRng rng(606);
  BatchFixture f(8, rng);
  std::swap(f.sigs[2], f.sigs[5]);
  f.check_matches_scalar();
}

// ---- Test-local affine Edwards arithmetic ----------------------------------
// On −x² + y² = 1 + d·x²·y², straight from the formulas over fe25519.h and
// independent of ed25519.cpp: it builds points with a torsion component.

struct Affine {
  Fe x, y;
};

Fe curve_d() {  // −121665 / 121666
  return fe_mul(fe_neg(fe_mul_small(fe_one(), 121665)),
                fe_invert(fe_mul_small(fe_one(), 121666)));
}

bool on_curve(const Affine& p) {
  const Fe xx = fe_sq(p.x), yy = fe_sq(p.y);
  return fe_equal(fe_sub(yy, xx),
                  fe_add(fe_one(), fe_mul(curve_d(), fe_mul(xx, yy))));
}

/// Decodes a valid encoding: with u = y² − 1 and v = d·y² + 1, x² = u / v,
/// x = u·v³·(u·v⁷)^((p−5)/8), times sqrt(−1) when that squares to −u/v,
/// and the top bit picks the sign.
Affine decode_point(const std::uint8_t enc[32]) {
  const Fe y = fe_frombytes(enc);
  const Fe u = fe_sub(fe_sq(y), fe_one());
  const Fe v = fe_add(fe_mul(curve_d(), fe_sq(y)), fe_one());
  const Fe v3 = fe_mul(fe_sq(v), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow2523(fe_mul(u, fe_mul(fe_sq(v3), v))));
  if (!fe_equal(fe_mul(v, fe_sq(x)), u)) x = fe_mul(x, fe_sqrtm1());
  if (fe_isnegative(x) != ((enc[31] & 0x80) != 0)) x = fe_neg(x);
  return {x, y};
}

std::array<std::uint8_t, 32> encode_point(const Affine& p) {
  std::array<std::uint8_t, 32> out;
  fe_tobytes(out.data(), p.y);
  if (fe_isnegative(p.x)) out[31] |= 0x80;
  return out;
}

/// The complete twisted Edwards addition law with a = −1.
Affine add_points(const Affine& p, const Affine& q) {
  const Fe t = fe_mul(curve_d(), fe_mul(fe_mul(p.x, q.x), fe_mul(p.y, q.y)));
  return {fe_mul(fe_add(fe_mul(p.x, q.y), fe_mul(p.y, q.x)),
                 fe_invert(fe_add(fe_one(), t))),
          fe_mul(fe_add(fe_mul(p.y, q.y), fe_mul(p.x, q.x)),
                 fe_invert(fe_sub(fe_one(), t)))};
}

/// encode(decode(enc) + T) for the small-order point T of
/// test::small_order_key(t).
std::array<std::uint8_t, 32> plus_torsion(const std::uint8_t enc[32],
                                          std::size_t t) {
  const Affine p = decode_point(enc);
  const Affine torsion = decode_point(test::small_order_key(t).data());
  EXPECT_TRUE(on_curve(p) && on_curve(torsion)) << t;
  return encode_point(add_points(p, torsion));
}

/// The signature under `seed` of `msg` with the nonce point and key
/// encoded as `r_enc` and `pub`: S = r + SHA512(r_enc ‖ pub ‖ M)·a, with a
/// and r derived exactly as ed25519_sign derives them. With
/// r_enc = encode(r·B + T) or pub = encode(a·B + T), S·B − k·A − R is a
/// multiple of the small-order point T.
Ed25519Signature sign_with(const Ed25519Seed& seed,
                           const std::array<std::uint8_t, 32>& r_enc,
                           const Ed25519PublicKey& pub, ByteSpan msg) {
  const auto h = Sha512::hash(ByteSpan(seed.data(), seed.size()));
  std::uint8_t a[32];
  std::copy(h.begin(), h.begin() + 32, a);
  a[0] &= 248;
  a[31] &= 127;
  a[31] |= 64;
  Sha512 hr;
  hr.update(ByteSpan(h.data() + 32, 32));
  hr.update(msg);
  std::uint8_t r[32];
  sc_reduce(r, hr.finish().data());

  Ed25519Signature sig{};
  std::copy(r_enc.begin(), r_enc.end(), sig.begin());
  Sha512 hk;
  hk.update(ByteSpan(sig.data(), 32));
  hk.update(ByteSpan(pub.data(), pub.size()));
  hk.update(msg);
  std::uint8_t k[32];
  sc_reduce(k, hk.finish().data());
  sc_muladd(sig.data() + 32, k, a, r);
  return sig;
}

/// A signature under `seed` whose R carries the small-order point T of
/// test::small_order_key(t): R′ = r·B + T, S = r + H(R′ ‖ A ‖ M)·a, so
/// S·B − k·A equals R′ only up to T. t = 1 is the order-2 point (0, −1).
Ed25519Signature torsion_offset_signature(const Ed25519Seed& seed,
                                          const Ed25519PublicKey& pub,
                                          ByteSpan msg, std::size_t t = 1) {
  const Ed25519Signature honest = ed25519_sign(seed, pub, msg);  // R = r·B
  return sign_with(seed, plus_torsion(honest.data(), t), pub, msg);
}

TEST(Ed25519Batch, TorsionOffsetPairMatchesScalar) {
  // Two signatures whose R each carries (0, −1): their offsets sum to the
  // identity, so a cofactorless batch equation whose coefficients are all
  // ≡ 1 (mod 8) accepts the pair whatever a scalar check decides. The
  // cofactored equation accepts each one (the ZIP 215 trade-off), and the
  // batch must agree item by item, as a pair and amid honest signatures.
  ChaChaRng rng(2323);
  for (int round = 0; round < 8; ++round) {
    BatchFixture f(4, rng);
    for (const std::size_t i : {std::size_t{1}, std::size_t{2}}) {
      f.sigs[i] = torsion_offset_signature(f.seeds[i], f.pubs[i], f.msgs[i]);
      EXPECT_TRUE(ed25519_verify(f.pubs[i], f.msgs[i], f.sigs[i]));
    }
    f.check_matches_scalar();

    BatchFixture pair(0, rng);
    for (const std::size_t i : {std::size_t{1}, std::size_t{2}}) {
      pair.seeds.push_back(f.seeds[i]);
      pair.pubs.push_back(f.pubs[i]);
      pair.msgs.push_back(f.msgs[i]);
      pair.sigs.push_back(f.sigs[i]);
    }
    pair.check_matches_scalar();
  }
}

// The small-order points but the identity and its non-canonical encoding.
constexpr std::size_t kFirstTorsion = 1, kEndTorsion = 8;

TEST(Ed25519Batch, TorsionOnREveryOrderMatchesScalar) {
  // R′ = r·B + T for each T of order 2, 4 and 8: the cofactored equation
  // accepts every one, alone, amid honest signatures and all seven in one
  // batch.
  ChaChaRng rng(2424);
  BatchFixture all(0, rng);
  for (std::size_t t = kFirstTorsion; t < kEndTorsion; ++t) {
    BatchFixture f(5, rng);
    f.sigs[2] = torsion_offset_signature(f.seeds[2], f.pubs[2], f.msgs[2], t);
    EXPECT_NE(f.sigs[2], ed25519_sign(f.seeds[2], f.pubs[2], f.msgs[2]));
    EXPECT_TRUE(ed25519_verify(f.pubs[2], f.msgs[2], f.sigs[2])) << t;
    f.check_matches_scalar();
    all.seeds.push_back(f.seeds[2]);
    all.pubs.push_back(f.pubs[2]);
    all.msgs.push_back(f.msgs[2]);
    all.sigs.push_back(f.sigs[2]);
  }
  all.check_matches_scalar();
}

TEST(Ed25519Batch, MixedOrderKeysMatchScalar) {
  // A′ = a·B + T for each T of order 2, 4 and 8 is not of small order, so
  // both paths take it. An honest signature under A′ satisfies the
  // cofactored equation (S·B − k·A′ − R = −k·T); one over another message
  // does not.
  ChaChaRng rng(2525);
  for (std::size_t t = kFirstTorsion; t < kEndTorsion; ++t) {
    BatchFixture f(5, rng);
    std::array<std::uint8_t, 32> r_enc;  // encode(r·B)
    const auto honest = ed25519_sign(f.seeds[1], f.pubs[1], f.msgs[1]);
    std::copy(honest.begin(), honest.begin() + 32, r_enc.begin());
    f.pubs[1] = plus_torsion(f.pubs[1].data(), t);
    f.sigs[1] = sign_with(f.seeds[1], r_enc, f.pubs[1], f.msgs[1]);
    EXPECT_TRUE(ed25519_verify(f.pubs[1], f.msgs[1], f.sigs[1])) << t;
    f.check_matches_scalar();

    // The same key and signature over another message.
    f.pubs[3] = f.pubs[1];
    f.sigs[3] = f.sigs[1];
    f.msgs[3] = f.msgs[1];
    f.msgs[3].push_back(0x5a);
    EXPECT_FALSE(ed25519_verify(f.pubs[3], f.msgs[3], f.sigs[3])) << t;
    f.check_matches_scalar();
  }
}

TEST(Ed25519Batch, EmptyBatchAccepts) {
  EXPECT_TRUE(ed25519_verify_batch({}, nullptr));
}

}  // namespace
}  // namespace apna::crypto
