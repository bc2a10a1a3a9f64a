// Known-answer and property tests for the crypto substrate.
//
// Every primitive is anchored by published vectors (FIPS-197, SP 800-38A/D,
// RFC 4493, RFC 4231, RFC 5869, RFC 7748, RFC 8032, RFC 8439) and then
// exercised with parameterized roundtrip/tamper properties. The Curve25519
// arithmetic is additionally pinned by golden digests over 1,000 Ed25519
// signatures and 256 X25519 secrets, and by slow reference oracles for the
// scalar reduction and the field exponentiations.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

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

// ---- AES -------------------------------------------------------------------

TEST(Aes, Fips197KnownAnswer) {
  const Bytes key = must_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = must_hex("00112233445566778899aabbccddeeff");
  Aes128 aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex_encode(ByteSpan(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes, Sp800_38aEcbVector) {
  const Bytes key = must_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes pt = must_hex("6bc1bee22e409f96e93d7e117393172a");
  Aes128 aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex_encode(ByteSpan(ct, 16)), "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Aes, SoftAndNiBackendsAgree) {
  // Directly compares the two backends on random blocks (meaningful only
  // when AES-NI is present; otherwise both paths are the software one).
  ChaChaRng rng(42);
  for (int i = 0; i < 64; ++i) {
    Bytes key = rng.bytes(16);
    Bytes block = rng.bytes(16);
    std::uint8_t rk_soft[176], rk_ni[176];
    detail::soft_expand_key128(key.data(), rk_soft);
    std::uint8_t out_soft[16];
    detail::soft_encrypt_block(rk_soft, block.data(), out_soft);
    if (Aes128::has_aesni()) {
      detail::aesni_expand_key128(key.data(), rk_ni);
      EXPECT_EQ(hex_encode(ByteSpan(rk_soft, 176)),
                hex_encode(ByteSpan(rk_ni, 176)));
      std::uint8_t out_ni[16];
      detail::aesni_encrypt_blocks(rk_ni, block.data(), out_ni, 1);
      EXPECT_EQ(hex_encode(ByteSpan(out_soft, 16)),
                hex_encode(ByteSpan(out_ni, 16)));
    }
  }
}

TEST(Aes, MultiBlockPipelineMatchesSingle) {
  ChaChaRng rng(7);
  Bytes key = rng.bytes(16);
  Aes128 aes(key);
  Bytes in = rng.bytes(16 * 9);
  Bytes batched(in.size()), single(in.size());
  aes.encrypt_blocks(in.data(), batched.data(), 9);
  for (int i = 0; i < 9; ++i)
    aes.encrypt_block(in.data() + 16 * i, single.data() + 16 * i);
  EXPECT_EQ(hex_encode(batched), hex_encode(single));
}

// ---- CTR -------------------------------------------------------------------

TEST(Ctr, Sp800_38aVector) {
  const Bytes key = must_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes ctr = must_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes pt = must_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  Aes128 aes(key);
  const Bytes ct = aes_ctr(aes, ctr.data(), pt);
  EXPECT_EQ(hex_encode(ct),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee");
}

TEST(Ctr, IsInvolution) {
  ChaChaRng rng(1);
  Bytes key = rng.bytes(16);
  Aes128 aes(key);
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 1000u}) {
    Bytes iv = rng.bytes(16);
    Bytes pt = rng.bytes(len);
    Bytes ct = aes_ctr(aes, iv.data(), pt);
    Bytes back = aes_ctr(aes, iv.data(), ct);
    EXPECT_EQ(hex_encode(back), hex_encode(pt)) << "len=" << len;
  }
}

TEST(Ctr, CounterWrapsAcrossBlockBoundary) {
  // Counter blocks near the 32-bit boundary must not collide.
  Bytes key = must_hex("000102030405060708090a0b0c0d0e0f");
  Aes128 aes(key);
  Bytes iv = must_hex("000102030405060708090a0bfffffffe");
  Bytes pt(64, 0);
  Bytes ct = aes_ctr(aes, iv.data(), pt);
  // Keystream blocks must all differ.
  for (int i = 0; i < 4; ++i)
    for (int j = i + 1; j < 4; ++j)
      EXPECT_NE(hex_encode(ByteSpan(ct.data() + 16 * i, 16)),
                hex_encode(ByteSpan(ct.data() + 16 * j, 16)));
}

// ---- CBC-MAC / CMAC --------------------------------------------------------

TEST(CbcMac, SingleBlockIsRawAes) {
  Bytes key = must_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes block = must_hex("6bc1bee22e409f96e93d7e117393172a");
  Aes128 aes(key);
  const auto mac = aes_cbc_mac(aes, block);
  std::uint8_t direct[16];
  aes.encrypt_block(block.data(), direct);
  EXPECT_EQ(hex_encode(mac), hex_encode(ByteSpan(direct, 16)));
}

TEST(CbcMac, TwoBlockChaining) {
  ChaChaRng rng(3);
  Bytes key = rng.bytes(16);
  Aes128 aes(key);
  Bytes data = rng.bytes(32);
  const auto mac = aes_cbc_mac(aes, data);
  // Manual chain.
  std::uint8_t x[16];
  aes.encrypt_block(data.data(), x);
  for (int i = 0; i < 16; ++i) x[i] ^= data[16 + i];
  aes.encrypt_block(x, x);
  EXPECT_EQ(hex_encode(mac), hex_encode(ByteSpan(x, 16)));
}

TEST(Cmac, Rfc4493Vectors) {
  Bytes key = must_hex("2b7e151628aed2a6abf7158809cf4f3c");
  AesCmac cmac(key);
  EXPECT_EQ(hex_encode(cmac.mac({})), "bb1d6929e95937287fa37d129b756746");
  EXPECT_EQ(hex_encode(cmac.mac(must_hex("6bc1bee22e409f96e93d7e117393172a"))),
            "070a16b46b4d4144f79bdd9dd04a287c");
  EXPECT_EQ(hex_encode(cmac.mac(must_hex(
                "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af"
                "8e5130c81c46a35ce411"))),
            "dfa66747de9ae63030ca32611497c827");
  EXPECT_EQ(hex_encode(cmac.mac(must_hex(
                "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af"
                "8e5130c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417b"
                "e66c3710"))),
            "51f0bebf7e3b9d92fc49741779363cfe");
}

TEST(Cmac, SplitMacMatchesConcatenated) {
  ChaChaRng rng(4);
  Bytes key = rng.bytes(16);
  AesCmac cmac(key);
  for (std::size_t a_len : {0u, 1u, 15u, 16u, 17u, 48u}) {
    for (std::size_t b_len : {0u, 1u, 16u, 33u}) {
      Bytes a = rng.bytes(a_len);
      Bytes b = rng.bytes(b_len);
      Bytes joined = a;
      append(joined, b);
      EXPECT_EQ(hex_encode(cmac.mac2(a, b)), hex_encode(cmac.mac(joined)))
          << a_len << "+" << b_len;
    }
  }
}

TEST(Cmac, VerifyTruncatedTag) {
  ChaChaRng rng(5);
  Bytes key = rng.bytes(16);
  AesCmac cmac(key);
  Bytes msg = rng.bytes(100);
  auto tag = cmac.mac(msg);
  EXPECT_TRUE(cmac.verify(msg, ByteSpan(tag.data(), 8)));
  tag[3] ^= 1;
  EXPECT_FALSE(cmac.verify(msg, ByteSpan(tag.data(), 8)));
  EXPECT_FALSE(cmac.verify(msg, ByteSpan(tag.data(), 0)));
}

// ---- SHA-2 -----------------------------------------------------------------

TEST(Sha256, NistVectors) {
  EXPECT_EQ(hex_encode(Sha256::hash(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex_encode(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_encode(Sha256::hash(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_encode(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  ChaChaRng rng(8);
  Bytes data = rng.bytes(300);
  for (std::size_t split = 0; split <= data.size(); split += 37) {
    Sha256 h;
    h.update(ByteSpan(data.data(), split));
    h.update(ByteSpan(data.data() + split, data.size() - split));
    EXPECT_EQ(hex_encode(h.finish()), hex_encode(Sha256::hash(data)));
  }
}

TEST(Sha512, NistVectors) {
  EXPECT_EQ(hex_encode(Sha512::hash(to_bytes("abc"))),
            "ddaf35a193617abacc417349ae204131"
            "12e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd"
            "454d4423643ce80e2a9ac94fa54ca49f");
  EXPECT_EQ(hex_encode(Sha512::hash({})),
            "cf83e1357eefb8bdf1542850d66d8007"
            "d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f"
            "63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, TwoBlockMessage) {
  EXPECT_EQ(
      hex_encode(Sha512::hash(to_bytes(
          "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
          "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
      "8e959b75dae313da8cf4f72814fc143f"
      "8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433a"
      "c7d329eeb6dd26545e96e55b874be909");
}

// ---- HMAC / HKDF -----------------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex_encode(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(hex_encode(hmac_sha256(to_bytes("Jefe"),
                                   to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(hex_encode(hmac_sha256(
                key, to_bytes("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = must_hex("000102030405060708090a0b0c");
  const Bytes info = must_hex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(hex_encode(okm),
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, DistinctLabelsGiveIndependentKeys) {
  ChaChaRng rng(9);
  Bytes ikm = rng.bytes(32);
  auto k1 = derive_key16(ikm, "label-one");
  auto k2 = derive_key16(ikm, "label-two");
  EXPECT_NE(hex_encode(k1), hex_encode(k2));
  auto k1_again = derive_key16(ikm, "label-one");
  EXPECT_EQ(hex_encode(k1), hex_encode(k1_again));
}

// ---- ChaCha20 / Poly1305 ---------------------------------------------------

TEST(ChaCha20, Rfc8439BlockFunction) {
  const Bytes key = must_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = must_hex("000000090000004a00000000");
  std::uint8_t block[64];
  chacha20_block(key.data(), 1, nonce.data(), block);
  EXPECT_EQ(hex_encode(ByteSpan(block, 64)),
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Encryption) {
  const Bytes key = must_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = must_hex("000000000000004a00000000");
  const Bytes pt = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  Bytes ct(pt.size());
  chacha20_xcrypt(key.data(), 1, nonce.data(), pt, ct);
  EXPECT_EQ(hex_encode(ct),
            "6e2e359a2568f98041ba0728dd0d6981"
            "e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b357"
            "1639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e"
            "52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42"
            "874d");
}

TEST(Poly1305, Rfc8439Vector) {
  const Bytes key = must_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const auto tag =
      poly1305(key.data(), to_bytes("Cryptographic Forum Research Group"));
  EXPECT_EQ(hex_encode(tag), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(ChaChaPoly, Rfc8439AeadVector) {
  const Bytes key = must_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  const Bytes nonce = must_hex("070000004041424344454647");
  const Bytes aad = must_hex("50515253c0c1c2c3c4c5c6c7");
  const Bytes pt = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  ChaCha20Poly1305 aead(key);
  const Bytes sealed = aead.seal(nonce, aad, pt);
  EXPECT_EQ(hex_encode(ByteSpan(sealed.data() + pt.size(), 16)),
            "1ae10b594f09e26a7e902ecbd0600691");
  auto opened = aead.open(nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(to_string(*opened), to_string(pt));
}

// ---- AEAD interface (parameterized over suites) ------------------------------

class AeadSuiteTest : public ::testing::TestWithParam<AeadSuite> {};

TEST_P(AeadSuiteTest, RoundtripAcrossSizes) {
  ChaChaRng rng(10);
  Bytes key = rng.bytes(32);
  auto aead = Aead::create(GetParam(), key);
  ASSERT_NE(aead, nullptr);
  for (std::size_t len : {0u, 1u, 16u, 63u, 64u, 65u, 128u, 1000u, 1500u}) {
    Bytes nonce = rng.bytes(12);
    Bytes aad = rng.bytes(48);
    Bytes pt = rng.bytes(len);
    Bytes sealed = aead->seal(nonce, aad, pt);
    EXPECT_EQ(sealed.size(), len + Aead::kTagSize);
    auto opened = aead->open(nonce, aad, sealed);
    ASSERT_TRUE(opened.has_value()) << "len=" << len;
    EXPECT_EQ(hex_encode(*opened), hex_encode(pt));
  }
}

TEST_P(AeadSuiteTest, TamperAnywhereRejects) {
  ChaChaRng rng(11);
  Bytes key = rng.bytes(32);
  auto aead = Aead::create(GetParam(), key);
  Bytes nonce = rng.bytes(12);
  Bytes aad = rng.bytes(16);
  Bytes pt = rng.bytes(64);
  Bytes sealed = aead->seal(nonce, aad, pt);
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    Bytes bad = sealed;
    bad[i] ^= 0x01;
    EXPECT_FALSE(aead->open(nonce, aad, bad).has_value()) << "byte " << i;
  }
}

TEST_P(AeadSuiteTest, WrongNonceOrKeyRejects) {
  ChaChaRng rng(12);
  Bytes key = rng.bytes(32);
  auto aead = Aead::create(GetParam(), key);
  Bytes nonce = rng.bytes(12);
  Bytes pt = rng.bytes(32);
  Bytes sealed = aead->seal(nonce, {}, pt);

  Bytes other_nonce = nonce;
  other_nonce[11] ^= 1;
  EXPECT_FALSE(aead->open(other_nonce, {}, sealed).has_value());

  Bytes other_key = key;
  other_key[0] ^= 1;
  auto aead2 = Aead::create(GetParam(), other_key);
  EXPECT_FALSE(aead2->open(nonce, {}, sealed).has_value());
}

TEST_P(AeadSuiteTest, TruncatedCiphertextRejects) {
  ChaChaRng rng(13);
  auto aead = Aead::create(GetParam(), rng.bytes(32));
  Bytes nonce = rng.bytes(12);
  Bytes sealed = aead->seal(nonce, {}, rng.bytes(40));
  EXPECT_FALSE(aead->open(nonce, {}, ByteSpan(sealed.data(), 10)).has_value());
  EXPECT_FALSE(aead->open(nonce, {}, ByteSpan(sealed.data(), 0)).has_value());
}

INSTANTIATE_TEST_SUITE_P(AllSuites, AeadSuiteTest,
                         ::testing::Values(AeadSuite::chacha20_poly1305,
                                           AeadSuite::aes128_ctr_cmac),
                         [](const auto& info) {
                           switch (info.param) {
                             case AeadSuite::chacha20_poly1305:
                               return "ChaCha20Poly1305";
                             case AeadSuite::aes128_ctr_cmac:
                               return "AesCtrCmac";
                           }
                           return "Unknown";
                         });

// ---- Field arithmetic ------------------------------------------------------

TEST(Fe25519, RoundtripBytes) {
  ChaChaRng rng(14);
  for (int i = 0; i < 50; ++i) {
    Bytes b = rng.bytes(32);
    b[31] &= 0x7f;  // below 2^255
    // Values >= p won't roundtrip identically; mask to < p by clearing a bit.
    b[31] &= 0x3f;
    Fe f = fe_frombytes(b.data());
    std::uint8_t out[32];
    fe_tobytes(out, f);
    EXPECT_EQ(hex_encode(ByteSpan(out, 32)), hex_encode(b));
  }
}

TEST(Fe25519, NonCanonicalReduces) {
  // p encodes as zero.
  Bytes p_bytes = must_hex(
      "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  Fe f = fe_frombytes(p_bytes.data());
  EXPECT_TRUE(fe_iszero(f));
  // p + 1 encodes as one.
  Bytes p1 = p_bytes;
  p1[0] = 0xee;
  Fe g = fe_frombytes(p1.data());
  std::uint8_t out[32];
  fe_tobytes(out, g);
  EXPECT_EQ(out[0], 1);
  for (int i = 1; i < 32; ++i) EXPECT_EQ(out[i], 0);
}

TEST(Fe25519, AlgebraicIdentities) {
  ChaChaRng rng(15);
  for (int i = 0; i < 20; ++i) {
    Bytes ab = rng.bytes(32);
    ab[31] &= 0x3f;
    Bytes bb = rng.bytes(32);
    bb[31] &= 0x3f;
    Fe a = fe_frombytes(ab.data());
    Fe b = fe_frombytes(bb.data());
    // a*b == b*a
    EXPECT_TRUE(fe_equal(fe_mul(a, b), fe_mul(b, a)));
    // (a+b)^2 == a^2 + 2ab + b^2
    Fe lhs = fe_sq(fe_add(a, b));
    Fe rhs = fe_add(fe_add(fe_sq(a), fe_sq(b)),
                    fe_add(fe_mul(a, b), fe_mul(a, b)));
    EXPECT_TRUE(fe_equal(lhs, rhs));
    // a * a^-1 == 1 (a != 0 w.h.p.)
    if (!fe_iszero(a)) {
      EXPECT_TRUE(fe_equal(fe_mul(a, fe_invert(a)), fe_one()));
    }
    // a - a == 0
    EXPECT_TRUE(fe_iszero(fe_sub(a, a)));
  }
}

TEST(Fe25519, SqrtM1SquaresToMinusOne) {
  const Fe i = fe_sqrtm1();
  EXPECT_TRUE(fe_equal(fe_sq(i), fe_neg(fe_one())));
}

/// Oracle: x^e by left-to-right square-and-multiply over the 256-bit
/// little-endian exponent, squaring with fe_mul so it shares no code with
/// the addition chains or fe_sq under test.
Fe pow_oracle(const Fe& x, const Bytes& exponent_le) {
  Fe result = fe_one();
  for (int bit = 255; bit >= 0; --bit) {
    result = fe_mul(result, result);
    if ((exponent_le[bit / 8] >> (bit % 8)) & 1) result = fe_mul(result, x);
  }
  return result;
}

TEST(Fe25519, InvertAndPow2523MatchSquareAndMultiply) {
  const Bytes p_minus_2 = must_hex(  // 2^255 - 21
      "ebffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  const Bytes p_minus_5_over_8 = must_hex(  // 2^252 - 3
      "fdffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff0f");
  std::vector<Bytes> inputs = {
      Bytes(32, 0),  // 0
      must_hex(      // 1
          "0100000000000000000000000000000000000000000000000000000000000000"),
      must_hex(      // p - 1
          "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
  };
  ChaChaRng rng(25519);
  for (int i = 0; i < 64; ++i) inputs.push_back(rng.bytes(32));
  for (const Bytes& in : inputs) {
    const Fe x = fe_frombytes(in.data());
    std::uint8_t got[32], want[32];
    fe_tobytes(got, fe_invert(x));
    fe_tobytes(want, pow_oracle(x, p_minus_2));
    EXPECT_EQ(hex_encode(ByteSpan(got, 32)), hex_encode(ByteSpan(want, 32)))
        << "invert " << hex_encode(in);
    fe_tobytes(got, fe_pow2523(x));
    fe_tobytes(want, pow_oracle(x, p_minus_5_over_8));
    EXPECT_EQ(hex_encode(ByteSpan(got, 32)), hex_encode(ByteSpan(want, 32)))
        << "pow2523 " << hex_encode(in);
  }
}

// ---- Scalar arithmetic mod L -----------------------------------------------
// Oracle: binary long division over 512-bit integers, the reduction the
// scalar code used before its Barrett rewrite.

constexpr std::uint64_t kOrderL[4] = {
    0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0, 0x1000000000000000ULL};

struct U512 {
  std::uint64_t w[8] = {};
};

/// L << (64 * words + bits), truncated to 9 words.
std::array<std::uint64_t, 9> shifted_l(int words, int bits) {
  std::array<std::uint64_t, 9> out{};
  for (int i = 0; i < 4; ++i) {
    out[words + i] |= bits ? (kOrderL[i] << bits) : kOrderL[i];
    if (bits && words + i + 1 < 9)
      out[words + i + 1] |= kOrderL[i] >> (64 - bits);
  }
  return out;
}

U512 mod_l_oracle(U512 x) {
  for (int shift = 259; shift >= 0; --shift) {  // 512 - bitlen(L)
    const auto l = shifted_l(shift / 64, shift % 64);
    int cmp = 0;
    for (int i = 8; i >= 0 && cmp == 0; --i) {
      const std::uint64_t xi = i < 8 ? x.w[i] : 0;
      if (xi != l[i]) cmp = xi < l[i] ? -1 : 1;
    }
    if (cmp < 0) continue;
    std::uint64_t borrow = 0;
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t t = x.w[i] - l[i];
      const std::uint64_t b1 = x.w[i] < l[i];
      x.w[i] = t - borrow;
      borrow = b1 | (t < borrow);
    }
  }
  return x;
}

std::string scalar_hex(const U512& x) {
  std::uint8_t out[32];
  for (int i = 0; i < 4; ++i) store_le64(out + 8 * i, x.w[i]);
  return hex_encode(ByteSpan(out, 32));
}

U512 load_wide(ByteSpan le) {
  U512 x;
  for (std::size_t i = 0; i < le.size(); ++i)
    x.w[i / 8] |= std::uint64_t{le[i]} << (8 * (i % 8));
  return x;
}

/// a · b + c as a 512-bit integer, schoolbook, for 32-byte a, b, c.
U512 mul_add_wide(const Bytes& a, const Bytes& b, const Bytes& c) {
  U512 x = load_wide(c);
  const U512 aw = load_wide(a), bw = load_wide(b);
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (int j = 0; i + j < 8; ++j) {
      const unsigned __int128 cur = (unsigned __int128)aw.w[i] *
                                        (j < 4 ? bw.w[j] : 0) +
                                    x.w[i + j] + carry;
      x.w[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
  }
  return x;
}

/// The byte forms of 0, L-1, L, L+1, 2L, 2^252 and 2^(8·width) - 1.
std::vector<Bytes> scalar_edges(std::size_t width) {
  const Bytes l = must_hex(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  const Bytes two_l = must_hex(
      "daa7ebb934c624b0ac39ef45bdf3bd2900000000000000000000000000000020");
  auto widen = [&](Bytes b) {
    b.resize(width, 0);
    return b;
  };
  Bytes l_minus_1 = l, l_plus_1 = l;
  l_minus_1[0] -= 1;
  l_plus_1[0] += 1;
  Bytes two_252(32, 0);
  two_252[31] = 0x10;
  return {Bytes(width, 0), widen(l_minus_1), widen(l), widen(l_plus_1),
          widen(two_l),    widen(two_252),   Bytes(width, 0xff)};
}

TEST(Sc25519, ReduceMatchesLongDivision) {
  std::vector<Bytes> inputs = scalar_edges(64);
  ChaChaRng rng(252);
  for (int i = 0; i < 10000; ++i) inputs.push_back(rng.bytes(64));
  for (const Bytes& in : inputs) {
    std::uint8_t got[32];
    sc_reduce(got, in.data());
    EXPECT_EQ(hex_encode(ByteSpan(got, 32)),
              scalar_hex(mod_l_oracle(load_wide(in))))
        << hex_encode(in);
  }
}

TEST(Sc25519, MulAddMatchesLongDivision) {
  const std::vector<Bytes> edges = scalar_edges(32);
  std::vector<std::array<Bytes, 3>> inputs;
  for (const Bytes& a : edges)
    for (const Bytes& b : edges)
      for (const Bytes& c : edges) inputs.push_back({a, b, c});
  ChaChaRng rng(253);
  for (int i = 0; i < 10000; ++i)
    inputs.push_back({rng.bytes(32), rng.bytes(32), rng.bytes(32)});
  for (const auto& [a, b, c] : inputs) {
    std::uint8_t got[32];
    sc_muladd(got, a.data(), b.data(), c.data());
    EXPECT_EQ(hex_encode(ByteSpan(got, 32)),
              scalar_hex(mod_l_oracle(mul_add_wide(a, b, c))))
        << hex_encode(a) << " " << hex_encode(b) << " " << hex_encode(c);
  }
}

TEST(Sc25519, HalfSplitIsShortAndCongruent) {
  // sc_half_split's contract, through the long-division oracle:
  // d ≡ c·k (mod L), 0 < c < 2^127 and |d| < 2^127.
  std::vector<Bytes> inputs = {
      Bytes(32, 0),
      must_hex(  // 1
          "0100000000000000000000000000000000000000000000000000000000000000"),
      must_hex(  // 2^127 - 1
          "ffffffffffffffffffffffffffffff7f00000000000000000000000000000000"),
      must_hex(  // 2^127
          "0000000000000000000000000000008000000000000000000000000000000000"),
      must_hex(  // (L - 1) / 2
          "f6e97a2e8d31092c6bce7b51ef7c6f0a00000000000000000000000000000008"),
      must_hex(  // L - 1
          "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010"),
  };
  ChaChaRng rng(127);
  for (int i = 0; i < 10000; ++i) {
    const Bytes wide = rng.bytes(64);
    Bytes k(32);
    sc_reduce(k.data(), wide.data());
    inputs.push_back(k);
  }
  const Bytes zero(32, 0);
  for (const Bytes& k : inputs) {
    Bytes c(32), d(32);
    const bool d_negative = sc_half_split(c.data(), d.data(), k.data());
    for (const Bytes* half : {&c, &d}) {
      EXPECT_EQ((*half)[15] & 0x80, 0) << hex_encode(k);
      EXPECT_EQ(Bytes(half->begin() + 16, half->end()), Bytes(16, 0))
          << hex_encode(k);
    }
    EXPECT_NE(c, zero) << hex_encode(k);
    // d ≥ 0: c·k mod L is d itself. d < 0: c·k + |d| ≡ 0.
    const U512 got =
        mod_l_oracle(mul_add_wide(c, k, d_negative ? d : zero));
    EXPECT_EQ(scalar_hex(got), hex_encode(d_negative ? zero : d))
        << hex_encode(k);
  }
}

/// The challenge k = SHA512(R ‖ A ‖ msg) mod L, through the oracle.
U512 challenge_oracle(const Ed25519Signature& sig, const Ed25519PublicKey& pub,
                      ByteSpan msg) {
  Sha512 h;
  h.update(ByteSpan(sig.data(), 32));
  h.update(pub);
  h.update(msg);
  const auto wide = h.finish();
  return mod_l_oracle(load_wide(wide));
}

// ---- X25519 ----------------------------------------------------------------

TEST(X25519, Rfc7748Vector1) {
  X25519PrivateKey scalar{};
  X25519PublicKey point{};
  auto s = must_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  auto u = must_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  std::copy(s.begin(), s.end(), scalar.begin());
  std::copy(u.begin(), u.end(), point.begin());
  EXPECT_EQ(hex_encode(x25519(scalar, point)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  X25519PrivateKey scalar{};
  X25519PublicKey point{};
  auto s = must_hex(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  auto u = must_hex(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  std::copy(s.begin(), s.end(), scalar.begin());
  std::copy(u.begin(), u.end(), point.begin());
  EXPECT_EQ(hex_encode(x25519(scalar, point)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748DiffieHellman) {
  X25519PrivateKey alice_priv{}, bob_priv{};
  auto a = must_hex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  auto b = must_hex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  std::copy(a.begin(), a.end(), alice_priv.begin());
  std::copy(b.begin(), b.end(), bob_priv.begin());

  const auto alice_pub = x25519_base(alice_priv);
  const auto bob_pub = x25519_base(bob_priv);
  EXPECT_EQ(hex_encode(alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(hex_encode(bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");

  const auto k1 = x25519_shared(alice_priv, bob_pub);
  const auto k2 = x25519_shared(bob_priv, alice_pub);
  EXPECT_EQ(hex_encode(k1), hex_encode(k2));
  EXPECT_EQ(hex_encode(k1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, RandomPairsAgree) {
  ChaChaRng rng(16);
  for (int i = 0; i < 8; ++i) {
    auto kp1 = X25519KeyPair::generate(rng);
    auto kp2 = X25519KeyPair::generate(rng);
    EXPECT_EQ(hex_encode(x25519_shared(kp1.priv, kp2.pub)),
              hex_encode(x25519_shared(kp2.priv, kp1.pub)));
  }
}

TEST(X25519, SharedSecretsMatchRecordedDigest) {
  // SHA-512 over 256 shared secrets for random scalars and random u
  // strings (top bit included), recorded before the field-arithmetic
  // rewrite: the ladder shares fe_sq and fe_invert with Ed25519.
  ChaChaRng rng(0x25519);
  Sha512 digest;
  for (int i = 0; i < 256; ++i) {
    X25519PrivateKey priv{};
    rng.fill(priv);
    X25519PublicKey peer{};
    rng.fill(peer);
    digest.update(x25519_shared(priv, peer));
  }
  EXPECT_EQ(hex_encode(digest.finish()),
            "8242f2c5a786a9fd34f6710034fb2c23e273d1a8288910df23539003187b8c28"
            "0187d9dc064fb6d1493fd4925b286b47380fb4ee39929929c22f1d659ed16595");
}

// ---- Ed25519 ---------------------------------------------------------------

TEST(Ed25519, Rfc8032Test1EmptyMessage) {
  Ed25519Seed seed{};
  auto s = must_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  std::copy(s.begin(), s.end(), seed.begin());
  const auto pub = ed25519_public_key(seed);
  EXPECT_EQ(hex_encode(pub),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
  const auto sig = ed25519_sign(seed, pub, {});
  EXPECT_EQ(hex_encode(sig),
            "e5564300c360ac729086e2cc806e828a"
            "84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46b"
            "d25bf5f0595bbe24655141438e7a100b");
  EXPECT_TRUE(ed25519_verify(pub, {}, sig));
}

TEST(Ed25519, Rfc8032Test2OneByte) {
  Ed25519Seed seed{};
  auto s = must_hex(
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  std::copy(s.begin(), s.end(), seed.begin());
  const auto pub = ed25519_public_key(seed);
  EXPECT_EQ(hex_encode(pub),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");
  const Bytes msg = must_hex("72");
  const auto sig = ed25519_sign(seed, pub, msg);
  EXPECT_EQ(hex_encode(sig),
            "92a009a9f0d4cab8720e820b5f642540"
            "a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c"
            "387b2eaeb4302aeeb00d291612bb0c00");
  EXPECT_TRUE(ed25519_verify(pub, msg, sig));
}

TEST(Ed25519, Rfc8032Test3TwoBytes) {
  Ed25519Seed seed{};
  auto s = must_hex(
      "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
  std::copy(s.begin(), s.end(), seed.begin());
  const auto pub = ed25519_public_key(seed);
  EXPECT_EQ(hex_encode(pub),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025");
  const Bytes msg = must_hex("af82");
  const auto sig = ed25519_sign(seed, pub, msg);
  EXPECT_EQ(hex_encode(sig),
            "6291d657deec24024827e69c3abe01a3"
            "0ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc659"
            "4a7c15e9716ed28dc027beceea1ec40a");
  EXPECT_TRUE(ed25519_verify(pub, msg, sig));
}

TEST(Ed25519, TamperedSignatureRejected) {
  ChaChaRng rng(17);
  auto kp = Ed25519KeyPair::generate(rng);
  const Bytes msg = to_bytes("attack at dawn");
  auto sig = kp.sign(msg);
  EXPECT_TRUE(ed25519_verify(kp.pub, msg, sig));
  for (std::size_t i = 0; i < sig.size(); i += 5) {
    auto bad = sig;
    bad[i] ^= 0x20;
    EXPECT_FALSE(ed25519_verify(kp.pub, msg, bad)) << "byte " << i;
  }
  EXPECT_FALSE(ed25519_verify(kp.pub, to_bytes("attack at dusk"), sig));
  auto kp2 = Ed25519KeyPair::generate(rng);
  EXPECT_FALSE(ed25519_verify(kp2.pub, msg, sig));
}

TEST(Ed25519, NonCanonicalScalarRejected) {
  ChaChaRng rng(18);
  auto kp = Ed25519KeyPair::generate(rng);
  const Bytes msg = to_bytes("msg");
  auto sig = kp.sign(msg);
  // Force S >= L by setting S to L itself (bytes of the group order).
  auto l_bytes = must_hex(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  std::copy(l_bytes.begin(), l_bytes.end(), sig.begin() + 32);
  EXPECT_FALSE(ed25519_verify(kp.pub, msg, sig));
}

TEST(Ed25519, SignIsDeterministic) {
  ChaChaRng rng(19);
  auto kp = Ed25519KeyPair::generate(rng);
  const Bytes msg = to_bytes("deterministic");
  EXPECT_EQ(hex_encode(kp.sign(msg)), hex_encode(kp.sign(msg)));
}

TEST(Ed25519, SignaturesMatchRecordedDigest) {
  // SHA-512 over the public keys and signatures of 1,000 (seed, message)
  // pairs with message lengths 0-255, recorded before the arithmetic
  // rewrite; every signature must also verify.
  ChaChaRng rng(0xed25519);
  Sha512 digest;
  for (int i = 0; i < 1000; ++i) {
    Ed25519Seed seed{};
    rng.fill(seed);
    const Bytes msg = rng.bytes(rng.next_u64() % 256);
    const auto pub = ed25519_public_key(seed);
    const auto sig = ed25519_sign(seed, pub, msg);
    EXPECT_TRUE(ed25519_verify(pub, msg, sig)) << i;
    digest.update(pub);
    digest.update(sig);
  }
  EXPECT_EQ(hex_encode(digest.finish()),
            "1f96421cc20d2e471905ab08879c683d352b2999f4f4e6ac0c138bb131a47220"
            "ad28603ad1de17fbab77002d8870585cbc74d47e707f8352fe60402056cc70f5");
}

TEST(Ed25519, SmallOrderAndNonCanonicalKeysRejected) {
  // For each key, grind the message until 8 divides the challenge k, so
  // k·A is the identity and (encode(B), 1) satisfies S·B − k·A == R. Both
  // verifiers must still refuse: the key proves possession of nothing.
  const Ed25519Signature forged = test::base_point_signature();
  ChaChaRng rng(8);
  const auto honest_a = Ed25519KeyPair::generate(rng);
  const auto honest_b = Ed25519KeyPair::generate(rng);
  const Bytes honest_msg = to_bytes("honest");
  const auto sig_a = honest_a.sign(honest_msg);
  const auto sig_b = honest_b.sign(honest_msg);

  for (std::size_t i = 0; i < test::kSmallOrderKeysHex.size(); ++i) {
    const Ed25519PublicKey pub = test::small_order_key(i);
    Bytes msg;
    for (int ctr = 0;; ++ctr) {
      msg = to_bytes("proof of possession " + std::to_string(ctr));
      if (challenge_oracle(forged, pub, msg).w[0] % 8 == 0) break;
    }
    EXPECT_FALSE(ed25519_verify(pub, msg, forged))
        << test::kSmallOrderKeysHex[i];

    bool one = true;
    const Ed25519BatchItem lone{&pub, msg, &forged};
    EXPECT_FALSE(ed25519_verify_batch({&lone, 1}, &one));
    EXPECT_FALSE(one) << test::kSmallOrderKeysHex[i];

    // Amid valid signatures, so the batch screen (not a lone-item
    // shortcut) sees the key.
    const Ed25519BatchItem mixed[3] = {{&honest_a.pub, honest_msg, &sig_a},
                                       {&pub, msg, &forged},
                                       {&honest_b.pub, honest_msg, &sig_b}};
    bool out[3] = {};
    EXPECT_FALSE(ed25519_verify_batch(mixed, out));
    EXPECT_TRUE(out[0]);
    EXPECT_FALSE(out[1]) << test::kSmallOrderKeysHex[i];
    EXPECT_TRUE(out[2]);
  }
}

// ---- RNG -------------------------------------------------------------------

TEST(Rng, DeterministicWithSeed) {
  ChaChaRng a(1234), b(1234), c(1235);
  EXPECT_EQ(hex_encode(a.bytes(64)), hex_encode(b.bytes(64)));
  ChaChaRng a2(1234);
  EXPECT_NE(hex_encode(a2.bytes(64)), hex_encode(c.bytes(64)));
}

TEST(Rng, UniformBoundsRespected) {
  ChaChaRng rng(20);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(7), 7u);
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  // uniform(1) is always 0.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, OsSeededInstancesDiffer) {
  auto a = ChaChaRng::from_os_entropy();
  auto b = ChaChaRng::from_os_entropy();
  EXPECT_NE(hex_encode(a.bytes(32)), hex_encode(b.bytes(32)));
}

// ---- util ------------------------------------------------------------------

TEST(Hex, EncodeDecodeRoundtrip) {
  ChaChaRng rng(21);
  Bytes data = rng.bytes(57);
  auto decoded = hex_decode(hex_encode(data));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

TEST(Hex, RejectsMalformed) {
  EXPECT_FALSE(hex_decode("abc").has_value());    // odd length
  EXPECT_FALSE(hex_decode("zz").has_value());     // bad digit
  EXPECT_TRUE(hex_decode("").has_value());        // empty ok
  EXPECT_TRUE(hex_decode("AbCd").has_value());    // mixed case ok
}

TEST(Bytes, ConstantTimeEqual) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, ByteSpan(a.data(), 2)));
  EXPECT_TRUE(ct_equal({}, {}));
}

TEST(Bytes, EndianHelpers) {
  std::uint8_t buf[8];
  store_be32(buf, 0x01020304);
  EXPECT_EQ(load_be32(buf), 0x01020304u);
  EXPECT_EQ(buf[0], 0x01);
  store_le32(buf, 0x01020304);
  EXPECT_EQ(load_le32(buf), 0x01020304u);
  EXPECT_EQ(buf[0], 0x04);
  store_be64(buf, 0x0102030405060708ULL);
  EXPECT_EQ(load_be64(buf), 0x0102030405060708ULL);
  store_le64(buf, 0x0102030405060708ULL);
  EXPECT_EQ(load_le64(buf), 0x0102030405060708ULL);
}

}  // namespace
}  // namespace apna::crypto
