// Known-answer tests for the crypto layer against published RFC/NIST vectors.
//
// Sources:
//   SHA-256 / SHA-512 — FIPS 180-4 (NIST CAVP example messages), and
//                       every length 0-300 against Python's hashlib
//   HMAC-SHA256       — RFC 4231 test cases 1-4, 6, 7
//   ChaCha20/Poly1305 — RFC 8439 §2.3.2, §2.4.2, §2.5.2, §2.8.2 and the
//                       Poly1305 edge cases of Appendix A.3; vectors at
//                       the ChaCha kernel stride edges and at Poly1305's
//                       limb maxima, generated with OpenSSL (see below)
//   AES-128           — FIPS 197 Appendix B / C.1 (both backends)
//   X25519            — RFC 7748 §5.2 and §6.1
//   Ed25519           — RFC 8032 §7.1 tests 1-3
//   FF1 (radix 2)     — an independent SP 800-38G reference (see below)
//
// These pin the implementations so backend swaps (e.g. AES-NI vs soft) can
// be validated against the exact same answers.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/aes.h"
#include "crypto/chacha20.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/modes.h"
#include "crypto/sha2.h"
#include "crypto/x25519.h"
#include "util/bytes.h"
#include "util/hex.h"

namespace {

using apna::Bytes;
using apna::ByteSpan;
using apna::hex_encode;
using apna::must_hex;
using apna::to_bytes;

template <std::size_t N>
std::array<std::uint8_t, N> must_hex_array(std::string_view hex) {
  Bytes b = must_hex(hex);
  EXPECT_EQ(b.size(), N) << "bad vector literal: " << hex;
  std::array<std::uint8_t, N> out{};
  std::copy_n(b.begin(), std::min(b.size(), N), out.begin());
  return out;
}

// ---------------------------------------------------------------- SHA-256 --

struct ShaVector {
  std::string msg;
  const char* digest_hex;
};

TEST(Sha256Kat, Fips180_4) {
  const ShaVector vecs[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
  };
  for (const auto& v : vecs) {
    auto d = apna::crypto::Sha256::hash(to_bytes(v.msg));
    EXPECT_EQ(hex_encode(d), v.digest_hex) << "msg=\"" << v.msg << '"';
  }
}

TEST(Sha256Kat, MillionA) {
  apna::crypto::Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_encode(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Kat, IncrementalMatchesOneShot) {
  // Split points crossing the 64-byte block boundary.
  const Bytes msg = must_hex(std::string(130, 'a') /* 65 bytes */);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    apna::crypto::Sha256 h;
    h.update(ByteSpan(msg.data(), split));
    h.update(ByteSpan(msg.data() + split, msg.size() - split));
    EXPECT_EQ(h.finish(), apna::crypto::Sha256::hash(msg)) << "split=" << split;
  }
}

TEST(Sha512Kat, Fips180_4) {
  EXPECT_EQ(hex_encode(apna::crypto::Sha512::hash(to_bytes("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
  EXPECT_EQ(hex_encode(apna::crypto::Sha512::hash(to_bytes(""))),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

template <class Hash>
std::string digest_of_digests_to_300() {
  Hash outer;
  Bytes msg;
  for (std::size_t n = 0; n <= 300; ++n) {
    outer.update(Hash::hash(msg));
    msg.push_back(static_cast<std::uint8_t>(n % 251));
  }
  return hex_encode(outer.finish());
}

TEST(Sha2Kat, EveryLengthTo300MatchesHashlib) {
  // Every padding case of both hashes: the message of length n (0 ≤ n ≤
  // 300) is bytes i % 251, and the pinned value hashes the 301 digests in
  // order. Generated offline with Python's hashlib:
  //   import hashlib
  //   for name in ('sha256', 'sha512'):
  //       outer = hashlib.new(name)
  //       for n in range(301):
  //           msg = bytes(i % 251 for i in range(n))
  //           outer.update(hashlib.new(name, msg).digest())
  //       print(name, outer.hexdigest())
  EXPECT_EQ(digest_of_digests_to_300<apna::crypto::Sha256>(),
            "b90e35153500e9a471591550ee25a954527c6b4448afff95f7949a2ca93300ce");
  EXPECT_EQ(digest_of_digests_to_300<apna::crypto::Sha512>(),
            "da20b3b598f77f25e2e2d1941e345bfe16543f32378fbc8447fbb64f038964ce"
            "a0808c9d450e5e83ac095f5656c102b2ff15a8e0501c7553a7afe1e0256b5e09");
}

// ------------------------------------------------------------ HMAC-SHA256 --

TEST(HmacSha256Kat, Rfc4231) {
  struct {
    Bytes key;
    Bytes data;
    const char* mac_hex;
  } vecs[] = {
      // Test Case 1
      {Bytes(20, 0x0b), to_bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      // Test Case 2
      {to_bytes("Jefe"), to_bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      // Test Case 3
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      // Test Case 4
      {must_hex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
       Bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      // Test Case 6 (key larger than block size)
      {Bytes(131, 0xaa),
       to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      // Test Case 7 (key and data larger than block size)
      {Bytes(131, 0xaa),
       to_bytes("This is a test using a larger than block-size key and a "
                "larger than block-size data. The key needs to be hashed "
                "before being used by the HMAC algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  int i = 1;
  for (const auto& v : vecs) {
    EXPECT_EQ(hex_encode(apna::crypto::hmac_sha256(v.key, v.data)), v.mac_hex)
        << "RFC 4231 test case " << i;
    ++i;
    if (i == 5) ++i;  // case 5 is a truncated-output case; not applicable
  }
}

// --------------------------------------------------------------- ChaCha20 --

TEST(ChaCha20Kat, BlockFunctionRfc8439_232) {
  const auto key = must_hex_array<32>(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto nonce = must_hex_array<12>("000000090000004a00000000");
  std::uint8_t block[64];
  apna::crypto::chacha20_block(key.data(), 1, nonce.data(), block);
  EXPECT_EQ(hex_encode(ByteSpan(block, 64)),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20Kat, EncryptionRfc8439_242) {
  const auto key = must_hex_array<32>(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto nonce = must_hex_array<12>("000000000000004a00000000");
  const Bytes pt = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  Bytes ct(pt.size());
  apna::crypto::chacha20_xcrypt(key.data(), 1, nonce.data(), pt, ct);
  EXPECT_EQ(hex_encode(ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
  // Round trip: XOR with the same keystream restores the plaintext.
  Bytes rt(ct.size());
  apna::crypto::chacha20_xcrypt(key.data(), 1, nonce.data(), ct, rt);
  EXPECT_EQ(rt, pt);
}

TEST(Poly1305Kat, Rfc8439_252) {
  const auto key = must_hex_array<32>(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const Bytes msg = to_bytes("Cryptographic Forum Research Group");
  EXPECT_EQ(hex_encode(apna::crypto::poly1305(key.data(), msg)),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(ChaCha20Poly1305Kat, AeadRfc8439_282) {
  const auto key = must_hex_array<32>(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  const Bytes nonce = must_hex("070000004041424344454647");
  const Bytes aad = must_hex("50515253c0c1c2c3c4c5c6c7");
  const Bytes pt = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  apna::crypto::ChaCha20Poly1305 aead(key);
  const Bytes sealed = aead.seal(nonce, aad, pt);
  EXPECT_EQ(hex_encode(sealed),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116"
            "1ae10b594f09e26a7e902ecbd0600691");
  auto opened = aead.open(nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
  // Any tag bit flip must fail closed.
  Bytes tampered = sealed;
  tampered.back() ^= 0x01;
  EXPECT_FALSE(aead.open(nonce, aad, tampered).has_value());
}

// The vectors below were produced once with the Python `cryptography`
// package 48.0.0 over OpenSSL 4.0.0, an implementation independent of this
// repo:
//
//   import hashlib
//   from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
//   from cryptography.hazmat.primitives.poly1305 import Poly1305
//   key, nonce = bytes(range(32)), bytes.fromhex("000000000001020304050607")
//   for n in [0, 1, 15, 16, 17, 63, 64, 65, 191, 192, 193, 447, 448, 449,
//             1442]:
//       for a in (0, 48):
//           pt = bytes((7 * i + 3) & 0xff for i in range(n))
//           aad = bytes((0xa0 + i) & 0xff for i in range(a))
//           sealed = ChaCha20Poly1305(key).encrypt(nonce, pt, aad)
//           print(n, a, hashlib.sha256(sealed).hexdigest())
//   pkey = bytes.fromhex("ffffff0ffcffff0ffcffff0ffcffff0f") + b"\xff" * 16
//   for n in [0, 1, 15, 16, 17, 31, 32, 33, 64, 100, 256, 1000]:
//       print(n, Poly1305.generate_tag(pkey, b"\xff" * n).hex())
//   # plus Poly1305.generate_tag(key, msg) for RFC 8439 A.3 #5-#11.

TEST(ChaCha20Poly1305Kat, KernelStrideLengthsMatchOpenSsl) {
  // SHA-256 of ciphertext ‖ tag. The lengths straddle the keystream
  // strides: one block, the SSE2 head (Poly1305 key + 192 data bytes) and
  // the AVX2 head (key + 448), each with and without 48 bytes of aad.
  struct Vector {
    std::size_t pt_len;
    std::size_t aad_len;
    const char* sealed_sha256;
  };
  const Vector vecs[] = {
      {0, 0, "91c347ff6908c0501c2df0185365ec4309f418a253096c6f9c39d381c7ce9ed8"},
      {0, 48, "577f9941b654b247246eff43c8885e2a861dc69c0f21667fd0c22cc8ab10b1cb"},
      {1, 0, "4b5c70d0237491899d6c3111865bb9df3172754c7bbd5bf907b5dcaa11f0f940"},
      {1, 48, "0ff6b88bd6ae75cf1dda301fd3929501e953ed0007f5c4dc31aaa05c013f408a"},
      {15, 0, "ba316f7466c539000a9bbe4b49bd0a7bc24ab44b79a329465c46097a2d6284b3"},
      {15, 48, "d2101d929cdd64ea419338373306e23d6ac4e2e0cf12d74b01c5f3fca3d25fde"},
      {16, 0, "c4f97b39c82d8724c9512404fd7557ad8d728a3d1c8f6ee692bb5162deeeb5a3"},
      {16, 48, "1cc126f26ad4068a00699f63f9f173eb41ebab760888ca9c99cf60ac5c4fadb4"},
      {17, 0, "0e739fbe9cace3205e5bcb84dd34697f1c3ffd980f035ae2a1f32ae886c4bfe9"},
      {17, 48, "798557ec7f22c420809ff8ad8933a0d88e5d7879d76d7488a47467098a5156d8"},
      {63, 0, "60243053859671b074b9261f375e8b655c203d89e49c892d1a19c202f4951fc1"},
      {63, 48, "e37470702befc08acff6f94109ec356cbf97680c9c11144b88d7cac2748baabd"},
      {64, 0, "1a37d17e385100a7657863e75bef6baddff9a27ed59ad4d4404841b808609e32"},
      {64, 48, "257fd8fd2c1f89a558c4b993a56949eabc25e74e6ab2b7cb59736efdb20e6128"},
      {65, 0, "1bc5d84ffbcc703edf09b11e56bc7a0abcd89d02ad02a9c6d70d2cd86227ebc5"},
      {65, 48, "ae6b178464ada3acb58bd88f8158a951693c7b454ef9bd6052d2808f56148cd9"},
      {191, 0, "88db72cbeef128d3414b813fbc1e9de892b461de48dc011bc0f18a39ef5198b3"},
      {191, 48, "3970108988a099a9c9bf8b52b1bf1b782c8cc2677dd570b4535fb7b6b29aa8ad"},
      {192, 0, "e04874cf9480a5473ce2ee9d7c3b1cb19560c9108e644ddf9e5d9c3ea3fad92d"},
      {192, 48, "14e02ac84c9069c2780f6e4b8faec47d69b9038dfad5940d6502ecc4a85bfcd5"},
      {193, 0, "35e0a9ef36721296610cb57b8e53d036561ae2ae2d9762bae4a52e193a5943c6"},
      {193, 48, "cd9652a493ed216b55673039e8bf5f60fdc3df9615feb72bbeb3cb847f083d87"},
      {447, 0, "4ecd0fcaebda64d7c615a6eedf319328c8c37b88c5158d1296abf6299222f79b"},
      {447, 48, "dc8f35a6af42291aa19a1877255a186f0a586189d92a28921ce719610ee38d61"},
      {448, 0, "d42e883062ecd6cc6379ead049de227bddb96bab750c68931c4557e7979126a4"},
      {448, 48, "02f4f53217cca5f1d35992409a036ef1621d0df19d39be7c3c72f9d6c0a9ae8d"},
      {449, 0, "1a40d9c09b825d57ff9704c787b2fabfa3270c07e7e272365ab697ea673f0b22"},
      {449, 48, "b82163bd41296c54a303a37916a58f56c0c59d4efda702d4cdd9e321f5308ba5"},
      {1442, 0, "5775195f1b55b67fdb903010d2b60523274e50488c85ac766b125c9add74342f"},
      {1442, 48, "df85be81d8452bbee04b2702bdb15a450bb9a310dbc0a899624d75d9799cdf9d"},
  };
  Bytes key(32);
  for (std::size_t i = 0; i < key.size(); ++i)
    key[i] = static_cast<std::uint8_t>(i);
  const Bytes nonce = must_hex("000000000001020304050607");
  const apna::crypto::ChaCha20Poly1305 aead(key);
  for (const Vector& v : vecs) {
    Bytes pt(v.pt_len), aad(v.aad_len);
    for (std::size_t i = 0; i < pt.size(); ++i)
      pt[i] = static_cast<std::uint8_t>(7 * i + 3);
    for (std::size_t i = 0; i < aad.size(); ++i)
      aad[i] = static_cast<std::uint8_t>(0xa0 + i);
    const Bytes sealed = aead.seal(nonce, aad, pt);
    ASSERT_EQ(sealed.size(), pt.size() + 16);
    EXPECT_EQ(hex_encode(apna::crypto::Sha256::hash(sealed)), v.sealed_sha256)
        << "pt " << v.pt_len << " aad " << v.aad_len;
    auto opened = aead.open(nonce, aad, sealed);
    ASSERT_TRUE(opened.has_value()) << "pt " << v.pt_len << " aad " << v.aad_len;
    EXPECT_EQ(*opened, pt);
  }
}

TEST(Poly1305Kat, AllOnesAtClampedMaximaMatchOpenSsl) {
  // r and s at their largest clamped values and messages of all-0xff
  // bytes: every limb of every absorbed block sits at its maximum, so
  // each carry chain runs full length.
  const auto key = must_hex_array<32>(
      "ffffff0ffcffff0ffcffff0ffcffff0fffffffffffffffffffffffffffffffff");
  const std::pair<std::size_t, const char*> vecs[] = {
      {0, "ffffffffffffffffffffffffffffffff"},
      {1, "23feffef23f8ffef23f8ffef23f8ffef"},
      {15, "fbff27e6030028e6030028e6030028ee"},
      {16, "fbffff17faffff17faffff17faffff17"},
      {17, "7cfe7ff768f81f2763f8bf565df85f86"},
      {31, "5400a8ed4800481d4300e84c3d008884"},
      {32, "5400801f3f00204f3900c07e330060ae"},
      {33, "86fa6a437bf4ec24a274504dc37495bc"},
      {64, "900fe32bc15fa8d7bca8efe4c7e37eb1"},
      {100, "b99c030d7ce939bb6607393e68656f22"},
      {256, "c30c8c6a3af35fc6645a7e3a51df3f04"},
      {1000, "de9406b10e7023bcd692ff687f4cbc7f"},
  };
  for (const auto& [len, tag] : vecs)
    EXPECT_EQ(hex_encode(apna::crypto::poly1305(key.data(), Bytes(len, 0xff))),
              tag)
        << "len " << len;
}

TEST(Poly1305Kat, Rfc8439AppendixA3EdgeCases) {
  // Test vectors #5-#11: #5 leaves h = 2^130 - 2 before the final select,
  // #9 leaves 2^130 - 6 (just below p), #6 overflows h + s mod 2^128, and
  // #10/#11 stress the 5·H + L reduction.
  struct {
    const char* key;
    const char* msg;
    const char* tag;
  } vecs[] = {
      {"02000000000000000000000000000000"
       "00000000000000000000000000000000",
       "ffffffffffffffffffffffffffffffff",
       "03000000000000000000000000000000"},
      {"02000000000000000000000000000000"
       "ffffffffffffffffffffffffffffffff",
       "02000000000000000000000000000000",
       "03000000000000000000000000000000"},
      {"01000000000000000000000000000000"
       "00000000000000000000000000000000",
       "fffffffffffffffffffffffffffffffff0ffffffffffffffffffffffffffffff"
       "11000000000000000000000000000000",
       "05000000000000000000000000000000"},
      {"01000000000000000000000000000000"
       "00000000000000000000000000000000",
       "fffffffffffffffffffffffffffffffffbfefefefefefefefefefefefefefefe"
       "01010101010101010101010101010101",
       "00000000000000000000000000000000"},
      {"02000000000000000000000000000000"
       "00000000000000000000000000000000",
       "fdffffffffffffffffffffffffffffff",
       "faffffffffffffffffffffffffffffff"},
      {"01000000000000000400000000000000"
       "00000000000000000000000000000000",
       "e33594d7505e43b900000000000000003394d7505e4379cd0100000000000000"
       "0000000000000000000000000000000001000000000000000000000000000000",
       "14000000000000005500000000000000"},
      {"01000000000000000400000000000000"
       "00000000000000000000000000000000",
       "e33594d7505e43b900000000000000003394d7505e4379cd0100000000000000"
       "00000000000000000000000000000000",
       "13000000000000000000000000000000"},
  };
  int number = 5;
  for (const auto& v : vecs) {
    const auto key = must_hex_array<32>(v.key);
    EXPECT_EQ(hex_encode(apna::crypto::poly1305(key.data(), must_hex(v.msg))),
              v.tag)
        << "RFC 8439 A.3 #" << number;
    ++number;
  }
}

// ---------------------------------------------------------------- AES-128 --

void expect_aes_ecb(apna::crypto::Aes128::Backend backend) {
  struct {
    const char* key;
    const char* pt;
    const char* ct;
  } vecs[] = {
      // FIPS 197 Appendix B
      {"2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734",
       "3925841d02dc09fbdc118597196a0b32"},
      // FIPS 197 Appendix C.1
      {"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
       "69c4e0d86a7b0430d8cdb78070b4c55a"},
  };
  for (const auto& v : vecs) {
    apna::crypto::Aes128 aes(must_hex(v.key), backend);
    const Bytes pt = must_hex(v.pt);
    std::uint8_t ct[16];
    aes.encrypt_block(pt.data(), ct);
    EXPECT_EQ(hex_encode(ByteSpan(ct, 16)), v.ct)
        << "backend=" << aes.backend();
  }
}

TEST(Aes128Kat, SoftBackendFips197) {
  expect_aes_ecb(apna::crypto::Aes128::Backend::soft);
}

TEST(Aes128Kat, AutoBackendFips197) {
  // Exercises AES-NI when the CPU has it; degrades to soft elsewhere, so the
  // suite is green on any host while still covering the NI path where it
  // matters.
  expect_aes_ecb(apna::crypto::Aes128::Backend::auto_detect);
}

TEST(Aes128Kat, BackendsAgreeOnBulkBlocks) {
  const Bytes key = must_hex("2b7e151628aed2a6abf7158809cf4f3c");
  apna::crypto::Aes128 soft(key, apna::crypto::Aes128::Backend::soft);
  apna::crypto::Aes128 autod(key, apna::crypto::Aes128::Backend::auto_detect);
  Bytes in(16 * 17);
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<std::uint8_t>(i * 131 + 7);
  Bytes a(in.size()), b(in.size());
  soft.encrypt_blocks(in.data(), a.data(), in.size() / 16);
  autod.encrypt_blocks(in.data(), b.data(), in.size() / 16);
  EXPECT_EQ(a, b);
  // auto_detect resolves to the widest CPU-supported tier (after the
  // APNA_CRYPTO_BACKEND cap); every compiled tier must agree with soft.
  using Backend = apna::crypto::Aes128::Backend;
  EXPECT_STREQ(autod.backend(),
               apna::crypto::Aes128::backend_name(
                   apna::crypto::Aes128::best_backend()));
  // best_backend() folds in both cpuid and the APNA_CRYPTO_BACKEND cap, so
  // this also holds under a forced-soft run (where best IS soft).
  EXPECT_EQ(autod.tier(), apna::crypto::Aes128::best_backend());
  if (apna::crypto::Aes128::best_backend() != Backend::soft) {
    EXPECT_NE(autod.tier(), Backend::soft);
  }
  for (Backend tier : {Backend::aesni, Backend::avx2, Backend::vaes_avx512}) {
    apna::crypto::Aes128 forced(key, tier);
    if (forced.tier() != tier) continue;  // CPU lacks it: downgraded, skip
    Bytes c(in.size());
    forced.encrypt_blocks(in.data(), c.data(), in.size() / 16);
    EXPECT_EQ(a, c) << "tier " << forced.backend();
  }
}

// ----------------------------------------------------------------- X25519 --

TEST(X25519Kat, Rfc7748_52) {
  const auto scalar1 = must_hex_array<32>(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const auto point1 = must_hex_array<32>(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  EXPECT_EQ(hex_encode(apna::crypto::x25519(scalar1, point1)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");

  const auto scalar2 = must_hex_array<32>(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  const auto point2 = must_hex_array<32>(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  EXPECT_EQ(hex_encode(apna::crypto::x25519(scalar2, point2)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519Kat, Rfc7748_61_DiffieHellman) {
  const auto alice_priv = must_hex_array<32>(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const auto bob_priv = must_hex_array<32>(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  const auto alice_pub = apna::crypto::x25519_base(alice_priv);
  const auto bob_pub = apna::crypto::x25519_base(bob_priv);
  EXPECT_EQ(hex_encode(alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(hex_encode(bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  const auto k_alice = apna::crypto::x25519_shared(alice_priv, bob_pub);
  const auto k_bob = apna::crypto::x25519_shared(bob_priv, alice_pub);
  EXPECT_EQ(k_alice, k_bob);
  EXPECT_EQ(hex_encode(k_alice),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

// ---------------------------------------------------------------- Ed25519 --

TEST(Ed25519Kat, Rfc8032_71) {
  struct {
    const char* seed;
    const char* pub;
    const char* msg;
    const char* sig;
  } vecs[] = {
      // Test 1 (empty message)
      {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
       "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
       "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
       "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
      // Test 2 (1 byte)
      {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
       "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
       "72",
       "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
       "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
      // Test 3 (2 bytes)
      {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
       "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
       "af82",
       "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
       "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
  };
  int i = 1;
  for (const auto& v : vecs) {
    const auto seed = must_hex_array<32>(v.seed);
    const auto pub = apna::crypto::ed25519_public_key(seed);
    EXPECT_EQ(hex_encode(pub), v.pub) << "RFC 8032 test " << i;
    const Bytes msg = must_hex(v.msg);
    const auto sig = apna::crypto::ed25519_sign(seed, pub, msg);
    EXPECT_EQ(hex_encode(sig), v.sig) << "RFC 8032 test " << i;
    EXPECT_TRUE(apna::crypto::ed25519_verify(pub, msg, sig));
    // Flipping any of message, signature, or key must fail verification.
    auto bad_sig = sig;
    bad_sig[0] ^= 0x01;
    EXPECT_FALSE(apna::crypto::ed25519_verify(pub, msg, bad_sig));
    Bytes bad_msg = msg;
    bad_msg.push_back(0x00);
    EXPECT_FALSE(apna::crypto::ed25519_verify(pub, bad_msg, sig));
    ++i;
  }
}

// ------------------------------------------------ FF1 (NIST SP 800-38G) --

// Radix-2 FF1 vectors under the key of the SP 800-38G AES-128 samples, empty
// tweak, the value read most significant bit first. Generated offline with
// this independent reference over Python's `cryptography` package, which
// also reproduces NIST samples 1-3 (2433477484, 6124200773,
// a9tv40mll9kdu509eum):
//
//   import math
//   from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
//   def aes(k, b):
//       e = Cipher(algorithms.AES(k), modes.ECB()).encryptor()
//       return e.update(b) + e.finalize()
//   def num(xs, r):
//       v = 0
//       for x in xs: v = v * r + x
//       return v
//   def ff1(k, tweak, radix, xs):
//       n, t = len(xs), len(tweak); u = n // 2; v = n - u
//       a, b = xs[:u], xs[u:]
//       bl = math.ceil(math.ceil(v * math.log2(radix)) / 8)
//       d = 4 * math.ceil(bl / 4) + 4
//       p = (bytes([1, 2, 1]) + radix.to_bytes(3, 'big') + bytes([10, u % 256])
//            + n.to_bytes(4, 'big') + t.to_bytes(4, 'big'))
//       for i in range(10):
//           q = (tweak + bytes((-t - bl - 1) % 16) + bytes([i])
//                + num(b, radix).to_bytes(bl, 'big'))
//           r = bytes(16)
//           for j in range(0, len(p + q), 16):
//               r = aes(k, bytes(x ^ y for x, y in zip(r, (p + q)[j:j + 16])))
//           s, j = r, 1
//           while len(s) < d:
//               s += aes(k, bytes(x ^ y for x, y in zip(r, j.to_bytes(16, 'big'))))
//               j += 1
//           m = u if i % 2 == 0 else v
//           c = (num(a, radix) + int.from_bytes(s[:d], 'big')) % radix ** m
//           a, b = b, [c // radix ** (m - 1 - e) % radix for e in range(m)]
//       return a + b
//   def ff1_bits(k, x, n):
//       return num(ff1(k, b'', 2, [(x >> (n - 1 - i)) & 1 for i in range(n)]), 2)
TEST(Ff1Kat, Radix2VectorsFromIndependentReference) {
  const Bytes key = must_hex("2b7e151628aed2a6abf7158809cf4f3c");
  struct Vector {
    unsigned bits;
    std::uint32_t in, out;
  };
  constexpr Vector kVectors[] = {
      {32, 0x00000000, 0x2adba0a6}, {32, 0x00000001, 0x449f7846},
      {32, 0xffffffff, 0x01fe2a1f}, {32, 0x12345678, 0x430451c6},
      {31, 0x7fffffff, 0x1a5fb67c}, {31, 0x00000005, 0x5e1393a0},
      {17, 0x00000000, 0x000003fd}, {17, 0x0001ffff, 0x0001f134},
      {16, 0x00000000, 0x0000708a}, {16, 0x00000001, 0x0000d037},
      {16, 0x0000ffff, 0x0000116f},
  };
  for (const Vector& v : kVectors) {
    const apna::crypto::Ff1Binary ff1(key, v.bits);
    EXPECT_EQ(ff1.encrypt(v.in), v.out) << v.bits << " bits, in " << v.in;
  }
}

// At 16 bits the whole domain fits in a test: every output is in range and
// no two inputs share one.
TEST(Ff1Kat, SixteenBitInstanceIsABijection) {
  const apna::crypto::Ff1Binary ff1(
      must_hex("000102030405060708090a0b0c0d0e0f"), 16);
  std::vector<bool> seen(1u << 16);
  for (std::uint32_t x = 0; x < (1u << 16); ++x) {
    const std::uint32_t y = ff1.encrypt(x);
    ASSERT_LT(y, 1u << 16) << x;
    ASSERT_FALSE(seen[y]) << "collision at input " << x;
    seen[y] = true;
  }
}

}  // namespace
