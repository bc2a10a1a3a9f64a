#include "core/cert.h"

#include "wire/msg_codec.h"

namespace apna::core {

void EphIdCertificate::tbs_into(wire::MsgWriter& w) const {
  w.raw(ephid.bytes);
  w.u32(exp_time);
  w.raw(pub.dh);
  w.raw(pub.sig);
  w.u32(aid);
  w.raw(aa_ephid.bytes);
  w.u8(flags);
}

void EphIdCertificate::sign_with(const crypto::Ed25519KeyPair& as_key) {
  wire::MsgWriter w(96);
  tbs_into(w);
  sig = as_key.sign(w.span());
}

Result<void> EphIdCertificate::verify(const crypto::Ed25519PublicKey& as_pub,
                                      ExpTime now) const {
  wire::MsgWriter w(96);
  tbs_into(w);
  if (!crypto::ed25519_verify(as_pub, w.span(), sig))
    return Result<void>(Errc::bad_signature, "certificate signature invalid");
  if (exp_time < now)
    return Result<void>(Errc::expired, "certificate expired");
  return Result<void>::success();
}

void EphIdCertificate::encode(wire::MsgWriter& w) const {
  tbs_into(w);  // wire form = signed fields ‖ signature, single-sourced
  w.raw(sig);
}

Result<EphIdCertificate> EphIdCertificate::decode(wire::Reader& r) {
  EphIdCertificate c;
  auto ephid = r.arr<16>();
  if (!ephid) return ephid.error();
  c.ephid.bytes = *ephid;
  auto exp = r.u32();
  if (!exp) return exp.error();
  c.exp_time = *exp;
  auto dh = r.arr<32>();
  if (!dh) return dh.error();
  c.pub.dh = *dh;
  auto sig_pub = r.arr<32>();
  if (!sig_pub) return sig_pub.error();
  c.pub.sig = *sig_pub;
  auto aid = r.u32();
  if (!aid) return aid.error();
  c.aid = *aid;
  auto aa = r.arr<16>();
  if (!aa) return aa.error();
  c.aa_ephid.bytes = *aa;
  auto flags = r.u8();
  if (!flags) return flags.error();
  c.flags = *flags;
  auto sig = r.arr<64>();
  if (!sig) return sig.error();
  c.sig = *sig;
  return c;
}

}  // namespace apna::core
