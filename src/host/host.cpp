#include "host/host.h"

#include "crypto/x25519.h"
#include "wire/codec.h"

namespace apna::host {

namespace {
constexpr std::uint8_t kDnsOpQuery = 0;    // mirrors services::DnsOp
constexpr std::uint8_t kDnsOpPublish = 1;
constexpr std::uint8_t kDnsOpResponse = 2;
}  // namespace

Host::Host(Config cfg, const core::AsDirectory& directory,
           net::EventLoop& loop)
    : cfg_(std::move(cfg)),
      directory_(directory),
      loop_(loop),
      rng_(cfg_.rng_seed != 0
               ? crypto::ChaChaRng(cfg_.rng_seed)
               : crypto::ChaChaRng(to_bytes(cfg_.name))) {}

// ---- Bootstrap ---------------------------------------------------------------

Result<void> Host::bootstrap(const BootstrapFn& rs) {
  long_term_ = crypto::X25519KeyPair::generate(rng_);

  core::BootstrapRequest req;
  req.subscriber_id = cfg_.subscriber_id;
  req.credential = cfg_.credential;
  req.host_pub = long_term_.pub;

  auto resp = rs(req);
  if (!resp) return resp.error();

  // All bootstrapping messages are authenticated (§IV-B): check id_info and
  // both service certificates against the AS's published key.
  const auto as_info = directory_.lookup(resp->aid);
  if (!as_info)
    return Result<void>(Errc::bad_certificate, "bootstrap from unknown AS");
  if (!crypto::ed25519_verify(as_info->sign_pub, resp->id_info_tbs(),
                              resp->id_info_sig))
    return Result<void>(Errc::bad_signature, "id_info signature invalid");
  // Each service certificate is validated against ITS issuing AS — behind
  // an access point (§VII-B) the MS certificate comes from the AP's realm
  // while the DNS certificate comes from the parent ISP.
  const core::ExpTime now = loop_.now_seconds();
  if (auto ok = core::validate_peer_cert(resp->ms_cert, directory_, now); !ok)
    return ok;
  if (auto ok = core::validate_peer_cert(resp->dns_cert, directory_, now); !ok)
    return ok;

  // kHA from the DH exchange with the AS (Fig 2).
  kha_ = core::HostAsKeys::derive(
      crypto::x25519_shared(long_term_.priv, as_info->dh_pub));
  kha_cmac_ = std::make_shared<const crypto::AesCmac>(
      ByteSpan(kha_.mac.data(), kha_.mac.size()));

  aid_ = resp->aid;
  hid_ = resp->hid;
  ctrl_ephid_ = resp->ctrl_ephid;
  ctrl_exp_ = resp->ctrl_exp_time;
  ms_cert_ = resp->ms_cert;
  dns_cert_ = resp->dns_cert;
  aa_ephid_ = resp->aa_ephid;
  bootstrapped_ = true;
  return Result<void>::success();
}

// ---- Packet plumbing ------------------------------------------------------------

wire::PacketWriter Host::start_packet(core::Aid dst_aid,
                                      const core::EphId& dst_ephid,
                                      const core::EphId& src_ephid,
                                      wire::NextProto proto) {
  std::optional<std::uint64_t> nonce;
  if (cfg_.add_replay_nonce && proto == wire::NextProto::data)
    nonce = ++packet_seq_;  // §VIII-D header nonce
  return wire::PacketWriter(aid_, src_ephid.bytes, dst_aid, dst_ephid.bytes,
                            proto, nonce);
}

void Host::transmit(wire::PacketWriter& pw, const OwnedEphId* src_owned) {
  // §VII-A invariant: receive-only EphIDs are never used as a source.
  if (src_owned != nullptr && src_owned->receive_only()) return;
  // The host's one encode: the payload was appended in place behind the
  // header; finish() binds the image and the kHA MAC is stamped at its
  // fixed offset.
  wire::PacketBuf buf = pw.finish();
  core::stamp_packet_mac(*kha_cmac_, buf);
  ++stats_.packets_sent;
  if (send_) send_(std::move(buf));
}

void Host::transmit_ctrl(wire::PacketWriter& pw) { transmit(pw, nullptr); }

// ---- EphID issuance (client of Fig 3) ---------------------------------------------

namespace {
Result<void> check_can_request(bool bootstrapped, core::ExpTime ctrl_exp,
                               core::ExpTime now) {
  if (!bootstrapped) return Result<void>(Errc::internal, "not bootstrapped");
  if (ctrl_exp < now)
    return Result<void>(Errc::expired, "control EphID expired");
  return Result<void>::success();
}
}  // namespace

void Host::request_ephid(core::EphIdLifetime lifetime, std::uint8_t flags,
                         EphIdCallback cb) {
  if (auto ok = check_can_request(bootstrapped_, ctrl_exp_,
                                  loop_.now_seconds());
      !ok) {
    cb(Result<const OwnedEphId*>(ok.error()));
    return;
  }
  // The HOST generates the key pair (§IV-C) and sends only the public half.
  core::EphIdKeyPair kp = core::EphIdKeyPair::generate(rng_);

  core::EphIdRequest req;
  req.ephid_pub = kp.pub;
  req.flags = flags;
  req.lifetime = lifetime;
  // Proof of possession: the MS only certifies keys whose holder can sign.
  req.pop_sig = kp.sign(req.pop_tbs());

  wire::MsgWriter plain(160);
  req.encode(plain);
  wire::PacketWriter pw = start_packet(aid_, ms_cert_.ephid, ctrl_ephid_,
                                       wire::NextProto::control);
  core::seal_control_into(pw, kha_, ctrl_nonce_++, /*from_host=*/true,
                          plain.span());
  PendingEphId pending;
  pending.expected_pub = kp.pub;
  pending.kp = std::move(kp);
  pending.lifetime = lifetime;
  pending.cb = std::move(cb);
  pending_ephids_.push_back(std::move(pending));
  transmit_ctrl(pw);
}

void Host::request_ephid_for(const core::EphIdPublicKeys& pub,
                             const crypto::Ed25519Signature& pop_sig,
                             core::EphIdLifetime lifetime, std::uint8_t flags,
                             CertCallback cb) {
  if (auto ok = check_can_request(bootstrapped_, ctrl_exp_,
                                  loop_.now_seconds());
      !ok) {
    cb(Result<core::EphIdCertificate>(ok.error()));
    return;
  }
  core::EphIdRequest req;
  req.ephid_pub = pub;
  req.flags = flags;
  req.lifetime = lifetime;
  // The inner host's own PoP signature rides along unchanged: pop_tbs()
  // deliberately binds only the key material, so the proxy hop (different
  // control EphID, different AS) does not invalidate it.
  req.pop_sig = pop_sig;
  wire::MsgWriter plain(160);
  req.encode(plain);
  wire::PacketWriter pw = start_packet(aid_, ms_cert_.ephid, ctrl_ephid_,
                                       wire::NextProto::control);
  core::seal_control_into(pw, kha_, ctrl_nonce_++, /*from_host=*/true,
                          plain.span());
  PendingEphId pending;
  pending.expected_pub = pub;
  pending.lifetime = lifetime;
  pending.cert_cb = std::move(cb);
  pending_ephids_.push_back(std::move(pending));
  transmit_ctrl(pw);
}

void Host::forward_as_own(wire::PacketBuf pkt) {
  core::stamp_packet_mac(*kha_cmac_, pkt);  // in place on the wire image
  ++stats_.packets_sent;
  if (send_) send_(std::move(pkt));
}

void Host::on_control(const wire::PacketView& pkt) {
  if (pending_ephids_.empty()) return;
  PendingEphId pending = std::move(pending_ephids_.front());
  pending_ephids_.pop_front();

  auto fail = [&](const Error& e) {
    if (pending.cb) pending.cb(Result<const OwnedEphId*>(e));
    if (pending.cert_cb) pending.cert_cb(Result<core::EphIdCertificate>(e));
  };

  auto payload = core::open_control(kha_, /*from_host=*/false, pkt.payload());
  if (!payload) {
    fail(payload.error());
    return;
  }
  auto resp = core::decode_msg<core::EphIdResponse>(*payload);
  if (!resp) {
    fail(resp.error());
    return;
  }
  // The certificate must match the request: correct key binding, valid AS
  // signature.
  if (!(resp->cert.pub == pending.expected_pub)) {
    fail(Error{Errc::bad_certificate, "certificate binds a different key"});
    return;
  }
  if (auto ok = core::validate_peer_cert(resp->cert, directory_,
                                         loop_.now_seconds());
      !ok) {
    fail(ok.error());
    return;
  }
  if (pending.kp) {
    const OwnedEphId* owned = pool_.add(std::move(*pending.kp),
                                        resp.take().cert, pending.lifetime);
    pending.cb(owned);
  } else {
    pending.cert_cb(resp.take().cert);
  }
}

// ---- Connections -------------------------------------------------------------------

std::uint64_t Host::session_key_hash(const core::EphId& mine,
                                     const core::EphId& peer) const {
  return core::EphIdHash{}(mine) * 0x9e3779b97f4a7c15ULL ^
         core::EphIdHash{}(peer);
}

Host::SessionState* Host::find_session(const core::EphId& mine,
                                       const core::EphId& peer) {
  auto it = session_index_.find(session_key_hash(mine, peer));
  if (it == session_index_.end()) return nullptr;
  auto st = sessions_.find(it->second);
  return st == sessions_.end() ? nullptr : &st->second;
}

Result<std::uint64_t> Host::connect(const core::EphIdCertificate& peer_cert,
                                    ConnectOptions opts, ConnectCallback cb) {
  const core::ExpTime now = loop_.now_seconds();
  if (opts.flow.empty()) opts.flow = "flow-" + std::to_string(next_flow_id_++);

  OwnedEphId* owned = pool_.pick(cfg_.granularity, opts.app, opts.flow,
                                 packet_seq_, now);
  if (!owned)
    return Result<std::uint64_t>(Errc::exhausted,
                                 "no usable EphID in pool; request one first");

  auto hs = core::handshake_initiate(peer_cert, directory_, now, owned->kp,
                                     owned->cert, cfg_.suite, opts.early_data,
                                     rng_.next_u64());
  if (!hs) return Result<std::uint64_t>(hs.error());

  const std::uint64_t id = next_session_id_++;
  SessionState st;
  st.id = id;
  st.early_session = std::move(hs->early_session);
  st.peer_aid = peer_cert.aid;
  st.peer_ephid = peer_cert.ephid;
  st.my_ephid = owned->cert.ephid;
  st.my_owned = owned;
  st.peer_cert = peer_cert;
  st.contacted_cert = peer_cert;
  st.initiator = true;
  st.established = false;
  // 0-RTT sending is an explicit opt-in (§VII-C documents its early-data
  // caveat); otherwise data waits for the serving certificate.
  st.zero_rtt = !opts.early_data.empty();
  st.on_connected = std::move(cb);

  session_index_[session_key_hash(st.my_ephid, st.peer_ephid)] = id;

  wire::PacketWriter pw = start_packet(peer_cert.aid, peer_cert.ephid,
                                       st.my_ephid,
                                       wire::NextProto::handshake);
  pw.u8(static_cast<std::uint8_t>(HandshakeKind::init));
  hs->init.encode(pw);
  sessions_.emplace(id, std::move(st));
  transmit(pw, owned);
  return id;
}

Result<void> Host::send_data(std::uint64_t session_id, ByteSpan data) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end())
    return Result<void>(Errc::not_found, "unknown session");
  SessionState& st = it->second;

  if (st.established) {
    core::Session& sess = *st.session;
    wire::PacketWriter pw = start_packet(st.peer_aid, st.peer_ephid,
                                         st.my_ephid, wire::NextProto::data);
    pw.raw(sess.seal(data));
    transmit(pw, st.my_owned);
    return Result<void>::success();
  }
  if (st.initiator && st.zero_rtt && st.early_session) {
    // 0-RTT: encrypt against the contacted EphID (§VII-C), accepting the
    // documented early-data caveat.
    wire::PacketWriter pw = start_packet(st.peer_aid, st.contacted_cert.ephid,
                                         st.my_ephid, wire::NextProto::data);
    pw.raw(st.early_session->seal(data));
    transmit(pw, st.my_owned);
    return Result<void>::success();
  }
  st.pending.emplace_back(data.begin(), data.end());
  return Result<void>::success();
}

Result<void> Host::close_session(std::uint64_t id, bool retire_ephid) {
  auto it = sessions_.find(id);
  if (it == sessions_.end())
    return Result<void>(Errc::not_found, "unknown session");
  SessionState& st = it->second;

  // Drop demux entries (including the contacted-EphID alias, if any).
  session_index_.erase(session_key_hash(st.my_ephid, st.peer_ephid));
  if (!(st.contacted_cert.ephid == st.my_ephid))
    session_index_.erase(
        session_key_hash(st.contacted_cert.ephid, st.peer_ephid));

  const core::EphId my_ephid = st.my_ephid;
  sessions_.erase(it);

  if (retire_ephid) {
    // Fate-sharing check: another live session on the same EphID keeps it.
    for (const auto& [other_id, other] : sessions_) {
      if (other.my_ephid == my_ephid) return Result<void>::success();
    }
    if (pool_.find(my_ephid) != nullptr)
      return revoke_own_ephid(my_ephid, [](Result<void>) {});
  }
  return Result<void>::success();
}

std::optional<std::pair<core::EphId, core::EphId>> Host::session_ephids(
    std::uint64_t id) const {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return std::nullopt;
  return std::make_pair(it->second.my_ephid, it->second.peer_ephid);
}

void Host::on_handshake(const wire::PacketView& pkt) {
  wire::MsgReader r(pkt);
  auto kind = r.u8();
  if (!kind) return;

  if (*kind == static_cast<std::uint8_t>(HandshakeKind::init)) {
    auto init = core::decode_msg<core::HandshakeInit>(r.rest());
    if (!init) {
      ++stats_.handshakes_rejected;
      return;
    }
    core::EphId contacted;
    contacted.bytes = pkt.dst_ephid();
    OwnedEphId* contacted_owned = pool_.find(contacted);
    if (!contacted_owned) {
      ++stats_.handshakes_rejected;
      return;
    }
    OwnedEphId* serving = contacted_owned->receive_only()
                              ? pool_.pick_serving(contacted,
                                                   loop_.now_seconds())
                              : contacted_owned;
    if (!serving) {
      ++stats_.handshakes_rejected;
      return;
    }
    auto hs = core::handshake_respond(
        *init, directory_, loop_.now_seconds(), contacted_owned->kp,
        contacted_owned->cert, serving->kp, serving->cert, rng_.next_u64());
    if (!hs) {
      ++stats_.handshakes_rejected;
      return;
    }

    const std::uint64_t id = next_session_id_++;
    SessionState st;
    st.id = id;
    st.session = std::move(hs->session);
    st.early_session = std::move(hs->early_session);
    st.peer_aid = pkt.src_aid();
    st.peer_ephid = hs->client_cert.ephid;
    st.my_ephid = serving->cert.ephid;
    st.my_owned = serving;
    st.peer_cert = hs->client_cert;
    st.contacted_cert = contacted_owned->cert;
    st.initiator = false;
    st.established = true;

    session_index_[session_key_hash(st.my_ephid, st.peer_ephid)] = id;
    if (!(contacted == st.my_ephid))
      session_index_[session_key_hash(contacted, st.peer_ephid)] = id;

    ++stats_.handshakes_accepted;

    // Respond from the SERVING EphID (never the receive-only one).
    wire::PacketWriter pw = start_packet(pkt.src_aid(), st.peer_ephid,
                                         st.my_ephid,
                                         wire::NextProto::handshake);
    pw.u8(static_cast<std::uint8_t>(HandshakeKind::response));
    hs->response.encode(pw);

    const Bytes early = std::move(hs->early_data);
    sessions_.emplace(id, std::move(st));
    transmit(pw, serving);

    if (!early.empty()) {
      ++stats_.data_frames_received;
      if (on_data_) on_data_(id, early);
    }
    return;
  }

  if (*kind == static_cast<std::uint8_t>(HandshakeKind::response)) {
    auto resp = core::decode_msg<core::HandshakeResponse>(r.rest());
    if (!resp) return;
    core::EphId mine;
    mine.bytes = pkt.dst_ephid();
    core::EphId from;
    from.bytes = pkt.src_ephid();

    // Host-to-host: serving == contacted, the index already matches.
    SessionState* st = find_session(mine, from);
    if (!st) {
      // Client-server: the response comes from a serving EphID we have not
      // seen; match a pending initiated session on (mine, src_aid).
      for (auto& [id, cand] : sessions_) {
        if (cand.initiator && !cand.established && cand.my_ephid == mine &&
            cand.peer_aid == pkt.src_aid() &&
            resp->serving_cert.ephid == from) {
          st = &cand;
          break;
        }
      }
    }
    if (!st || st->established) return;

    if (resp->serving_cert.ephid == st->contacted_cert.ephid) {
      // Same EphID serves: the early session IS the data session.
      st->session = std::move(st->early_session);
      st->early_session.reset();
    } else {
      auto finished =
          core::handshake_finish(*resp, directory_, loop_.now_seconds(),
                                 st->my_owned->kp, st->my_owned->cert,
                                 st->contacted_cert);
      if (!finished) {
        ++stats_.handshakes_rejected;
        if (st->on_connected) st->on_connected(Result<std::uint64_t>(finished.error()));
        return;
      }
      st->session = finished.take();
      st->peer_ephid = resp->serving_cert.ephid;
      st->peer_cert = resp->serving_cert;
      session_index_[session_key_hash(st->my_ephid, st->peer_ephid)] = st->id;
    }
    st->established = true;

    // Flush queued data.
    while (!st->pending.empty()) {
      Bytes data = std::move(st->pending.front());
      st->pending.pop_front();
      wire::PacketWriter pw_out = start_packet(st->peer_aid, st->peer_ephid,
                                               st->my_ephid,
                                               wire::NextProto::data);
      pw_out.raw(st->session->seal(data));
      transmit(pw_out, st->my_owned);
    }
    if (st->is_dns) flush_dns_queue(st->id);
    if (st->on_connected) st->on_connected(st->id);
    return;
  }
}

void Host::on_data(const wire::PacketView& pkt, wire::PacketBuf& owner) {
  // §VIII-D: header-nonce replay filter per source EphID.
  if (cfg_.add_replay_nonce && pkt.has_nonce()) {
    core::EphId src;
    src.bytes = pkt.src_ephid();
    auto [it, inserted] = replay_windows_.try_emplace(src, 1024);
    if (auto fresh = it->second.accept(pkt.nonce()); !fresh) {
      ++stats_.replay_drops;
      return;
    }
  }

  core::EphId mine, peer;
  mine.bytes = pkt.dst_ephid();
  peer.bytes = pkt.src_ephid();
  SessionState* st = find_session(mine, peer);
  if (!st) {
    ++stats_.unsolicited;
    last_unsolicited_ = std::move(owner);  // keep the buffer, no copy
    return;
  }

  // Frames addressed to the contacted (receive-only) EphID use early keys.
  core::Session* sess = nullptr;
  if (st->session && mine == st->my_ephid) {
    sess = &*st->session;
  } else if (st->early_session) {
    sess = &*st->early_session;
  } else if (st->session) {
    sess = &*st->session;
  }
  if (!sess) {
    ++stats_.unsolicited;
    return;
  }
  auto pt = sess->open(pkt.payload());
  if (!pt) {
    if (pt.error().code == Errc::replayed)
      ++stats_.replay_drops;
    else
      ++stats_.decrypt_drops;
    return;
  }
  ++stats_.data_frames_received;
  if (st->is_dns) {
    handle_dns_frame(*st, *pt);
    return;
  }
  if (on_data_) on_data_(st->id, *pt);
}

// ---- ICMP ------------------------------------------------------------------------

Result<void> Host::ping(const core::Endpoint& target, EchoCallback cb) {
  const core::ExpTime now = loop_.now_seconds();
  OwnedEphId* owned =
      pool_.pick(Granularity::per_host, "icmp", "icmp", packet_seq_, now);
  const core::EphId src = owned ? owned->cert.ephid : ctrl_ephid_;

  const std::uint64_t nonce = rng_.next_u64();
  core::IcmpMessage msg;
  msg.type = core::IcmpType::echo_request;
  msg.code = 0;
  msg.data.resize(16);
  store_be64(msg.data.data(), nonce);
  store_be64(msg.data.data() + 8, loop_.now());

  pending_pings_.emplace_back(nonce, std::move(cb));
  wire::PacketWriter pw = start_packet(target.aid, target.ephid, src,
                                       wire::NextProto::icmp);
  msg.encode(pw);
  transmit(pw, owned);
  return Result<void>::success();
}

void Host::on_icmp_packet(const wire::PacketView& pkt) {
  auto msg = core::decode_msg<core::IcmpMessage>(pkt.payload());
  if (!msg) return;
  ++stats_.icmp_received;

  core::Endpoint from;
  from.aid = pkt.src_aid();
  from.ephid.bytes = pkt.src_ephid();

  switch (msg->type) {
    case core::IcmpType::echo_request: {
      // Reply from the EphID that was pinged — it is a valid return address
      // (§VIII-B: "using the source EphID in a packet, one can send an ICMP
      // message to the source host").
      core::EphId pinged;
      pinged.bytes = pkt.dst_ephid();
      OwnedEphId* owned = pool_.find(pinged);
      const core::EphId src =
          owned ? owned->cert.ephid
                : (pinged == ctrl_ephid_ ? ctrl_ephid_ : core::EphId{});
      if (src.is_zero() && !owned) return;  // not ours; ignore
      core::IcmpMessage reply;
      reply.type = core::IcmpType::echo_reply;
      reply.code = 0;
      reply.data = msg->data;
      wire::PacketWriter pw = start_packet(pkt.src_aid(), from.ephid, src,
                                           wire::NextProto::icmp);
      reply.encode(pw);
      transmit(pw, owned);
      return;
    }
    case core::IcmpType::echo_reply: {
      if (msg->data.size() < 16) return;
      const std::uint64_t nonce = load_be64(msg->data.data());
      const net::TimeUs t0 = load_be64(msg->data.data() + 8);
      for (auto it = pending_pings_.begin(); it != pending_pings_.end(); ++it) {
        if (it->first == nonce) {
          EchoCallback cb = std::move(it->second);
          pending_pings_.erase(it);
          cb(loop_.now() - t0);
          return;
        }
      }
      return;
    }
    default:
      if (on_icmp_) on_icmp_(from, *msg);
      return;
  }
}

// ---- Shutoff ------------------------------------------------------------------------

Result<void> Host::request_shutoff(const wire::PacketView& offending,
                                   ShutoffCallback cb) {
  core::EphId victim_ephid;
  victim_ephid.bytes = offending.dst_ephid();
  OwnedEphId* owned = pool_.find(victim_ephid);
  if (!owned)
    return Result<void>(Errc::unauthorized,
                        "we do not own the packet's destination EphID");

  // The offending packet IS its wire image — embed it verbatim.
  const ByteSpan pkt_bytes = offending.bytes();
  core::ShutoffRequest req;
  req.offending_packet.assign(pkt_bytes.begin(), pkt_bytes.end());
  req.sig = owned->kp.sign(pkt_bytes);
  req.dst_cert = owned->cert;

  // Locate the source's accountability agent: from the peer's certificate
  // when we have a session with it, else from the published directory info.
  core::Endpoint aa;
  aa.aid = offending.src_aid();
  core::EphId src;
  src.bytes = offending.src_ephid();
  bool found = false;
  for (const auto& [id, st] : sessions_) {
    if (st.peer_ephid == src) {
      aa.ephid = st.peer_cert.aa_ephid;
      found = true;
      break;
    }
  }
  if (!found) {
    const auto as_info = directory_.lookup(offending.src_aid());
    if (!as_info)
      return Result<void>(Errc::not_found, "source AS unknown; no AA address");
    aa.ephid = as_info->aa_ephid;
  }

  pending_shutoffs_.push_back(std::move(cb));
  // The request may concern a RECEIVE-ONLY EphID (0-RTT flood): the
  // ownership proof is the signature + certificate above, but the request
  // packet itself must be sourced from a sendable EphID (§VII-A).
  const core::EphId src_ephid =
      owned->receive_only()
          ? [&]() -> core::EphId {
              OwnedEphId* sender = pool_.pick(Granularity::per_host, "shutoff",
                                              "shutoff", packet_seq_,
                                              loop_.now_seconds());
              return sender ? sender->cert.ephid : ctrl_ephid_;
            }()
          : owned->cert.ephid;
  wire::PacketWriter pw = start_packet(aa.aid, aa.ephid, src_ephid,
                                       wire::NextProto::shutoff);
  pw.u8(static_cast<std::uint8_t>(core::ShutoffKind::shutoff_request));
  req.encode(pw);
  transmit_ctrl(pw);
  return Result<void>::success();
}

Result<void> Host::revoke_own_ephid(const core::EphId& ephid,
                                    ShutoffCallback cb) {
  OwnedEphId* owned = pool_.find(ephid);
  if (!owned)
    return Result<void>(Errc::not_found, "EphID not in pool");

  core::EphIdRevokeRequest req;
  req.ephid = ephid;
  req.cert = owned->cert;
  req.sig = owned->kp.sign(core::EphIdRevokeRequest::revoke_tbs(ephid));

  // Mark locally retired immediately so the pool stops assigning it;
  // the AS-side revocation confirmation arrives via the callback.
  owned->revoked_locally = true;

  pending_shutoffs_.push_back(std::move(cb));
  // Voluntary revocation goes to OUR OWN AS's agent, sourced from the
  // control EphID (the revoked EphID must not source new traffic).
  wire::PacketWriter pw = start_packet(aid_, aa_ephid_, ctrl_ephid_,
                                       wire::NextProto::shutoff);
  pw.u8(static_cast<std::uint8_t>(core::ShutoffKind::revoke_request));
  req.encode(pw);
  transmit_ctrl(pw);
  return Result<void>::success();
}

void Host::on_shutoff_response(const wire::PacketView& pkt) {
  if (pending_shutoffs_.empty()) return;
  wire::MsgReader r(pkt);
  auto kind = r.u8();
  if (!kind || *kind != static_cast<std::uint8_t>(core::ShutoffKind::response))
    return;
  auto resp = core::decode_msg<core::ShutoffResponse>(r.rest());
  ShutoffCallback cb = std::move(pending_shutoffs_.front());
  pending_shutoffs_.pop_front();
  if (!resp) {
    cb(Result<void>(resp.error()));
    return;
  }
  if (resp->status == 0) {
    cb(Result<void>::success());
  } else {
    cb(Result<void>(static_cast<Errc>(resp->status), "shutoff rejected"));
  }
}

// ---- DNS client -----------------------------------------------------------------------

void Host::resolve(const std::string& name, ResolveCallback cb) {
  resolve_via(dns_cert_, name, std::move(cb));
}

void Host::resolve_via(const core::EphIdCertificate& dns_cert,
                       const std::string& name, ResolveCallback cb) {
  wire::MsgWriter w(name.size() + 4);
  w.u8(kDnsOpQuery);
  core::DnsQuery q;
  q.name = name;
  q.encode(w);
  DnsPending req;
  req.op = kDnsOpQuery;
  req.body = w.take();
  req.on_resolve = std::move(cb);
  dns_rpc(dns_cert, std::move(req));
}

void Host::publish_name(const std::string& name,
                        const core::EphIdCertificate& cert, std::uint32_t ipv4,
                        PublishCallback cb) {
  core::DnsPublish p;
  p.name = name;
  p.cert = cert;
  p.ipv4 = ipv4;
  wire::MsgWriter w(400);
  w.u8(kDnsOpPublish);
  p.encode(w);
  DnsPending req;
  req.op = kDnsOpPublish;
  req.body = w.take();
  req.on_publish = std::move(cb);
  dns_rpc(dns_cert_, std::move(req));
  (void)cb;
}

void Host::dns_rpc(const core::EphIdCertificate& dns_cert, DnsPending req) {
  const std::string key = dns_cert.ephid.hex();
  auto it = dns_sessions_.find(key);
  if (it != dns_sessions_.end()) {
    const std::uint64_t id = it->second;
    dns_queues_[id].push_back(std::move(req));
    if (dns_ready_[id]) flush_dns_queue(id);
    return;
  }
  ConnectOptions opts;
  opts.app = "dns";
  auto result = connect(dns_cert, std::move(opts),
                        [this](Result<std::uint64_t> r) {
                          if (r) {
                            dns_ready_[*r] = true;
                            flush_dns_queue(*r);
                          }
                        });
  if (!result) {
    if (req.on_resolve) req.on_resolve(Result<core::DnsRecord>(result.error()));
    if (req.on_publish) req.on_publish(Result<void>(result.error()));
    return;
  }
  const std::uint64_t id = *result;
  sessions_.at(id).is_dns = true;
  dns_sessions_[key] = id;
  dns_ready_[id] = false;
  dns_queues_[id].push_back(std::move(req));
}

void Host::flush_dns_queue(std::uint64_t session_id) {
  auto qit = dns_queues_.find(session_id);
  if (qit == dns_queues_.end()) return;
  auto sit = sessions_.find(session_id);
  if (sit == sessions_.end() || !sit->second.established) return;
  SessionState& st = sit->second;

  for (auto& req : qit->second) {
    if (req.body.empty()) continue;  // already sent
    wire::PacketWriter pw = start_packet(st.peer_aid, st.peer_ephid,
                                         st.my_ephid, wire::NextProto::data);
    pw.raw(st.session->seal(req.body));
    req.body.clear();  // mark in-flight
    transmit(pw, st.my_owned);
  }
}

void Host::handle_dns_frame(SessionState& st, ByteSpan frame) {
  wire::MsgReader r(frame);
  auto op = r.u8();
  if (!op || *op != kDnsOpResponse) return;

  auto qit = dns_queues_.find(st.id);
  if (qit == dns_queues_.end() || qit->second.empty()) return;
  DnsPending req = std::move(qit->second.front());
  qit->second.pop_front();

  if (req.op == kDnsOpQuery) {
    auto resp = core::decode_msg<core::DnsResponse>(r.rest());
    if (!resp || resp->status != 0 || !resp->record) {
      if (req.on_resolve)
        req.on_resolve(Result<core::DnsRecord>(Errc::not_found, "NXDOMAIN"));
      return;
    }
    // DNSSEC stand-in: verify the record signature with the DNS service's
    // key, and the embedded certificate against its issuing AS.
    core::DnsRecord rec = *resp->record;
    wire::MsgWriter tbs(256);
    rec.tbs_into(tbs);
    if (!crypto::ed25519_verify(st.peer_cert.pub.sig, tbs.span(), rec.sig)) {
      if (req.on_resolve)
        req.on_resolve(
            Result<core::DnsRecord>(Errc::bad_signature, "record sig"));
      return;
    }
    if (auto ok = core::validate_peer_cert(rec.cert, directory_,
                                           loop_.now_seconds());
        !ok) {
      if (req.on_resolve) req.on_resolve(Result<core::DnsRecord>(ok.error()));
      return;
    }
    if (req.on_resolve) req.on_resolve(rec);
    return;
  }

  // Publish acknowledgement.
  auto status = r.u8();
  if (req.on_publish) {
    if (status && *status == 0)
      req.on_publish(Result<void>::success());
    else
      req.on_publish(Result<void>(Errc::unauthorized, "publish rejected"));
  }
}

// ---- EphID auto-renewal (§VIII-G1 lifecycle) --------------------------------------

void Host::start_auto_renew(EphIdLifecycleManager::Config cfg) {
  if (cfg.check_interval_us == 0) cfg.check_interval_us = net::kUsPerSecond;
  lifecycle_.emplace(cfg);
  const std::uint64_t gen = ++auto_renew_gen_;
  // First tick runs immediately-ish (jitter only), so a freshly started
  // host stocks its classes without waiting a full interval.
  loop_.schedule_in(lifecycle_->next_delay(rng_) % cfg.check_interval_us,
                    [this, gen] { auto_renew_tick(gen); });
}

void Host::stop_auto_renew() {
  lifecycle_.reset();
  ++auto_renew_gen_;  // any scheduled tick becomes a no-op
}

void Host::auto_renew_tick(std::uint64_t gen) {
  if (!lifecycle_ || gen != auto_renew_gen_) return;
  const auto deficits = lifecycle_->plan(pool_, loop_.now_seconds(),
                                         loop_.now());
  for (std::size_t i = 0; i < kLifetimeClasses; ++i) {
    const auto lt = static_cast<core::EphIdLifetime>(i);
    for (std::size_t n = 0; n < deficits[i]; ++n) {
      lifecycle_->on_requested(lt, loop_.now());
      request_ephid(lt, 0, [this, gen, lt](Result<const OwnedEphId*> r) {
        if (!lifecycle_ || gen != auto_renew_gen_) return;
        if (r)
          lifecycle_->on_issued(lt);
        else
          lifecycle_->on_failed(lt);
      });
    }
  }
  // Jittered, backoff-aware re-schedule: the loop keeps running until
  // stop_auto_renew() flips the generation.
  loop_.schedule_in(lifecycle_->next_delay(rng_),
                    [this, gen] { auto_renew_tick(gen); });
}

// ---- Receive dispatch --------------------------------------------------------------

void Host::on_packet(wire::PacketBuf pkt) {
  ++stats_.packets_received;
  const wire::PacketView& v = pkt.view();
  switch (v.proto()) {
    case wire::NextProto::control: on_control(v); return;
    case wire::NextProto::handshake: on_handshake(v); return;
    case wire::NextProto::data: on_data(v, pkt); return;
    case wire::NextProto::icmp: on_icmp_packet(v); return;
    case wire::NextProto::shutoff: on_shutoff_response(v); return;
  }
}

}  // namespace apna::host
