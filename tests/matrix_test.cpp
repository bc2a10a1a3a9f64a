// Cross-product sweep: every AEAD suite × every EphID granularity runs a
// complete bootstrap→issue→handshake→data→reply exchange over the simulated
// Internet. Guards against configuration-specific regressions anywhere in
// the stack.
#include <gtest/gtest.h>

#include "apna/internet.h"

namespace apna {
namespace {

using Combo = std::tuple<crypto::AeadSuite, host::Granularity>;

class StackMatrix : public ::testing::TestWithParam<Combo> {};

TEST_P(StackMatrix, EndToEndExchange) {
  const auto [suite, granularity] = GetParam();

  Internet net{static_cast<std::uint64_t>(static_cast<int>(suite)) * 100 +
               static_cast<std::uint64_t>(granularity)};
  auto& as_a = net.add_as(100, "A");
  auto& as_b = net.add_as(300, "B");
  net.link(100, 300, 3000);

  host::Host& client = as_a.add_host("client", granularity, suite);
  host::Host& server = as_b.add_host("server");
  ASSERT_TRUE(provision_ephids(client, net.loop(), 3).ok());
  ASSERT_TRUE(provision_ephids(server, net.loop(), 2).ok());

  std::vector<std::string> server_got;
  server.set_data_handler([&](std::uint64_t sid, ByteSpan d) {
    server_got.push_back(to_string(d));
    (void)server.send_data(sid, to_bytes("echo:" + to_string(d)));
  });
  std::vector<std::string> client_got;
  client.set_data_handler([&](std::uint64_t, ByteSpan d) {
    client_got.push_back(to_string(d));
  });

  // Two concurrent flows (exercises the granularity policy), several
  // messages each.
  auto s1 = client.connect(server.pool().entries()[0]->cert, {},
                           [](Result<std::uint64_t>) {});
  host::Host::ConnectOptions o2;
  o2.flow = "second";
  auto s2 = client.connect(server.pool().entries()[1]->cert, o2,
                           [](Result<std::uint64_t>) {});
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.send_data(*s1, to_bytes("a" + std::to_string(i))).ok());
    ASSERT_TRUE(client.send_data(*s2, to_bytes("b" + std::to_string(i))).ok());
  }
  net.run();

  EXPECT_EQ(server_got.size(), 6u);
  EXPECT_EQ(client_got.size(), 6u);
  EXPECT_EQ(client.stats().decrypt_drops, 0u);
  EXPECT_EQ(server.stats().decrypt_drops, 0u);
  EXPECT_EQ(as_a.br().stats().total_drops(), 0u);

  // Granularity-specific wire property.
  auto e1 = client.session_ephids(*s1);
  auto e2 = client.session_ephids(*s2);
  ASSERT_TRUE(e1 && e2);
  if (granularity == host::Granularity::per_host) {
    EXPECT_TRUE(e1->first == e2->first);
  } else if (granularity == host::Granularity::per_flow) {
    EXPECT_FALSE(e1->first == e2->first);
  }
}

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  const auto [suite, g] = info.param;
  std::string s;
  switch (suite) {
    case crypto::AeadSuite::chacha20_poly1305: s = "ChaCha"; break;
    case crypto::AeadSuite::aes128_ctr_cmac: s = "EtM"; break;
  }
  switch (g) {
    case host::Granularity::per_host: return s + "PerHost";
    case host::Granularity::per_application: return s + "PerApp";
    case host::Granularity::per_flow: return s + "PerFlow";
    case host::Granularity::per_packet: return s + "PerPacket";
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, StackMatrix,
    ::testing::Combine(
        ::testing::Values(crypto::AeadSuite::chacha20_poly1305,
                          crypto::AeadSuite::aes128_ctr_cmac),
        ::testing::Values(host::Granularity::per_host,
                          host::Granularity::per_application,
                          host::Granularity::per_flow)),
    combo_name);

// Per-packet granularity with sessions: frames from one flow rotate source
// EphIDs, which breaks (mine, peer) demux by design — the paper notes an
// "additional protocol is necessary to demultiplex packets" [23]. We pin
// the current behaviour: data still flows when the pool holds ONE usable
// EphID (rotation degenerates), documenting the [23] dependency otherwise.
TEST(StackMatrixEdge, PerPacketWithSingletonPool) {
  Internet net{999};
  auto& as_a = net.add_as(100, "A");
  auto& as_b = net.add_as(300, "B");
  net.link(100, 300, 3000);
  host::Host& client =
      as_a.add_host("client", host::Granularity::per_packet);
  host::Host& server = as_b.add_host("server");
  ASSERT_TRUE(provision_ephids(client, net.loop(), 1).ok());
  ASSERT_TRUE(provision_ephids(server, net.loop(), 1).ok());
  int got = 0;
  server.set_data_handler([&](std::uint64_t, ByteSpan) { ++got; });
  auto sid = client.connect(server.pool().entries().front()->cert, {},
                            [](Result<std::uint64_t>) {});
  ASSERT_TRUE(sid.ok());
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(client.send_data(*sid, to_bytes("p")).ok());
  net.run();
  EXPECT_EQ(got, 5);
}

}  // namespace
}  // namespace apna
