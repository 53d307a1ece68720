// PartyContext / PartyOptions unit tests: construction contracts, option
// factories, sequence counters, stream salts.
#include <gtest/gtest.h>

#include "mpc/party.hpp"
#include "net/local_channel.hpp"
#include "sgpu/device.hpp"

namespace psml::mpc {
namespace {

TEST(PartyOptions, BaselineDisablesEverything) {
  const auto o = PartyOptions::secureml_baseline();
  EXPECT_FALSE(o.use_gpu);
  EXPECT_FALSE(o.use_pipeline);
  EXPECT_FALSE(o.use_compression);
  EXPECT_FALSE(o.fuse_eq8);
  EXPECT_FALSE(o.cpu_parallel);
  EXPECT_FALSE(o.adaptive);
}

TEST(PartyOptions, ParSecureMLEnablesEverything) {
  const auto o = PartyOptions::parsecureml();
  EXPECT_TRUE(o.use_gpu);
  EXPECT_TRUE(o.use_pipeline);
  EXPECT_TRUE(o.use_compression);
  EXPECT_TRUE(o.fuse_eq8);
  EXPECT_TRUE(o.cpu_parallel);
  EXPECT_TRUE(o.adaptive);
  EXPECT_DOUBLE_EQ(o.compression_threshold, 0.75);
}

TEST(PartyContext, RejectsBadPartyId) {
  auto chans = net::LocalChannel::make_pair();
  EXPECT_THROW(
      PartyContext(2, chans.a, nullptr, PartyOptions::secureml_baseline()),
      InvalidArgument);
  EXPECT_THROW(
      PartyContext(-1, chans.a, nullptr, PartyOptions::secureml_baseline()),
      InvalidArgument);
}

TEST(PartyContext, RejectsNullChannel) {
  EXPECT_THROW(
      PartyContext(0, nullptr, nullptr, PartyOptions::secureml_baseline()),
      InvalidArgument);
}

TEST(PartyContext, GpuModeRequiresDevice) {
  auto chans = net::LocalChannel::make_pair();
  PartyOptions opts = PartyOptions::parsecureml();
  EXPECT_THROW(PartyContext(0, chans.a, nullptr, opts), InvalidArgument);
  // With a device it constructs and exposes two streams.
  PartyContext ctx(0, chans.a, &sgpu::Device::global(), opts);
  EXPECT_TRUE(ctx.has_device());
  EXPECT_NE(&ctx.copy_stream(), &ctx.compute_stream());
}

TEST(PartyContext, CpuModeHasNoDevice) {
  auto chans = net::LocalChannel::make_pair();
  PartyContext ctx(1, chans.a, nullptr, PartyOptions::secureml_baseline());
  EXPECT_FALSE(ctx.has_device());
  EXPECT_THROW(ctx.device(), Error);
}

TEST(PartyContext, SequenceIsMonotone) {
  auto chans = net::LocalChannel::make_pair();
  PartyContext ctx(0, chans.a, nullptr, PartyOptions::secureml_baseline());
  const auto a = ctx.next_seq();
  const auto b = ctx.next_seq();
  const auto c = ctx.next_seq();
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(c, b + 1);
}

TEST(PartyContext, StreamSaltRoundTrips) {
  auto chans = net::LocalChannel::make_pair();
  PartyContext ctx(0, chans.a, nullptr, PartyOptions::secureml_baseline());
  EXPECT_EQ(ctx.stream_salt(), 0u);
  ctx.set_stream_salt(7);
  EXPECT_EQ(ctx.stream_salt(), 7u);
}

TEST(PartyContext, CompressionConfigHonorsOptions) {
  auto chans = net::LocalChannel::make_pair();
  PartyOptions opts = PartyOptions::secureml_baseline();
  opts.use_compression = false;
  PartyContext a(0, chans.a, nullptr, opts);
  PartyContext b(1, chans.b, nullptr, opts);
  // Disabled compression: identical resends stay dense (no compressed msgs).
  MatrixF m(8, 8, 1.0f);
  a.compressed().send(1, 5, m);
  (void)b.compressed().recv(1, 5);
  a.compressed().send(1, 5, m);
  (void)b.compressed().recv(1, 5);
  EXPECT_EQ(a.compressed().stats().compressed_messages, 0u);
}

TEST(Tags, FamiliesDoNotOverlap) {
  EXPECT_NE(tags::kExchangeE & 0xff000000u, tags::kExchangeF & 0xff000000u);
  EXPECT_NE(tags::kExchangeE & 0xff000000u, tags::kOpenMasked & 0xff000000u);
  EXPECT_NE(tags::kClientData & 0xff000000u, tags::kResult & 0xff000000u);
  EXPECT_NE(tags::kControl & 0xff000000u, tags::kResult & 0xff000000u);
}

}  // namespace
}  // namespace psml::mpc
