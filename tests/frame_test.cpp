// Tests for the checksummed wire envelope (common/frame.h), robustness
// property tests for the payload deserializers — any truncated or
// bit-flipped buffer must either decode to a rejection status or throw the
// documented exceptions, never crash, hang, or read out of bounds (run under
// LBCHAT_SANITIZE=address,undefined to enforce the last part) — and the
// pinned bytes of every payload kind.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "baselines/gossip_base.h"
#include "common/bytes.h"
#include "common/frame.h"
#include "common/rng.h"
#include "coreset/coreset_io.h"
#include "data/sample_io.h"
#include "engine/adversary.h"
#include "net/assist_io.h"
#include "nn/model_io.h"
#include "sim/route.h"
#include "sim/town.h"

namespace lbchat {
namespace {

TEST(FrameTest, Crc32KnownVector) {
  // The canonical IEEE 802.3 check value: CRC32("123456789") = 0xCBF43926.
  const std::vector<std::uint8_t> check{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(frame::crc32(check), 0xCBF43926u);
  EXPECT_EQ(frame::crc32({}), 0x00000000u);
}

TEST(FrameTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // The table-driven CRC folds eight bytes per step; the plain bytewise
  // shift register is the reference. Lengths 0..300 cover the 8-byte body
  // plus every tail length, offsets 0..7 every start alignment.
  const auto reference = [](const std::uint8_t* p, std::size_t n) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      crc ^= p[i];
      for (int k = 0; k < 8; ++k) crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xFFFFFFFFu;
  };
  Rng rng{0xC3Cull};
  std::vector<std::uint8_t> buf(300 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::span<const std::uint8_t> data{buf.data() + offset, len};
      ASSERT_EQ(frame::crc32(data), reference(data.data(), len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(FrameTest, EncodeDecodeRoundtrip) {
  const std::vector<std::uint8_t> payload{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42};
  const auto wire = frame::encode(frame::FrameType::kCoreset, payload);
  EXPECT_EQ(wire.size(), frame::kHeaderBytes + payload.size());
  const auto dec = frame::decode(wire);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.type, frame::FrameType::kCoreset);
  EXPECT_EQ(std::vector<std::uint8_t>(dec.payload.begin(), dec.payload.end()), payload);
}

TEST(FrameTest, EmptyPayloadRoundtrip) {
  const auto wire = frame::encode(frame::FrameType::kAssist, {});
  const auto dec = frame::decode(wire);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.type, frame::FrameType::kAssist);
  EXPECT_TRUE(dec.payload.empty());
}

TEST(FrameTest, EveryTruncationRejected) {
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5, 6, 7, 8};
  const auto wire = frame::encode(frame::FrameType::kModel, payload);
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const auto dec = frame::decode(std::span{wire.data(), n});
    EXPECT_FALSE(dec.ok()) << "truncation to " << n << " bytes accepted";
  }
}

TEST(FrameTest, EverySingleBitFlipRejected) {
  const std::vector<std::uint8_t> payload{10, 20, 30, 40, 50};
  const auto wire = frame::encode(frame::FrameType::kModel, payload);
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto damaged = wire;
      damaged[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const auto dec = frame::decode(damaged);
      EXPECT_FALSE(dec.ok()) << "flip of byte " << byte << " bit " << bit << " accepted";
    }
  }
}

TEST(FrameTest, StatusDiscriminatesFailureModes) {
  const auto wire = frame::encode(frame::FrameType::kModel, std::vector<std::uint8_t>{9});
  EXPECT_EQ(frame::decode(std::span{wire.data(), 3}).status, frame::FrameStatus::kTooShort);
  {
    auto bad = wire;
    bad[0] ^= 0xFF;
    EXPECT_EQ(frame::decode(bad).status, frame::FrameStatus::kBadMagic);
  }
  {
    auto bad = wire;
    bad[4] = frame::kFrameVersion + 1;
    EXPECT_EQ(frame::decode(bad).status, frame::FrameStatus::kBadVersion);
  }
  {
    auto bad = wire;
    bad[6] = 0xFF;  // declared length far past the buffer
    EXPECT_EQ(frame::decode(bad).status, frame::FrameStatus::kBadLength);
  }
  {
    auto bad = wire;
    bad.back() ^= 0x01;  // payload damage
    EXPECT_EQ(frame::decode(bad).status, frame::FrameStatus::kBadChecksum);
  }
  EXPECT_EQ(frame::to_string(frame::FrameStatus::kBadChecksum), "bad-checksum");
}

// ---------------------------------------------------------------------------
// Deserializer robustness properties. The CRC envelope rejects transport
// damage; these tests cover the second line of defence — the deserializers
// themselves must reject (by documented exception), never crash or OOB-read,
// when handed malformed bytes that a hostile or buggy sender could produce.
// ---------------------------------------------------------------------------

/// Expect the callable to either succeed or throw one of the documented
/// deserialization exceptions; anything else (crash, OOB under sanitizers)
/// fails the test run itself.
template <typename F>
void expect_clean(F&& f) {
  try {
    (void)f();
  } catch (const std::out_of_range&) {
    // truncated buffer
  } catch (const std::runtime_error&) {
    // structurally invalid payload
  }
}

std::vector<std::uint8_t> sample_model_bytes() {
  nn::SparseModel m;
  m.dim = 64;
  m.dense = false;
  m.indices = {1, 5, 9, 33};
  m.values = {0.5f, -1.0f, 2.5f, 0.125f};
  ByteWriter w;
  nn::write_sparse_model(w, m);
  return w.bytes();
}

TEST(DeserializerRobustnessTest, SparseModelTruncationsAndBitFlips) {
  const auto bytes = sample_model_bytes();
  // Intact round trip first.
  {
    ByteReader r{bytes};
    const auto m = nn::read_sparse_model(r);
    EXPECT_EQ(m.indices.size(), 4u);
  }
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    expect_clean([&] {
      ByteReader r{std::span{bytes.data(), n}};
      return nn::read_sparse_model(r);
    });
  }
  Rng rng{7};
  for (int trial = 0; trial < 500; ++trial) {
    auto damaged = bytes;
    const auto bit = rng.uniform_index(damaged.size() * 8);
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    expect_clean([&] {
      ByteReader r{damaged};
      return nn::read_sparse_model(r);
    });
  }
}

TEST(DeserializerRobustnessTest, SparseModelStructuralValidation) {
  {
    // Dense flag with a sparse-sized value vector.
    nn::SparseModel m;
    m.dim = 64;
    m.dense = true;
    m.values = {1.0f};
    ByteWriter w;
    nn::write_sparse_model(w, m);
    ByteReader r{w.bytes()};
    EXPECT_THROW(nn::read_sparse_model(r), std::runtime_error);
  }
  {
    // Index past dim.
    nn::SparseModel m;
    m.dim = 4;
    m.indices = {9};
    m.values = {1.0f};
    ByteWriter w;
    nn::write_sparse_model(w, m);
    ByteReader r{w.bytes()};
    EXPECT_THROW(nn::read_sparse_model(r), std::runtime_error);
  }
  {
    // indices/values length mismatch.
    nn::SparseModel m;
    m.dim = 4;
    m.indices = {1, 2};
    m.values = {1.0f};
    ByteWriter w;
    nn::write_sparse_model(w, m);
    ByteReader r{w.bytes()};
    EXPECT_THROW(nn::read_sparse_model(r), std::runtime_error);
  }
}

TEST(DeserializerRobustnessTest, GossipExchangeTruncationsAndBitFlips) {
  nn::SparseModel m;
  m.dim = 64;
  m.indices = {1, 5, 9, 33};
  m.values = {0.5f, -1.0f, 2.5f, 0.125f};
  const auto framed = baselines::encode_exchange({m, {0.25, 0.75}});
  const auto dec = frame::decode(framed);
  ASSERT_TRUE(dec.ok());
  const std::vector<std::uint8_t> bytes(dec.payload.begin(), dec.payload.end());
  const auto load = [](std::span<const std::uint8_t> b) {
    ByteReader r{b};
    baselines::ModelExchange x;
    Load{r}(x);
    return x;
  };
  const auto x = load(bytes);
  EXPECT_EQ(x.model.indices.size(), 4u);
  EXPECT_EQ(x.composition, (std::vector<double>{0.25, 0.75}));
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    expect_clean([&] { return load(std::span{bytes.data(), n}); });
  }
  Rng rng{17};
  for (int trial = 0; trial < 500; ++trial) {
    auto damaged = bytes;
    const auto bit = rng.uniform_index(damaged.size() * 8);
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    expect_clean([&] { return load(damaged); });
  }
}

coreset::Coreset sample_coreset() {
  coreset::Coreset c;
  Rng rng{3};
  for (int i = 0; i < 3; ++i) {
    data::Sample s;
    s.bev = data::BevGrid{c.spec};
    for (int k = 0; k < c.spec.numel(); ++k) {
      s.bev.set(static_cast<std::size_t>(k), rng.chance(0.3));
    }
    s.command = static_cast<data::Command>(i % data::kNumCommands);
    for (float& wp : s.waypoints) wp = static_cast<float>(rng.uniform(-1.0, 1.0));
    s.weight = 1.0 + i;
    s.id = 100u + static_cast<std::uint64_t>(i);
    s.source_vehicle = 2;
    c.samples.push_back(std::move(s));
    c.wc.push_back(0.5 * (i + 1));
  }
  return c;
}

TEST(DeserializerRobustnessTest, CoresetRoundtripAndCorruption) {
  const coreset::Coreset original = sample_coreset();
  ByteWriter w;
  coreset::write_coreset(w, original);
  const auto bytes = w.bytes();
  {
    ByteReader r{bytes};
    const auto c = coreset::read_coreset(r, original.spec);
    ASSERT_EQ(c.samples.size(), original.samples.size());
    EXPECT_EQ(c.wc, original.wc);
    for (std::size_t i = 0; i < c.samples.size(); ++i) {
      EXPECT_EQ(c.samples[i].bev.bits, original.samples[i].bev.bits);
      EXPECT_EQ(c.samples[i].command, original.samples[i].command);
      EXPECT_EQ(c.samples[i].waypoints, original.samples[i].waypoints);
      EXPECT_EQ(c.samples[i].weight, original.samples[i].weight);
      EXPECT_EQ(c.samples[i].id, original.samples[i].id);
    }
  }
  for (std::size_t n = 0; n < bytes.size(); n += 3) {
    expect_clean([&] {
      ByteReader r{std::span{bytes.data(), n}};
      return coreset::read_coreset(r, original.spec);
    });
  }
  Rng rng{11};
  for (int trial = 0; trial < 300; ++trial) {
    auto damaged = bytes;
    const auto bit = rng.uniform_index(damaged.size() * 8);
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    expect_clean([&] {
      ByteReader r{damaged};
      return coreset::read_coreset(r, original.spec);
    });
  }
}

TEST(DeserializerRobustnessTest, AssistRoundtripAndCorruption) {
  Rng rng{5};
  const auto map = sim::TownMap::generate(sim::TownConfig{}, rng);
  const sim::Route route = sim::plan_route(map, 0, static_cast<int>(map.nodes().size()) - 1);
  net::AssistInfo info;
  info.pos = Vec2{120.0, 340.0};
  info.velocity = Vec2{3.0, -1.5};
  info.speed = 3.35;
  info.route_s = 42.0;
  info.route = route.empty() ? nullptr : &route;
  info.bandwidth_bps = 31e6;

  ByteWriter w;
  net::write_assist(w, info);
  const auto bytes = w.bytes();
  {
    ByteReader r{bytes};
    const auto got = net::read_assist(r, map);
    EXPECT_EQ(got.info.pos, info.pos);
    EXPECT_EQ(got.info.speed, info.speed);
    const auto view = got.view();
    if (info.route != nullptr) {
      ASSERT_NE(view.route, nullptr);
      EXPECT_EQ(view.route->node_sequence(), info.route->node_sequence());
      EXPECT_DOUBLE_EQ(view.route->length(), info.route->length());
    }
  }
  for (std::size_t n = 0; n < bytes.size(); n += 2) {
    expect_clean([&] {
      ByteReader r{std::span{bytes.data(), n}};
      return net::read_assist(r, map);
    });
  }
  Rng flip_rng{13};
  for (int trial = 0; trial < 300; ++trial) {
    auto damaged = bytes;
    const auto bit = flip_rng.uniform_index(damaged.size() * 8);
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    expect_clean([&] {
      ByteReader r{damaged};
      return net::read_assist(r, map);
    });
  }
}

// --- semantic value validation (WireValueError) -------------------------------
//
// A CRC envelope only catches transport damage: a hostile sender checksums
// its own bad values. These pin the decode-time bounds that close that gap.

TEST(WireValueValidationTest, SampleWeightBoundsEnforced) {
  const coreset::Coreset c = sample_coreset();
  const auto write_with_weight = [&](double weight) {
    data::Sample s = c.samples[0];
    s.weight = weight;
    ByteWriter w;
    Save io{w};
    data::fields(io, s, c.spec);
    return w.bytes();
  };
  const auto read = [&](const std::vector<std::uint8_t>& bytes) {
    ByteReader r{bytes};
    Load io{r};
    data::Sample s;
    data::fields(io, s, c.spec);
    return s;
  };
  // Boundary values pass.
  for (const double ok : {0.0, 1.0, data::kMaxWireSampleWeight}) {
    EXPECT_EQ(read(write_with_weight(ok)).weight, ok);
  }
  // Non-finite and out-of-range weights are rejected as WireValueError —
  // which is-a runtime_error, so pre-existing catch sites keep working.
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), -1.0, data::kMaxWireSampleWeight * 2.0}) {
    const auto bytes = write_with_weight(bad);
    EXPECT_THROW((void)read(bytes), WireValueError) << "weight " << bad;
    EXPECT_THROW((void)read(bytes), std::runtime_error);
  }
}

TEST(WireValueValidationTest, CoresetWeightBoundsEnforced) {
  const auto write_with_wc = [](double wc) {
    coreset::Coreset c = sample_coreset();
    c.wc.back() = wc;
    ByteWriter w;
    coreset::write_coreset(w, c);
    return w.bytes();
  };
  const coreset::Coreset ref = sample_coreset();
  for (const double ok : {0.0, coreset::kMaxWireCoresetWeight}) {
    const auto bytes = write_with_wc(ok);
    ByteReader r{bytes};
    EXPECT_EQ(coreset::read_coreset(r, ref.spec).wc.back(), ok);
  }
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), std::numeric_limits<double>::infinity(),
        -0.5, coreset::kMaxWireCoresetWeight * 2.0}) {
    const auto bytes = write_with_wc(bad);
    ByteReader r{bytes};
    EXPECT_THROW((void)coreset::read_coreset(r, ref.spec), WireValueError) << "wc " << bad;
  }
}

TEST(WireValueValidationTest, AssistFieldBoundsEnforced) {
  Rng rng{5};
  const auto map = sim::TownMap::generate(sim::TownConfig{}, rng);
  net::AssistInfo base;
  base.pos = Vec2{120.0, 340.0};
  base.velocity = Vec2{3.0, -1.5};
  base.speed = 3.35;
  base.route_s = 42.0;
  base.bandwidth_bps = 31e6;

  const auto bytes_of = [](const net::AssistInfo& info) {
    ByteWriter w;
    net::write_assist(w, info);
    return w.bytes();
  };
  {
    const auto bytes = bytes_of(base);
    ByteReader r{bytes};
    EXPECT_NO_THROW((void)net::read_assist(r, map));
  }
  const auto expect_rejected = [&](const net::AssistInfo& info, const char* what) {
    const auto bytes = bytes_of(info);
    ByteReader r{bytes};
    EXPECT_THROW((void)net::read_assist(r, map), WireValueError) << what;
  };
  net::AssistInfo bad = base;
  bad.pos.x = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(bad, "NaN position");
  bad = base;
  bad.pos.y = 2.0 * net::kMaxWireAssistCoordM;
  expect_rejected(bad, "absurd coordinate");
  bad = base;
  bad.velocity.x = -2.0 * net::kMaxWireAssistSpeedMps;
  expect_rejected(bad, "absurd velocity");
  bad = base;
  bad.speed = std::numeric_limits<double>::infinity();
  expect_rejected(bad, "infinite speed");
  bad = base;
  bad.route_s = 2.0 * net::kMaxWireAssistRouteS;
  expect_rejected(bad, "absurd route offset");
  bad = base;
  bad.bandwidth_bps = -1.0;
  expect_rejected(bad, "negative bandwidth");
  bad = base;
  bad.bandwidth_bps = 2.0 * net::kMaxWireAssistBandwidthBps;
  expect_rejected(bad, "absurd bandwidth");
}

// --- pinned wire bytes ---------------------------------------------------------
//
// The CRC32 and size of one framed payload of each kind, built from fixed
// fixtures. A codec change that moves a single wire byte fails here.

struct WirePin {
  const char* label;
  std::vector<std::uint8_t> (*build)();
  std::uint32_t crc32;
  std::size_t bytes;
  friend void PrintTo(const WirePin& p, std::ostream* os) { *os << p.label; }
};

/// The shared town map and a route across it.
struct PinMap {
  sim::TownMap map;
  sim::Route route;
  static const PinMap& get() {
    static const PinMap m = [] {
      Rng rng{5};
      auto map = sim::TownMap::generate(sim::TownConfig{}, rng);
      auto route = sim::plan_route(map, 0, static_cast<int>(map.nodes().size()) - 1);
      return PinMap{std::move(map), std::move(route)};
    }();
    return m;
  }
};

std::vector<std::uint8_t> pin_assist(bool with_route) {
  net::AssistInfo info;
  info.pos = Vec2{120.0, 340.0};
  info.velocity = Vec2{3.0, -1.5};
  info.speed = 3.35;
  info.route_s = 42.0;
  info.route = with_route ? &PinMap::get().route : nullptr;
  info.bandwidth_bps = 31e6;
  ByteWriter w;
  net::write_assist(w, info);
  return frame::encode(frame::FrameType::kAssist, w.bytes());
}

std::vector<std::uint8_t> pin_coreset() {
  ByteWriter w;
  coreset::write_coreset(w, sample_coreset());
  return frame::encode(frame::FrameType::kCoreset, w.bytes());
}

nn::SparseModel pin_sparse_model() {
  nn::SparseModel m;
  m.dim = 64;
  m.indices = {1, 5, 9, 33};
  m.values = {0.5f, -1.0f, 2.5f, 0.125f};
  return m;
}

std::vector<std::uint8_t> pin_model(const nn::SparseModel& m) {
  ByteWriter w;
  nn::write_sparse_model(w, m);
  return frame::encode(frame::FrameType::kModel, w.bytes());
}

std::vector<std::uint8_t> pin_dense_model() {
  nn::SparseModel m;
  m.dim = 6;
  m.dense = true;
  m.values = {0.25f, -0.5f, 1.0f, -2.0f, 4.0f, 0.0f};
  return pin_model(m);
}

std::vector<std::uint8_t> pin_exchange() {
  return baselines::encode_exchange({pin_sparse_model(), {0.25, 0.75, 0.0}});
}

/// One Byzantine rewrite of a framed payload by an all-Byzantine fleet.
std::vector<std::uint8_t> pin_rewrite(int kind, std::vector<std::uint8_t> framed) {
  engine::AdversaryConfig cfg;
  cfg.byzantine_frac = 1.0;
  cfg.poison_noise = 0.125;
  engine::AdversaryModel adversary{cfg, 9, 2};
  EXPECT_TRUE(adversary.transform_payload(kind, framed, data::kDefaultBevSpec));
  return framed;
}

class WirePins : public ::testing::TestWithParam<WirePin> {};

TEST_P(WirePins, CrcAndSizeAreStable) {
  const WirePin& pin = GetParam();
  const auto bytes = pin.build();
  EXPECT_TRUE(frame::decode(bytes).ok());
  EXPECT_EQ(frame::crc32(bytes), pin.crc32) << std::hex << frame::crc32(bytes);
  EXPECT_EQ(bytes.size(), pin.bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Payloads, WirePins,
    ::testing::Values(
        WirePin{"AssistWithRoute", [] { return pin_assist(true); }, 0x04b79baeu, 86},
        WirePin{"AssistNoRoute", [] { return pin_assist(false); }, 0xdc395260u, 74},
        WirePin{"Coreset", pin_coreset, 0x22dbdf92u, 612},
        WirePin{"DenseModel", pin_dense_model, 0x43d7df1au, 51},
        WirePin{"SparseModel", [] { return pin_model(pin_sparse_model()); }, 0xe01640f8u, 59},
        WirePin{"GossipExchange", pin_exchange, 0xe3914778u, 87},
        WirePin{"PoisonedExchange", [] { return pin_rewrite(2, pin_exchange()); }, 0x9e627e75u, 87},
        WirePin{"InflatedCoreset", [] { return pin_rewrite(1, pin_coreset()); }, 0x7e0f6c72u, 612},
        WirePin{"LyingAssist", [] { return pin_rewrite(0, pin_assist(true)); }, 0xeabf8316u, 86}),
    [](const ::testing::TestParamInfo<WirePin>& p) { return std::string{p.param.label}; });

}  // namespace
}  // namespace lbchat
