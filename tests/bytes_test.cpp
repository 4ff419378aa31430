// Unit tests for the byte (de)serialization layer.
#include <gtest/gtest.h>

#include "common/bytes.h"

namespace lbchat {
namespace {

TEST(BytesTest, ScalarRoundtrip) {
  ByteWriter w;
  w.write_u8(7);
  w.write_u32(123456u);
  w.write_u64(0xDEADBEEFCAFEBABEull);
  w.write_i32(-42);
  w.write_f32(1.5f);
  w.write_f64(-2.25);
  ByteReader r{w.bytes()};
  EXPECT_EQ(r.read_u8(), 7);
  EXPECT_EQ(r.read_u32(), 123456u);
  EXPECT_EQ(r.read_u64(), 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(r.read_i32(), -42);
  EXPECT_FLOAT_EQ(r.read_f32(), 1.5f);
  EXPECT_DOUBLE_EQ(r.read_f64(), -2.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, StringAndVectorRoundtrip) {
  ByteWriter w;
  w.write_string("hello lbchat");
  w.write_f32_vec(std::vector<float>{1.0f, -2.0f, 3.5f});
  w.write_f64_vec(std::vector<double>{0.25, -0.5});
  w.write_bytes(std::vector<std::uint8_t>{0xAA, 0xBB});
  ByteReader r{w.bytes()};
  EXPECT_EQ(r.read_string(), "hello lbchat");
  EXPECT_EQ(r.read_f32_vec(), (std::vector<float>{1.0f, -2.0f, 3.5f}));
  EXPECT_EQ(r.read_f64_vec(), (std::vector<double>{0.25, -0.5}));
  EXPECT_EQ(r.read_bytes(), (std::vector<std::uint8_t>{0xAA, 0xBB}));
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, EmptyContainers) {
  ByteWriter w;
  w.write_string("");
  w.write_f32_vec({});
  ByteReader r{w.bytes()};
  EXPECT_EQ(r.read_string(), "");
  EXPECT_TRUE(r.read_f32_vec().empty());
}

TEST(BytesTest, UnderflowThrows) {
  ByteWriter w;
  w.write_u8(1);
  ByteReader r{w.bytes()};
  EXPECT_EQ(r.read_u8(), 1);
  EXPECT_THROW(r.read_u32(), std::out_of_range);
}

TEST(BytesTest, CorruptLengthThrows) {
  ByteWriter w;
  w.write_u32(1000);  // claims a 1000-element vector with no payload
  ByteReader r{w.bytes()};
  EXPECT_THROW(r.read_f32_vec(), std::out_of_range);
}

TEST(BytesTest, MaliciousLengthPrefixCannotWrapBoundsCheck) {
  // Regression: `pos_ + n` used to be compared against size(), so a length
  // prefix near SIZE_MAX (scaled by sizeof(T)) could wrap past SIZE_MAX and
  // sneak under the bound, driving a huge memcpy off the end of the buffer.
  {
    ByteWriter w;
    w.write_u32(0xFFFFFFFFu);  // 4 G elements claimed, 4 bytes of payload
    w.write_u32(0);
    ByteReader r{w.bytes()};
    EXPECT_THROW(r.read_f64_vec(), std::out_of_range);
  }
  {
    ByteWriter w;
    w.write_u32(0xFFFFFFFFu);
    ByteReader r{w.bytes()};
    EXPECT_THROW(r.read_string(), std::out_of_range);
  }
  {
    ByteWriter w;
    w.write_u32(0xFFFFFFF0u);
    w.write_u32(0);
    ByteReader r{w.bytes()};
    EXPECT_THROW(r.read_bytes(), std::out_of_range);
  }
  // 4-byte elements: n * 4 wraps a 32-bit size_t; the division-based check
  // must still reject on 64-bit too.
  {
    ByteWriter w;
    w.write_u32(0x40000001u);
    w.write_u32(1);
    ByteReader r{w.bytes()};
    EXPECT_THROW(r.read_f32_vec(), std::out_of_range);
  }
}

TEST(BytesTest, RemainingTracksPosition) {
  ByteWriter w;
  w.write_u32(5);
  w.write_u32(6);
  ByteReader r{w.bytes()};
  EXPECT_EQ(r.remaining(), 8u);
  r.read_u32();
  EXPECT_EQ(r.remaining(), 4u);
}

}  // namespace
}  // namespace lbchat
