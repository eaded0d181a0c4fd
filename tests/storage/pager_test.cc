#include "storage/pager.h"

#include <gtest/gtest.h>

#include <vector>

namespace vitri::storage {
namespace {

std::vector<uint8_t> Pattern(size_t size, uint8_t salt) {
  std::vector<uint8_t> buf(size);
  for (size_t i = 0; i < size; ++i) {
    buf[i] = static_cast<uint8_t>((i * 31 + salt) & 0xff);
  }
  return buf;
}

TEST(MemPagerTest, AllocateSequentialIds) {
  MemPager pager(512);
  EXPECT_EQ(pager.num_pages(), 0u);
  for (PageId expected = 0; expected < 5; ++expected) {
    auto id = pager.Allocate();
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, expected);
  }
  EXPECT_EQ(pager.num_pages(), 5u);
}

TEST(MemPagerTest, ReadWriteRoundTrip) {
  MemPager pager(256);
  ASSERT_TRUE(pager.Allocate().ok());
  const auto data = Pattern(256, 7);
  ASSERT_TRUE(pager.Write(0, data.data()).ok());
  std::vector<uint8_t> out(256);
  ASSERT_TRUE(pager.Read(0, out.data()).ok());
  EXPECT_EQ(out, data);
}

TEST(MemPagerTest, FreshPageIsZeroed) {
  MemPager pager(128);
  ASSERT_TRUE(pager.Allocate().ok());
  std::vector<uint8_t> out(128, 0xff);
  ASSERT_TRUE(pager.Read(0, out.data()).ok());
  for (uint8_t b : out) EXPECT_EQ(b, 0);
}

TEST(MemPagerTest, OutOfRangeAccessFails) {
  MemPager pager(128);
  std::vector<uint8_t> buf(128);
  EXPECT_TRUE(pager.Read(0, buf.data()).IsOutOfRange());
  EXPECT_TRUE(pager.Write(3, buf.data()).IsOutOfRange());
}

}  // namespace
}  // namespace vitri::storage
