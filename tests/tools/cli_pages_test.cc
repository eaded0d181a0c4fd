// End-to-end contract of `vitri verify --pages` and `vitri check --pages`
// on a real B+-tree page file, written through FilePager + BufferPool +
// BPlusTree (a bulk load, then inserts that split) and audited by the
// real binary (path baked in by CMake as VITRI_CLI_PATH). A clean file
// passes both commands; one flipped leaf byte is named by verify and
// fails both; a meta page whose free-list slot names a page, re-stamped
// so its footer is valid, passes verify but fails check with Corruption.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "btree/bplus_tree.h"
#include "common/coding.h"
#include "storage/buffer_pool.h"
#include "storage/page_footer.h"
#include "storage/pager.h"

namespace vitri {
namespace {

using storage::PageId;

constexpr size_t kPageSize = 512;
constexpr uint32_t kValueSize = 8;
// Meta page fields (see the layout comment in btree/bplus_tree.cc).
constexpr size_t kMetaFirstLeaf = 20;
constexpr size_t kMetaFreeSlot = 32;

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult RunCli(const std::string& args) {
  const std::string command =
      std::string(VITRI_CLI_PATH) + " " + args + " 2>&1";
  // Single-threaded test binary: popen's mt-unsafety is moot here.
  FILE* pipe = popen(command.c_str(), "r");  // NOLINT(concurrency-mt-unsafe)
  EXPECT_NE(pipe, nullptr) << command;
  CommandResult result;
  if (pipe == nullptr) return result;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

class CliPagesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/cli_pages_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(getpid()) + ".vpag";
    std::remove(path_.c_str());
    auto pager = storage::FilePager::Open(path_, kPageSize);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    storage::BufferPool pool(pager->get(), 16);
    auto tree = btree::BPlusTree::Create(&pool, kValueSize);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    std::vector<btree::Entry> entries;
    for (uint64_t i = 0; i < 200; ++i) {
      entries.push_back(btree::Entry{static_cast<double>(i), i,
                                     std::vector<uint8_t>(kValueSize, 1)});
    }
    ASSERT_TRUE(tree->BulkLoad(entries).ok());
    const PageId bulk_pages = (*pager)->num_pages();
    // Inserts into one packed leaf split it.
    for (uint64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(tree->Insert(50.5, 1000 + i,
                               std::vector<uint8_t>(kValueSize, 2))
                      .ok());
    }
    ASSERT_GT((*pager)->num_pages(), bulk_pages);
    ASSERT_TRUE(tree->ValidateInvariants().ok());
    ASSERT_TRUE(pool.FlushAll().ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Reads page `id` straight from the file, applies `mutate`, and writes
  // it back, bypassing the pool (and so its footer stamping).
  void PatchPage(PageId id, const std::function<void(uint8_t*)>& mutate) {
    auto pager = storage::FilePager::Open(path_, kPageSize);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    std::vector<uint8_t> page(kPageSize);
    ASSERT_TRUE((*pager)->Read(id, page.data()).ok());
    mutate(page.data());
    ASSERT_TRUE((*pager)->Write(id, page.data()).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }

  PageId FirstLeaf() {
    PageId leaf = storage::kInvalidPageId;
    PatchPage(0, [&](uint8_t* p) { leaf = DecodeU32(p + kMetaFirstLeaf); });
    return leaf;
  }

  std::string Pages() const {
    return "--pages " + path_ + " --page-size " + std::to_string(kPageSize);
  }

  std::string path_;
};

TEST_F(CliPagesTest, CleanTreePassesVerifyAndCheck) {
  const CommandResult verify = RunCli("verify " + Pages());
  EXPECT_EQ(verify.exit_code, 0) << verify.output;
  EXPECT_NE(verify.output.find(" 0 corrupt"), std::string::npos)
      << verify.output;
  const CommandResult check = RunCli("check " + Pages());
  EXPECT_EQ(check.exit_code, 0) << check.output;
  EXPECT_NE(check.output.find("tree invariants OK"), std::string::npos)
      << check.output;
  EXPECT_NE(check.output.find("240 records"), std::string::npos)
      << check.output;
}

TEST_F(CliPagesTest, FlippedLeafByteIsNamedAndFailsBoth) {
  const PageId leaf = FirstLeaf();
  ASSERT_NE(leaf, storage::kInvalidPageId);
  ASSERT_NE(leaf, 0u);
  // A byte of the first record's key; the footer is left stale.
  PatchPage(leaf, [](uint8_t* p) { p[16] ^= 0xFF; });

  const CommandResult verify = RunCli("verify " + Pages());
  EXPECT_EQ(verify.exit_code, 1) << verify.output;
  EXPECT_NE(verify.output.find("corrupt page " + std::to_string(leaf)),
            std::string::npos)
      << verify.output;
  const CommandResult check = RunCli("check " + Pages());
  EXPECT_EQ(check.exit_code, 1) << check.output;
  EXPECT_NE(check.output.find("Corruption"), std::string::npos)
      << check.output;
}

TEST_F(CliPagesTest, MetaPageNamingAFreePageFailsCheck) {
  // The tree never frees a page, so Open rejects a meta page whose
  // free-list slot names one. Re-stamping the footer keeps the page's
  // checksum valid: only the tree's own check can see this.
  PatchPage(0, [](uint8_t* p) {
    EncodeU32(p + kMetaFreeSlot, 1);
    storage::StampPageFooter(p, kPageSize, 0);
  });

  const CommandResult verify = RunCli("verify " + Pages());
  EXPECT_EQ(verify.exit_code, 0) << verify.output;
  const CommandResult check = RunCli("check " + Pages());
  EXPECT_EQ(check.exit_code, 1) << check.output;
  EXPECT_NE(check.output.find("Corruption"), std::string::npos)
      << check.output;
  EXPECT_NE(check.output.find("free page"), std::string::npos)
      << check.output;
}

}  // namespace
}  // namespace vitri
