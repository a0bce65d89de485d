// Atomic file publication: the rename fast path, the EXDEV copy+fsync+rename
// fallback, and the TMPDIR-aware staging-directory policy that can make the
// fallback necessary in the first place.

#include "common/fsio.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "harness/snapshot_cache.hpp"
#include "snapshot/codec.hpp"
#include "snapshot/snapshot.hpp"

namespace bacp::common {
namespace {

std::string fresh_dir(const std::string& leaf) {
  const std::string dir = testing::TempDir() + "/" + leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Scoped TMPDIR override that restores the previous value on destruction,
/// so tests cannot leak staging policy into each other.
class ScopedTmpdir {
 public:
  explicit ScopedTmpdir(const std::string& value) {
    const char* previous = std::getenv("TMPDIR");
    if (previous != nullptr) saved_ = previous;
    had_previous_ = previous != nullptr;
    ::setenv("TMPDIR", value.c_str(), 1);
  }
  ~ScopedTmpdir() {
    if (had_previous_) {
      ::setenv("TMPDIR", saved_.c_str(), 1);
    } else {
      ::unsetenv("TMPDIR");
    }
  }

 private:
  std::string saved_;
  bool had_previous_ = false;
};

TEST(Fsio, PublishAtomicRenamesAndConsumesTemp) {
  const std::string dir = fresh_dir("bacp-fsio-rename");
  const std::string temp = dir + "/staged.tmp";
  const std::string final_path = dir + "/published.txt";
  write_text(temp, "payload");

  EXPECT_TRUE(publish_file_atomic(temp, final_path));
  EXPECT_EQ(read_text(final_path), "payload");
  EXPECT_FALSE(std::filesystem::exists(temp));
  std::filesystem::remove_all(dir);
}

TEST(Fsio, PublishAtomicReplacesExistingDestination) {
  const std::string dir = fresh_dir("bacp-fsio-replace");
  const std::string temp = dir + "/staged.tmp";
  const std::string final_path = dir + "/published.txt";
  write_text(final_path, "old");
  write_text(temp, "new");

  EXPECT_TRUE(publish_file_atomic(temp, final_path));
  EXPECT_EQ(read_text(final_path), "new");
  std::filesystem::remove_all(dir);
}

TEST(Fsio, PublishAtomicFailsCleanlyOnMissingTemp) {
  const std::string dir = fresh_dir("bacp-fsio-missing");
  EXPECT_FALSE(publish_file_atomic(dir + "/never-created.tmp", dir + "/out.txt"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/out.txt"));
  std::filesystem::remove_all(dir);
}

TEST(Fsio, PublishByCopyDeliversBytesAndCleansUpTemps) {
  // The EXDEV fallback, driven directly: most test hosts mount TempDir and
  // the destination on one filesystem, so rename would never return EXDEV.
  const std::string src_dir = fresh_dir("bacp-fsio-copy-src");
  const std::string dst_dir = fresh_dir("bacp-fsio-copy-dst");
  const std::string temp = src_dir + "/staged.tmp";
  const std::string final_path = dst_dir + "/published.bin";
  std::string payload;
  for (int i = 0; i < 300'000; ++i) payload.push_back(static_cast<char>(i % 251));
  write_text(temp, payload);

  EXPECT_TRUE(publish_file_by_copy(temp, final_path));
  EXPECT_EQ(read_text(final_path), payload);
  EXPECT_FALSE(std::filesystem::exists(temp));
  // No sibling staging file left behind in the destination directory.
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dst_dir)) {
    ++entries;
    EXPECT_EQ(entry.path().string(), final_path);
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(src_dir);
  std::filesystem::remove_all(dst_dir);
}

TEST(Fsio, PublishByCopyFailsCleanlyOnUnwritableDestination) {
  const std::string src_dir = fresh_dir("bacp-fsio-copy-fail");
  const std::string temp = src_dir + "/staged.tmp";
  write_text(temp, "payload");
  EXPECT_FALSE(publish_file_by_copy(temp, "/nonexistent-bacp-dir/out.bin"));
  // The temp is consumed either way; the caller re-stages on retry.
  EXPECT_FALSE(std::filesystem::exists(temp));
  std::filesystem::remove_all(src_dir);
}

TEST(Fsio, StagingDirectoryHonorsTmpdir) {
  const std::string scratch = fresh_dir("bacp-fsio-scratch");
  {
    ScopedTmpdir tmpdir(scratch);
    EXPECT_EQ(staging_directory("/some/bank"), scratch);
  }
  std::filesystem::remove_all(scratch);
}

TEST(Fsio, StagingDirectoryFallsBackToDestination) {
  ScopedTmpdir tmpdir("");
  // Empty TMPDIR means "unset" — stage next to the destination so the
  // publishing rename stays same-filesystem.
  ::unsetenv("TMPDIR");
  EXPECT_EQ(staging_directory("/some/bank"), "/some/bank");
}

TEST(Fsio, SnapshotBankPublishesThroughForeignTmpdir) {
  // End-to-end: a SnapshotCache file bank staging through a TMPDIR that is
  // not the bank directory still lands intact snapshots a fresh cache
  // instance can reload.
  const std::string scratch = fresh_dir("bacp-fsio-bank-scratch");
  const std::string bank = fresh_dir("bacp-fsio-bank");
  ScopedTmpdir tmpdir(scratch);

  const auto warm = [] {
    snapshot::SnapshotBuilder builder(/*config_digest=*/0xF510);
    return builder.finish();
  };
  {
    harness::SnapshotCache cache;
    cache.set_file_bank(bank);
    cache.get_or_warm(0xBEEF, warm);
  }
  // The staging scratch holds no leftovers and the bank holds the snapshot.
  EXPECT_TRUE(std::filesystem::is_empty(scratch));
  int warmed = 0;
  harness::SnapshotCache cache;
  cache.set_file_bank(bank);
  const auto snapshot = cache.get_or_warm(0xBEEF, [&] {
    ++warmed;
    return snapshot::SnapshotBuilder(0xF510).finish();
  });
  EXPECT_EQ(warmed, 0);
  EXPECT_EQ(cache.file_hits(), 1u);
  // Bank reloads take the mmap zero-copy path: the reloaded snapshot is
  // backed by the mapped file and holds the banked bytes.
  EXPECT_TRUE(snapshot->mapped());
  EXPECT_TRUE(*snapshot == warm());
  std::filesystem::remove_all(scratch);
  std::filesystem::remove_all(bank);
}

}  // namespace
}  // namespace bacp::common
