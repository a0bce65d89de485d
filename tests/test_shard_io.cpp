// Process-sharded Monte-Carlo: shard artifacts round-trip losslessly, a
// merged shard set reproduces the unsharded sweep bit-for-bit, and the
// merge refuses illegal sets. Plus the file-backed SnapshotCache bank the
// shard processes share: persisted snapshots warm later runs, corrupt bank
// entries are rejected and rewarmed, never trusted.

#include "harness/shard_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/monte_carlo.hpp"
#include "harness/snapshot_cache.hpp"
#include "obs/report.hpp"
#include "snapshot/snapshot.hpp"

namespace bacp::harness {
namespace {

MonteCarloConfig small_config() {
  MonteCarloConfig config;
  config.trials = 50;
  config.seed = 77;
  config.num_threads = 2;
  return config;
}

/// Bitwise double equality: the shard contract is bit-identity, not
/// within-epsilon agreement.
void expect_bits_equal(double a, double b, const char* what, std::size_t index) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << " at trial " << index;
}

TEST(ShardIo, ArtifactRoundTripsThroughText) {
  auto config = small_config();
  config.shards = 3;
  config.shard_id = 1;
  const auto summary = run_monte_carlo(config);
  const auto artifact = make_shard_artifact(config, summary);
  ASSERT_EQ(artifact.owned.size(), 17u);  // ceil((50 - 1) / 3)

  std::stringstream stream;
  write_shard_artifact(artifact, stream);
  const auto loaded = read_shard_artifact(stream);

  EXPECT_EQ(loaded.shards, artifact.shards);
  EXPECT_EQ(loaded.shard_id, artifact.shard_id);
  EXPECT_EQ(loaded.trials, artifact.trials);
  EXPECT_EQ(loaded.seed, artifact.seed);
  EXPECT_EQ(loaded.curve_depth, artifact.curve_depth);
  EXPECT_EQ(loaded.config_digest, artifact.config_digest);
  ASSERT_EQ(loaded.owned.size(), artifact.owned.size());
  for (std::size_t i = 0; i < artifact.owned.size(); ++i) {
    EXPECT_EQ(loaded.owned[i].trial, artifact.owned[i].trial);
    EXPECT_EQ(loaded.owned[i].result.mix.workload_indices,
              artifact.owned[i].result.mix.workload_indices);
    expect_bits_equal(loaded.owned[i].result.fixed_share_misses,
                      artifact.owned[i].result.fixed_share_misses, "fixed", i);
    expect_bits_equal(loaded.owned[i].result.unrestricted_misses,
                      artifact.owned[i].result.unrestricted_misses, "unrestricted", i);
    expect_bits_equal(loaded.owned[i].result.bank_aware_misses,
                      artifact.owned[i].result.bank_aware_misses, "bank", i);
  }
}

TEST(ShardIo, ShardRunsEvaluateOnlyOwnedTrials) {
  auto config = small_config();
  config.shards = 4;
  config.shard_id = 2;
  const auto summary = run_monte_carlo(config);
  ASSERT_EQ(summary.trials.size(), config.trials);
  for (std::size_t trial = 0; trial < config.trials; ++trial) {
    if (trial % 4 == 2) {
      EXPECT_GT(summary.trials[trial].fixed_share_misses, 0.0) << "trial " << trial;
    } else {
      EXPECT_EQ(summary.trials[trial].fixed_share_misses, 0.0) << "trial " << trial;
    }
  }
  // A shard never finalizes: the means belong to the merged sweep.
  EXPECT_EQ(summary.mean_unrestricted_ratio, 0.0);
}

TEST(ShardIo, MergedShardsReproduceUnshardedSweepBitForBit) {
  const auto unsharded_config = small_config();
  const auto unsharded = run_monte_carlo(unsharded_config);

  std::vector<ShardArtifact> artifacts;
  for (std::uint32_t k = 0; k < 4; ++k) {
    auto config = small_config();
    config.shards = 4;
    config.shard_id = k;
    artifacts.push_back(make_shard_artifact(config, run_monte_carlo(config)));
  }
  const auto merged = merge_shard_artifacts(artifacts);
  ASSERT_TRUE(merged.audit.ok()) << merged.audit.to_string();

  ASSERT_EQ(merged.summary.trials.size(), unsharded.trials.size());
  for (std::size_t i = 0; i < unsharded.trials.size(); ++i) {
    EXPECT_EQ(merged.summary.trials[i].mix.workload_indices,
              unsharded.trials[i].mix.workload_indices);
    expect_bits_equal(merged.summary.trials[i].fixed_share_misses,
                      unsharded.trials[i].fixed_share_misses, "fixed", i);
    expect_bits_equal(merged.summary.trials[i].unrestricted_misses,
                      unsharded.trials[i].unrestricted_misses, "unrestricted", i);
    expect_bits_equal(merged.summary.trials[i].bank_aware_misses,
                      unsharded.trials[i].bank_aware_misses, "bank", i);
  }
  expect_bits_equal(merged.summary.mean_unrestricted_ratio,
                    unsharded.mean_unrestricted_ratio, "mean_unrestricted", 0);
  expect_bits_equal(merged.summary.mean_bank_aware_ratio,
                    unsharded.mean_bank_aware_ratio, "mean_bank_aware", 0);

  // And the emitted artifact is byte-identical, meta included.
  const auto unsharded_report = monte_carlo_report(unsharded_config, unsharded);
  const auto merged_report = monte_carlo_report(merged.config, merged.summary);
  EXPECT_EQ(unsharded_report.to_json(), merged_report.to_json());
}

TEST(ShardIo, MergeRefusesIncompleteSet) {
  std::vector<ShardArtifact> artifacts;
  for (std::uint32_t k = 0; k < 3; ++k) {
    auto config = small_config();
    config.shards = 4;  // four-way split, but only three slices show up
    config.shard_id = k;
    artifacts.push_back(make_shard_artifact(config, run_monte_carlo(config)));
  }
  const auto merged = merge_shard_artifacts(artifacts);
  EXPECT_FALSE(merged.audit.ok());
  EXPECT_TRUE(merged.summary.trials.empty());
}

TEST(ShardIo, MergeRefusesMismatchedSweeps) {
  std::vector<ShardArtifact> artifacts;
  for (std::uint32_t k = 0; k < 2; ++k) {
    auto config = small_config();
    config.shards = 2;
    config.shard_id = k;
    if (k == 1) config.seed = 78;  // different sweep, same shape
    artifacts.push_back(make_shard_artifact(config, run_monte_carlo(config)));
  }
  const auto merged = merge_shard_artifacts(artifacts);
  EXPECT_FALSE(merged.audit.ok());
}

TEST(ShardIo, DigestSeparatesSweepParameters) {
  const auto base = small_config();
  EXPECT_EQ(monte_carlo_digest(base), monte_carlo_digest(base));
  EXPECT_NE(monte_carlo_digest(base),
            monte_carlo_digest(MonteCarloConfig(base).with_seed(base.seed + 1)));
  EXPECT_NE(monte_carlo_digest(base),
            monte_carlo_digest(MonteCarloConfig(base).with_trials(base.trials + 1)));
  EXPECT_NE(monte_carlo_digest(base),
            monte_carlo_digest(MonteCarloConfig(base).with_curve_depth(64)));
  // Sharding is not part of the digest: all slices of one sweep agree.
  EXPECT_EQ(monte_carlo_digest(base),
            monte_carlo_digest(MonteCarloConfig(base).with_shards(8).with_shard_id(3)));
}

TEST(ShardIo, NonDivisibleTrialCountMergesBitForBit) {
  // 53 trials over 5 shards: shards own 11, 11, 11, 10, 10 trials. The
  // per-trial RNG is keyed by the global trial index, never by the shard's
  // local position, so the ragged split must still reassemble the exact
  // unsharded stream.
  auto base = small_config();
  base.trials = 53;
  const auto unsharded = run_monte_carlo(base);

  std::vector<ShardArtifact> artifacts;
  for (std::uint32_t k = 0; k < 5; ++k) {
    auto config = base;
    config.shards = 5;
    config.shard_id = k;
    artifacts.push_back(make_shard_artifact(config, run_monte_carlo(config)));
  }
  EXPECT_EQ(artifacts[0].owned.size(), 11u);
  EXPECT_EQ(artifacts[4].owned.size(), 10u);

  const auto merged = merge_shard_artifacts(artifacts);
  ASSERT_TRUE(merged.audit.ok()) << merged.audit.to_string();
  ASSERT_EQ(merged.summary.trials.size(), unsharded.trials.size());
  for (std::size_t i = 0; i < unsharded.trials.size(); ++i) {
    EXPECT_EQ(merged.summary.trials[i].mix.workload_indices,
              unsharded.trials[i].mix.workload_indices) << "trial " << i;
    expect_bits_equal(merged.summary.trials[i].bank_aware_misses,
                      unsharded.trials[i].bank_aware_misses, "bank", i);
  }
  const auto unsharded_report = monte_carlo_report(base, unsharded);
  const auto merged_report = monte_carlo_report(merged.config, merged.summary);
  EXPECT_EQ(unsharded_report.to_json(), merged_report.to_json());
}

TEST(ShardIo, FewerTrialsThanShardsMerges) {
  // 3 trials over 5 shards: two shards own nothing and must still produce
  // legal (empty) artifacts the merge accepts.
  auto base = small_config();
  base.trials = 3;
  const auto unsharded = run_monte_carlo(base);

  std::vector<ShardArtifact> artifacts;
  for (std::uint32_t k = 0; k < 5; ++k) {
    auto config = base;
    config.shards = 5;
    config.shard_id = k;
    artifacts.push_back(make_shard_artifact(config, run_monte_carlo(config)));
  }
  EXPECT_TRUE(artifacts[3].owned.empty());
  EXPECT_TRUE(artifacts[4].owned.empty());

  const auto merged = merge_shard_artifacts(artifacts);
  ASSERT_TRUE(merged.audit.ok()) << merged.audit.to_string();
  ASSERT_EQ(merged.summary.trials.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    expect_bits_equal(merged.summary.trials[i].bank_aware_misses,
                      unsharded.trials[i].bank_aware_misses, "bank", i);
  }
}

TEST(ShardIo, SaveLoadRoundTripsThroughDisk) {
  auto config = small_config();
  config.shards = 2;
  config.shard_id = 0;
  const auto artifact = make_shard_artifact(config, run_monte_carlo(config));
  const std::string path = testing::TempDir() + "/bacp-shard-roundtrip.shard";
  save_shard_artifact(artifact, path);
  const auto loaded = load_shard_artifact(path);
  EXPECT_EQ(loaded.owned.size(), artifact.owned.size());
  EXPECT_EQ(loaded.config_digest, artifact.config_digest);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Sampled-interval sweeps through the shard pipeline
// ---------------------------------------------------------------------------

MonteCarloConfig sampled_config() {
  MonteCarloConfig config;
  config.trials = 4;
  config.seed = 91;
  config.num_threads = 2;
  config.sampled_k = 2;
  config.sampled_intervals = 8;
  config.sampled_interval_instructions = 2'000;
  config.sampled_warmup = 4'000;
  return config;
}

TEST(ShardIo, DigestSeparatesSampledParameters) {
  const auto base = sampled_config();
  EXPECT_EQ(monte_carlo_digest(base), monte_carlo_digest(base));
  EXPECT_NE(monte_carlo_digest(base),
            monte_carlo_digest(MonteCarloConfig(base).with_sampled_k(0)));
  EXPECT_NE(monte_carlo_digest(base),
            monte_carlo_digest(MonteCarloConfig(base).with_sampled_intervals(16)));
  EXPECT_NE(monte_carlo_digest(base),
            monte_carlo_digest(
                MonteCarloConfig(base).with_sampled_interval_instructions(4'000)));
  EXPECT_NE(monte_carlo_digest(base),
            monte_carlo_digest(MonteCarloConfig(base).with_sampled_warmup(8'000)));
}

TEST(ShardIo, SampledArtifactRoundTripsThroughText) {
  auto config = sampled_config();
  config.shards = 2;
  config.shard_id = 1;
  const auto artifact = make_shard_artifact(config, run_monte_carlo(config));
  ASSERT_EQ(artifact.owned.size(), 2u);
  EXPECT_EQ(artifact.sampled_k, 2u);

  std::stringstream stream;
  write_shard_artifact(artifact, stream);
  const auto loaded = read_shard_artifact(stream);

  EXPECT_EQ(loaded.sampled_k, artifact.sampled_k);
  EXPECT_EQ(loaded.sampled_intervals, artifact.sampled_intervals);
  EXPECT_EQ(loaded.sampled_interval_instructions,
            artifact.sampled_interval_instructions);
  EXPECT_EQ(loaded.sampled_warmup, artifact.sampled_warmup);
  ASSERT_EQ(loaded.owned.size(), artifact.owned.size());
  for (std::size_t i = 0; i < artifact.owned.size(); ++i) {
    const auto& got = loaded.owned[i].result.sampled;
    const auto& want = artifact.owned[i].result.sampled;
    EXPECT_TRUE(got.evaluated);
    expect_bits_equal(got.miss_ratio, want.miss_ratio, "sampled miss ratio", i);
    expect_bits_equal(got.miss_ratio_ci_half, want.miss_ratio_ci_half,
                      "sampled miss ratio ci", i);
    expect_bits_equal(got.cpi, want.cpi, "sampled cpi", i);
    expect_bits_equal(got.cpi_ci_half, want.cpi_ci_half, "sampled cpi ci", i);
  }
}

TEST(ShardIo, SampledMergedShardsReproduceUnshardedSweepBitForBit) {
  const auto base = sampled_config();
  const auto unsharded = run_monte_carlo(base);
  ASSERT_TRUE(unsharded.trials.front().sampled.evaluated);
  EXPECT_GT(unsharded.mean_sampled_miss_ratio, 0.0);
  EXPECT_GT(unsharded.mean_sampled_cpi, 0.0);

  std::vector<ShardArtifact> artifacts;
  for (std::uint32_t k = 0; k < 2; ++k) {
    auto config = base;
    config.shards = 2;
    config.shard_id = k;
    artifacts.push_back(make_shard_artifact(config, run_monte_carlo(config)));
  }
  const auto merged = merge_shard_artifacts(artifacts);
  ASSERT_TRUE(merged.audit.ok()) << merged.audit.to_string();

  ASSERT_EQ(merged.summary.trials.size(), unsharded.trials.size());
  for (std::size_t i = 0; i < unsharded.trials.size(); ++i) {
    expect_bits_equal(merged.summary.trials[i].sampled.miss_ratio,
                      unsharded.trials[i].sampled.miss_ratio, "sampled miss", i);
    expect_bits_equal(merged.summary.trials[i].sampled.cpi,
                      unsharded.trials[i].sampled.cpi, "sampled cpi", i);
  }
  expect_bits_equal(merged.summary.mean_sampled_miss_ratio,
                    unsharded.mean_sampled_miss_ratio, "mean sampled miss", 0);
  expect_bits_equal(merged.summary.mean_sampled_cpi, unsharded.mean_sampled_cpi,
                    "mean sampled cpi", 0);

  const auto unsharded_report = monte_carlo_report(base, unsharded);
  const auto merged_report = monte_carlo_report(merged.config, merged.summary);
  EXPECT_EQ(unsharded_report.to_json(), merged_report.to_json());
}

TEST(ShardIo, MergeRefusesMixedSampledAndAnalyticShards) {
  auto sampled = sampled_config();
  sampled.shards = 2;
  sampled.shard_id = 0;
  auto analytic = sampled_config();
  analytic.sampled_k = 0;
  analytic.shards = 2;
  analytic.shard_id = 1;
  std::vector<ShardArtifact> artifacts;
  artifacts.push_back(make_shard_artifact(sampled, run_monte_carlo(sampled)));
  artifacts.push_back(make_shard_artifact(analytic, run_monte_carlo(analytic)));
  const auto merged = merge_shard_artifacts(artifacts);
  EXPECT_FALSE(merged.audit.ok());
  EXPECT_TRUE(merged.summary.trials.empty());
}

// ---------------------------------------------------------------------------
// File-backed SnapshotCache bank
// ---------------------------------------------------------------------------

snapshot::SystemSnapshot tiny_snapshot() {
  // A minimal structurally-valid snapshot: header + empty section table.
  snapshot::SnapshotBuilder builder(/*config_digest=*/0x5EED);
  return builder.finish();
}

TEST(SnapshotFileBank, PersistsAndReloadsAcrossCacheInstances) {
  const std::string dir = testing::TempDir() + "/bacp-snapbank-reload";
  std::filesystem::create_directories(dir);
  int warmed = 0;
  const auto warm = [&] {
    ++warmed;
    return tiny_snapshot();
  };

  {
    SnapshotCache cache;
    cache.set_file_bank(dir);
    cache.get_or_warm(0xABCD, warm);
    EXPECT_EQ(warmed, 1);
    EXPECT_EQ(cache.file_hits(), 0u);
  }
  {
    // A fresh process (new cache instance) finds the banked snapshot and
    // never runs the warm-up.
    SnapshotCache cache;
    cache.set_file_bank(dir);
    const auto snapshot = cache.get_or_warm(0xABCD, warm);
    EXPECT_EQ(warmed, 1);
    EXPECT_EQ(cache.file_hits(), 1u);
    // The reload arrives through the mmap zero-copy path; its mapped
    // contents must match what was banked.
    EXPECT_TRUE(snapshot->mapped());
    EXPECT_TRUE(*snapshot == tiny_snapshot());
  }
  std::filesystem::remove_all(dir);
}

TEST(SnapshotFileBank, RejectsCorruptBankEntryAndRewarms) {
  const std::string dir = testing::TempDir() + "/bacp-snapbank-corrupt";
  std::filesystem::create_directories(dir);
  {
    SnapshotCache cache;
    cache.set_file_bank(dir);
    cache.get_or_warm(0x1234, [] { return tiny_snapshot(); });
  }
  // Flip one byte of the banked file: validation must reject it and the next
  // cache must fall back to warming.
  std::string path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    path = entry.path().string();
  }
  ASSERT_FALSE(path.empty());
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(0);
    file.put('X');  // clobbers the magic
  }
  int warmed = 0;
  SnapshotCache cache;
  cache.set_file_bank(dir);
  cache.get_or_warm(0x1234, [&] {
    ++warmed;
    return tiny_snapshot();
  });
  EXPECT_EQ(warmed, 1);
  EXPECT_EQ(cache.file_hits(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotFileBank, UnwritableBankDegradesToInMemory) {
  SnapshotCache cache;
  cache.set_file_bank("/nonexistent-bacp-bank-dir/nested");
  int warmed = 0;
  const auto snapshot = cache.get_or_warm(0x77, [&] {
    ++warmed;
    return tiny_snapshot();
  });
  EXPECT_EQ(warmed, 1);
  EXPECT_FALSE(snapshot->data().empty());
  // Second get on the same key still hits in memory.
  cache.get_or_warm(0x77, [&] {
    ++warmed;
    return tiny_snapshot();
  });
  EXPECT_EQ(warmed, 1);
}

}  // namespace
}  // namespace bacp::harness
