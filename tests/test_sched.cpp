#include "sched/service.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sched/events.hpp"
#include "sched/sched_audit.hpp"
#include "trace/mix.hpp"

// Service lifecycle tests: tenant admission/eviction against a live
// simulator, structural audits at every boundary, id reuse, run-to-run
// determinism, and bit-identical mid-churn checkpoint/resume.

namespace bacp::sched {
namespace {

trace::WorkloadMix substrate() {
  return trace::mix_from_names(
      {"gzip", "mesa", "eon", "crafty", "perlbmk", "gap", "vortex", "bzip2"});
}

ServiceConfig small_config() {
  ServiceConfig config;
  config.system.epoch_cycles = 10'000;
  config.system.seed = 11;
  config.warmup_instructions = 20'000;
  config.finalize();
  return config;
}

void expect_audit_clean(const Service& service, const char* where) {
  const auto report = audit_sched(service);
  EXPECT_TRUE(report.ok()) << where << ": " << report.to_string();
  EXPECT_GT(report.checks, 0u);
}

TEST(SchedService, AdmitStepEvictLifecycle) {
  Service service(small_config(), substrate());
  EXPECT_EQ(service.num_live(), 0u);
  EXPECT_EQ(service.capacity(), 8u);
  expect_audit_clean(service, "fresh");

  service.admit({101, "mcf"});
  service.admit({102, "swim"});
  expect_audit_clean(service, "after admits");
  EXPECT_EQ(service.num_live(), 2u);
  EXPECT_TRUE(service.is_live(101));
  EXPECT_EQ(service.admissions(), 2u);
  EXPECT_GE(service.replans(), 2u);  // every admission repartitions

  service.step(3);
  expect_audit_clean(service, "after steps");
  EXPECT_EQ(service.epoch(), 3u);

  const auto live = service.live_tenants();
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0].id, 101u);
  EXPECT_EQ(live[1].id, 102u);
  EXPECT_EQ(live[0].live_epochs, 3u);
  EXPECT_GT(live[0].ways, 0u);

  service.evict(101);
  expect_audit_clean(service, "after evict");
  EXPECT_EQ(service.num_live(), 1u);
  EXPECT_FALSE(service.is_live(101));
  EXPECT_EQ(service.evictions(), 1u);

  // The evicted tenant's series survive for reporting, keyed by id.
  const std::string dump = service.tenant_report().dump();
  EXPECT_NE(dump.find("\"tenant\":101"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"tenant\":102"), std::string::npos) << dump;
}

TEST(SchedService, IdReuseAfterEvictRebindsCleanly) {
  Service service(small_config(), substrate());
  service.admit({7, "mcf"});
  service.step(2);
  service.evict(7);
  service.step(1);

  // Same id, different workload: must admit as a fresh tenant (new binding,
  // new salt for its RNG streams), not resurrect stale state.
  service.admit({7, "swim"});
  expect_audit_clean(service, "after re-admit");
  ASSERT_TRUE(service.is_live(7));
  const auto live = service.live_tenants();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].live_epochs, 0u);
  EXPECT_EQ(live[0].admitted_epoch, 3u);
  EXPECT_EQ(service.admissions(), 2u);

  service.step(2);
  expect_audit_clean(service, "after re-admit steps");
  // Both lifetimes land in one id-keyed series: 2 + 2 harvested epochs.
  const std::string dump = service.tenant_report().dump();
  EXPECT_NE(dump.find("\"workload\":\"swim\""), std::string::npos) << dump;
}

TEST(SchedService, ChurnStreamIsDeterministicAcrossServices) {
  ChurnConfig churn;
  churn.epochs = 30;
  churn.min_residency = 3;
  churn.max_residency = 12;
  churn.arrival_rate = 1.5;
  churn.thrasher_period = 10;
  churn.thrasher_residency = 5;
  const auto events = generate_churn(churn);
  ASSERT_FALSE(events.empty());

  const auto run = [&] {
    Service service(small_config(), substrate());
    service.play(events);
    service.drain(churn.epochs);
    expect_audit_clean(service, "after drain");
    EXPECT_EQ(service.num_live(), 0u);
    return service.tenant_report().dump();
  };
  EXPECT_EQ(run(), run());
}

TEST(SchedService, MidChurnSaveRestoreResumesBitIdentically) {
  const auto config = small_config();
  const auto mix = substrate();

  Service original(config, mix);
  original.admit({1, "mcf"});
  original.admit({2, "swim"});
  original.step(4);
  original.evict(1);
  original.admit({3, "art"});
  original.step(2);

  const auto snapshot = original.save_state();

  Service resumed(config, mix);
  resumed.restore_state(snapshot);
  expect_audit_clean(resumed, "after restore");
  EXPECT_EQ(resumed.epoch(), original.epoch());
  EXPECT_EQ(resumed.num_live(), original.num_live());
  EXPECT_EQ(resumed.admissions(), original.admissions());
  EXPECT_EQ(resumed.tenant_report().dump(), original.tenant_report().dump());

  // Checkpoint of the restored service is byte-identical to the original's.
  EXPECT_TRUE(resumed.save_state() == snapshot);

  // Both futures must now be the same run: same churn applied to each side.
  const std::vector<Event> tail = {
      {original.epoch() + 1, EventKind::Evict, 2, ""},
      {original.epoch() + 1, EventKind::Admit, 4, "gcc"},
  };
  original.play(tail);
  resumed.play(tail);
  original.step(3);
  resumed.step(3);
  expect_audit_clean(resumed, "after resumed churn");
  EXPECT_EQ(resumed.tenant_report().dump(), original.tenant_report().dump());
  EXPECT_TRUE(resumed.save_state() == original.save_state());
}

TEST(SchedServiceDeath, OverAdmissionAborts) {
  Service service(small_config(), substrate());
  for (std::uint64_t id = 1; id <= service.capacity(); ++id) {
    service.admit({id, "gzip"});
  }
  EXPECT_DEATH(service.admit({99, "gzip"}), "free slot");
}

TEST(SchedServiceDeath, ForeignSnapshotAborts) {
  Service service(small_config(), substrate());
  service.admit({1, "mcf"});
  service.step(1);
  const auto snapshot = service.save_state();

  auto other_config = small_config();
  other_config.streaming_ways = 12;  // different digest
  Service other(other_config, substrate());
  EXPECT_DEATH(other.restore_state(snapshot), "digest");
}

}  // namespace
}  // namespace bacp::sched
