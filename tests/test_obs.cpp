#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace bacp::obs {
namespace {

// ---------------------------------------------------------------- Json --

TEST(Json, DumpIsInsertionOrderedAndStable) {
  Json object = Json::object();
  object.set("b", Json(1.0));
  object.set("a", Json(std::uint64_t{2}));
  object.set("c", Json("three"));
  EXPECT_EQ(object.dump(), "{\"b\":1,\"a\":2,\"c\":\"three\"}");
  // Re-setting an existing key keeps its original position.
  object.set("b", Json(std::uint64_t{9}));
  EXPECT_EQ(object.dump(), "{\"b\":9,\"a\":2,\"c\":\"three\"}");
}

TEST(Json, RoundTripsThroughParse) {
  Json object = Json::object();
  object.set("name", Json("bench"));
  object.set("ratio", Json(0.7305));
  object.set("count", Json(std::uint64_t{12345}));
  object.set("flag", Json(true));
  object.set("missing", Json());
  Json array = Json::array();
  array.push_back(Json(1.5));
  array.push_back(Json("x"));
  object.set("list", std::move(array));

  std::string error;
  const auto parsed = Json::parse(object.dump(2), &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(parsed, object);
}

TEST(Json, DoublesSerializeShortestRoundTrip) {
  EXPECT_EQ(Json(0.5).dump(), "0.5");
  EXPECT_EQ(Json(1.0).dump(), "1");
  EXPECT_EQ(Json(-0.25).dump(), "-0.25");
}

TEST(Json, ParseErrorsCarryBytePositions) {
  struct Case {
    const char* text;
    const char* error_contains;
  };
  const Case cases[] = {
      {"{\"a\":1,}", "expected object key at offset 7"},
      {"[1,2", "expected ',' at offset 4"},
      {"{\"a\" 1}", "expected ':' at offset 5"},
      {"\"unterminated", "unterminated string at offset 13"},
      {"[1] junk", "trailing characters at offset 4"},
      {"", "unexpected end of input at offset 0"},
  };
  for (const auto& c : cases) {
    std::string error;
    const auto parsed = Json::parse(c.text, &error);
    EXPECT_TRUE(parsed.is_null()) << c.text;
    EXPECT_NE(error.find(c.error_contains), std::string::npos)
        << "input: " << c.text << " error: " << error;
  }
}

TEST(Json, NestingDepthIsLimited) {
  // 64 levels (the default limit) parse; 65 must fail with a positioned
  // error instead of recursing toward a stack overflow.
  const std::string ok_text = std::string(64, '[') + std::string(64, ']');
  std::string error;
  EXPECT_FALSE(Json::parse(ok_text, &error).is_null());
  EXPECT_TRUE(error.empty()) << error;

  const std::string deep_text = std::string(65, '[') + std::string(65, ']');
  const auto parsed = Json::parse(deep_text, &error);
  EXPECT_TRUE(parsed.is_null());
  EXPECT_NE(error.find("nesting depth"), std::string::npos) << error;

  // A pathologically deep document (the classic parser-killer input) is
  // rejected quickly and safely regardless of length.
  const std::string hostile(100'000, '[');
  EXPECT_TRUE(Json::parse(hostile, &error).is_null());
  EXPECT_NE(error.find("nesting depth"), std::string::npos) << error;
}

TEST(Json, CustomLimitsAreHonored) {
  JsonLimits limits;
  limits.max_depth = 2;
  std::string error;
  EXPECT_FALSE(Json::parse("[[1]]", &error, limits).is_null());
  EXPECT_TRUE(Json::parse("[[[1]]]", &error, limits).is_null());
  EXPECT_NE(error.find("limit of 2"), std::string::npos) << error;

  limits = JsonLimits{};
  limits.max_input_bytes = 10;
  error.clear();
  EXPECT_TRUE(Json::parse("[1,2,3,4,5,6]", &error, limits).is_null());
  EXPECT_NE(error.find("size limit"), std::string::npos) << error;
}

// Deterministic byte-mutation fuzz over the JSON parser: flip one bit at
// every position of a representative sink document and require "error or
// valid parse, never crash". Runs under asan-ubsan in CI.
TEST(Json, BitFlipFuzzNeverCrashes) {
  Json doc = Json::object();
  doc.set("schema", Json(std::uint64_t{1}));
  doc.set("title", Json("fuzz \"quoted\" \\ text\n"));
  doc.set("ratio", Json(0.7305));
  doc.set("neg", Json(std::int64_t{-42}));
  Json rows = Json::array();
  for (int i = 0; i < 8; ++i) {
    Json row = Json::array();
    row.push_back(Json(std::uint64_t(i)));
    row.push_back(Json(i * 0.125));
    row.push_back(Json(i % 2 == 0));
    row.push_back(Json());
    rows.push_back(std::move(row));
  }
  doc.set("rows", std::move(rows));
  const std::string text = doc.dump(2);

  for (std::size_t pos = 0; pos < text.size(); ++pos) {
    for (const int bit : {0, 3, 6}) {
      std::string mutated = text;
      mutated[pos] = static_cast<char>(static_cast<unsigned char>(mutated[pos]) ^
                                       (1u << bit));
      std::string error;
      const auto parsed = Json::parse(mutated, &error);
      if (parsed.is_null() && !error.empty()) continue;  // rejected: fine
      // Accepted: the result must re-serialize without tripping any
      // internal assertion — i.e. it is a structurally valid document.
      (void)parsed.dump();
    }
  }
}

// ------------------------------------------------------------- Registry --

TEST(Registry, KindsAndValues) {
  Registry registry;
  registry.counter("a.count").add(3);
  registry.counter("a.count").add(4);
  registry.gauge("a.ratio").set(0.25);
  registry.distribution("a.dist").observe(8.0);
  EXPECT_EQ(registry.counter_value("a.count"), 7u);
  EXPECT_DOUBLE_EQ(registry.gauge_value("a.ratio"), 0.25);
  EXPECT_EQ(registry.counter_value("absent", 42), 42u);
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_NE(registry.find_distribution("a.dist"), nullptr);
  EXPECT_EQ(registry.find_counter("absent"), nullptr);
}

TEST(Registry, MergeAddsCountersAndMergesDistributions) {
  Registry a, b;
  a.counter("hits").add(10);
  b.counter("hits").add(5);
  b.counter("only_b").add(1);
  a.distribution("lat").observe(2.0);
  b.distribution("lat").observe(6.0);
  b.gauge("cpi").set(1.5);
  a.merge(b);
  EXPECT_EQ(a.counter_value("hits"), 15u);
  EXPECT_EQ(a.counter_value("only_b"), 1u);
  EXPECT_EQ(a.find_distribution("lat")->count(), 2u);
  EXPECT_DOUBLE_EQ(a.find_distribution("lat")->mean(), 4.0);
  EXPECT_DOUBLE_EQ(a.gauge_value("cpi"), 1.5);
}

TEST(Registry, ShardedMergeIsDeterministicAcrossThreadCounts) {
  // The monte-carlo pattern: N trials, each observing into its own shard
  // from a per-trial RNG stream; shards merged in index order afterwards.
  // The result must not depend on how many workers ran the trials.
  constexpr std::size_t kTrials = 64;
  const auto run = [&](std::size_t num_threads) {
    std::vector<Registry> shards(kTrials);
    common::ThreadPool pool(num_threads);
    pool.parallel_for(kTrials, [&](std::size_t trial) {
      common::Rng rng(1234, trial);
      auto& shard = shards[trial];
      for (int i = 0; i < 100; ++i) {
        shard.counter("events").add(rng.next_below(8));
        shard.distribution("values").observe(rng.next_double());
      }
    });
    Registry merged;
    for (const auto& shard : shards) merged.merge(shard);
    return merged.to_json().dump(2);
  };
  const auto one = run(1);
  const auto two = run(2);
  const auto eight = run(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(Registry, JsonAndCsvAreNameSorted) {
  Registry registry;
  registry.counter("z.last").add(1);
  registry.counter("a.first").add(2);
  registry.gauge("m.middle").set(3.0);
  const std::string json = registry.to_json().dump();
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  std::ostringstream csv;
  registry.write_csv(csv);
  const std::string text = csv.str();
  EXPECT_LT(text.find("a.first"), text.find("z.last"));
  EXPECT_NE(text.find("counter,a.first,2"), std::string::npos);
  EXPECT_NE(text.find("gauge,m.middle,,3"), std::string::npos);
}

// ----------------------------------------------------------- TimeSeries --

TEST(TimeSeries, RecordsRectangularColumns) {
  TimeSeries series;
  series.begin_epoch();
  series.record("ways", 16.0);
  series.begin_epoch();
  series.record("ways", 20.0);
  series.record("late", 1.0);  // first appearance in epoch 2: back-filled
  EXPECT_EQ(series.num_epochs(), 2u);
  ASSERT_TRUE(series.has_series("late"));
  const auto late = series.series("late");
  ASSERT_EQ(late.size(), 2u);
  EXPECT_DOUBLE_EQ(late[0], 0.0);
  EXPECT_DOUBLE_EQ(late[1], 1.0);
  const auto ways = series.series("ways");
  EXPECT_DOUBLE_EQ(ways[1], 20.0);
}

TEST(TimeSeries, JsonAndCsvShapes) {
  TimeSeries series;
  series.begin_epoch();
  series.record("a", 1.0);
  series.record("b", 2.0);
  series.begin_epoch();
  series.record("a", 3.0);
  series.record("b", 4.0);
  const Json json = series.to_json();
  EXPECT_DOUBLE_EQ(json.at("epochs").as_double(), 2.0);
  std::ostringstream csv;
  series.write_csv(csv);
  EXPECT_EQ(csv.str(), "epoch,a,b\n0,1,2\n1,3,4\n");
}

// A recorder that interns once per lifetime clears with clear_samples():
// its handles stay valid, and every output matches a fresh series that
// recorded the same window.
TEST(TimeSeries, ClearSamplesKeepsHandlesAndMatchesAFreshSeries) {
  TimeSeries reused;
  const auto a = reused.intern("a");
  const auto b = reused.intern("b");
  reused.intern("never");
  reused.begin_epoch();
  reused.record(a, 9.0);
  reused.record(b, 8.0);
  reused.clear_samples();
  EXPECT_EQ(reused.num_epochs(), 0u);
  EXPECT_TRUE(reused.names().empty());
  EXPECT_EQ(reused.to_json().dump(), TimeSeries().to_json().dump());

  reused.begin_epoch();
  reused.record(a, 1.0);
  reused.begin_epoch();
  reused.record(a, 3.0);
  reused.record(b, 4.0);  // first sample of this window: back-filled

  TimeSeries fresh;
  fresh.begin_epoch();
  fresh.record("a", 1.0);
  fresh.begin_epoch();
  fresh.record("a", 3.0);
  fresh.record("b", 4.0);
  EXPECT_EQ(reused.to_json().dump(), fresh.to_json().dump());
  EXPECT_EQ(reused.names(), fresh.names());
  std::ostringstream reused_csv;
  std::ostringstream fresh_csv;
  reused.write_csv(reused_csv);
  fresh.write_csv(fresh_csv);
  EXPECT_EQ(reused_csv.str(), fresh_csv.str());
}

// ---------------------------------------------------------- PhaseTimers --

TEST(PhaseTimers, ScopesAccumulateByName) {
  PhaseTimers timers;
  { const auto t = timers.scope("profile"); }
  { const auto t = timers.scope("profile"); }
  { const auto t = timers.scope("allocate"); }
  const auto phases = timers.phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_GE(timers.seconds("profile"), 0.0);
  EXPECT_GE(timers.seconds("allocate"), 0.0);
  timers.clear();
  EXPECT_TRUE(timers.phases().empty());
}

// --------------------------------------------------------------- Report --

Report sample_report() {
  Report report("sample", "Sample report");
  report.meta("trials", "3");
  report.table("rows", {"name", "value"})
      .begin_row()
      .cell("first")
      .cell(0.75)
      .begin_row()
      .cell("second")
      .cell(std::uint64_t{42});
  report.metric("headline", 0.7305);
  report.metric("count", std::uint64_t{42});
  report.note("a note");
  return report;
}

TEST(Report, JsonIsSchemaStableAndDeterministic) {
  const auto a = sample_report().to_json();
  const auto b = sample_report().to_json();
  EXPECT_EQ(a.dump(2), b.dump(2));
  EXPECT_DOUBLE_EQ(a.at("schema").as_double(), 1.0);
  EXPECT_EQ(a.at("report").as_string(), "sample");
  EXPECT_EQ(a.at("title").as_string(), "Sample report");
  EXPECT_DOUBLE_EQ(a.at("metrics").at("headline").as_double(), 0.7305);
  std::string error;
  const auto parsed = Json::parse(a.dump(2), &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(parsed, a);
}

TEST(Report, MetricValueLookup) {
  const auto report = sample_report();
  EXPECT_DOUBLE_EQ(report.metric_value("headline"), 0.7305);
  EXPECT_DOUBLE_EQ(report.metric_value("count"), 42.0);
  EXPECT_DOUBLE_EQ(report.metric_value("absent", -1.0), -1.0);
}

TEST(Report, EmitWritesJsonAndCsvFiles) {
  const std::string dir = ::testing::TempDir();
  ReportOptions options;
  options.json_out = dir + "/obs_report_test/out.json";
  options.csv_out = dir + "/obs_report_test/out.csv";
  std::ostringstream console;
  ASSERT_TRUE(sample_report().emit(console, options));
  EXPECT_NE(console.str().find("Sample report"), std::string::npos);

  std::ifstream json_file(options.json_out);
  ASSERT_TRUE(json_file.good());
  std::stringstream json_text;
  json_text << json_file.rdbuf();
  std::string error;
  const auto parsed = Json::parse(json_text.str(), &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(parsed.at("report").as_string(), "sample");

  std::ifstream csv_file(options.csv_out);
  ASSERT_TRUE(csv_file.good());
  std::string first_line;
  std::getline(csv_file, first_line);
  EXPECT_FALSE(first_line.empty());
}

TEST(ReportOptions, ExtractFromArgvStripsReportFlags) {
  std::vector<std::string> storage = {"prog", "--json-out=a.json",
                                      "--benchmark_filter=x", "--csv-out=b.csv"};
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  int argc = static_cast<int>(argv.size());
  const auto options = ReportOptions::extract_from_argv(argc, argv.data());
  EXPECT_EQ(options.json_out, "a.json");
  EXPECT_EQ(options.csv_out, "b.csv");
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_STREQ(argv[1], "--benchmark_filter=x");
}

}  // namespace
}  // namespace bacp::obs
