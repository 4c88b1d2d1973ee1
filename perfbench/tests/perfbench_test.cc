// Unit tests of the benchmark's own helpers: the percentile support rule,
// metric names and units, the result line, and the result oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exec/reference.h"
#include "oracle.h"
#include "report.h"
#include "stats.h"
#include "storage/table.h"

namespace perfbench {
namespace {

using eedc::storage::DataType;
using eedc::storage::Schema;
using eedc::storage::Table;

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i) xs.push_back(static_cast<double>(i));
  return xs;
}

TEST(TailPercentileTest, P90NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(MinSamplesFor(0.9), 100u);
  EXPECT_EQ(MinSamplesFor(0.5), 20u);
  EXPECT_FALSE(TailPercentile(Ramp(99), 0.9).supported);
  const PercentileResult p = TailPercentile(Ramp(100), 0.9);
  EXPECT_TRUE(p.supported);
  EXPECT_EQ(p.samples, 100u);
  EXPECT_DOUBLE_EQ(p.value, 89.1);  // rank 0.9 * 99 interpolated
}

TEST(TailPercentileTest, EmptyAndTinyInputsAreUnsupported) {
  EXPECT_FALSE(TailPercentile({}, 0.5).supported);
  EXPECT_EQ(TailPercentile({}, 0.5).samples, 0u);
  EXPECT_FALSE(TailPercentile(Ramp(19), 0.5).supported);
  EXPECT_TRUE(TailPercentile(Ramp(20), 0.5).supported);
}

TEST(TailPercentileTest, UnsupportedTailIsPrintedAsNotMeasured) {
  Report report(std::vector<MetricSpec>{{"q3_p90_s", "s"}});
  report.AddPercentile("q3_p90_s", TailPercentile(Ramp(42), 0.9));
  const Metric* m = report.Find("q3_p90_s");
  ASSERT_NE(m, nullptr);
  EXPECT_FALSE(m->value.has_value());
  EXPECT_EQ(m->samples, 42u);
  std::ostringstream out;
  report.Print(out);
  EXPECT_NE(out.str().find("not measured"), std::string::npos);
  EXPECT_NE(out.str().find("n=42"), std::string::npos);
  std::string error;
  EXPECT_FALSE(report.ResultJson(true, 1, 0, {"q3_p90_s"}, &error));
  EXPECT_NE(error.find("q3_p90_s"), std::string::npos);
}

TEST(MetricNameTest, Charset) {
  EXPECT_TRUE(ValidMetricName("qps"));
  EXPECT_TRUE(ValidMetricName("q21_p90_s"));
  EXPECT_TRUE(ValidMetricName("exec.exchange_recv_s"));
  EXPECT_TRUE(ValidMetricName("9-lives"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_hidden"));
  EXPECT_FALSE(ValidMetricName(".dot"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/unit"));
  EXPECT_FALSE(ValidMetricName("quote\""));

  EXPECT_TRUE(ValidUnit("1/s"));
  EXPECT_TRUE(ValidUnit("%"));
  EXPECT_TRUE(ValidUnit("MB"));
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_FALSE(ValidUnit("seconds per query"));
  EXPECT_FALSE(ValidUnit(std::string(17, 's')));
}

TEST(ReportTest, ResultLineCarriesSelectedMetricsWithAllDigits) {
  Report report(
      {{"qps", "1/s"}, {"setup_s", "s"}, {"joules_per_query", "J"}});
  report.Add("qps", 17.1234567890123);
  report.Add("setup_s", 0.5);
  report.AddNotMeasured("joules_per_query", "no meter");
  std::string error;
  const auto json = report.ResultJson(true, 400, 0, {"qps", "setup_s"}, &error);
  ASSERT_TRUE(json.has_value()) << error;
  EXPECT_EQ(*json,
            "{\"correct\": true, \"attempted\": 400, \"failed\": 0, "
            "\"metrics\": {\"qps\": {\"value\": 17.1234567890123, "
            "\"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.5, \"unit\": "
            "\"s\"}}}");
  EXPECT_FALSE(report.ResultJson(true, 1, 0, {"joules_per_query"}, &error));
  EXPECT_FALSE(report.ResultJson(true, 1, 0, {"absent"}, &error));
}

TEST(ReportTest, PrintsEveryCatalogueEntryInOrder) {
  Report report({{"b.second", "s"}, {"a.first", "count"}});
  report.Add("a.first", 3.0);
  std::ostringstream out;
  report.Print(out);
  const std::string text = out.str();
  EXPECT_LT(text.find("b.second"), text.find("a.first"));
  EXPECT_NE(text.find("not recorded by this workload"), std::string::npos);
}

TEST(ReportDeathTest, RejectsBadNamesAndUnknownMetrics) {
  EXPECT_DEATH(Report(std::vector<MetricSpec>{{"bad name", "s"}}),
               "invalid metric");
  EXPECT_DEATH(Report(std::vector<MetricSpec>{{"ok", "bad unit"}}),
               "invalid metric");
  EXPECT_DEATH(Report({{"ok", "s"}, {"ok", "s"}}), "duplicate");
  Report report(std::vector<MetricSpec>{{"ok", "s"}});
  EXPECT_DEATH(report.Add("missing", 1.0), "not in the catalogue");
}

TEST(ReportTest, JsonEscaping) {
  EXPECT_EQ(JsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
}

std::shared_ptr<Table> MakeTable(
    const std::vector<std::tuple<std::int64_t, std::string, double>>& rows) {
  auto t = std::make_shared<Table>(Schema({{"k", DataType::kInt64},
                                           {"s", DataType::kString},
                                           {"v", DataType::kDouble}}));
  for (const auto& [k, s, v] : rows) {
    t->mutable_column(0).AppendInt64(k);
    t->mutable_column(1).AppendString(s);
    t->mutable_column(2).AppendDouble(v);
  }
  t->FinishBulkLoad();
  return t;
}

TEST(ResultOracleTest, AcceptsReorderedRowsAndReassociatedSums) {
  const auto ref = MakeTable({{1, "a", 10.0}, {2, "b", 20.0}, {2, "b", 20.0},
                              {3, "c", 1e9}});
  const ResultOracle oracle(ref, 1e-6);
  const auto got = MakeTable({{3, "c", 1e9 + 1.0}, {2, "b", 20.0},
                              {1, "a", 10.0 + 1e-9}, {2, "b", 20.0}});
  std::string diff;
  EXPECT_TRUE(oracle.Matches(*got, &diff)) << diff;
  // Same verdict as the engine's sort-based comparison.
  EXPECT_TRUE(eedc::exec::TablesEqualUnordered(*ref, *got, 1e-6, &diff));
}

TEST(ResultOracleTest, RejectsWrongValuesCountsAndMultiplicities) {
  const auto ref = MakeTable({{1, "a", 10.0}, {2, "b", 20.0}, {2, "b", 20.0}});
  const ResultOracle oracle(ref, 1e-6);
  std::string diff;
  EXPECT_FALSE(
      oracle.Matches(*MakeTable({{1, "a", 10.0}, {2, "b", 20.0}}), &diff));
  EXPECT_NE(diff.find("row count"), std::string::npos);
  EXPECT_FALSE(oracle.Matches(
      *MakeTable({{1, "a", 10.0}, {2, "b", 20.0}, {2, "b", 20.1}}), &diff));
  EXPECT_FALSE(oracle.Matches(
      *MakeTable({{1, "a", 10.0}, {1, "a", 10.0}, {2, "b", 20.0}}), &diff));
  EXPECT_FALSE(oracle.Matches(
      *MakeTable({{1, "a", 10.0}, {2, "B", 20.0}, {2, "b", 20.0}}), &diff));
  EXPECT_FALSE(oracle.Matches(
      *MakeTable({{1, "a", 10.0}, {2, "b", 20.0}, {4, "b", 20.0}}), &diff));
}

}  // namespace
}  // namespace perfbench
