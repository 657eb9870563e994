// The observability layer (src/obs): metrics registry semantics, export
// determinism, and span tracing. The load-bearing assertions are the
// docs/OBSERVABILITY.md contract checks — per-span AccessStats attribution
// sums *exactly* to the database-wide counters at every thread count, and
// the emitted Chrome trace JSON stays schema-valid.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/compose.h"
#include "src/core/maintainer.h"
#include "src/core/modification_log.h"
#include "src/core/view_manager.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/workload/devices_parts.h"

namespace idivm {
namespace {

using obs::Counter;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::TraceRecorder;
using obs::TraceSpan;

// ---- Metrics registry ----------------------------------------------------

TEST(ObsMetricsTest, CounterIncrementsAndResets) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test_total");
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42);
  EXPECT_EQ(registry.CounterValue("test_total"), 42);
  // Same name must return the same counter.
  registry.counter("test_total").Increment();
  EXPECT_EQ(c.value(), 43);
  registry.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(ObsMetricsTest, CounterValueDoesNotCreate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.CounterValue("never_incremented"), 0);
  EXPECT_EQ(registry.ExportText().find("never_incremented"),
            std::string::npos);
}

TEST(ObsMetricsTest, HistogramBucketsArePowersOfFour) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test_hist");
  h.Observe(0.5);   // <= 1
  h.Observe(3.0);   // <= 4
  h.Observe(100);   // <= 256
  h.Observe(-7);    // clamps to 0, <= 1
  EXPECT_EQ(h.count(), 4);
  EXPECT_NEAR(h.sum(), 103.5, 1e-6);
  EXPECT_EQ(h.CumulativeCount(0), 2);                    // le 1
  EXPECT_EQ(h.CumulativeCount(1), 3);                    // le 4
  EXPECT_EQ(h.CumulativeCount(4), 4);                    // le 256
  EXPECT_EQ(h.CumulativeCount(Histogram::kBuckets), 4);  // +inf
  EXPECT_EQ(Histogram::BucketBound(0), 1.0);
  EXPECT_EQ(Histogram::BucketBound(3), 64.0);
}

TEST(ObsMetricsTest, ExportTextIsSortedAndVersioned) {
  MetricsRegistry registry;
  registry.counter("zebra_total").Increment(3);
  registry.counter("aardvark_total").Increment(1);
  registry.histogram("middle_hist").Observe(2);
  const std::string text = registry.ExportText();
  EXPECT_EQ(text.find("# idivm-metrics 1\n"), 0u) << text;
  const size_t a = text.find("counter aardvark_total 1");
  const size_t m = text.find("histogram middle_hist count 1");
  const size_t z = text.find("counter zebra_total 3");
  ASSERT_NE(a, std::string::npos) << text;
  ASSERT_NE(m, std::string::npos) << text;
  ASSERT_NE(z, std::string::npos) << text;
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
}

TEST(ObsMetricsTest, RuleAccessCounterNameEscapesLabels) {
  EXPECT_EQ(obs::RuleAccessCounterName("q7", "apply d3 -> v"),
            "idivm_rule_accesses_total{view=\"q7\",rule=\"apply d3 -> v\"}");
  // Quotes and backslashes in labels must stay one well-formed line.
  const std::string name = obs::RuleAccessCounterName("a\"b", "c\\d");
  EXPECT_EQ(name,
            "idivm_rule_accesses_total{view=\"a\\\"b\",rule=\"c\\\\d\"}");
  EXPECT_EQ(obs::EscapeLabelValue("tab\there"), "tab_here");
}

// ---- Export determinism --------------------------------------------------

// Strips non-deterministic lines (wall-clock histograms) from an export.
std::string StripTimingLines(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("_seconds") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

// One full maintenance round on a fresh devices/parts database, charging
// the process-global registry.
void RunOneMaintenanceRound() {
  Database db;
  DevicesPartsWorkload workload(&db, DevicesPartsConfig{});
  Maintainer m(&db, CompileView("vp", workload.AggViewPlan(), db));
  ModificationLogger logger(&db);
  workload.ApplyPriceUpdates(&logger, 50);
  MaintainResult result;
  const Status status = m.TryMaintain(logger.NetChanges(), {}, &result);
  ASSERT_TRUE(status.ok()) << status.ToString();
}

TEST(ObsMetricsTest, GlobalSnapshotIsDeterministicAcrossIdenticalRuns) {
  MetricsRegistry& global = MetricsRegistry::Global();
  global.Reset();
  RunOneMaintenanceRound();
  const std::string first = StripTimingLines(global.ExportText());
  global.Reset();
  RunOneMaintenanceRound();
  const std::string second = StripTimingLines(global.ExportText());
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_GT(global.CounterValue("idivm_epochs_total"), 0);
  EXPECT_GT(global.CounterValue("idivm_apply_diff_tuples_total"), 0);
}

// ---- Span tracing --------------------------------------------------------

int64_t SumSpanAccesses(const std::vector<TraceSpan>& spans,
                        const std::string& category) {
  int64_t sum = 0;
  for (const TraceSpan& span : spans) {
    if (span.category == category) sum += span.accesses.TotalAccesses();
  }
  return sum;
}

// The acceptance check of docs/OBSERVABILITY.md: per-rule AccessStats
// deltas captured in spans sum exactly to the database-wide counters the
// epoch published, and spans nest (rules inside their epoch, applies
// inside their rule, all on the epoch's thread).
TEST(ObsTraceTest, SpanAttributionSumsExactly) {
  Database db;
  DevicesPartsWorkload workload(&db, DevicesPartsConfig{});
  Maintainer m(&db, CompileView("vp", workload.AggViewPlan(), db));
  ModificationLogger logger(&db);
  workload.ApplyPriceUpdates(&logger, 50);
  db.stats().Reset();

  TraceRecorder recorder;
  MaintainOptions options;
  options.trace = &recorder;
  MaintainResult result;
  const Status status = m.TryMaintain(logger.NetChanges(), options, &result);
  ASSERT_TRUE(status.ok()) << status.ToString();

  const std::vector<TraceSpan> spans = recorder.Snapshot();
  const int64_t global_delta = db.stats().TotalAccesses();

  // Exactly one epoch span, carrying the exact database-wide delta.
  std::vector<TraceSpan> epochs;
  for (const TraceSpan& span : spans) {
    if (span.category == "epoch") epochs.push_back(span);
  }
  ASSERT_EQ(epochs.size(), 1u);
  EXPECT_EQ(epochs[0].accesses.TotalAccesses(), global_delta);
  EXPECT_EQ(result.TotalAccesses().TotalAccesses() +
                SumSpanAccesses(spans, "setup"),
            global_delta);

  // The rule spans partition the epoch's charges (setup holds the rest).
  EXPECT_EQ(SumSpanAccesses(spans, "rule") + SumSpanAccesses(spans, "setup"),
            global_delta);

  // One rule span per ∆-script step; every rule nests inside the epoch's
  // wall-clock window and on its thread, every apply inside a rule.
  const TraceSpan& epoch = epochs[0];
  for (const TraceSpan& span : spans) {
    if (span.category == "rule" || span.category == "apply") {
      EXPECT_GE(span.start_us, epoch.start_us) << span.name;
      EXPECT_LE(span.start_us + span.dur_us, epoch.start_us + epoch.dur_us)
          << span.name;
      EXPECT_EQ(span.tid, epoch.tid) << span.name;
    }
    if (span.category == "apply") {
      bool nested = false;
      for (const TraceSpan& rule : spans) {
        if (rule.category == "rule" && rule.start_us <= span.start_us &&
            span.start_us + span.dur_us <= rule.start_us + rule.dur_us) {
          nested = true;
          break;
        }
      }
      EXPECT_TRUE(nested) << span.name << " not nested in any rule span";
    }
  }
}

TEST(ObsTraceTest, FailedEpochRecordsZeroChargeSpan) {
  Database db;
  DevicesPartsWorkload workload(&db, DevicesPartsConfig{});
  Maintainer m(&db, CompileView("vp", workload.AggViewPlan(), db));
  ModificationLogger logger(&db);
  workload.ApplyPriceUpdates(&logger, 50);
  db.stats().Reset();

  TraceRecorder recorder;
  MaintainOptions options;
  options.trace = &recorder;
  options.max_epoch_ops = 1;  // guaranteed kResourceExhausted
  MaintainResult result;

  const auto expect_failed_epoch = [](const TraceSpan& span) {
    EXPECT_EQ(span.category, "epoch");
    EXPECT_EQ(span.accesses.TotalAccesses(), 0);
    bool failed_arg = false;
    for (const auto& [key, value] : span.args) {
      if (key == "failed" && value == 1) failed_arg = true;
    }
    EXPECT_TRUE(failed_arg);
  };

  // Cold: the maintainer compiles its program on the first epoch, which
  // records the charge-free "compile" span; the rolled-back epoch published
  // nothing, so its span charges nothing and no rule spans survive.
  ASSERT_FALSE(m.TryMaintain(logger.NetChanges(), options, &result).ok());
  std::vector<TraceSpan> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              return a.category < b.category;
            });
  EXPECT_EQ(spans[0].category, "compile");
  EXPECT_EQ(spans[0].accesses.TotalAccesses(), 0);
  expect_failed_epoch(spans[1]);

  // Warm: the program is kept, so the failed epoch records exactly its own
  // zero-charge span.
  recorder.Clear();
  ASSERT_FALSE(m.TryMaintain(logger.NetChanges(), options, &result).ok());
  ASSERT_EQ(recorder.size(), 1u);
  expect_failed_epoch(recorder.Snapshot()[0]);
  EXPECT_EQ(db.stats().TotalAccesses(), 0);
}

TEST(ObsTraceTest, RefreshRecordsLadderSpans) {
  Database db;
  DevicesPartsWorkload workload(&db, DevicesPartsConfig{});
  ViewManager vm(&db);
  vm.DefineView("vp", workload.AggViewPlan());
  workload.ApplyPriceUpdates(&vm.logger(), 20);

  TraceRecorder recorder;
  RefreshOptions options;
  options.trace = &recorder;
  options.max_epoch_ops = 1;  // every epoch fails -> ladder rung 2
  options.degrade = DegradePolicy::kQuarantine;
  RefreshReport report;
  const Status status = vm.TryRefresh(options, &report);
  EXPECT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(report.incidents.size(), 1u);
  EXPECT_EQ(report.incidents[0].rung, 2);

  bool saw_refresh = false;
  bool saw_ladder = false;
  for (const TraceSpan& span : recorder.Snapshot()) {
    if (span.category == "refresh") saw_refresh = true;
    if (span.category == "ladder" && span.name == "recompute vp") {
      saw_ladder = true;
      EXPECT_GT(span.accesses.TotalAccesses(), 0);
    }
  }
  EXPECT_TRUE(saw_refresh);
  EXPECT_TRUE(saw_ladder);
}

// ---- Trace JSON schema ---------------------------------------------------

// A minimal JSON reader, just rich enough to verify the Chrome trace_event
// schema the recorder promises (docs/OBSERVABILITY.md "Trace file format").
// Not a general parser: no floats beyond integers, which is exactly what
// the recorder emits.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  bool Fail(const std::string& why) {
    error_ = why + " at offset " + std::to_string(pos_);
    return false;
  }
  const std::string& error() const { return error_; }

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(ToByte(text_[pos_]))) ++pos_;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool Peek(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        if (pos_ + 1 >= text_.size()) return Fail("dangling escape");
        const char esc = text_[pos_ + 1];
        if (esc == 'u') {
          if (pos_ + 5 >= text_.size()) return Fail("short \\u escape");
          for (int i = 2; i < 6; ++i) {
            if (!std::isxdigit(ToByte(text_[pos_ + i]))) {
              return Fail("bad \\u escape");
            }
          }
          out->push_back('?');
          pos_ += 6;
          continue;
        }
        if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
            esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return Fail("bad escape");
        }
        out->push_back(esc);
        pos_ += 2;
        continue;
      }
      if (ToByte(text_[pos_]) < 0x20) return Fail("raw control character");
      out->push_back(text_[pos_++]);
    }
    return Consume('"');
  }

  bool ParseInt(int64_t* out) {
    SkipSpace();
    const size_t start = pos_;
    if (Peek('-')) ++pos_;
    while (pos_ < text_.size() && std::isdigit(ToByte(text_[pos_]))) ++pos_;
    if (pos_ == start) return Fail("expected integer");
    *out = std::stoll(text_.substr(start, pos_ - start));
    return true;
  }

  // Parses an object of string keys whose values are strings, integers, or
  // one-level nested objects of the same shape (the "args" object).
  struct FlatValue {
    std::string string_value;
    int64_t int_value = 0;
    bool is_string = false;
  };
  using FlatObject = std::map<std::string, FlatValue>;

  bool ParseObject(FlatObject* out, FlatObject* nested_args) {
    if (!Consume('{')) return false;
    if (Peek('}')) return Consume('}');
    while (true) {
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      SkipSpace();
      if (Peek('"')) {
        FlatValue value;
        value.is_string = true;
        if (!ParseString(&value.string_value)) return false;
        (*out)[key] = value;
      } else if (Peek('{')) {
        if (nested_args == nullptr || key != "args") {
          return Fail("unexpected nested object under " + key);
        }
        if (!ParseObject(nested_args, nullptr)) return false;
      } else {
        FlatValue value;
        if (!ParseInt(&value.int_value)) return false;
        (*out)[key] = value;
      }
      if (Peek(',')) {
        Consume(',');
        continue;
      }
      return Consume('}');
    }
  }

  size_t pos() const { return pos_; }

 private:
  static unsigned char ToByte(char c) { return static_cast<unsigned char>(c); }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

TEST(ObsTraceTest, ChromeTraceJsonStaysSchemaValid) {
  Database db;
  DevicesPartsWorkload workload(&db, DevicesPartsConfig{});
  Maintainer m(&db, CompileView("vp", workload.AggViewPlan(), db));
  ModificationLogger logger(&db);
  workload.ApplyPriceUpdates(&logger, 20);

  // Named threads are exported as thread_name metadata events.
  TraceRecorder::SetCurrentThreadName("main");
  TraceRecorder recorder;
  MaintainOptions options;
  options.trace = &recorder;
  MaintainResult result;
  ASSERT_TRUE(m.TryMaintain(logger.NetChanges(), options, &result).ok());
  // A span name with JSON-hostile characters must survive escaping.
  TraceSpan hostile;
  hostile.name = "quote\" backslash\\ newline\n tab\t";
  hostile.category = "rule";
  recorder.Record(hostile);

  const std::string json = recorder.ToChromeTraceJson();

  JsonCursor cursor(json);
  JsonCursor::FlatObject top;
  ASSERT_TRUE(cursor.Consume('{')) << cursor.error();
  std::string key;
  ASSERT_TRUE(cursor.ParseString(&key)) << cursor.error();
  ASSERT_EQ(key, "traceEvents");
  ASSERT_TRUE(cursor.Consume(':')) << cursor.error();
  ASSERT_TRUE(cursor.Consume('[')) << cursor.error();

  size_t events = 0;
  size_t complete_events = 0;
  while (!cursor.Peek(']')) {
    JsonCursor::FlatObject event;
    JsonCursor::FlatObject args;
    ASSERT_TRUE(cursor.ParseObject(&event, &args)) << cursor.error();
    ++events;
    ASSERT_TRUE(event.count("ph"));
    const std::string ph = event.at("ph").string_value;
    ASSERT_TRUE(ph == "X" || ph == "M") << ph;
    ASSERT_TRUE(event.count("pid"));
    ASSERT_TRUE(event.count("tid"));
    ASSERT_TRUE(event.count("name"));
    if (ph == "X") {
      ++complete_events;
      ASSERT_TRUE(event.count("cat"));
      ASSERT_TRUE(event.count("ts"));
      ASSERT_TRUE(event.count("dur"));
      // Every complete event carries the cost-model args.
      ASSERT_TRUE(args.count("index_lookups"));
      ASSERT_TRUE(args.count("tuple_reads"));
      ASSERT_TRUE(args.count("tuple_writes"));
      ASSERT_TRUE(args.count("total_accesses"));
      EXPECT_EQ(args.at("total_accesses").int_value,
                args.at("index_lookups").int_value +
                    args.at("tuple_reads").int_value +
                    args.at("tuple_writes").int_value);
    }
    if (cursor.Peek(',')) cursor.Consume(',');
  }
  ASSERT_TRUE(cursor.Consume(']')) << cursor.error();
  EXPECT_EQ(complete_events, recorder.size());
  EXPECT_GT(events, complete_events);  // thread_name metadata present
}

}  // namespace
}  // namespace idivm
