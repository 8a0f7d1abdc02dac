#include "obs/report_diff.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "util/string_util.h"

namespace cluseq {
namespace obs {

namespace {

constexpr const char* kRunReportSchema = "cluseq.run_report.v1";
constexpr const char* kBenchSchema = "cluseq.bench.v1";

void AddValue(ReportMetrics* out, std::string key, const JsonValue& value) {
  switch (value.type) {
    case JsonValue::Type::kNumber:
      out->values.emplace_back(std::move(key), value.number);
      return;
    case JsonValue::Type::kBool:
      out->values.emplace_back(std::move(key), value.bool_value ? 1.0 : 0.0);
      return;
    case JsonValue::Type::kNull:
      // The writer maps NaN/Inf to null; surface the key as non-finite so
      // rules naming it breach instead of silently passing.
      out->non_finite.push_back(std::move(key));
      return;
    default:
      return;  // Strings and nested containers handled by the callers.
  }
}

/// Flattens every numeric/bool leaf under `value` as prefix.member[...].
void FlattenObject(ReportMetrics* out, const std::string& prefix,
                   const JsonValue& value) {
  if (!value.is_object()) return;
  for (const auto& [key, member] : value.object) {
    const std::string path = prefix.empty() ? key : prefix + "." + key;
    if (member.is_object()) {
      FlattenObject(out, path, member);
    } else {
      AddValue(out, path, member);
    }
  }
}

double SumIterationStat(const JsonValue& root, const char* field) {
  double total = 0.0;
  const JsonValue* iterations = root.Find("iterations");
  if (iterations == nullptr || !iterations->is_array()) return 0.0;
  for (const JsonValue& iteration : iterations->array) {
    const JsonValue* stats = iteration.Find("stats");
    if (stats == nullptr) continue;
    const JsonValue* value = stats->Find(field);
    if (value != nullptr && value->is_number()) total += value->number;
  }
  return total;
}

void ExtractRunReport(const JsonValue& root, ReportMetrics* out) {
  for (const char* block : {"summary", "input", "eval"}) {
    const JsonValue* value = root.Find(block);
    if (value != nullptr) FlattenObject(out, block, *value);
  }
  // Final registry state: counters and gauges under a metrics. prefix (the
  // per-iteration snapshots and the baseline are trajectory detail, not
  // diffable headline state).
  const JsonValue* final_metrics = root.Find("final_metrics");
  if (final_metrics != nullptr) {
    for (const char* kind : {"counters", "gauges"}) {
      const JsonValue* table = final_metrics->Find(kind);
      if (table == nullptr || !table->is_object()) continue;
      for (const auto& [key, member] : table->object) {
        AddValue(out, "metrics." + key, member);
      }
    }
  }
  // Derived aliases for the headline quantities CI rules gate on.
  out->values.emplace_back("scan.seconds",
                           SumIterationStat(root, "scan_seconds"));
  out->values.emplace_back("refrozen_clusters",
                           SumIterationStat(root, "refrozen_clusters"));
  const std::pair<const char*, const char*> kAliases[] = {
      {"metrics.frozen_bank.scan_symbols_per_sec", "scan.symbols_per_sec"},
      {"summary.prefilter.skip_ratio", "prefilter.skip_ratio"},
      {"summary.perf.maxrss_kb", "peak_rss_kb"},
  };
  const size_t flattened = out->values.size();
  for (const auto& [source, alias] : kAliases) {
    for (size_t i = 0; i < flattened; ++i) {
      if (out->values[i].first == source) {
        out->values.emplace_back(alias, out->values[i].second);
        break;
      }
    }
  }
}

void ExtractBench(const JsonValue& root, ReportMetrics* out) {
  for (const auto& [key, member] : root.object) {
    if (key == "schema" || key == "name" || key == "git") continue;
    if (member.is_object()) {
      FlattenObject(out, key, member);
    } else {
      AddValue(out, key, member);
    }
  }
  const JsonValue* name = root.Find("name");
  if (name != nullptr && name->is_string()) out->name = name->string_value;
}

bool EvaluateRule(const FailRule& rule, const MetricDelta& row,
                  std::string* reason) {
  const double rel = row.rel_delta;
  switch (rule.direction) {
    case FailRule::Direction::kBelow:
      if (rel < -rule.tolerance) {
        *reason = StringPrintf("dropped %.4g%% (limit -%.4g%%)", -rel * 100.0,
                               rule.tolerance * 100.0);
        return true;
      }
      return false;
    case FailRule::Direction::kAbove:
      if (rel > rule.tolerance) {
        *reason = StringPrintf("rose %.4g%% (limit +%.4g%%)", rel * 100.0,
                               rule.tolerance * 100.0);
        return true;
      }
      return false;
    case FailRule::Direction::kBoth:
      if (std::fabs(rel) > rule.tolerance) {
        *reason = StringPrintf("changed %.4g%% (limit ±%.4g%%)", rel * 100.0,
                               rule.tolerance * 100.0);
        return true;
      }
      return false;
  }
  return false;
}

std::string FormatValue(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  return StringPrintf("%.6g", v);
}

}  // namespace

bool ReportMetrics::Lookup(std::string_view key, double* out) const {
  for (const auto& [name, value] : values) {
    if (name == key) {
      *out = value;
      return true;
    }
  }
  return false;
}

Status ExtractReportMetrics(const JsonValue& root, ReportMetrics* out) {
  *out = ReportMetrics{};
  if (!root.is_object()) {
    return Status::InvalidArgument("report: top-level JSON is not an object");
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return Status::InvalidArgument(
        "report: missing \"schema\" key (expected cluseq.run_report.v1 or "
        "cluseq.bench.v1)");
  }
  out->schema = schema->string_value;
  if (out->schema == kRunReportSchema) {
    ExtractRunReport(root, out);
  } else if (out->schema == kBenchSchema) {
    ExtractBench(root, out);
  } else {
    return Status::InvalidArgument("report: unrecognized schema '" +
                                   out->schema + "'");
  }
  std::sort(out->values.begin(), out->values.end());
  // Duplicate keys would make the diff ambiguous; keep the first.
  out->values.erase(
      std::unique(out->values.begin(), out->values.end(),
                  [](const auto& x, const auto& y) {
                    return x.first == y.first;
                  }),
      out->values.end());
  std::sort(out->non_finite.begin(), out->non_finite.end());
  return Status::OK();
}

Status FailRule::Parse(std::string_view spec, FailRule* out) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    return Status::InvalidArgument(
        "fail-on: expected metric:TOLERANCE, got '" + std::string(spec) +
        "'");
  }
  FailRule rule;
  rule.metric = std::string(spec.substr(0, colon));
  std::string_view tol = spec.substr(colon + 1);
  rule.direction = Direction::kBoth;
  if (tol.starts_with('-')) {
    rule.direction = Direction::kBelow;
    tol.remove_prefix(1);
  } else if (tol.starts_with('+')) {
    rule.direction = Direction::kAbove;
    tol.remove_prefix(1);
  }
  bool percent = false;
  if (tol.ends_with('%')) {
    percent = true;
    tol.remove_suffix(1);
  }
  const std::string buffer(tol);
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  if (buffer.empty() || end != buffer.c_str() + buffer.size() ||
      !std::isfinite(value) || value < 0.0) {
    return Status::InvalidArgument(
        "fail-on: tolerance must be a non-negative number or percentage, "
        "got '" + std::string(spec) + "'");
  }
  rule.tolerance = percent ? value / 100.0 : value;
  *out = rule;
  return Status::OK();
}

std::string FailRule::ToString() const {
  const char* sign = direction == Direction::kBelow
                         ? "-"
                         : direction == Direction::kAbove ? "+" : "";
  return StringPrintf("%s:%s%.4g%%", metric.c_str(), sign,
                      tolerance * 100.0);
}

Status ComputeReportDiff(const ReportMetrics& a, const ReportMetrics& b,
                         std::span<const FailRule> rules, ReportDiff* out) {
  *out = ReportDiff{};
  if (a.schema != b.schema) {
    return Status::InvalidArgument("schema mismatch: '" + a.schema +
                                   "' vs '" + b.schema + "'");
  }
  if (!a.name.empty() && !b.name.empty() && a.name != b.name) {
    return Status::InvalidArgument("bench name mismatch: '" + a.name +
                                   "' vs '" + b.name + "'");
  }
  out->schema = a.schema;

  // Merge the two sorted key lists.
  size_t i = 0;
  size_t j = 0;
  while (i < a.values.size() || j < b.values.size()) {
    if (j >= b.values.size() ||
        (i < a.values.size() && a.values[i].first < b.values[j].first)) {
      out->only_in_a.push_back(a.values[i].first);
      ++i;
    } else if (i >= a.values.size() ||
               b.values[j].first < a.values[i].first) {
      out->only_in_b.push_back(b.values[j].first);
      ++j;
    } else {
      MetricDelta row;
      row.name = a.values[i].first;
      row.a = a.values[i].second;
      row.b = b.values[j].second;
      row.abs_delta = row.b - row.a;
      if (row.a != 0.0) {
        row.rel_delta = row.abs_delta / std::fabs(row.a);
      } else if (row.b == 0.0) {
        row.rel_delta = 0.0;
      } else {
        row.rel_delta = row.b > 0.0
                            ? std::numeric_limits<double>::infinity()
                            : -std::numeric_limits<double>::infinity();
      }
      out->rows.push_back(std::move(row));
      ++i;
      ++j;
    }
  }
  for (const std::string& key : a.non_finite) {
    out->diagnostics.push_back("non-finite (null) value in A: " + key);
  }
  for (const std::string& key : b.non_finite) {
    out->diagnostics.push_back("non-finite (null) value in B: " + key);
  }

  for (const FailRule& rule : rules) {
    auto row = std::find_if(out->rows.begin(), out->rows.end(),
                            [&](const MetricDelta& r) {
                              return r.name == rule.metric;
                            });
    if (row == out->rows.end()) {
      // A gate that cannot be evaluated must fail, not pass: name the
      // precise reason (absent vs dropped-as-null) for the CI log.
      const bool null_a = std::binary_search(a.non_finite.begin(),
                                             a.non_finite.end(), rule.metric);
      const bool null_b = std::binary_search(b.non_finite.begin(),
                                             b.non_finite.end(), rule.metric);
      std::string reason;
      if (null_a || null_b) {
        reason = StringPrintf("metric is non-finite (null) in %s",
                              null_a && null_b ? "both files"
                              : null_a         ? "file A"
                                               : "file B");
      } else {
        reason = "metric missing from one or both files";
      }
      out->breaches.push_back({rule.metric, reason});
      continue;
    }
    std::string reason;
    if (EvaluateRule(rule, *row, &reason)) {
      row->breached = true;
      out->breaches.push_back({rule.metric, reason});
    }
  }
  return Status::OK();
}

Status DiffReportFiles(const std::string& path_a, const std::string& path_b,
                       std::span<const FailRule> rules, ReportDiff* out) {
  JsonValue root_a;
  JsonValue root_b;
  CLUSEQ_RETURN_NOT_OK(ParseJsonFile(path_a, &root_a));
  CLUSEQ_RETURN_NOT_OK(ParseJsonFile(path_b, &root_b));
  ReportMetrics a;
  ReportMetrics b;
  Status status = ExtractReportMetrics(root_a, &a);
  if (!status.ok()) {
    return Status::InvalidArgument(path_a + ": " + status.message());
  }
  status = ExtractReportMetrics(root_b, &b);
  if (!status.ok()) {
    return Status::InvalidArgument(path_b + ": " + status.message());
  }
  return ComputeReportDiff(a, b, rules, out);
}

void PrintReportDiff(const ReportDiff& diff, std::ostream& out) {
  out << "schema: " << diff.schema << "\n";
  out << StringPrintf("%-44s %14s %14s %14s %10s\n", "metric", "A", "B",
                      "abs", "rel");
  for (const MetricDelta& row : diff.rows) {
    std::string rel;
    if (std::isinf(row.rel_delta)) {
      rel = row.rel_delta > 0 ? "+inf%" : "-inf%";
    } else {
      rel = StringPrintf("%+.2f%%", row.rel_delta * 100.0);
    }
    out << StringPrintf("%-44s %14s %14s %14s %10s%s\n", row.name.c_str(),
                        FormatValue(row.a).c_str(),
                        FormatValue(row.b).c_str(),
                        FormatValue(row.abs_delta).c_str(), rel.c_str(),
                        row.breached ? "  !" : "");
  }
  for (const std::string& key : diff.only_in_a) {
    out << "only in A: " << key << "\n";
  }
  for (const std::string& key : diff.only_in_b) {
    out << "only in B: " << key << "\n";
  }
  for (const std::string& diagnostic : diff.diagnostics) {
    out << "note: " << diagnostic << "\n";
  }
  for (const ReportDiff::Breach& breach : diff.breaches) {
    out << "BREACH: " << breach.metric << ": " << breach.reason << "\n";
  }
  if (diff.breaches.empty()) {
    out << "ok: no thresholds breached\n";
  }
}

}  // namespace obs
}  // namespace cluseq
