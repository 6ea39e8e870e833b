#include "core/report.h"

#include <algorithm>
#include <cstdio>

#include "core/classifier.h"

namespace iri::core {

std::string FormatTable(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(header.size());
  for (std::size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&widths](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += row[c];
      line.append(widths[c] - row[c].size() + 2, ' ');
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    return line + "\n";
  };
  std::string out = emit_row(header);
  std::string rule;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    rule.append(widths[c], '-');
    rule.append(2, ' ');
  }
  while (!rule.empty() && rule.back() == ' ') rule.pop_back();
  out += rule + "\n";
  for (const auto& row : rows) out += emit_row(row);
  return out;
}

std::string FormatCategoryReport(const CategoryCounts& counts) {
  std::vector<std::vector<std::string>> rows;
  const std::uint64_t total = counts.Total();
  for (std::size_t i = 0; i < kNumCategories; ++i) {
    const auto c = static_cast<Category>(i);
    const std::uint64_t n = counts.Of(c);
    char pct[32];
    std::snprintf(pct, sizeof(pct), "%.2f%%",
                  total == 0 ? 0.0 : 100.0 * static_cast<double>(n) /
                                         static_cast<double>(total));
    rows.push_back({ToString(c), std::to_string(n), pct});
  }
  std::string out =
      FormatTable({"category", "events", "share"}, rows);
  out += "\n";
  out += "announcements:        " + std::to_string(counts.announcements) + "\n";
  out += "withdrawals:          " + std::to_string(counts.withdrawals) + "\n";
  out += "instability (WADiff+AADiff+WADup): " +
         std::to_string(counts.Instability()) + "\n";
  out += "pathology   (AADup+WWDup):         " +
         std::to_string(counts.Pathology()) + "\n";
  out += "policy fluctuations:  " + std::to_string(counts.policy_fluctuations) +
         "\n";
  return out;
}

std::string AsciiBar(double value, double max_value, int width) {
  if (max_value <= 0) max_value = 1;
  int n = static_cast<int>(value / max_value * width + 0.5);
  n = std::clamp(n, 0, width);
  return std::string(static_cast<std::size_t>(n), '#');
}

// ---------------------------------------------------------- attribution

namespace {

// One flattened row of the top-causes list: ids are exchange-local, so the
// (exchange, id) pair is the cause's full identity.
struct CauseRow {
  std::size_t exchange = 0;
  std::uint32_t id = 0;
  obs::CauseKind kind = obs::CauseKind::kNone;
  TimePoint injected;
  obs::ShardProvenance::CauseStats stats;
};

// Flattens per-exchange cause tables into rows ordered by blast radius
// (updates desc), tie-broken on (exchange, id) so the order is total.
std::vector<CauseRow> TopCauses(
    std::span<const obs::ExchangeAttribution> exchanges, std::size_t limit) {
  std::vector<CauseRow> rows;
  for (std::size_t e = 0; e < exchanges.size(); ++e) {
    const auto& stats = exchanges[e].observed.cause_stats();
    for (std::size_t i = 0; i < stats.size(); ++i) {
      if (stats[i].updates == 0) continue;
      CauseRow row;
      row.exchange = e;
      row.id = static_cast<std::uint32_t>(i + 1);
      row.stats = stats[i];
      row.kind = stats[i].kind;
      if (i < exchanges[e].causes.size()) {
        row.kind = exchanges[e].causes[i].kind;
        row.injected = exchanges[e].causes[i].injected;
      }
      rows.push_back(row);
    }
  }
  std::sort(rows.begin(), rows.end(), [](const CauseRow& a, const CauseRow& b) {
    if (a.stats.updates != b.stats.updates) {
      return a.stats.updates > b.stats.updates;
    }
    if (a.exchange != b.exchange) return a.exchange < b.exchange;
    return a.id < b.id;
  });
  if (rows.size() > limit) rows.resize(limit);
  return rows;
}

obs::ShardProvenance CombineObserved(
    std::span<const obs::ExchangeAttribution> exchanges) {
  obs::ShardProvenance combined;
  for (const auto& ex : exchanges) combined.Merge(ex.observed);
  return combined;
}

std::string Seconds(TimePoint t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f",
                static_cast<double>(t.nanos()) / 1e9);
  return buf;
}

}  // namespace

std::string FormatAttributionReport(
    std::span<const obs::ExchangeAttribution> exchanges) {
  const obs::ShardProvenance combined = CombineObserved(exchanges);
  std::size_t total_causes = 0;
  for (const auto& ex : exchanges) total_causes += ex.causes.size();
  const std::uint64_t attributed = combined.attributed();
  const std::uint64_t total = attributed + combined.unattributed();

  std::string out = "== causal attribution ==\n";
  char line[160];
  std::snprintf(line, sizeof(line),
                "exchanges: %zu  causes injected: %zu\n"
                "events attributed: %llu / %llu (%.2f%%)\n\n",
                exchanges.size(), total_causes,
                static_cast<unsigned long long>(attributed),
                static_cast<unsigned long long>(total),
                total == 0 ? 0.0
                           : 100.0 * static_cast<double>(attributed) /
                                 static_cast<double>(total));
  out += line;

  // Class x cause-kind matrix. Only kinds that appear anywhere get a
  // column; classes render in taxonomy order.
  std::vector<std::size_t> kinds;
  for (std::size_t k = 1; k < obs::kNumCauseKinds; ++k) {
    std::uint64_t col = 0;
    for (std::size_t c = 0; c < kNumCategories; ++c) {
      col += combined.MatrixAt(c, k);
    }
    if (col != 0) kinds.push_back(k);
  }
  std::vector<std::string> header{"category"};
  for (std::size_t k : kinds) {
    header.push_back(obs::ToString(static_cast<obs::CauseKind>(k)));
  }
  header.push_back("unattrib");
  std::vector<std::vector<std::string>> rows;
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    if (combined.ClassTotal(c) == 0) continue;
    std::vector<std::string> row{ToString(static_cast<Category>(c))};
    for (std::size_t k : kinds) {
      row.push_back(std::to_string(combined.MatrixAt(c, k)));
    }
    row.push_back(
        std::to_string(combined.ClassTotal(c) - combined.ClassAttributed(c)));
    rows.push_back(std::move(row));
  }
  out += FormatTable(header, rows);

  // Top causes by blast radius.
  const std::vector<CauseRow> top = TopCauses(exchanges, 10);
  if (!top.empty()) {
    out += "\ntop causes by update volume:\n";
    std::vector<std::vector<std::string>> cause_rows;
    for (const CauseRow& r : top) {
      const double span_s =
          r.stats.last_seen >= r.stats.first_seen
              ? static_cast<double>(
                    (r.stats.last_seen - r.stats.first_seen).nanos()) /
                    1e9
              : 0.0;
      char span[32];
      std::snprintf(span, sizeof(span), "%.1fs", span_s);
      cause_rows.push_back({"ex" + std::to_string(r.exchange) + "#" +
                                std::to_string(r.id),
                            obs::ToString(r.kind), Seconds(r.injected) + "s",
                            std::to_string(r.stats.updates),
                            std::to_string(r.stats.prefixes), span});
    }
    out += FormatTable(
        {"cause", "kind", "injected", "updates", "routes", "active"},
        cause_rows);
  }
  return out;
}

std::string AttributionJson(
    std::span<const obs::ExchangeAttribution> exchanges) {
  const obs::ShardProvenance combined = CombineObserved(exchanges);
  std::size_t total_causes = 0;
  for (const auto& ex : exchanges) total_causes += ex.causes.size();
  const std::uint64_t attributed = combined.attributed();
  const std::uint64_t total = attributed + combined.unattributed();

  std::string out = "{\n";
  char line[192];
  std::snprintf(line, sizeof(line),
                "  \"exchanges\": %zu,\n  \"causes\": %zu,\n"
                "  \"attributed\": %llu,\n  \"unattributed\": %llu,\n"
                "  \"coverage\": %.6f,\n",
                exchanges.size(), total_causes,
                static_cast<unsigned long long>(attributed),
                static_cast<unsigned long long>(combined.unattributed()),
                total == 0 ? 1.0
                           : static_cast<double>(attributed) /
                                 static_cast<double>(total));
  out += line;

  out += "  \"matrix\": [\n";
  bool first_cell = true;
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    for (std::size_t k = 0; k < obs::kNumCauseKinds; ++k) {
      const std::uint64_t cell = combined.MatrixAt(c, k);
      if (cell == 0) continue;
      std::snprintf(line, sizeof(line),
                    "%s    {\"category\": \"%s\", \"cause\": \"%s\", "
                    "\"events\": %llu}",
                    first_cell ? "" : ",\n", ToString(static_cast<Category>(c)),
                    obs::ToString(static_cast<obs::CauseKind>(k)),
                    static_cast<unsigned long long>(cell));
      out += line;
      first_cell = false;
    }
  }
  out += "\n  ],\n  \"top_causes\": [\n";
  const std::vector<CauseRow> top = TopCauses(exchanges, 25);
  for (std::size_t i = 0; i < top.size(); ++i) {
    const CauseRow& r = top[i];
    std::snprintf(
        line, sizeof(line),
        "%s    {\"exchange\": %zu, \"id\": %u, \"kind\": \"%s\", "
        "\"injected_s\": %.3f, \"updates\": %llu, \"routes\": %llu}",
        i == 0 ? "" : ",\n", r.exchange, r.id, obs::ToString(r.kind),
        static_cast<double>(r.injected.nanos()) / 1e9,
        static_cast<unsigned long long>(r.stats.updates),
        static_cast<unsigned long long>(r.stats.prefixes));
    out += line;
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace iri::core
