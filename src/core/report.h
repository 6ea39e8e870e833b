// Plain-text report formatting shared by the examples and bench binaries.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/stats.h"
#include "obs/provenance.h"

namespace iri::core {

// Formats the taxonomy totals as an aligned table with an instability /
// pathology rollup.
std::string FormatCategoryReport(const CategoryCounts& counts);

// Formats the causal attribution report: per-exchange and combined
// pathology-class x root-cause-kind matrix and the top causes by blast
// radius. All iteration is in fixed order (exchange, class, enum, id), so
// the text is deterministic.
std::string FormatAttributionReport(
    std::span<const obs::ExchangeAttribution> exchanges);

// The same data as machine-readable JSON (one object; keys in fixed order).
std::string AttributionJson(
    std::span<const obs::ExchangeAttribution> exchanges);

// Formats a simple fixed-width table. `rows` must all have `header.size()`
// cells.
std::string FormatTable(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows);

// Renders a horizontal ASCII bar scaled so the largest value spans `width`.
std::string AsciiBar(double value, double max_value, int width = 50);

}  // namespace iri::core
