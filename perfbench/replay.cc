#include "replay.h"

#include <cmath>
#include <cstdio>
#include <variant>

#include "analysis/series.h"
#include "analysis/spectrum.h"
#include "analysis/ssa.h"
#include "bgp/message.h"
#include "core/monitor.h"
#include "core/stats.h"

namespace perfbench {
namespace {

using iri::Duration;
using iri::TimePoint;

constexpr std::int64_t kDayNs = Duration::Days(1).nanos();

bool FiniteNonNegative(const std::vector<iri::analysis::SpectrumPoint>& spec) {
  if (spec.empty()) return false;
  for (const auto& p : spec) {
    if (!std::isfinite(p.power) || p.power < 0) return false;
  }
  return true;
}

}  // namespace

void Gate::Check(bool ok, const std::string& what) {
  ++checks;
  if (ok) return;
  ++failures;
  notes.push_back(what);
}

void PrintStageReport(const std::string& stage, const std::string& digest,
                      const Gate& gate, const Metrics& metrics) {
  std::string notes = "[";
  for (std::size_t i = 0; i < gate.notes.size(); ++i) {
    notes += (i > 0 ? ",\"" : "\"") + gate.notes[i] + "\"";
  }
  notes += "]";
  JsonObject obj;
  obj.Str("stage", stage)
      .Str("digest", digest)
      .Int("checks", gate.checks)
      .Int("failures", gate.failures)
      .Raw("notes", notes)
      .Raw("metrics", MetricsJson(metrics));
  std::printf("%s\n", obj.Text().c_str());
  std::fflush(stdout);
}

namespace {

std::string LogPath(const std::string& dir, std::size_t exchange) {
  return dir + "/exchange-" + std::to_string(exchange) + ".mrt";
}

}  // namespace

bool WriteLogs(const std::string& dir,
               const std::vector<std::span<const std::uint8_t>>& streams) {
  for (std::size_t e = 0; e < streams.size(); ++e) {
    std::FILE* f = std::fopen(LogPath(dir, e).c_str(), "wb");
    if (f == nullptr) return false;
    const bool written = std::fwrite(streams[e].data(), 1, streams[e].size(),
                                     f) == streams[e].size();
    if (std::fclose(f) != 0 || !written) return false;
  }
  return true;
}

bool LoadLogs(const std::string& dir, const std::vector<BinTotals>& live_totals,
              std::vector<Segment>& segments) {
  for (std::size_t e = 0; e < live_totals.size(); ++e) {
    const std::string path = LogPath(dir, e);
    auto reader = std::make_unique<iri::mrt::Reader>(path);
    if (!reader->ok()) {
      std::fprintf(stderr, "perfbench: cannot read %s\n", path.c_str());
      return false;
    }
    segments.push_back({std::move(reader), live_totals[e]});
  }
  return true;
}

ReplayReport ReplaySegments(const std::vector<Segment>& segments, int days,
                            bool traced, Gate& gate, SpanLog* spans,
                            int parent) {
  ReplayReport rep;
  const double stage_start = NowS();
  // One 10-minute instability series over all five exchanges, the paper's
  // Figure 5 input at the benchmark's window length.
  iri::core::TimeBinner binner(Duration::Minutes(10));

  for (std::size_t e = 0; e < segments.size(); ++e) {
    const Segment& seg = segments[e];
    const int ex = static_cast<int>(e);
    iri::mrt::Reader& reader = *seg.reader;
    iri::core::ExchangeMonitor monitor;
    monitor.AddSink([&binner](const iri::core::ClassifiedEvent& ev) {
      if (iri::core::IsInstability(ev.category)) binner.Add(ev.event.time);
    });
    std::uint64_t undecodable = 0;
    const double seg_start = NowS();
    double day0_end = -1;  // traced only: the first record after day 0
    while (true) {
      const double t0 = traced ? NowS() : 0;
      const std::optional<iri::mrt::Record> rec = reader.Next();
      const double t1 = traced ? NowS() : 0;
      rep.read_s += t1 - t0;
      if (!rec) break;
      if (traced && day0_end < 0 && rec->timestamp.nanos() >= kDayNs) {
        day0_end = t1;
      }
      ++rep.records;
      const std::optional<iri::bgp::Message> msg =
          iri::bgp::Decode(rec->payload);
      const double t2 = traced ? NowS() : 0;
      rep.decode_s += t2 - t1;
      const auto* update =
          msg ? std::get_if<iri::bgp::UpdateMessage>(&*msg) : nullptr;
      if (update == nullptr) {
        // Replay() drops these without a trace; the monitor only ever logs
        // UPDATEs, so any such record is damage.
        ++undecodable;
        continue;
      }
      monitor.Ingest(rec->timestamp, rec->peer_id, rec->peer_asn, *update,
                     rec->payload);
      if (traced) rep.classify_s += NowS() - t2;
    }
    const double drain_start = traced ? NowS() : 0;
    monitor.Drain();
    const double seg_end = NowS();
    if (traced) rep.classify_s += seg_end - drain_start;
    rep.segment_s.push_back(seg_end - seg_start);
    rep.events += monitor.events_seen();
    if (spans != nullptr) {
      if (day0_end < 0) day0_end = seg_end;
      const int id = spans->Add("replay.segment", ex, seg_start, seg_end,
                                parent);
      spans->Add("replay.day0", ex, seg_start, day0_end, id);
      spans->Add("replay.steady", ex, day0_end, seg_end, id);
    }

    const std::string tag = "exchange " + std::to_string(e) + ": ";
    gate.Check(reader.crc_failures() == 0,
               tag + std::to_string(reader.crc_failures()) +
                   " MRT records failed their CRC");
    gate.Check(undecodable == 0, tag + std::to_string(undecodable) +
                                     " MRT records did not decode to an "
                                     "UPDATE");
    gate.Check(monitor.classifier().totals() == seg.live_totals,
               tag + "replayed classifier bins differ from the live run's");
  }

  // Figure 5 on the 10-minute series: log transform and least-squares
  // detrend, then the three estimators.
  const double analysis_start = NowS();
  binner.ExtendTo(TimePoint::Origin() + Duration::Days(days) -
                  Duration::Millis(1));
  const iri::analysis::Series series(binner.bins().begin(),
                                     binner.bins().end());
  const iri::analysis::Series x = iri::analysis::DetrendedLog(series);
  const std::size_t n = x.size();

  double t = NowS();
  const auto correlogram = iri::analysis::CorrelogramSpectrum(x, n / 3);
  double t_next = NowS();
  rep.correlogram_s = t_next - t;
  if (spans != nullptr) {
    spans->Add("analysis.correlogram", -1, t, t_next, parent);
  }

  t = t_next;
  const auto mem = iri::analysis::MemSpectrum(x, n / 4, 4096);
  t_next = NowS();
  rep.burg_s = t_next - t;
  if (spans != nullptr) spans->Add("analysis.burg", -1, t, t_next, parent);

  t = t_next;
  const iri::analysis::Ssa ssa(x, n / 3);
  t_next = NowS();
  rep.ssa_s = t_next - t;
  if (spans != nullptr) spans->Add("analysis.ssa", -1, t, t_next, parent);

  double variance_sum = 0;
  for (const auto& c : ssa.components()) variance_sum += c.variance_fraction;
  gate.Check(FiniteNonNegative(correlogram),
             "correlogram spectrum is empty or not finite");
  gate.Check(FiniteNonNegative(mem), "Burg MEM spectrum is empty or not "
                                     "finite");
  gate.Check(!ssa.components().empty() && std::abs(variance_sum - 1) < 1e-6,
             "SSA variance fractions do not sum to one");

  const double stage_end = NowS();
  rep.analysis_s = stage_end - analysis_start;
  rep.total_s = stage_end - stage_start;
  return rep;
}

void AddReplayLayers(const ReplayReport& r, Metrics& m) {
  const auto per = [](double s, std::uint64_t n) {
    return n > 0 ? s * 1e9 / static_cast<double>(n) : 0.0;
  };
  m.emplace_back("replay.read.ns_per_record", per(r.read_s, r.records));
  m.emplace_back("replay.decode.ns_per_msg", per(r.decode_s, r.records));
  m.emplace_back("replay.classify.ns_per_event", per(r.classify_s, r.events));
  m.emplace_back("analysis.correlogram_s", r.correlogram_s);
  m.emplace_back("analysis.burg_s", r.burg_s);
  m.emplace_back("analysis.ssa_s", r.ssa_s);
}

}  // namespace perfbench
