#include "core/pipeline.h"

#include <algorithm>

namespace marlin {

MaritimePipeline::MaritimePipeline(const PipelineConfig& config,
                                   const ZoneDatabase* zones,
                                   const WeatherProvider* weather,
                                   const VesselRegistry* registry_a,
                                   const VesselRegistry* registry_b)
    : config_(config),
      core_(config_, /*async_enrichment=*/false, zones, weather, registry_a,
            registry_b),
      pair_events_(config.events),
      dead_letters_(config.dead_letter_capacity) {}

std::vector<DetectedEvent> MaritimePipeline::IngestNmea(
    const std::string& line, Timestamp ingest_time, uint64_t source_id) {
  if (window_line_count_ == 0) window_first_ingest_ = ingest_time;
  last_ingest_ = ingest_time;
  // Parse + Assemble is Decode split in two (documented equivalent in
  // ais/codec.h); the split exposes the reject reason so rejected raw lines
  // can be dead-lettered with the same classification — and therefore the
  // same payload stream — as the sharded pipeline's parse stage.
  const ParsedLine parsed = AisDecoder::Parse(
      line, ingest_time, config_.fragment_group_by_source ? source_id : 0);
  if (!parsed.ok) {
    dead_letters_.Push(DeadLetterReason::kBadSentence, line, ingest_time);
  }
  const uint64_t bad_payloads_before = decoder_.stats().bad_payloads;
  std::optional<AisMessage> msg = decoder_.Assemble(parsed);
  if (parsed.ok && decoder_.stats().bad_payloads > bad_payloads_before) {
    dead_letters_.Push(DeadLetterReason::kBadPayload, line, ingest_time);
  }
  if (msg.has_value()) {
    quality_.Observe(*msg);
    ProcessDecoded(*msg, ingest_time);
  }
  ++window_line_count_;
  if (WindowMustClose(config_, window_line_count_, window_first_ingest_,
                      ingest_time)) {
    return CloseWindow(/*flush_pairs=*/false);
  }
  return {};
}

void MaritimePipeline::ProcessDecoded(const AisMessage& msg,
                                      Timestamp ingest_time) {
  if (const auto* sv = std::get_if<StaticVoyageData>(&msg)) {
    core_.ProcessStatic(*sv);
    return;
  }
  const PositionReport* pr = PositionReportOf(msg);
  if (pr == nullptr) return;

  metrics_.ingest_rate.Observe(ingest_time);
  core_.ProcessPosition(*pr, ingest_time, &window_events_, &window_pairs_);
}

std::vector<DetectedEvent> MaritimePipeline::CloseWindow(bool flush_pairs) {
  // Serving tier: window close is epoch close — the staged points become
  // immutable position blocks and a fresh read snapshot. Archive write
  // failures degrade durability, not the live pipeline.
  (void)core_.CloseArchiveEpoch();
  pair_events_.CloseWindow(&window_pairs_, flush_pairs, &window_events_);
  FireAlerts(window_events_, &metrics_.alerts, alert_callback_);
  RefreshMetrics();
  window_line_count_ = 0;
  window_first_ingest_ = kInvalidTimestamp;
  return std::exchange(window_events_, {});
}

void MaritimePipeline::RefreshMetrics() {
  metrics_.decoder = decoder_.stats();
  metrics_.reconstruction = core_.reconstruction_stats();
  metrics_.synopses = core_.synopses_stats();
  metrics_.events = core_.vessel_event_stats();
  metrics_.events.events_out += pair_events_.stats().events_out;
  metrics_.anomaly = core_.anomaly_stage_stats();
  metrics_.enrichment = core_.enrichment_stats();
  metrics_.enrichment_stage = core_.enrichment_stage_stats();
  metrics_.quality = quality_.report();
  if (core_.archive() != nullptr) metrics_.archive = core_.archive()->stats();
  metrics_.end_to_end_latency = core_.end_to_end_latency();
  // Health roll-up. No supervised workers here (single-threaded reference):
  // the supervisor half stays zero, the data-at-risk half is live.
  metrics_.health.supervisor = SupervisorStats{};
  metrics_.health.dead_letter = dead_letters_.stats();
  metrics_.health.enrichment_transform_failures =
      metrics_.enrichment_stage.transform_failed;
  metrics_.health.archive_put_failures = metrics_.archive.put_failures;
  metrics_.health.archive_points_at_risk = metrics_.archive.points_at_risk;
}

size_t MaritimePipeline::DrainEnrichedOrdered(std::vector<EnrichedPoint>* out) {
  const size_t base = out->size();
  core_.DrainEnriched(out);
  std::stable_sort(out->begin() + static_cast<ptrdiff_t>(base), out->end(),
                   [](const EnrichedPoint& a, const EnrichedPoint& b) {
                     if (a.base.point.t != b.base.point.t) {
                       return a.base.point.t < b.base.point.t;
                     }
                     return a.base.mmsi < b.base.mmsi;
                   });
  return out->size() - base;
}

std::vector<DetectedEvent> MaritimePipeline::IngestBatch(
    std::span<const Event<std::string>> nmea) {
  std::vector<DetectedEvent> all;
  for (const auto& ev : nmea) {
    auto detected = IngestNmea(ev.payload, ev.ingest_time, ev.source_id);
    all.insert(all.end(), detected.begin(), detected.end());
  }
  return all;
}

std::vector<DetectedEvent> MaritimePipeline::IngestPackedBatch(
    std::span<const Event<PackedRecord>> packed) {
  std::vector<DetectedEvent> all;
  for (const auto& ev : packed) {
    if (window_line_count_ == 0) window_first_ingest_ = ev.ingest_time;
    last_ingest_ = ev.ingest_time;
    const uint64_t bad_before = decoder_.stats().bad_payloads;
    std::optional<AisMessage> msg =
        decoder_.DecodePacked(ev.payload.bits, ev.payload.received_at);
    if (decoder_.stats().bad_payloads > bad_before) {
      // The raw bytes stayed with the sender; count without retention.
      dead_letters_.PushCount(DeadLetterReason::kBadPayload, 1);
    }
    if (msg.has_value()) {
      quality_.Observe(*msg);
      ProcessDecoded(*msg, ev.ingest_time);
    }
    ++window_line_count_;
    if (WindowMustClose(config_, window_line_count_, window_first_ingest_,
                        ev.ingest_time)) {
      auto detected = CloseWindow(/*flush_pairs=*/false);
      all.insert(all.end(), detected.begin(), detected.end());
    }
  }
  return all;
}

std::vector<DetectedEvent> MaritimePipeline::Run(
    const std::vector<Event<std::string>>& nmea) {
  std::vector<DetectedEvent> all = IngestBatch(nmea);
  auto tail = Finish();
  all.insert(all.end(), tail.begin(), tail.end());
  return all;
}

std::vector<DetectedEvent> MaritimePipeline::Finish() {
  core_.Flush(last_ingest_, &window_events_, &window_pairs_);
  core_.FlushEnrichment();  // delivery-completeness barrier (no-op inline)
  return CloseWindow(/*flush_pairs=*/true);
}

}  // namespace marlin
