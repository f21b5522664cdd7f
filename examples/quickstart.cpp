// Quickstart: decode AIS, reconstruct trajectories, detect events.
//
// This is the smallest useful MARLIN program: generate an hour of synthetic
// maritime traffic (standing in for a live AIS feed), run the integrated
// pipeline of the paper's Figure 2, and print what it found.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <thread>

#include "context/weather.h"
#include "core/sharded_pipeline.h"
#include "sim/scenario.h"
#include "sim/world.h"

using namespace marlin;

int main() {
  // 1. A world: ports, shipping lanes, fishing grounds, regulated zones.
  const World world = World::Basin();

  // 2. A scenario: synthetic fleet transmitting real AIVDM sentences through
  //    a coastal receiver network (loss, latency, duplicates included).
  ScenarioConfig config;
  config.seed = 2017;
  config.duration = Hours(1);
  config.transit_vessels = 15;
  config.fishing_vessels = 4;
  config.rendezvous_pairs = 1;
  config.dark_vessels = 2;
  const ScenarioOutput scenario = GenerateScenario(world, config);
  std::printf("scenario: %zu vessels, %zu NMEA sentences, %llu transmissions\n",
              scenario.fleet.size(), scenario.nmea.size(),
              static_cast<unsigned long long>(scenario.transmissions));

  // 3. The integrated pipeline: decode -> reconstruct -> synopses ->
  //    enrichment -> events -> live picture, sharded by MMSI across the
  //    machine's cores. Enrichment (zones + weather join) runs as an async
  //    side-stage per shard and never stalls ingest.
  WeatherProvider weather(7);
  PipelineConfig pipeline_config;
  pipeline_config.enriched_output_capacity = 1u << 17;  // drain at the end
  ShardedPipeline::Options shard_options;
  shard_options.num_shards = 0;  // 0 = one shard per hardware thread
  ShardedPipeline pipeline(pipeline_config, shard_options, &world.zones(),
                           &weather, /*registry_a=*/nullptr,
                           /*registry_b=*/nullptr);
  std::printf("pipeline: %zu shards\n", pipeline.num_shards());
  pipeline.OnAlert([](const DetectedEvent& ev) {
    std::printf("  ALERT %-16s vessel %u%s%s at %s (severity %.2f)\n",
                EventTypeName(ev.type), ev.vessel_a,
                ev.vessel_b != 0 ? " & " : "",
                ev.vessel_b != 0 ? std::to_string(ev.vessel_b).c_str() : "",
                ev.where.ToString().c_str(), ev.severity);
  });

  // Batched ingest: one call per feed chunk instead of one per line.
  std::vector<DetectedEvent> events = pipeline.IngestBatch(scenario.nmea);
  const std::vector<DetectedEvent> tail = pipeline.Finish();
  events.insert(events.end(), tail.begin(), tail.end());

  // 4. What happened?
  const PipelineMetrics& m = pipeline.metrics();
  std::printf("\npipeline metrics\n");
  std::printf("  decoded messages     : %llu (bad sentences: %llu)\n",
              static_cast<unsigned long long>(m.decoder.messages_out),
              static_cast<unsigned long long>(m.decoder.bad_sentences));
  std::printf("  clean positions      : %llu (duplicates: %llu, outliers: %llu)\n",
              static_cast<unsigned long long>(m.reconstruction.points_out),
              static_cast<unsigned long long>(m.reconstruction.duplicates),
              static_cast<unsigned long long>(m.reconstruction.outliers));
  std::printf("  synopsis compression : %.1f %%\n",
              100.0 * m.synopses.CompressionRatio());
  const PartitionedTrajectoryView store = pipeline.store_view();
  std::printf("  events detected      : %zu (alerts: %llu)\n", events.size(),
              static_cast<unsigned long long>(m.alerts));
  std::printf("  vessels tracked      : %zu (across %zu store partitions)\n",
              store.VesselCount(), store.partition_count());

  // Per-hop hand-off health: how deep each stage's channel backed up, how
  // often a side had to wait, and how many items each consumer wake-up
  // carried (the lock-free rings move work in batches, not item-by-item).
  const auto print_hop = [](const char* name, const QueueHopStats& hop) {
    std::printf("  %-20s : %llu items, depth high-water %zu, "
                "waits %llu/%llu, %.1f items/batch\n",
                name, static_cast<unsigned long long>(hop.popped),
                hop.depth_high_water,
                static_cast<unsigned long long>(hop.push_waits),
                static_cast<unsigned long long>(hop.pop_waits),
                hop.MeanBatch());
  };
  std::printf("\nqueue hops (lock-free SPSC rings)\n");
  print_hop("coord -> shard", m.shard_hop);
  print_hop("shard -> enrichment", m.enrichment_stage.hop);

  // Fault-tolerance health: every record that left the healthy path is on
  // this ledger (rejected frames, degraded drops, worker failures). In a
  // clean run like this one every counter reads zero — anything else means
  // data left the pipeline, counted rather than silently dropped.
  const PipelineHealth& health = m.health;
  std::printf("\npipeline health (fault tolerance)\n");
  std::printf("  worker failures      : %llu (restarts: %llu, degraded: %llu)\n",
              static_cast<unsigned long long>(health.supervisor.failures),
              static_cast<unsigned long long>(health.supervisor.restarts),
              static_cast<unsigned long long>(
                  health.supervisor.degraded_workers));
  std::printf("  dead letters         : %llu",
              static_cast<unsigned long long>(health.dead_letter.total()));
  for (size_t r = 0; r < kDeadLetterReasonCount; ++r) {
    std::printf("%s%s %llu", r == 0 ? " (" : ", ",
                DeadLetterReasonName(static_cast<DeadLetterReason>(r)),
                static_cast<unsigned long long>(health.dead_letter.by_reason[r]));
  }
  std::printf(")\n");
  std::printf("  data at risk         : %llu records\n",
              static_cast<unsigned long long>(health.DataAtRisk()));

  // 5. The enriched output stream (paper §2.2): each clean point joined
  //    with the zones it crosses and the weather at its position/time.
  //    Finish() flushed the side-stages, so the stream is complete.
  std::vector<EnrichedPoint> enriched;
  pipeline.DrainEnriched(&enriched);
  const SideStageStats& stage = m.enrichment_stage;
  std::printf("\nenriched output stream\n");
  std::printf("  points delivered     : %zu (queue drops: %llu, "
              "p99 delivery %lld ms)\n",
              enriched.size(),
              static_cast<unsigned long long>(stage.queue_dropped),
              static_cast<long long>(stage.latency.Quantile(0.99)));
  for (size_t i = 0; i < enriched.size() && i < 3; ++i) {
    const EnrichedPoint& p = enriched[i];
    std::printf("  vessel %u at %s | zones: %zu | wind %.1f m/s, "
                "waves %.1f m\n",
                p.base.mmsi, p.base.point.position.ToString().c_str(),
                p.zone_ids.size(), p.weather.wind_speed_mps,
                p.weather.wave_height_m);
  }

  // 6. Query the live picture: who is near the first port right now?
  const Port& port = world.ports()[0];
  const auto nearby = store.NearestLive(port.position, 3);
  std::printf("\nclosest vessels to %s:\n", port.name.c_str());
  for (const auto& [mmsi, dist_m] : nearby) {
    std::printf("  vessel %u at %.1f km\n", mmsi, dist_m / 1000.0);
  }
  return 0;
}
