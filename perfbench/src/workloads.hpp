// workloads.hpp — the benchmark's four workloads, generated from a seed.
//
// Every input the program sees — stream requirements, frame sizes, the
// DWCS mix and per-frame arrival times — is drawn here from the workload
// seed; the program receives only the generated requirements and arrival
// vectors (through queueing::TraceGen on the replay driver).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/endsystem.hpp"
#include "core/threaded_endsystem.hpp"
#include "dwcs/modes.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/watchdog.hpp"

namespace perfbench {

/// One admitted stream: its requirement, frame size and (replay driver
/// only) the arrival time of every frame it offers.
struct StreamInput {
  ss::dwcs::StreamRequirement req;
  std::uint32_t frame_bytes = 1500;
  std::vector<std::uint64_t> arrivals_ns;
};

struct Workload {
  std::string name;
  bool threaded = false;  ///< ThreadedEndsystem instead of the replay loop
  ss::core::EndsystemConfig es{};
  ss::core::ThreadedConfig th{};
  std::vector<StreamInput> streams;
  std::uint64_t threaded_frames_per_stream = 0;
  /// Bound on model.share_error checked after every run (0 = unchecked).
  double share_error_bound = 0.0;

  [[nodiscard]] std::uint64_t offered_frames() const;
  /// Per-stream frame counts as the replay driver's run(vector) takes them.
  [[nodiscard]] std::vector<std::uint64_t> frames_per_stream() const;
};

/// The workload names, in the order the benchmark documents them.
const std::vector<std::string>& workload_names();

/// Build `name` from `seed`.  `small` shrinks every frame count (self-check
/// inputs); the stream set and configuration are unchanged.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool small = false);

/// The production telemetry configuration: metrics registry, decision
/// audit sampled 1-in-64 and bound to the registry, and the watchdog over
/// a time-series sampler of that registry (one monitor thread).
struct ProductionTelemetry {
  explicit ProductionTelemetry(std::uint32_t streams);
  ss::telemetry::MetricsRegistry registry;
  ss::telemetry::AuditSession audit;
  ss::telemetry::TimeSeries series;
  ss::telemetry::Watchdog watchdog;
};

}  // namespace perfbench
