// replay_trace.hpp — untraced and traced runs of the replay driver.
//
// run_endsystem() drives core::Endsystem through its public entry points
// only.  run_traced_replay() rebuilds the drain loop of Endsystem::run from
// the public calls of the layers it wires together, with a span around
// every call into a layer, so host time can be attributed per layer.  The
// replica must reproduce the untraced run exactly (ModelOutcome equality).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// Everything the simulation decides in a replay run.  For a given seed
/// these values repeat exactly — across reps, and between Endsystem::run
/// and the traced replica.
struct ModelOutcome {
  std::uint64_t frames = 0;  ///< completed: transmitted + late-dropped
  std::uint64_t dropped_late = 0;
  std::uint64_t committed_decisions = 0;
  std::uint64_t decision_cycles = 0;
  std::uint64_t hw_cycles = 0;
  std::uint64_t pci_ns = 0;
  std::uint64_t link_ns = 0;
  std::uint64_t spurious_schedules = 0;
  bool failed_over = false;
  std::vector<std::uint64_t> stream_frames;  ///< transmitted per stream
  std::vector<std::uint64_t> stream_bytes;
  double delay_p50_us = 0.0;  ///< worst stream, simulated arrival->transmit
  double delay_p99_us = 0.0;
  double share_error = 0.0;   ///< worst fair-share stream, relative

  bool operator==(const ModelOutcome&) const = default;
};

struct ReplayRep {
  ModelOutcome model;
  double loop_seconds = 0.0;  ///< EndsystemReport::host_seconds
  double wall_seconds = 0.0;  ///< construction through teardown
};

/// One untraced run: construct, admit, run(vector), tear down.
ReplayRep run_endsystem(const Workload& w, bool telemetry);

enum Layer : std::uint8_t {
  kDriver,      ///< core.driver: one span per loop iteration (the parent)
  kProduce,     ///< queueing.produce
  kPushRequest, ///< hw.push_request
  kPci,         ///< hw.pci: PciModel::pio_write / pio_read
  kDecision,    ///< hw.decision: SchedulerChip::run_decision_cycle
  kConsume,     ///< queueing.consume: late-drop discards
  kTransmit,    ///< queueing.transmit: TransmissionEngine::transmit_block
  kQosMonitor,  ///< core.qos_monitor: QosMonitor::record
  kLayerCount,
};
const char* layer_name(Layer l);

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;  ///< index of the parent span; kNoParent at top
  std::uint32_t cycle = 0;   ///< decision-cycle index (loop iteration)
  Layer layer = kDriver;
  bool idle = false;         ///< decision spans: the cycle was idle
};
inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

struct TracedRep {
  ModelOutcome model;
  double loop_seconds = 0.0;  ///< timed loop, its own clock reads
  double wall_seconds = 0.0;
  /// Self time per layer: span duration minus the time its children cover.
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::vector<std::uint64_t> committed_decision_ns;
  std::uint64_t produce_refused = 0;  ///< produce() calls on a full ring
  std::uint64_t transmit_calls = 0;
  std::uint64_t transmit_frames = 0;
  std::uint64_t minor_faults = 0;     ///< during the timed loop
  double cpu_seconds = 0.0;           ///< process CPU during the timed loop
  std::vector<Span> spans;
};

/// One traced run of the replica.  `telemetry` attaches the production
/// telemetry configuration exactly as Endsystem does.
TracedRep run_traced_replay(const Workload& w, bool telemetry);

/// Write spans as a binary file: the line "ss-spans-v1 <layer names>\n",
/// then the Span records in host byte order.  False on I/O error.
bool write_spans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
