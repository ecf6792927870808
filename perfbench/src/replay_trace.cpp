#include "replay_trace.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "process_stats.hpp"
#include "queueing/traffic_gen.hpp"
#include "util/sim_time.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool is_fair(const StreamInput& s) {
  return s.req.kind == ss::dwcs::RequirementKind::kFairShare;
}

/// The QoS-monitor side of ModelOutcome: per-stream volume, worst-stream
/// delay percentiles and the Figure-8 share error.  A fair-share stream's
/// delivered rate is frames over its active span (mean_mbps / frame size).
void summarize_monitor(const Workload& w, const ss::core::QosMonitor& mon,
                       ModelOutcome& m) {
  const auto n = static_cast<std::uint32_t>(w.streams.size());
  double rate_sum = 0.0;
  double weight_sum = 0.0;
  std::vector<double> rate(n, 0.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    m.stream_frames.push_back(mon.frames(i));
    m.stream_bytes.push_back(mon.bytes(i));
    m.delay_p50_us = std::max(m.delay_p50_us, mon.delay_percentile_est_us(i, 50.0));
    m.delay_p99_us = std::max(m.delay_p99_us, mon.delay_percentile_est_us(i, 99.0));
    if (!is_fair(w.streams[i])) continue;
    rate[i] = mon.mean_mbps(i) / w.streams[i].frame_bytes;
    rate_sum += rate[i];
    weight_sum += w.streams[i].req.weight;
  }
  if (rate_sum <= 0.0) return;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!is_fair(w.streams[i])) continue;
    const double want = w.streams[i].req.weight / weight_sum;
    m.share_error =
        std::max(m.share_error, std::abs(rate[i] / rate_sum - want) / want);
  }
}

/// Pre-allocated, pre-touched span buffer: appending inside the timed loop
/// takes no page faults until the estimate is exceeded.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : spans_(capacity) {}

  std::size_t open(Layer layer, std::uint32_t parent, std::uint32_t cycle,
                   std::uint64_t start) {
    if (n_ == spans_.size()) spans_.resize(spans_.size() * 2 + 1024);
    Span& s = spans_[n_];
    s.start_ns = start;
    s.end_ns = start;
    s.parent = parent;
    s.cycle = cycle;
    s.layer = layer;
    s.idle = false;
    return n_++;
  }
  std::size_t open(Layer layer, std::uint32_t parent, std::uint32_t cycle) {
    return open(layer, parent, cycle, now_ns());
  }
  void close(std::size_t i) { spans_[i].end_ns = now_ns(); }
  void close(std::size_t i, std::uint64_t end) { spans_[i].end_ns = end; }
  Span& operator[](std::size_t i) { return spans_[i]; }

  std::vector<Span> take() {
    spans_.resize(n_);
    return std::move(spans_);
  }

 private:
  std::vector<Span> spans_;
  std::size_t n_ = 0;
};

}  // namespace

const char* layer_name(Layer l) {
  static constexpr const char* kNames[kLayerCount] = {
      "core.driver",     "queueing.produce",  "hw.push_request",
      "hw.pci",          "hw.decision",       "queueing.consume",
      "queueing.transmit", "core.qos_monitor"};
  return kNames[l];
}

ReplayRep run_endsystem(const Workload& w, bool telemetry) {
  ReplayRep rep;
  const auto wall0 = Clock::now();
  {
    std::unique_ptr<ProductionTelemetry> tel;
    ss::core::EndsystemConfig cfg = w.es;
    if (telemetry) {
      tel = std::make_unique<ProductionTelemetry>(
          static_cast<std::uint32_t>(w.streams.size()));
      cfg.metrics = &tel->registry;
      cfg.audit = &tel->audit;
    }
    ss::core::Endsystem es(cfg);
    for (const StreamInput& s : w.streams) {
      es.add_stream(s.req,
                    std::make_unique<ss::queueing::TraceGen>(s.arrivals_ns),
                    s.frame_bytes);
    }
    if (tel) tel->watchdog.start();
    const ss::core::EndsystemReport r = es.run(w.frames_per_stream());
    if (tel) tel->watchdog.stop();

    ModelOutcome& m = rep.model;
    m.frames = r.frames;
    m.dropped_late = r.dropped_late;
    m.committed_decisions = r.committed_decisions;
    m.decision_cycles = r.decision_cycles;
    m.hw_cycles = es.chip().hw_cycles();
    m.pci_ns = r.pci_ns;
    m.link_ns = r.link_ns;
    m.spurious_schedules = r.spurious_schedules;
    m.failed_over = r.failed_over;
    summarize_monitor(w, es.monitor(), m);
    rep.loop_seconds = r.host_seconds;
  }
  rep.wall_seconds = seconds_since(wall0);
  return rep;
}

// The drain loop of Endsystem::run for the configuration the workloads use
// (no fault plane, no streaming unit, PIO arrival batches, no frame trace
// or profiler), with the same calls in the same order per layer.  Calls of
// one function that follow each other share a span: the produce calls of
// an iteration, then its push_request calls, then its PIO writes (PciModel
// is a pure cost function, so issuing an iteration's writes after its
// pushes changes no result).
TracedRep run_traced_replay(const Workload& w, bool telemetry) {
  namespace core = ss::core;
  namespace hw = ss::hw;
  namespace queueing = ss::queueing;
  namespace tm = ss::telemetry;
  const core::EndsystemConfig& cfg = w.es;
  if (cfg.faults.enabled() || cfg.use_streaming_unit || cfg.dma_bulk) {
    throw std::invalid_argument("replica covers the PIO, fault-free path only");
  }
  TracedRep tr;
  const auto wall0 = Clock::now();
  {
    const auto n = static_cast<std::uint32_t>(w.streams.size());
    std::unique_ptr<ProductionTelemetry> tel;
    if (telemetry) tel = std::make_unique<ProductionTelemetry>(n);
    tm::ChipMetrics chip_m;
    tm::PciMetrics pci_m;
    tm::QueueMetrics qm_m;
    tm::TxMetrics tx_m;
    tm::EndsystemMetrics es_m;

    const double ptime = ss::packet_time_ns(cfg.ref_frame_bytes, cfg.link_gbps);
    hw::SchedulerChip chip(cfg.chip);
    hw::PciModel pci(cfg.pci);
    queueing::QueueManager qm(static_cast<std::uint64_t>(ptime));
    queueing::LinkModel link(cfg.link_gbps);
    queueing::TransmissionEngine te(qm, link);

    // Admission, as Endsystem::finalize_admission.
    std::vector<ss::dwcs::StreamRequirement> reqs;
    for (const StreamInput& s : w.streams) {
      reqs.push_back(s.req);
      qm.add_stream(cfg.ring_capacity);
    }
    const auto periods = ss::dwcs::fair_share_periods(reqs);
    for (std::uint32_t i = 0; i < n; ++i) {
      hw::SlotConfig sc = ss::dwcs::to_slot_config(reqs[i], periods[i]);
      if (is_fair(w.streams[i])) sc.initial_deadline = hw::Deadline{periods[i]};
      chip.load_slot(static_cast<hw::SlotId>(i), sc);
    }
    core::QosMonitor monitor(n, cfg.bw_window_ns);
    monitor.set_keep_series(cfg.keep_series);
    monitor.set_delay_histogram(cfg.delay_histogram);
    tm::EndsystemMetrics* em = nullptr;
    if (tel) {
      chip_m = tm::ChipMetrics::create(tel->registry);
      pci_m = tm::PciMetrics::create(tel->registry);
      qm_m = tm::QueueMetrics::create(tel->registry);
      tx_m = tm::TxMetrics::create(tel->registry, n);
      es_m = tm::EndsystemMetrics::create(tel->registry);
      chip.attach_metrics(&chip_m);
      pci.attach_metrics(&pci_m);
      qm.attach_metrics(&qm_m);
      te.attach_metrics(&tx_m);
      chip.attach_audit(&tel->audit);
      tel->audit.audit().bind_registry(tel->registry);
      em = &es_m;
    }

    // Pre-generate every frame through the program's TraceGen.
    std::vector<std::vector<queueing::Frame>> frames(n);
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      queueing::TraceGen gen(w.streams[i].arrivals_ns);
      frames[i] = gen.generate(i, w.streams[i].arrivals_ns.size(),
                               w.streams[i].frame_bytes);
      total += frames[i].size();
    }
    std::vector<std::size_t> cursor(n, 0);
    std::vector<std::size_t> due(n, 0);
    std::vector<unsigned> batch_fill(n, 0);
    std::uint64_t transmitted = 0;
    std::uint64_t pci_ns = 0;
    std::uint64_t committed = 0;
    std::uint64_t dropped_late = 0;
    const std::uint64_t decisions0 = chip.decision_cycles();
    std::vector<queueing::BlockGrant> burst;
    std::vector<queueing::TxRecord> burst_records;
    hw::DecisionOutcome out;
    std::uint64_t drainable = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!frames[i].empty()) drainable |= std::uint64_t{1} << i;
    }
    // Spans per frame: driver, decision, PCI read, transmit, monitor, plus
    // the delivery spans; the log doubles if a run needs more.
    SpanLog log(total * 6 + 4096);
    if (tel) tel->watchdog.start();

    const std::uint64_t faults0 = minor_faults();
    const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    const std::uint64_t t0 = now_ns();
    std::size_t iter = 0;
    bool first = true;
    std::uint32_t cycle = 0;
    while (transmitted < total) {
      const std::uint64_t t_iter = now_ns();
      if (!first) log.close(iter, t_iter);
      first = false;
      iter = log.open(kDriver, kNoParent, cycle, t_iter);
      const auto parent = static_cast<std::uint32_t>(iter);
      if (em) em->loop_iterations->add(1);
      const auto sim_now = static_cast<std::uint64_t>(
          static_cast<double>(chip.vtime()) * ptime);

      // Deliver due arrivals: frames into the QM rings ...
      const std::uint64_t scan = drainable;
      std::uint64_t delivered = 0;
      std::size_t span = SIZE_MAX;
      for (std::uint64_t m = scan; m != 0; m &= m - 1) {
        const auto i = static_cast<std::uint32_t>(std::countr_zero(m));
        const std::vector<queueing::Frame>& fi = frames[i];
        std::size_t k = 0;
        if (cursor[i] < fi.size() && fi[cursor[i]].arrival_ns <= sim_now) {
          if (span == SIZE_MAX) span = log.open(kProduce, parent, cycle);
          while (cursor[i] + k < fi.size() &&
                 fi[cursor[i] + k].arrival_ns <= sim_now) {
            if (!qm.produce(i, fi[cursor[i] + k])) {
              if (tel) tel->audit.audit().note_overflow(i);
              drainable &= ~(std::uint64_t{1} << i);
              ++tr.produce_refused;
              break;
            }
            ++k;
          }
        }
        due[i] = k;
        delivered += k;
        if (cursor[i] + k >= fi.size()) drainable &= ~(std::uint64_t{1} << i);
      }
      if (span != SIZE_MAX) log.close(span);
      if (delivered > 0) {
        if (em) em->arrivals_delivered->add(delivered);
        // ... and their arrival offsets to the card, in PIO batches.
        unsigned pio_writes = 0;
        span = log.open(kPushRequest, parent, cycle);
        for (std::uint64_t m = scan; m != 0; m &= m - 1) {
          const auto i = static_cast<std::uint32_t>(std::countr_zero(m));
          for (std::size_t k = 0; k < due[i]; ++k) {
            const queueing::Frame& f = frames[i][cursor[i]++];
            const auto off = static_cast<std::uint64_t>(
                static_cast<double>(f.arrival_ns) / ptime);
            chip.push_request(static_cast<hw::SlotId>(i), hw::Arrival{off});
            if (++batch_fill[i] >= cfg.pci_batch) {
              batch_fill[i] = 0;
              ++pio_writes;
            }
          }
        }
        log.close(span);
        if (pio_writes > 0) {
          span = log.open(kPci, parent, cycle);
          const std::size_t bytes = std::size_t{cfg.pci_batch} * 2;
          for (unsigned j = 0; j < pio_writes; ++j) {
            pci_ns += ss::count(pci.pio_write(bytes));
          }
          log.close(span);
        }
      }

      span = log.open(kDecision, parent, cycle);
      chip.run_decision_cycle(out);
      log.close(span);
      log[span].idle = out.idle;
      committed += static_cast<std::uint64_t>(!out.idle);

      if (!out.drops.empty()) {
        span = log.open(kConsume, parent, cycle);
        for (const hw::SlotId s : out.drops) {
          if (qm.consume(s)) {
            drainable |= std::uint64_t{1} << s;
            ++dropped_late;
            ++transmitted;
            if (em) {
              em->dropped_late->add(1);
              em->frames_completed->add(1);
            }
          }
        }
        log.close(span);
      }

      if (out.idle) {
        bool more = false;
        for (std::uint32_t i = 0; i < n; ++i) {
          more = more || cursor[i] < frames[i].size();
        }
        ++cycle;
        if (!more && transmitted < total) break;
        continue;
      }

      span = log.open(kPci, parent, cycle);
      pci_ns += ss::count(pci.pio_read(out.grants.size()));
      log.close(span);

      burst.clear();
      for (const hw::Grant& g : out.grants) {
        burst.push_back({g.slot, static_cast<std::uint64_t>(
                                     static_cast<double>(g.emit_vtime) * ptime)});
      }
      burst_records.clear();
      span = log.open(kTransmit, parent, cycle);
      transmitted += te.transmit_block(burst, &burst_records);
      log.close(span);
      ++tr.transmit_calls;
      tr.transmit_frames += burst_records.size();
      if (em) em->frames_completed->add(burst_records.size());

      span = log.open(kQosMonitor, parent, cycle);
      for (const queueing::TxRecord& rec : burst_records) monitor.record(rec);
      log.close(span);
      for (const queueing::TxRecord& rec : burst_records) {
        drainable |= std::uint64_t{1} << rec.stream;
        if (em) {
          em->frame_delay_us->observe(static_cast<double>(rec.delay_ns()) /
                                      1000.0);
        }
      }
      ++cycle;
    }
    const std::uint64_t t1 = now_ns();
    if (!first) log.close(iter, t1);
    tr.cpu_seconds = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    tr.minor_faults = minor_faults() - faults0;
    tr.loop_seconds = static_cast<double>(t1 - t0) * 1e-9;

    for (std::uint32_t i = 0; i < n; ++i) {
      if (batch_fill[i] > 0) {
        pci_ns += ss::count(pci.pio_write(std::size_t{batch_fill[i]} * 2));
      }
    }
    monitor.finish();
    if (tel) {
      tel->watchdog.stop();
      const tm::DecisionAudit& da = tel->audit.audit();
      for (std::uint32_t s = 0; s < n; ++s) {
        for (std::size_t c = 0; c < tm::kBurnCauses; ++c) {
          monitor.add_violation_cause(s, c, da.burn(s, c));
        }
      }
    }

    ModelOutcome& m = tr.model;
    m.frames = transmitted;
    m.dropped_late = dropped_late;
    m.committed_decisions = committed;
    m.decision_cycles = chip.decision_cycles() - decisions0;
    m.hw_cycles = chip.hw_cycles();
    m.pci_ns = pci_ns;
    m.link_ns = link.busy_until_ns();
    m.spurious_schedules = te.spurious_schedules();
    summarize_monitor(w, monitor, m);

    tr.spans = log.take();
    for (const Span& s : tr.spans) {
      const auto d = static_cast<std::int64_t>(s.end_ns - s.start_ns);
      tr.self_ns[s.layer] += d;
      if (s.parent != kNoParent) tr.self_ns[tr.spans[s.parent].layer] -= d;
      if (s.layer == kDecision && !s.idle) {
        tr.committed_decision_ns.push_back(s.end_ns - s.start_ns);
      }
    }
  }
  tr.wall_seconds = seconds_since(wall0);
  return tr;
}

bool write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::string header = "ss-spans-v1";
  for (int l = 0; l < kLayerCount; ++l) {
    header += ' ';
    header += layer_name(static_cast<Layer>(l));
  }
  header += '\n';
  bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size();
  ok = ok && std::fwrite(spans.data(), sizeof(Span), spans.size(), f) ==
                 spans.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
