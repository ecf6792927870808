// main.cpp — the benchmark driver binary.
//
//   ss_perfbench --workload W --seed S --seconds T --trace 0|1
//                [--spans-out FILE] [--small]
//   ss_perfbench --selfcheck [WORKLOAD...]
//
// --trace 0 repeats untraced runs of the workload for T seconds and prints
// the end-to-end metrics; --trace 1 interleaves untraced, traced and
// telemetry-attached runs and prints the per-layer metrics.  Both check
// every run's output.  The last stdout line is one JSON object: correct,
// attempted, failed, metrics, checks.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "process_stats.hpp"
#include "replay_trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The rate estimator: the fastest of many short repetitions.  On a
/// shared host, other tenants slow a core by up to half, in phases of a
/// few seconds; interference only ever slows a repetition down, and the
/// fastest one repeats from run to run far better than the median, which
/// moves with the share of slow phases in the run.
double fastest(const std::vector<double>& rates) {
  return rates.empty() ? 0.0 : *std::max_element(rates.begin(), rates.end());
}

/// The set-up time estimator: the quickest repetition, for the same
/// reason (set-up allocates and first-touches memory, whose cost on a
/// shared host varies with other tenants' load).
double quickest(const std::vector<double>& seconds) {
  return seconds.empty() ? 0.0
                         : *std::min_element(seconds.begin(), seconds.end());
}

double quantile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Run bookkeeping shared by every leg: offered frames, failed frames, and
/// the text of every failed check.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Account one run.  A failed check fails every frame of the run.
  void run(const std::string& leg, std::uint64_t offered,
           std::uint64_t completed, const std::vector<std::string>& errors) {
    attempted += offered;
    if (errors.empty()) {
      failed += offered - std::min(offered, completed);
      return;
    }
    failed += offered;
    for (const std::string& e : errors) failures.push_back(leg + ": " + e);
  }
};

std::vector<std::string> check_model(const Workload& w, const ModelOutcome& m) {
  std::vector<std::string> err;
  const std::vector<std::uint64_t> offered = w.frames_per_stream();
  if (m.frames != w.offered_frames()) {
    err.push_back("completed " + std::to_string(m.frames) + " of " +
                  std::to_string(w.offered_frames()) + " offered frames");
  }
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < offered.size(); ++i) {
    sent += m.stream_frames[i];
    const bool droppable = w.streams[i].req.droppable;
    if (m.stream_frames[i] > offered[i] ||
        (!droppable && m.stream_frames[i] != offered[i])) {
      err.push_back("stream " + std::to_string(i) + " transmitted " +
                    std::to_string(m.stream_frames[i]) + " of " +
                    std::to_string(offered[i]));
    }
  }
  if (sent + m.dropped_late != m.frames) {
    err.push_back("transmitted + late drops != completed frames");
  }
  if (m.spurious_schedules != 0) err.push_back("spurious schedules");
  if (m.failed_over) err.push_back("run failed over");
  if (w.share_error_bound > 0.0 && m.share_error > w.share_error_bound) {
    err.push_back("share error " + std::to_string(m.share_error) +
                  " above bound " + std::to_string(w.share_error_bound));
  }
  return err;
}

/// Every model value of a seed must repeat exactly within one
/// configuration: across reps, and between Endsystem::run and the traced
/// replica.
struct ModelReference {
  bool set = false;
  ModelOutcome ref;
  void compare(const ModelOutcome& m, std::vector<std::string>& err) {
    if (!set) {
      ref = m;
      set = true;
    } else if (!(m == ref)) {
      err.push_back("model outcome differs from the first run of this seed");
    }
  }
};

std::vector<Metric> model_metrics(const Workload& w, const ModelOutcome& m) {
  return {
      {"model.hw_cycles_per_decision", "cycles",
       ratio(static_cast<double>(m.hw_cycles),
             static_cast<double>(m.committed_decisions))},
      {"model.pci_ns_per_frame", "ns",
       ratio(static_cast<double>(m.pci_ns), static_cast<double>(m.frames))},
      {"model.delay_p50_us", "us", m.delay_p50_us},
      {"model.delay_p99_us", "us", m.delay_p99_us},
      {"model.share_error", "ratio", m.share_error},
      {"model.late_drop_frac", "ratio",
       ratio(static_cast<double>(m.dropped_late),
             static_cast<double>(w.offered_frames()))},
  };
}

// ---------------------------------------------------------------- threaded

struct ThreadedRep {
  ss::core::ThreadedReport report;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;        ///< process CPU during run()
  double sched_cpu_seconds = 0.0;  ///< calling (scheduler) thread CPU
  std::uint64_t minor_faults = 0;  ///< during run()
  std::map<std::string, ss::telemetry::Sample> samples;
};

enum class ThreadedMode { kPlain, kRegistry, kProduction };

ThreadedRep run_threaded(const Workload& w, ThreadedMode mode) {
  ThreadedRep rep;
  const auto wall0 = Clock::now();
  {
    const auto n = static_cast<std::uint32_t>(w.streams.size());
    std::unique_ptr<ProductionTelemetry> tel;
    ss::core::ThreadedConfig cfg = w.th;
    if (mode != ThreadedMode::kPlain) {
      tel = std::make_unique<ProductionTelemetry>(n);
      cfg.metrics = &tel->registry;
      if (mode == ThreadedMode::kProduction) cfg.audit = &tel->audit;
    }
    ss::core::ThreadedEndsystem es(cfg);
    for (const StreamInput& s : w.streams) es.add_stream(s.req);
    if (mode == ThreadedMode::kProduction) tel->watchdog.start();
    const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    const double sched0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    const std::uint64_t faults0 = minor_faults();
    rep.report = es.run(w.threaded_frames_per_stream);
    rep.minor_faults = minor_faults() - faults0;
    rep.sched_cpu_seconds = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - sched0;
    rep.cpu_seconds = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    if (mode == ThreadedMode::kProduction) tel->watchdog.stop();
    if (tel) {
      for (ss::telemetry::Sample& s : tel->registry.snapshot().samples) {
        std::string name = s.name;
        rep.samples.emplace(std::move(name), std::move(s));
      }
    }
  }
  rep.wall_seconds = std::chrono::duration<double>(Clock::now() - wall0).count();
  return rep;
}

std::vector<std::string> check_threaded(const Workload& w,
                                        const ss::core::ThreadedReport& r) {
  std::vector<std::string> err;
  const std::uint64_t offered = w.offered_frames();
  if (r.frames_produced != offered || r.frames_transmitted != offered) {
    err.push_back("produced " + std::to_string(r.frames_produced) +
                  ", transmitted " + std::to_string(r.frames_transmitted) +
                  " of " + std::to_string(offered) + " offered frames");
  }
  for (std::size_t i = 0; i < r.per_stream_tx.size(); ++i) {
    if (r.per_stream_tx[i] != w.threaded_frames_per_stream) {
      err.push_back("stream " + std::to_string(i) + " transmitted " +
                    std::to_string(r.per_stream_tx[i]));
    }
  }
  if (r.failed_over) err.push_back("run failed over");
  return err;
}

// ------------------------------------------------------------ measurement

/// Repeat `leg` until `seconds` have passed (at least `min_reps` times),
/// after one warm-up call whose figures are discarded but still checked.
void repeat(double seconds, int min_reps, const std::function<void(bool)>& leg) {
  leg(false);
  const auto t0 = Clock::now();
  for (int r = 0;; ++r) {
    if (r >= min_reps &&
        std::chrono::duration<double>(Clock::now() - t0).count() >= seconds) {
      break;
    }
    leg(true);
  }
}

struct Result {
  Ledger ledger;
  std::vector<Metric> metrics;
};

Result untraced(const Workload& w, double seconds) {
  Result res;
  std::vector<double> pps;
  std::vector<double> setup;
  if (w.threaded) {
    repeat(seconds, 3, [&](bool keep) {
      const ThreadedRep r = run_threaded(w, ThreadedMode::kPlain);
      res.ledger.run("threaded", w.offered_frames(),
                     r.report.frames_transmitted, check_threaded(w, r.report));
      if (!keep) return;
      pps.push_back(ratio(static_cast<double>(r.report.frames_transmitted),
                          r.report.wall_seconds));
      setup.push_back(r.wall_seconds - r.report.wall_seconds);
    });
  } else {
    ModelReference ref;
    repeat(seconds, 3, [&](bool keep) {
      const ReplayRep r = run_endsystem(w, /*telemetry=*/false);
      std::vector<std::string> err = check_model(w, r.model);
      ref.compare(r.model, err);
      res.ledger.run("endsystem", w.offered_frames(), r.model.frames, err);
      if (!keep) return;
      pps.push_back(ratio(static_cast<double>(r.model.frames), r.loop_seconds));
      setup.push_back(r.wall_seconds - r.loop_seconds);
    });
  }
  res.metrics = {
      {"pps", "frames/s", fastest(pps)},
      {"setup_s", "s", quickest(setup)},
      {"completed_frac", "ratio",
       1.0 - ratio(static_cast<double>(res.ledger.failed),
                   static_cast<double>(res.ledger.attempted))},
  };
  return res;
}

/// Per-frame figures of one traced replica run.
struct TracedFigures {
  std::array<double, kLayerCount> self_ns_per_frame{};
  double loop_ns_per_frame = 0.0;
  double decision_p50 = 0.0;
  double decision_p99 = 0.0;
  double faults_per_frame = 0.0;
  double cpu_per_wall = 0.0;
  double refused_per_frame = 0.0;
  double frames_per_call = 0.0;
};

TracedFigures figures(const TracedRep& t) {
  TracedFigures f;
  const auto frames = static_cast<double>(t.model.frames);
  for (int l = 0; l < kLayerCount; ++l) {
    f.self_ns_per_frame[l] = ratio(static_cast<double>(t.self_ns[l]), frames);
  }
  f.loop_ns_per_frame = ratio(t.loop_seconds * 1e9, frames);
  f.decision_p50 = quantile(t.committed_decision_ns, 0.50);
  f.decision_p99 = quantile(t.committed_decision_ns, 0.99);
  f.faults_per_frame = ratio(static_cast<double>(t.minor_faults), frames);
  f.cpu_per_wall = ratio(t.cpu_seconds, t.loop_seconds);
  f.refused_per_frame = ratio(static_cast<double>(t.produce_refused), frames);
  f.frames_per_call = ratio(static_cast<double>(t.transmit_frames),
                            static_cast<double>(t.transmit_calls));
  return f;
}

/// The span tree of a traced run must be well formed: every span ends no
/// earlier than it starts, lies inside its parent, and starts no earlier
/// than its previous sibling ended.  Every self time is then non-negative.
/// (The layer self times add up to the loop wall time by construction:
/// each span adds its duration to its layer and takes it from its
/// parent's.)
std::vector<std::string> check_spans(const TracedRep& t) {
  const std::vector<Span>& spans = t.spans;
  std::uint64_t root_end = 0;
  std::uint32_t sibling_parent = kNoParent;
  std::uint64_t sibling_end = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::string bad;
    if (s.end_ns < s.start_ns) {
      bad = "ends before it starts";
    } else if (s.parent == kNoParent) {
      if (s.start_ns < root_end) bad = "overlaps the previous loop iteration";
      root_end = s.end_ns;
    } else if (s.parent >= i) {
      bad = "has a parent opened after it";
    } else {
      const Span& p = spans[s.parent];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
        bad = "lies outside its parent";
      } else if (s.parent == sibling_parent && s.start_ns < sibling_end) {
        bad = "overlaps its previous sibling";
      }
      sibling_parent = s.parent;
      sibling_end = s.end_ns;
    }
    if (!bad.empty()) {
      return {std::string(layer_name(s.layer)) + " span " + std::to_string(i) +
              " of cycle " + std::to_string(s.cycle) + " " + bad};
    }
  }
  for (int l = 0; l < kLayerCount; ++l) {
    if (t.self_ns[l] < 0) {
      return {std::string(layer_name(static_cast<Layer>(l))) +
              " self time is negative"};
    }
  }
  return {};
}

template <typename T, typename F>
double median_of(const std::vector<T>& v, F f) {
  std::vector<double> x;
  x.reserve(v.size());
  for (const T& e : v) x.push_back(f(e));
  return median(std::move(x));
}

Result traced_replay(const Workload& w, double seconds,
                     const std::string& spans_out) {
  Result res;
  // The exact-repeat checks cover the measured configuration, without
  // telemetry.  Runs with the production telemetry attached must still
  // complete every frame; whether their outcome matches is reported as
  // telemetry.model_mismatch_frac, since observation-only telemetry must
  // not change what the simulation does.
  ModelReference ref;
  std::uint64_t tel_runs = 0;
  std::uint64_t tel_mismatches = 0;
  std::vector<double> pps_plain;    // untraced, no telemetry
  std::vector<double> pps_tel;      // untraced, production telemetry
  std::vector<TracedFigures> traced;      // no telemetry
  std::vector<TracedFigures> traced_tel;  // production telemetry
  std::vector<double> traced_pps;
  std::vector<Span> last_spans;
  ModelOutcome model;
  const auto check = [&](const ModelOutcome& m, bool with_tel,
                         std::vector<std::string>& err) {
    if (!with_tel) {
      ref.compare(m, err);
      return;
    }
    ++tel_runs;
    tel_mismatches += static_cast<std::uint64_t>(!(m == ref.ref));
  };
  repeat(seconds, 1, [&](bool keep) {
    for (const bool with_tel : {false, true}) {
      const ReplayRep u = run_endsystem(w, with_tel);
      std::vector<std::string> err = check_model(w, u.model);
      check(u.model, with_tel, err);
      res.ledger.run("endsystem", w.offered_frames(), u.model.frames, err);

      TracedRep t = run_traced_replay(w, with_tel);
      err = check_model(w, t.model);
      check(t.model, with_tel, err);
      for (std::string& e : check_spans(t)) err.push_back(std::move(e));
      res.ledger.run("replica", w.offered_frames(), t.model.frames, err);
      if (!keep) continue;
      (with_tel ? pps_tel : pps_plain)
          .push_back(ratio(static_cast<double>(u.model.frames), u.loop_seconds));
      (with_tel ? traced_tel : traced).push_back(figures(t));
      if (!with_tel) {
        traced_pps.push_back(ratio(static_cast<double>(t.model.frames),
                                   t.loop_seconds));
        model = t.model;
        last_spans = std::move(t.spans);
      }
    }
  });
  if (!spans_out.empty() && !write_spans(last_spans, spans_out)) {
    res.ledger.failures.push_back("cannot write " + spans_out);
  }

  const auto layer = [&](const std::vector<TracedFigures>& v, Layer l) {
    return median_of(v, [l](const TracedFigures& f) {
      return f.self_ns_per_frame[l];
    });
  };
  const auto frames = static_cast<double>(model.frames);
  const auto added = [&](Layer l) {
    return layer(traced_tel, l) - layer(traced, l);
  };

  res.metrics = {
      {"hw.decision.ns_p50", "ns",
       median_of(traced, [](const TracedFigures& f) { return f.decision_p50; })},
      {"hw.decision.ns_p99", "ns",
       median_of(traced, [](const TracedFigures& f) { return f.decision_p99; })},
      {"hw.decision.calls_per_frame", "ratio",
       ratio(static_cast<double>(model.decision_cycles), frames)},
      {"hw.decision.idle_frac", "ratio",
       ratio(static_cast<double>(model.decision_cycles - model.committed_decisions),
             static_cast<double>(model.decision_cycles))},
      {"hw.push_request.ns_per_frame", "ns", layer(traced, kPushRequest)},
      {"hw.pci.ns_per_frame", "ns", layer(traced, kPci)},
      {"queueing.produce.ns_per_frame", "ns", layer(traced, kProduce)},
      {"queueing.produce.refused_per_frame", "ratio",
       median_of(traced, [](const TracedFigures& f) { return f.refused_per_frame; })},
      {"queueing.consume.ns_per_frame", "ns", layer(traced, kConsume)},
      {"queueing.transmit.ns_per_frame", "ns", layer(traced, kTransmit)},
      {"queueing.transmit.frames_per_call", "frames",
       median_of(traced, [](const TracedFigures& f) { return f.frames_per_call; })},
      {"core.qos_monitor.ns_per_frame", "ns", layer(traced, kQosMonitor)},
      {"core.driver.ns_per_frame", "ns", layer(traced, kDriver)},
      {"telemetry.overhead_frac", "ratio",
       1.0 - ratio(fastest(pps_tel), fastest(pps_plain))},
      {"telemetry.added_ns_per_frame.hw.decision", "ns", added(kDecision)},
      {"telemetry.added_ns_per_frame.queueing.produce", "ns", added(kProduce)},
      {"telemetry.added_ns_per_frame.queueing.transmit", "ns", added(kTransmit)},
      {"telemetry.added_ns_per_frame.core.driver", "ns", added(kDriver)},
      {"telemetry.model_mismatch_frac", "ratio",
       ratio(static_cast<double>(tel_mismatches),
             static_cast<double>(tel_runs))},
      {"process.minor_faults_per_frame", "count",
       median_of(traced, [](const TracedFigures& f) { return f.faults_per_frame; })},
      {"process.cpu_per_wall", "ratio",
       median_of(traced, [](const TracedFigures& f) { return f.cpu_per_wall; })},
      {"threaded.sched.idle_frac", "ratio", 0.0},
      {"threaded.producer.refused_per_frame", "ratio", 0.0},
      {"threaded.transmit.frames_per_call", "frames", 0.0},
      {"trace.loop_ns_per_frame", "ns",
       median_of(traced, [](const TracedFigures& f) { return f.loop_ns_per_frame; })},
      {"trace.overhead_frac", "ratio",
       1.0 - ratio(fastest(traced_pps), fastest(pps_plain))},
  };
  for (const Metric& m : model_metrics(w, model)) res.metrics.push_back(m);
  return res;
}

Result traced_threaded(const Workload& w, double seconds) {
  Result res;
  std::vector<double> pps_plain, pps_traced, pps_production;
  std::vector<ThreadedRep> traced;
  const auto frames = static_cast<double>(w.offered_frames());
  repeat(seconds, 1, [&](bool keep) {
    for (const ThreadedMode mode : {ThreadedMode::kPlain, ThreadedMode::kRegistry,
                                    ThreadedMode::kProduction}) {
      ThreadedRep r = run_threaded(w, mode);
      res.ledger.run("threaded", w.offered_frames(),
                     r.report.frames_transmitted, check_threaded(w, r.report));
      if (!keep) continue;
      const double pps = ratio(frames, r.report.wall_seconds);
      if (mode == ThreadedMode::kPlain) pps_plain.push_back(pps);
      if (mode == ThreadedMode::kProduction) pps_production.push_back(pps);
      if (mode == ThreadedMode::kRegistry) {
        pps_traced.push_back(pps);
        traced.push_back(std::move(r));
      }
    }
  });
  // Registry counts of the traced (registry-attached) runs.
  const auto count = [](const ThreadedRep& r, const char* name) {
    const auto it = r.samples.find(name);
    return it == r.samples.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const auto med = [&](const std::function<double(const ThreadedRep&)>& f) {
    return median_of(traced, f);
  };
  const double idle = med([&](const ThreadedRep& r) {
    return ratio(count(r, "chip.idle_decision_cycles"),
                 count(r, "chip.decision_cycles"));
  });
  const double refused = med([&](const ThreadedRep& r) {
    return ratio(static_cast<double>(r.report.producer_full_stalls), frames);
  });
  const double per_call = med([&](const ThreadedRep& r) {
    const auto it = r.samples.find("te.batch_size");
    return it == r.samples.end()
               ? 0.0
               : ratio(it->second.sum, static_cast<double>(it->second.count));
  });
  // No spans inside this driver: the producer thread's CPU time is the
  // produce layer's busy time, and the scheduler thread's CPU time is loop
  // self time outside every (absent) layer span.
  res.metrics = {
      {"hw.decision.ns_p50", "ns", 0.0},
      {"hw.decision.ns_p99", "ns", 0.0},
      {"hw.decision.calls_per_frame", "ratio",
       med([&](const ThreadedRep& r) {
         return ratio(count(r, "chip.decision_cycles"), frames);
       })},
      {"hw.decision.idle_frac", "ratio", idle},
      {"hw.push_request.ns_per_frame", "ns", 0.0},
      {"hw.pci.ns_per_frame", "ns", 0.0},
      {"queueing.produce.ns_per_frame", "ns",
       med([&](const ThreadedRep& r) {
         return ratio((r.cpu_seconds - r.sched_cpu_seconds) * 1e9, frames);
       })},
      {"queueing.produce.refused_per_frame", "ratio", refused},
      {"queueing.consume.ns_per_frame", "ns", 0.0},
      {"queueing.transmit.ns_per_frame", "ns", 0.0},
      {"queueing.transmit.frames_per_call", "frames", per_call},
      {"core.qos_monitor.ns_per_frame", "ns", 0.0},
      {"core.driver.ns_per_frame", "ns",
       med([&](const ThreadedRep& r) {
         return ratio(r.sched_cpu_seconds * 1e9, frames);
       })},
      {"telemetry.overhead_frac", "ratio",
       1.0 - ratio(fastest(pps_production), fastest(pps_plain))},
      {"telemetry.added_ns_per_frame.hw.decision", "ns", 0.0},
      {"telemetry.added_ns_per_frame.queueing.produce", "ns", 0.0},
      {"telemetry.added_ns_per_frame.queueing.transmit", "ns", 0.0},
      {"telemetry.added_ns_per_frame.core.driver", "ns", 0.0},
      {"telemetry.model_mismatch_frac", "ratio", 0.0},
      {"process.minor_faults_per_frame", "count",
       med([&](const ThreadedRep& r) {
         return ratio(static_cast<double>(r.minor_faults), frames);
       })},
      {"process.cpu_per_wall", "ratio",
       med([&](const ThreadedRep& r) {
         return ratio(r.cpu_seconds, r.report.wall_seconds);
       })},
      {"threaded.sched.idle_frac", "ratio", idle},
      {"threaded.producer.refused_per_frame", "ratio", refused},
      {"threaded.transmit.frames_per_call", "frames", per_call},
      {"trace.loop_ns_per_frame", "ns", ratio(1e9, fastest(pps_traced))},
      {"trace.overhead_frac", "ratio",
       1.0 - ratio(fastest(pps_traced), fastest(pps_plain))},
  };
  // The threaded driver's interleaving is not deterministic, so it has no
  // exactly repeating model outcome to report.
  for (Metric m : model_metrics(w, ModelOutcome{})) {
    m.value = 0.0;
    res.metrics.push_back(m);
  }
  return res;
}

/// Replica against Endsystem::run on small inputs, with and without
/// telemetry, plus small threaded runs; returns the failed checks.
std::vector<std::string> selfcheck(const std::vector<std::string>& names) {
  Ledger ledger;
  for (const std::string& name : names) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      const Workload w = make_workload(name, seed, /*small=*/true);
      const std::string leg = name + " seed " + std::to_string(seed);
      if (w.threaded) {
        const ThreadedRep r = run_threaded(w, ThreadedMode::kRegistry);
        ledger.run(leg, w.offered_frames(), r.report.frames_transmitted,
                   check_threaded(w, r.report));
        continue;
      }
      for (const bool tel : {false, true}) {
        ModelReference ref;
        const ReplayRep u = run_endsystem(w, tel);
        std::vector<std::string> err = check_model(w, u.model);
        ref.compare(u.model, err);
        const TracedRep t = run_traced_replay(w, tel);
        for (std::string& e : check_model(w, t.model)) err.push_back(std::move(e));
        for (std::string& e : check_spans(t)) err.push_back(std::move(e));
        ref.compare(t.model, err);
        ledger.run(leg + (tel ? " telemetry" : ""), w.offered_frames(),
                   t.model.frames, err);
      }
    }
  }
  return ledger.failures;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += ledger.failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted);
  out += ", \"failed\": " + std::to_string(ledger.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i ? ", " : "") + json_string(metrics[i].name) + ": {\"value\": " +
           buf + ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  out += "}, \"checks\": [";
  for (std::size_t i = 0; i < ledger.failures.size(); ++i) {
    out += (i ? ", " : "") + json_string(ledger.failures[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: ss_perfbench --workload W --seed S --seconds T "
               "--trace 0|1 [--spans-out FILE] [--small]\n"
               "       ss_perfbench --selfcheck [WORKLOAD...]\n");
  return 2;
}

int run_main(int argc, char** argv) {
  std::string workload;
  std::string spans_out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selfcheck") {
      std::vector<std::string> names(argv + i + 1, argv + argc);
      if (names.empty()) names = workload_names();
      Ledger ledger;
      ledger.failures = selfcheck(names);
      print_result(ledger, {});
      return ledger.failures.empty() ? 0 : 1;
    } else if (a == "--small") {
      small = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--spans-out" && has_value) {
      spans_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (workload.empty() || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  const Workload w = make_workload(workload, seed, small);
  Result r;
  if (trace == 0) {
    r = untraced(w, seconds);
  } else if (w.threaded) {
    r = traced_threaded(w, seconds);
  } else {
    r = traced_replay(w, seconds, spans_out);
  }
  print_result(r.ledger, r.metrics);
  return r.ledger.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ss_perfbench: %s\n", e.what());
    return 2;
  }
}
