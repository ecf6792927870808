#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/sim_time.hpp"

namespace perfbench {
namespace {

// The benchmark's own generator (splitmix64), so the inputs of a seed do
// not move when the program's RNG changes.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : s_(seed ^ 0x9e3779b97f4a7c15ULL) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }
  /// Uniform in (0, 1].
  double unit() {
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }
  double exponential(double mean) { return -mean * std::log(unit()); }

 private:
  std::uint64_t s_;
};

ss::dwcs::StreamRequirement fair_share(double weight) {
  ss::dwcs::StreamRequirement r;
  r.kind = ss::dwcs::RequirementKind::kFairShare;
  r.weight = weight;
  r.droppable = false;
  return r;
}

/// The two Ethernet frame sizes of the paper's packet-time comparison
/// (64 B and 1500 B), one drawn per stream.
std::uint32_t frame_size(SeedRng& rng) {
  return rng.between(0, 1) ? 1500u : 64u;
}

/// Fair-share weights of the paper's Figure 8 allocation, 1:1:2:4, repeated
/// to `count` streams (a multiple of four); the seed decides which stream
/// gets which weight.
std::vector<double> paper_weights(SeedRng& rng, unsigned count) {
  std::vector<double> w;
  for (unsigned i = 0; i < count; ++i) {
    static constexpr double kRatio[4] = {1.0, 1.0, 2.0, 4.0};
    w.push_back(kRatio[i % 4]);
  }
  for (unsigned i = count; i > 1; --i) {
    std::swap(w[i - 1], w[rng.between(0, i - 1)]);
  }
  return w;
}

// Per-stream ring capacity of the replay workloads.  Rings smaller than a
// stream's backlog keep set-up cheap (the default 2^17 frames per ring is
// 3 MiB per stream, zeroed at construction); the producer refills each
// ring as grants drain it, so ring-full refusals show on the backlogged
// workloads.
constexpr std::size_t kRingCapacity = 4096;

// decide32 / block32: 32 fair-share streams, every frame queued at t=0
// (Sec. 5.2), per-stream counts proportional to weight so every stream
// stays backlogged until the common end of the run.
void backlogged32(Workload& w, std::uint64_t seed, bool small,
                  unsigned batch_depth) {
  SeedRng rng(seed);
  // Short runs: the benchmark reports the fastest of many, and the more
  // repetitions a measurement holds, the more surely one of them falls in
  // a phase without interference from other tenants of the host.
  const std::uint64_t total = small ? 4000 : 100000;
  w.es.chip.slots = 32;
  w.es.chip.block_mode = true;
  w.es.chip.batch_depth = batch_depth;
  w.es.ring_capacity = kRingCapacity;
  // One grant per decision reproduces the winner-only service order, so
  // delivered shares follow the weights up to the rounding of integer
  // request periods.  A whole-block grant serves every backlogged stream
  // once per block, so block32's shares are equal by design: reported,
  // not bounded.
  if (batch_depth == 1) w.share_error_bound = 0.10;
  const std::vector<double> weights = paper_weights(rng, 32);
  double weight_sum = 0.0;
  for (unsigned i = 0; i < 32; ++i) {
    StreamInput s;
    s.req = fair_share(weights[i]);
    s.frame_bytes = frame_size(rng);
    weight_sum += s.req.weight;
    w.streams.push_back(std::move(s));
  }
  for (StreamInput& s : w.streams) {
    const auto n = static_cast<std::uint64_t>(std::llround(
        static_cast<double>(total) * s.req.weight / weight_sum));
    s.arrivals_ns.assign(std::max<std::uint64_t>(n, 1), 0);
  }
}

// live16: 8 fair-share + 8 droppable window-constrained (loss 1/4) streams
// with seeded Poisson arrivals at 95% of the chip's packet-time rate.
// Window-constrained streams arrive at their request rate; the fair-share
// streams split the rest in proportion to weight.
void live16(Workload& w, std::uint64_t seed, bool small) {
  SeedRng rng(seed);
  constexpr double kLoad = 0.95;
  const double horizon_pt = small ? 4096.0 : static_cast<double>(1u << 17);
  w.es.chip.slots = 16;
  w.es.chip.block_mode = true;
  w.es.chip.batch_depth = 4;
  w.es.ring_capacity = kRingCapacity;
  w.es.chip.cmp_mode = ss::hw::ComparisonMode::kDwcsFull;
  // Fair-share streams are not backlogged here: their delivered shares
  // follow the seed's Poisson arrival counts, drawn in proportion to
  // weight, so the share error measures input sampling noise: reported,
  // not bounded.
  const double pt_ns = ss::packet_time_ns(w.es.ref_frame_bytes,
                                          w.es.link_gbps);
  const std::vector<double> weights = paper_weights(rng, 8);
  std::vector<double> rate(16);  // frames per packet-time
  double explicit_rate = 0.0;
  double weight_sum = 0.0;
  for (unsigned i = 0; i < 16; ++i) {
    StreamInput s;
    if (i % 2 == 0) {
      s.req = fair_share(weights[i / 2]);
      weight_sum += s.req.weight;
    } else {
      s.req.kind = ss::dwcs::RequirementKind::kWindowConstrained;
      s.req.period = static_cast<std::uint32_t>(rng.between(24, 64));
      s.req.loss_num = 1;
      s.req.loss_den = 4;
      s.req.droppable = true;
      rate[i] = 1.0 / s.req.period;
      explicit_rate += rate[i];
    }
    s.frame_bytes = frame_size(rng);
    w.streams.push_back(std::move(s));
  }
  for (unsigned i = 0; i < 16; i += 2) {
    rate[i] = (kLoad - explicit_rate) * w.streams[i].req.weight / weight_sum;
  }
  const double horizon_ns = horizon_pt * pt_ns;
  for (unsigned i = 0; i < 16; ++i) {
    const double mean_gap = pt_ns / rate[i];
    double t = rng.exponential(mean_gap);
    std::vector<std::uint64_t>& a = w.streams[i].arrivals_ns;
    while (t < horizon_ns) {
      a.push_back(static_cast<std::uint64_t>(t));
      t += rng.exponential(mean_gap);
    }
    if (a.empty()) a.push_back(0);
  }
}

// threaded16: 16 fair-share streams on the producer/scheduler driver.
void threaded16(Workload& w, std::uint64_t seed, bool small) {
  SeedRng rng(seed);
  w.threaded = true;
  w.th.chip.slots = 16;
  w.th.chip.block_mode = true;
  w.th.chip.batch_depth = 4;
  w.th.frame_bytes = frame_size(rng);
  w.threaded_frames_per_stream = small ? 256 : (1u << 14);
  const std::vector<double> weights = paper_weights(rng, 16);
  for (unsigned i = 0; i < 16; ++i) {
    StreamInput s;
    s.req = fair_share(weights[i]);
    s.frame_bytes = w.th.frame_bytes;
    w.streams.push_back(std::move(s));
  }
}

}  // namespace

std::uint64_t Workload::offered_frames() const {
  if (threaded) return threaded_frames_per_stream * streams.size();
  std::uint64_t n = 0;
  for (const StreamInput& s : streams) n += s.arrivals_ns.size();
  return n;
}

std::vector<std::uint64_t> Workload::frames_per_stream() const {
  std::vector<std::uint64_t> n;
  n.reserve(streams.size());
  for (const StreamInput& s : streams) {
    n.push_back(threaded ? threaded_frames_per_stream : s.arrivals_ns.size());
  }
  return n;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"decide32", "block32",
                                                 "live16", "threaded16"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool small) {
  Workload w;
  w.name = name;
  // Aggregate-only QoS accounting: streaming delay histograms instead of
  // per-frame series, so memory does not scale with run length.
  w.es.keep_series = false;
  w.es.delay_histogram = true;
  if (name == "decide32") {
    backlogged32(w, seed, small, 1);
  } else if (name == "block32") {
    backlogged32(w, seed, small, 0);
  } else if (name == "live16") {
    live16(w, seed, small);
  } else if (name == "threaded16") {
    threaded16(w, seed, small);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

ProductionTelemetry::ProductionTelemetry(std::uint32_t streams)
    : audit(streams), series(registry), watchdog(series, &audit) {
  // Both drivers bind the audit counters into the registry they are given.
  audit.set_sampling(64);
}

}  // namespace perfbench
