#include "obs/perf.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace embrace::obs {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kForward: return "forward";
    case Phase::kBackward: return "backward";
    case Phase::kOptimizer: return "optimizer";
    case Phase::kCommIssue: return "comm_issue";
    case Phase::kCommWait: return "comm_wait";
    case Phase::kOther: return "other";
  }
  return "unknown";
}

void StepProfile::to_floats(std::span<float> out) const {
  EMBRACE_CHECK(out.size() >= kFloats,
                << "StepProfile::to_floats needs " << kFloats << " floats");
  out[0] = static_cast<float>(wall_ms);
  for (int i = 0; i < kNumPhases; ++i) {
    out[1 + static_cast<size_t>(i)] = static_cast<float>(phase_ms[i]);
  }
}

StepProfile StepProfile::from_floats(int rank, int step,
                                     std::span<const float> in) {
  EMBRACE_CHECK(in.size() >= kFloats,
                << "StepProfile::from_floats needs " << kFloats << " floats");
  StepProfile p;
  p.rank = rank;
  p.step = step;
  p.wall_ms = static_cast<double>(in[0]);
  for (int i = 0; i < kNumPhases; ++i) {
    p.phase_ms[i] = static_cast<double>(in[1 + static_cast<size_t>(i)]);
  }
  return p;
}

StepAccounting::StepAccounting()
    : start_(std::chrono::steady_clock::now()) {}

void StepAccounting::add(Phase p, double ms) {
  phase_ms_[static_cast<int>(p)] += std::max(ms, 0.0);
}

StepProfile StepAccounting::finish(int rank, int step) const {
  StepProfile p;
  p.rank = rank;
  p.step = step;
  const auto end = std::chrono::steady_clock::now();
  p.wall_ms =
      std::chrono::duration<double, std::milli>(end - start_).count();
  double attributed = 0.0;
  for (int i = 0; i < kNumPhases; ++i) {
    if (i == static_cast<int>(Phase::kOther)) continue;
    p.phase_ms[i] = phase_ms_[i];
    attributed += phase_ms_[i];
  }
  // Fold the unattributed remainder into kOther so the phase vector sums to
  // the wall time; nested/overlapping scopes can push `attributed` past the
  // wall, in which case kOther clamps at zero.
  p.phase_ms[static_cast<int>(Phase::kOther)] =
      std::max(p.wall_ms - attributed, 0.0);
  return p;
}

const char* bound_name(StepAggregate::Bound b) {
  switch (b) {
    case StepAggregate::Bound::kCompute: return "compute";
    case StepAggregate::Bound::kComm: return "comm";
    case StepAggregate::Bound::kStraggler: return "straggler";
  }
  return "unknown";
}

std::vector<StepAggregate> aggregate_steps(
    std::span<const StepProfile> profiles) {
  std::map<int, std::vector<const StepProfile*>> by_step;
  for (const StepProfile& p : profiles) by_step[p.step].push_back(&p);

  std::vector<StepAggregate> out;
  out.reserve(by_step.size());
  for (const auto& [step, rows] : by_step) {
    StepAggregate a;
    a.step = step;
    a.min_wall_ms = rows.front()->wall_ms;
    const StepProfile* slowest = rows.front();
    double sum = 0.0;
    for (const StepProfile* p : rows) {
      sum += p->wall_ms;
      a.min_wall_ms = std::min(a.min_wall_ms, p->wall_ms);
      if (p->wall_ms > slowest->wall_ms) slowest = p;
    }
    a.max_wall_ms = slowest->wall_ms;
    a.mean_wall_ms = sum / static_cast<double>(rows.size());
    a.skew_ms = a.max_wall_ms - a.min_wall_ms;
    a.slowest_rank = slowest->rank;
    a.comm_wait_frac =
        a.max_wall_ms > 0.0 ? slowest->stall_ms() / a.max_wall_ms : 0.0;
    if (a.mean_wall_ms > 0.0 && a.skew_ms > 0.25 * a.mean_wall_ms) {
      a.bound = StepAggregate::Bound::kStraggler;
    } else if (a.comm_wait_frac > 0.30) {
      a.bound = StepAggregate::Bound::kComm;
    } else {
      a.bound = StepAggregate::Bound::kCompute;
    }
    out.push_back(a);
  }
  return out;
}

void LinkProfiler::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

bool LinkProfiler::enabled() const {
  return enabled_.load(std::memory_order_relaxed);
}

void LinkProfiler::record(int src, int dst, int64_t bytes, double micros) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Stats& s = links_[{src, dst}];
  s.n += 1;
  const auto [it, fresh] = s.min_us.try_emplace(bytes, micros);
  if (!fresh) it->second = std::min(it->second, micros);
}

LinkFit LinkProfiler::solve(int src, int dst, const Stats& s) {
  LinkFit f;
  f.src = src;
  f.dst = dst;
  f.samples = s.n;
  if (s.n == 0) return f;
  double sum_x = 0.0, sum_y = 0.0, sum_xx = 0.0, sum_xy = 0.0;
  for (const auto& [bytes, micros] : s.min_us) {
    const double x = static_cast<double>(bytes);
    sum_x += x;
    sum_y += micros;
    sum_xx += x * x;
    sum_xy += x * micros;
  }
  const double n = static_cast<double>(s.min_us.size());
  const double det = n * sum_xx - sum_x * sum_x;
  // The determinant is n² · Var(bytes); with one message size it is
  // exactly 0 in real arithmetic but can come out as a tiny positive float
  // residue, whose division would then launder rounding noise into an
  // arbitrary bytes_per_us. A relative threshold against n·Σx² (the
  // determinant's own magnitude scale) catches both the exact and the
  // residue case.
  if (s.min_us.size() < 2 || det <= 1e-9 * n * sum_xx) {
    // No slope is identifiable: report the mean cost as pure latency and
    // flag the fit so aggregation skips it.
    f.alpha_us = sum_y / n;
    f.degenerate = true;
    return f;
  }
  const double slope = (n * sum_xy - sum_x * sum_y) / det;  // µs/byte
  f.alpha_us = (sum_y - slope * sum_x) / n;
  f.bytes_per_us = slope > 0.0 ? 1.0 / slope : 0.0;
  f.alpha_us = std::max(f.alpha_us, 0.0);
  return f;
}

LinkFit LinkProfiler::fit(int src, int dst) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = links_.find({src, dst});
  if (it == links_.end()) {
    LinkFit f;
    f.src = src;
    f.dst = dst;
    return f;
  }
  return solve(src, dst, it->second);
}

std::vector<LinkFit> LinkProfiler::fits(int64_t min_samples) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<LinkFit> out;
  for (const auto& [key, stats] : links_) {
    if (stats.n < min_samples) continue;
    out.push_back(solve(key.first, key.second, stats));
  }
  return out;
}

LinkFit LinkProfiler::aggregate_fit(int64_t min_samples) const {
  const std::vector<LinkFit> per_link = fits(min_samples);
  LinkFit agg;
  agg.src = -1;
  agg.dst = -1;
  if (per_link.empty()) return agg;
  double alpha_sum = 0.0;
  double bw_sum = 0.0;
  int64_t alpha_links = 0;
  int64_t bw_links = 0;
  for (const LinkFit& f : per_link) {
    // A degenerate fit's α is the mean cost at one message size — folding
    // it in would bias the fleet α upward by that size's transfer time.
    if (f.degenerate) continue;
    agg.samples += f.samples;
    alpha_sum += f.alpha_us;
    alpha_links += 1;
    if (f.bytes_per_us > 0.0) {
      bw_sum += f.bytes_per_us;
      bw_links += 1;
    }
  }
  if (alpha_links == 0) return agg;  // samples == 0: nothing usable
  agg.alpha_us = alpha_sum / static_cast<double>(alpha_links);
  // Links where no slope was identifiable contribute latency only; if none
  // identified a slope the aggregate stays bandwidth-free (0 = unmodeled).
  if (bw_links > 0) agg.bytes_per_us = bw_sum / static_cast<double>(bw_links);
  return agg;
}

void LinkProfiler::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  links_.clear();
}

LinkProfiler& link_profiler() {
  static LinkProfiler* g = new LinkProfiler();  // leaked, exit-safe
  return *g;
}

}  // namespace embrace::obs
