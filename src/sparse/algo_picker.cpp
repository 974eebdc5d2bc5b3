#include "sparse/algo_picker.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace embrace::sparse {
namespace {

// Wire size of a sparse payload over a (rows × dim) space at `density`:
// header + indices (8B/row) + values (value_bytes per element — 4 raw,
// less under a wire codec; sparse_collectives.h keeps header and indices
// uncompressed).
double sparse_payload_bytes(double density, int64_t rows, int64_t dim,
                            double value_bytes) {
  const double nnz = density * static_cast<double>(rows);
  return 24.0 + nnz * (8.0 + value_bytes * static_cast<double>(dim));
}

// The runtime's fabric in the cost model's terms (µs, bytes/µs): `topo`
// with `link` as the inter-node tier and `intra` as the intra-node one.
simnet::CollectiveCostModel cost_model(const CostParams& p,
                                       simnet::ClusterTopology topo,
                                       const comm::LinkCost& intra) {
  simnet::ClusterConfig cfg;
  cfg.topo = topo;
  cfg.net.inter_node_bw = p.link.bytes_per_us;
  cfg.net.latency = p.link.alpha_us;
  cfg.net.intra_node_bw = intra.bytes_per_us;
  cfg.net.intra_node_latency = intra.alpha_us;
  return simnet::CollectiveCostModel(cfg, p.eff);
}

// The flat fabric: `world` single-GPU nodes, both tiers the one link, so
// every hop (simnet's slower-of-the-two-tiers included) runs at the link.
simnet::CollectiveCostModel flat_model(const CostParams& p, int world) {
  return cost_model(p, {world, 1}, p.link);
}

obs::Counter& picks_counter(comm::SparseAlgoKind k) {
  switch (k) {
    case comm::SparseAlgoKind::kSplitAllgather: {
      static obs::Counter& c = obs::counter("sparse.algo.picks{algo=allgather}");
      return c;
    }
    case comm::SparseAlgoKind::kRecursiveDoubling: {
      static obs::Counter& c =
          obs::counter("sparse.algo.picks{algo=recursive-doubling}");
      return c;
    }
    case comm::SparseAlgoKind::kTwoLevelRing: {
      static obs::Counter& c =
          obs::counter("sparse.algo.picks{algo=two-level}");
      return c;
    }
    case comm::SparseAlgoKind::kDenseRing:
    default: {
      static obs::Counter& c = obs::counter("sparse.algo.picks{algo=dense}");
      return c;
    }
  }
}

obs::Counter& bytes_counter(comm::SparseAlgoKind k) {
  switch (k) {
    case comm::SparseAlgoKind::kSplitAllgather: {
      static obs::Counter& c = obs::counter("sparse.algo.bytes{algo=allgather}");
      return c;
    }
    case comm::SparseAlgoKind::kRecursiveDoubling: {
      static obs::Counter& c =
          obs::counter("sparse.algo.bytes{algo=recursive-doubling}");
      return c;
    }
    case comm::SparseAlgoKind::kTwoLevelRing: {
      static obs::Counter& c =
          obs::counter("sparse.algo.bytes{algo=two-level}");
      return c;
    }
    case comm::SparseAlgoKind::kDenseRing:
    default: {
      static obs::Counter& c = obs::counter("sparse.algo.bytes{algo=dense}");
      return c;
    }
  }
}

// Union density of k independent draws at density d: 1 − (1−d)^k.
// Clamped because the float pow can land an ulp outside [0, 1] at the
// extremes (d → 1⁻ or huge k), and a negative density would flow into
// sparse_payload_bytes as a negative byte count. k is a double so callers
// can pass 2^r for r up to the 1024-rank world's log₂ without relying on
// `1 << r` integer widening.
double merged_density(double d, double k) {
  return std::clamp(1.0 - std::pow(1.0 - d, k), 0.0, 1.0);
}

}  // namespace

std::optional<AlgoMode> parse_sparse_algo(std::string_view s) {
  if (s == "auto") return AlgoMode::kAuto;
  if (s == "allgather") return AlgoMode::kForceAllgather;
  if (s == "recursive-doubling") return AlgoMode::kForceRecursiveDoubling;
  if (s == "dense") return AlgoMode::kForceDense;
  if (s == "two-level") return AlgoMode::kForceTwoLevel;
  return std::nullopt;
}

const char* algo_mode_name(AlgoMode m) {
  switch (m) {
    case AlgoMode::kAuto: return "auto";
    case AlgoMode::kForceAllgather: return "allgather";
    case AlgoMode::kForceRecursiveDoubling: return "recursive-doubling";
    case AlgoMode::kForceDense: return "dense";
    case AlgoMode::kForceTwoLevel: return "two-level";
  }
  return "?";
}

CostParams CostParams::from_simnet_defaults() {
  const simnet::NetworkParams net;  // single source of truth with the sim
  CostParams p;
  p.link.alpha_us = net.latency * 1e6;
  p.link.bytes_per_us = net.inter_node_bw / 1e6;
  p.intra.alpha_us = net.intra_node_latency * 1e6;
  p.intra.bytes_per_us = net.intra_node_bw / 1e6;
  return p;
}

std::optional<CostParams> CostParams::from_measured(
    const obs::LinkProfiler& profiler, int64_t min_samples) {
  const obs::LinkFit agg = profiler.aggregate_fit(min_samples);
  if (agg.samples == 0) return std::nullopt;
  CostParams p;
  p.link.alpha_us = agg.alpha_us;
  p.link.bytes_per_us = agg.bytes_per_us;
  // A measured fit is observed end-to-end delivery time, so every real
  // derating (incast, pipelining, software overhead) is already folded into
  // the fitted α–β; applying simnet's per-scheme efficiency factors on top
  // would double-count it.
  p.eff = simnet::SchemeEfficiency::measured();
  return p;
}

DensityEstimate DensityEstimate::independent(double per_rank, int world) {
  DensityEstimate est;
  est.per_rank = std::clamp(per_rank, 0.0, 1.0);
  est.merged = merged_density(est.per_rank, static_cast<double>(world));
  return est;
}

DensityEstimate DensityEstimate::from_allreduced(double sum_density,
                                                 double sum_log1m,
                                                 int world) {
  EMBRACE_CHECK_GE(world, 1);
  DensityEstimate est;
  est.per_rank =
      std::clamp(sum_density / static_cast<double>(world), 0.0, 1.0);
  // exp(Σ log(1−d_r)) is the exact miss probability when rows are drawn
  // independently *per the actual density distribution* — unlike raising
  // the mean to the world'th power, it is not fooled by skew (one d_r = 0.9
  // rank among near-zero ranks yields a union ≥ 0.9, where the mean-based
  // form predicts far less). A d_r = 1 rank contributes −inf and exp gives
  // a union of exactly 1. The clamp enforces the overlap-free bounds that
  // hold for ANY correlation structure: union ∈ [max d_r ≥ d̄, min(1, Σd_r)].
  const double independent_union = 1.0 - std::exp(sum_log1m);
  est.merged = std::clamp(independent_union, est.per_rank,
                          std::min(1.0, std::max(sum_density, 0.0)));
  return est;
}

AlgoPicker::AlgoPicker(AlgoMode mode, CostParams params, int64_t chunk_bytes)
    : mode_(mode), params_(params), chunk_bytes_(chunk_bytes) {}

void AlgoPicker::set_codec_cost(double wire_bytes_per_value) {
  EMBRACE_CHECK_GT(wire_bytes_per_value, 0.0);
  value_bytes_ = wire_bytes_per_value;
}

double AlgoPicker::predict_us(comm::SparseAlgoKind algo, double density,
                              int64_t rows, int64_t dim, int world) const {
  return predict_us(algo, DensityEstimate::independent(density, world), rows,
                    dim, world);
}

double AlgoPicker::predict_us(comm::SparseAlgoKind algo,
                              const DensityEstimate& est, int64_t rows,
                              int64_t dim, int world) const {
  EMBRACE_CHECK_GE(world, 1);
  const double density = std::clamp(est.per_rank, 0.0, 1.0);
  const double merged_full = std::clamp(est.merged, density, 1.0);
  if (world == 1) return 0.0;
  const simnet::CollectiveCostModel flat = flat_model(params_, world);
  const double vb = value_bytes_;
  const double dense_bytes =
      4.0 * static_cast<double>(rows) * static_cast<double>(dim);
  switch (algo) {
    case comm::SparseAlgoKind::kSplitAllgather:
      // Each rank ships its whole payload to every peer: (N−1)(α + S/B).
      // Per-rank payload sizes add linearly, so the *mean* per-rank density
      // prices the total volume exactly regardless of overlap structure.
      return flat.allgather_sparse(
          sparse_payload_bytes(density, rows, dim, vb), /*density=*/1.0);
    case comm::SparseAlgoKind::kRecursiveDoubling: {
      // Round r exchanges the merge of 2^r ranks' rows. Its density is
      // bracketed by the independent-rows union of the per-rank mean from
      // below and the measured final union from above, with the in-between
      // rounds ramped as 1 − (1−merged)^(2^r/p) — calibrated to land on
      // the measured union at the last round, and reducing exactly to the
      // old 1 − (1−d)^(2^r) form when the estimate itself is the
      // independence one. Non-power-of-two worlds add a fold-in leg (one
      // per-rank payload) and a return leg (the full merged result) on the
      // critical path. Each exchange is one message, priced by the model's
      // α–β term at the pairwise-exchange efficiency.
      const auto message_us = [&](double payload_density) {
        return flat.p2p(sparse_payload_bytes(payload_density, rows, dim, vb),
                        /*same_node=*/false, params_.eff.alltoall);
      };
      const int p = std::bit_floor(static_cast<unsigned>(world));
      const int rounds = std::countr_zero(static_cast<unsigned>(p));
      double t = 0.0;
      for (int r = 0; r < rounds; ++r) {
        // 2^r via ldexp: round counts reach 10 at 1024 ranks and the shift
        // form `1 << r` is one refactor away from widening UB.
        const double k = std::ldexp(1.0, r);
        const double ramp =
            1.0 - std::pow(1.0 - merged_full, k / static_cast<double>(p));
        t += message_us(std::min(merged_full,
                                 std::max(merged_density(density, k), ramp)));
      }
      if (p < world) t += message_us(density) + message_us(merged_full);
      return t;
    }
    case comm::SparseAlgoKind::kTwoLevelRing:
      // Only the inter-node leader stage is encoded
      // (hierarchical_collectives.h keeps the intra stages exact).
      if (params_.nodes > 1 && params_.gpus_per_node > 1) {
        return cost_model(params_, {params_.nodes, params_.gpus_per_node},
                          params_.intra)
            .allreduce_two_level(dense_bytes, vb / 4.0);
      }
      // With no node structure the runtime runs the flat dense ring.
      [[fallthrough]];
    case comm::SparseAlgoKind::kDenseRing:
      // The runtime encodes every ring slice under the active codec and
      // splits each ring step into chunk_bytes messages.
      return flat.allreduce_dense(dense_bytes, vb / 4.0,
                                  static_cast<double>(chunk_bytes_));
  }
  return 0.0;
}

double AlgoPicker::predict_hot_split_us(int64_t hot_rows,
                                        double hot_access_frac,
                                        double tokens_per_step, int64_t dim,
                                        int world, int sync_every) const {
  // Single rank: every path is local, all cuts price alike (the caller's
  // ascending-grid tie-break then keeps the cache off, which is right —
  // there is no wire to save).
  if (world <= 1) return 0.0;
  const simnet::CollectiveCostModel flat = flat_model(params_, world);
  const double vb = value_bytes_;
  const double d = static_cast<double>(dim);
  // Cold AlltoAll, both legs per step, over each rank's cold tokens spread
  // evenly across the world: the lookup ships exact fp32 row slices, the
  // gradient leg codec-priced values plus 8-byte indices.
  const double pair_tokens =
      tokens_per_step * (1.0 - hot_access_frac) / world / world;
  double t = flat.alltoall_pairwise(pair_tokens * d * 4.0) +
             flat.alltoall_pairwise(pair_tokens * (d * vb + 8.0));
  // Hot sync: a dense ring AllReduce over (hot_rows × dim) codec-priced
  // values plus exact presence floats, amortized over the staleness
  // window. Its α term is what makes small cuts lose on latency-bound
  // links — an extra collective must earn its startup cost.
  if (hot_rows > 0) {
    t += flat.allreduce_dense(static_cast<double>(hot_rows) * (d * vb + 4.0)) /
         static_cast<double>(sync_every < 1 ? 1 : sync_every);
  }
  return t;
}

double AlgoPicker::crossover_density(int64_t rows, int64_t dim,
                                     int world) const {
  // Equate (N−1)(α + dR(8+vD)/(β·ag)) with 2(N−1)(α + vRD/(N·β·ar)),
  // dropping the constant header (v = value_bytes; both paths encode their
  // value sections, so v appears on both sides). With no bandwidth model
  // (β = 0) both sides are pure latency and the dense ring (2× the latency
  // terms) never wins: the sparse format is free at any density.
  if (world <= 1 || rows <= 0 || dim <= 0) return 1.0;
  const double beta = params_.link.bytes_per_us;
  if (beta <= 0.0) return 1.0;
  const double r = static_cast<double>(rows);
  const double d = static_cast<double>(dim);
  const double n = static_cast<double>(world);
  const double ag = params_.eff.allgather;
  const double ar = params_.eff.allreduce;
  const double vb = value_bytes_;
  const double crossover =
      (params_.link.alpha_us * beta * ag +
       2.0 * vb * r * d * ag / (n * ar)) /
      (r * (8.0 + vb * d));
  return std::clamp(crossover, 0.0, 1.0);
}

AlgoChoice AlgoPicker::choose(double density, int64_t rows, int64_t dim,
                              int world) const {
  return choose(DensityEstimate::independent(density, world), rows, dim,
                world);
}

AlgoChoice AlgoPicker::choose(const DensityEstimate& est, int64_t rows,
                              int64_t dim, int world) const {
  AlgoChoice choice;
  choice.chunk_bytes = chunk_bytes_;
  switch (mode_) {
    case AlgoMode::kForceAllgather:
      choice.algo = comm::SparseAlgoKind::kSplitAllgather;
      break;
    case AlgoMode::kForceRecursiveDoubling:
      choice.algo = comm::SparseAlgoKind::kRecursiveDoubling;
      break;
    case AlgoMode::kForceDense:
      choice.algo = comm::SparseAlgoKind::kDenseRing;
      break;
    case AlgoMode::kForceTwoLevel:
      choice.algo = comm::SparseAlgoKind::kTwoLevelRing;
      break;
    case AlgoMode::kAuto: {
      // Fixed candidate order makes ties deterministic (and rank-agreed).
      // Two-level only competes when the params describe a real two-tier
      // layout — every rank derives nodes/gpus_per_node from the shared
      // fabric topology, so the candidate set itself is rank-agreed too.
      constexpr comm::SparseAlgoKind kCandidates[] = {
          comm::SparseAlgoKind::kSplitAllgather,
          comm::SparseAlgoKind::kRecursiveDoubling,
          comm::SparseAlgoKind::kDenseRing,
          comm::SparseAlgoKind::kTwoLevelRing,
      };
      const bool two_tier = params_.nodes > 1 && params_.gpus_per_node > 1;
      double best = -1.0;
      for (comm::SparseAlgoKind k : kCandidates) {
        if (k == comm::SparseAlgoKind::kTwoLevelRing && !two_tier) continue;
        const double cost = predict_us(k, est, rows, dim, world);
        if (best < 0.0 || cost < best) {
          best = cost;
          choice.algo = k;
        }
      }
      break;
    }
  }
  choice.predicted_us = predict_us(choice.algo, est, rows, dim, world);
  return choice;
}

void AlgoPicker::record(const AlgoChoice& choice, int64_t wire_bytes) {
  picks_counter(choice.algo).increment();
  bytes_counter(choice.algo).add(wire_bytes);
  obs::emit_instant("sparse.algo_pick", "algo",
                    static_cast<int64_t>(choice.algo), "bytes", wire_bytes);
}

}  // namespace embrace::sparse
