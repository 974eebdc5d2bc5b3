// Analytic communication cost model (the α–β model of paper §4.1.2).
//
// Produces the per-operation durations consumed by the discrete-event
// training simulator, and directly regenerates Table 2 and Figure 4.
//
// Structure follows the paper's analysis with two refinements it observes
// qualitatively but does not formalize:
//  1. Topology awareness — peers on the same node exchange over PCIe; peers
//     across nodes share the node NIC (g concurrent flows divide it), which
//     is what separates Figure 4(a) (2 nodes × 4 GPUs) from 4(b) (4 × 1).
//  2. Scheme bandwidth efficiency — ring AllReduce pipelines near line
//     rate; pairwise AlltoAll/AllGather incast patterns achieve less
//     ("different communication algorithms ... influence the bandwidth
//     utilization greatly", §4.1.2). The efficiency constants are the
//     model's calibration knobs and are documented in EXPERIMENTS.md.
#pragma once

#include "simnet/topology.h"

namespace embrace::simnet {

// Fraction of peak link bandwidth achieved by each communication pattern.
struct SchemeEfficiency {
  double allreduce = 0.90;  // ring, fully pipelined
  double alltoall = 0.62;   // pairwise exchange, incast pressure
  double allgather = 0.40;  // variable-size ring gather; sizing handshake
  double ps = 0.70;         // PS push/pull streams

  // No derating: α–β constants fitted from measured deliveries already
  // include every pattern's real efficiency.
  static constexpr SchemeEfficiency measured() { return {1.0, 1.0, 1.0, 1.0}; }
};

// The one place a collective is priced: simnet's training simulator and
// the runtime's pickers (sparse::AlgoPicker) both call it. The closed forms
// are unit-agnostic: simnet passes seconds and bytes/s, the runtime µs and
// bytes/µs. Transfers at a bandwidth <= 0 are free, leaving only the α
// terms: the runtime's unmodelled link. Multi-node rings step at the lower
// of the two tier bandwidths, so such a link sets both tiers to it.
class CollectiveCostModel {
 public:
  explicit CollectiveCostModel(ClusterConfig cfg,
                               SchemeEfficiency eff = SchemeEfficiency{});

  const ClusterConfig& cluster() const { return cfg_; }
  int gpus() const { return cfg_.topo.total_gpus(); }

  // --- primitive costs, in seconds, for one collective invocation ---

  // Cost comments below use the repo-wide α–β convention: α = per-message
  // start latency (NetworkParams::latency / intra_node_latency), B = link
  // bandwidth, d = gradient density (the paper writes density as α; we
  // spell it `density` to keep α unambiguous).

  // Ring AllReduce of a dense tensor of `bytes`:
  //   2(N-1) steps of (bytes/N); per paper, 2(N-1)(M/(N·B)+α).
  // `value_scale` scales the whole ring's payload (a wire codec's
  // bytes/value ÷ 4); `chunk_bytes` > 0 splits each ring step into
  // ceil(step/chunk) messages that each pay α.
  double allreduce_dense(double bytes, double value_scale = 1.0,
                         double chunk_bytes = 0.0) const;

  // Two-level (topology-aware) AllReduce of a dense tensor of `bytes`:
  // intra-node reduce-scatter + chunk gather to the node leader, inter-node
  // ring over the `nodes` leaders, intra-node binomial broadcast — stage for
  // stage what comm::hierarchical_allreduce executes. `inter_value_scale`
  // scales only the inter-node stage, the one the runtime encodes. Falls
  // back to allreduce_dense() when the cluster is single-node or
  // single-GPU-per-node.
  double allreduce_two_level(double bytes,
                             double inter_value_scale = 1.0) const;

  // One AlltoAll pass over a table of dense size `bytes` with gradient
  // density `density`: (N-1) exchanges of density·bytes/N (§4.1.2 counts
  // the forward and backward passes separately — call this twice).
  // `sparse_overhead` multiplies the payload for COO index bytes.
  double alltoall_sparse(double bytes, double density,
                         double sparse_overhead = 1.0) const;

  // AlltoAll of already-sized payloads: per-pair payload of `pair_bytes`.
  double alltoall_pairwise(double pair_bytes) const;

  // Sparse AllGather: (N-1) sends of the full density·bytes payload.
  double allgather_sparse(double bytes, double density,
                          double sparse_overhead = 1.0) const;

  // Parameter-server round trip (push grads + pull params) with `servers`
  // shards: 2N(d·M/(S·B)+α) per the paper (S ≤ nodes).
  double ps_sparse_step(double bytes, double density, int servers,
                        double sparse_overhead = 1.0) const;
  double ps_dense_step(double bytes, int servers) const;

  // OmniReduce-style block-sparse AllReduce: ships only non-zero blocks
  // (block_bytes granularity) through a ring, paying a per-message software
  // overhead for the block fragmentation. Only defined for 1 GPU per node
  // (the restriction the paper notes); callers must check supports_omnireduce().
  double omnireduce(double bytes, double density,
                    double block_bytes = 4096.0) const;
  bool supports_omnireduce() const { return cfg_.topo.gpus_per_node == 1; }

  // Point-to-point transfer of `bytes` between two specific ranks at
  // `efficiency` of the link: the α–β per-message term.
  double p2p(double bytes, bool same_node, double efficiency = 1.0) const;

  // --- exposed internals for tests ---
  // Per-flow bandwidth for one pairwise round at node distance != 0, where
  // each GPU keeps `concurrent_remote_flows` flows through its node NIC.
  double remote_flow_bw(double efficiency, int concurrent_flows) const;
  double intra_flow_bw(double efficiency) const;

 private:
  ClusterConfig cfg_;
  SchemeEfficiency eff_;
};

}  // namespace embrace::simnet
