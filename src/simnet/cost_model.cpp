#include "simnet/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace embrace::simnet {
namespace {

// Time to move `bytes` at `bw`; a bandwidth <= 0 moves them for free.
double transfer(double bytes, double bw) { return bw > 0.0 ? bytes / bw : 0.0; }

}  // namespace

CollectiveCostModel::CollectiveCostModel(ClusterConfig cfg,
                                         SchemeEfficiency eff)
    : cfg_(std::move(cfg)), eff_(eff) {
  EMBRACE_CHECK_GE(cfg_.topo.nodes, 1);
  EMBRACE_CHECK_GE(cfg_.topo.gpus_per_node, 1);
}

double CollectiveCostModel::remote_flow_bw(double efficiency,
                                           int concurrent_flows) const {
  EMBRACE_CHECK_GE(concurrent_flows, 1);
  return efficiency * cfg_.net.inter_node_bw /
         static_cast<double>(concurrent_flows);
}

double CollectiveCostModel::intra_flow_bw(double efficiency) const {
  return efficiency * cfg_.net.intra_node_bw;
}

double CollectiveCostModel::allreduce_dense(double bytes, double value_scale,
                                            double chunk_bytes) const {
  const int n = gpus();
  if (n == 1) return 0.0;
  const double chunk = bytes * value_scale / n;
  const double msgs =
      chunk_bytes > 0.0 ? std::max(1.0, std::ceil(chunk / chunk_bytes)) : 1.0;
  // NCCL-style ring places each node's GPUs consecutively: per step exactly
  // one flow crosses each NIC, so the step bandwidth is the slower of the
  // PCIe hop and the (unshared) inter-node hop. Single-node rings never
  // leave PCIe.
  const double step_bw =
      cfg_.topo.nodes == 1
          ? intra_flow_bw(eff_.allreduce)
          : std::min(intra_flow_bw(eff_.allreduce),
                     remote_flow_bw(eff_.allreduce, 1));
  return 2.0 * (n - 1) *
         (transfer(chunk, step_bw) + msgs * cfg_.net.latency);
}

double CollectiveCostModel::alltoall_pairwise(double pair_bytes) const {
  const int n = gpus();
  if (n == 1) return 0.0;
  const int g = cfg_.topo.gpus_per_node;
  const int local_rounds = g - 1;
  const int remote_rounds = (n - 1) - local_rounds;
  double t = 0.0;
  if (local_rounds > 0) {
    t += local_rounds * (transfer(pair_bytes, intra_flow_bw(eff_.alltoall)) +
                         cfg_.net.latency);
  }
  if (remote_rounds > 0) {
    // In a remote round every GPU on the node sends off-node concurrently,
    // so g flows share the NIC.
    t += remote_rounds *
         (transfer(pair_bytes, remote_flow_bw(eff_.alltoall, g)) +
          cfg_.net.latency);
  }
  return t;
}

double CollectiveCostModel::allreduce_two_level(
    double bytes, double inter_value_scale) const {
  const int nodes = cfg_.topo.nodes;
  const int g = cfg_.topo.gpus_per_node;
  if (nodes <= 1 || g <= 1) return allreduce_dense(bytes, inter_value_scale);
  const double intra_bw = intra_flow_bw(eff_.allreduce);
  const double inter_bw = remote_flow_bw(eff_.allreduce, 1);
  const double a_intra = cfg_.net.intra_node_latency;
  const double a_inter = cfg_.net.latency;
  // Stage 1: intra-node ring reduce-scatter, (g-1) steps of bytes/g, then
  // the (g-1) reduced chunks converge on the node leader.
  const double chunk = bytes / g;
  double t = 2.0 * (g - 1) * (transfer(chunk, intra_bw) + a_intra);
  // Stage 2: ring AllReduce of the full node sum across the `nodes`
  // leaders; only one flow per NIC, every hop is inter-node.
  t += 2.0 * (nodes - 1) *
       (transfer(bytes * inter_value_scale / nodes, inter_bw) + a_inter);
  // Stage 3: intra-node binomial broadcast of the finished vector,
  // ceil(log2 g) rounds each moving the full payload over PCIe.
  const double rounds = std::ceil(std::log2(static_cast<double>(g)));
  t += rounds * (transfer(bytes, intra_bw) + a_intra);
  return t;
}

double CollectiveCostModel::alltoall_sparse(double bytes, double density,
                                            double sparse_overhead) const {
  const int n = gpus();
  const double pair_bytes = density * bytes * sparse_overhead / n;
  return alltoall_pairwise(pair_bytes);
}

double CollectiveCostModel::allgather_sparse(double bytes, double density,
                                             double sparse_overhead) const {
  const int n = gpus();
  if (n == 1) return 0.0;
  // NCCL-style ring allgather: N-1 steps, each forwarding the full payload
  // to the ring neighbor — the paper's (N-1)(d·M/B + α). Node-local GPUs
  // are consecutive in the ring, so exactly one flow crosses each NIC per
  // step (no NIC sharing); the variable-size gather achieves lower
  // efficiency than AllReduce's fixed-chunk pipeline (eff_.allgather).
  const double payload = density * bytes * sparse_overhead;
  const double step_bw =
      cfg_.topo.nodes == 1
          ? intra_flow_bw(eff_.allgather)
          : std::min(intra_flow_bw(eff_.allgather),
                     remote_flow_bw(eff_.allgather, 1));
  return (n - 1) * (transfer(payload, step_bw) + cfg_.net.latency);
}

double CollectiveCostModel::ps_sparse_step(double bytes, double density,
                                           int servers,
                                           double sparse_overhead) const {
  const int n = gpus();
  EMBRACE_CHECK_GE(servers, 1);
  EMBRACE_CHECK_LE(servers, cfg_.topo.nodes, << "paper assumes S <= nodes");
  // Paper: 2N(d·M/(S·B)+α). The PS endpoints live on node NICs, so B is the
  // inter-node stream bandwidth (or PCIe when only one node exists).
  const double bw = cfg_.topo.nodes == 1 ? intra_flow_bw(eff_.ps)
                                         : remote_flow_bw(eff_.ps, 1);
  const double msg = density * bytes * sparse_overhead / servers;
  // PS servers are CPU processes: every pushed and pulled payload is staged
  // through host memory (the GPU↔CPU copies the paper blames for Parallax
  // and BytePS underperformance, §5.3).
  const double staging =
      2.0 * density * bytes * sparse_overhead / cfg_.net.host_staging_bw;
  // Server-side request handling, spread across the S shards.
  const double handling =
      2.0 * n * cfg_.net.ps_request_overhead / servers;
  return 2.0 * n * (msg / bw + cfg_.net.latency) + staging + handling;
}

double CollectiveCostModel::ps_dense_step(double bytes, int servers) const {
  return ps_sparse_step(bytes, 1.0, servers, 1.0);
}

double CollectiveCostModel::omnireduce(double bytes, double density,
                                       double block_bytes) const {
  EMBRACE_CHECK(supports_omnireduce(),
                << "OmniReduce supports only 1 GPU per node (paper Fig. 4)");
  const int n = gpus();
  if (n == 1) return 0.0;
  EMBRACE_CHECK_GT(block_bytes, 0.0);
  // Block-sparse ring AllReduce: the data volume shrinks to the non-zero
  // blocks (~density of the tensor), but each ring step now moves many
  // small block messages, each paying the per-message software overhead —
  // the "insufficient bandwidth usage with excessive divided messages" the
  // paper observes.
  const double effective = density * bytes;
  const double chunk = effective / n;
  const double msgs_per_step = std::ceil(chunk / block_bytes);
  const double step_bw = remote_flow_bw(eff_.allreduce, 1);
  return 2.0 * (n - 1) *
         (chunk / step_bw + cfg_.net.latency +
          msgs_per_step * cfg_.net.per_message_overhead);
}

double CollectiveCostModel::p2p(double bytes, bool same_node,
                                double efficiency) const {
  const double bw = same_node ? intra_flow_bw(efficiency)
                              : remote_flow_bw(efficiency, 1);
  return transfer(bytes, bw) + cfg_.net.latency;
}

}  // namespace embrace::simnet
