// Hot-row embedding cache with bounded staleness (DESIGN.md §15).
//
// Under Zipf-skewed token traffic a small set of embedding rows dominates
// every batch, yet the hybrid exchange ships each hot row through the
// AlltoAll twice per step (lookup slices forward, gradient slices back).
// The cache converts that skew directly into comm-volume reduction: the
// hottest rows are replicated full-dim on every rank, lookups serve them
// locally, and their gradients sync through one dense (chunked,
// codec-aware) AllReduce instead of the AlltoAll. Cold rows keep the
// column-partitioned hybrid path untouched.
//
// Concurrency contract: every method that touches cache state runs on the
// COMM THREAD, inside scheduled op bodies (the lookup / gradient ops via
// EmbedExchange, and the per-step "hotsync" op via step_end). The
// NegotiatedScheduler executes ops in one rank-agreed global order, which
// is what makes membership transitions epoch-consistent: every rank
// observes the same hot set at every lookup and every gradient split, so
// the shrunken collectives can never split-brain.
//
// Staleness: pending hot gradients are force-synced once they are more
// than `staleness` steps old. At staleness 0 the sync runs every step and
// the replica update is exactly the uncached shard update (the replica
// optimizer advances once per step in lockstep with the shard optimizer,
// so the modified-Adam bias correction matches; float summation order is
// the only difference). Larger bounds amortize the sync AllReduce over
// staleness+1 steps and relax exactness measurably (bench_cache).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "comm/codec.h"
#include "comm/communicator.h"
#include "embrace/partitioned_embedding.h"
#include "nn/optim.h"
#include "sparse/algo_picker.h"
#include "tensor/sparse_rows.h"
#include "tensor/tensor.h"

namespace embrace::core {

class HotRowCache {
 public:
  struct Config {
    int64_t budget_rows = 0;  // hot-set ceiling: floor(cache_frac * vocab)
    int refresh_steps = 8;    // membership epoch length (steps)
    int staleness = 1;        // max steps pending grads may age before sync
    int64_t chunk_bytes = 0;  // hot-sync AllReduce chunk granularity
  };

  // `shard` / `shard_opt` are the column-partitioned table and its
  // optimizer (borrowed; both outlive the cache) — promotion exports row
  // values + optimizer state out of them, demotion writes back.
  // `replica_opt` is the cache's own full-dim optimizer over the same
  // (vocab × dim) row space; it must be the same kind and hyperparameters
  // as `shard_opt` for the staleness-0 equivalence to hold.
  HotRowCache(PartitionedEmbedding* shard, nn::SparseOptimizer* shard_opt,
              std::unique_ptr<nn::SparseOptimizer> replica_opt, Config cfg);

  bool enabled() const { return cfg_.budget_rows > 0; }
  int64_t epoch() const { return epoch_; }
  int64_t hot_count() const { return static_cast<int64_t>(hot_rows_.size()); }
  // Sorted, unique, rank-agreed hot membership (split_by_membership input).
  const std::vector<int64_t>& hot_rows() const { return hot_rows_; }
  bool is_hot(int64_t row) const;
  // Full-dim replica values of a hot row (CHECK-fails on a cold row).
  std::span<const float> row(int64_t row) const;

  // Forward side: bumps the per-row access counters with this rank's batch
  // (the refresh vote allreduces them). Call once per lookup.
  void record_access(const std::vector<int64_t>& my_ids);

  // Backward side: stashes this rank's hot-row gradient part (already
  // 1/N-scaled by the trainer) until the next sync.
  void accumulate(SparseRows hot_part);

  // The per-step "hotsync" comm op, scheduled after the step's gradient
  // exchanges and before the next step's lookups. Forces a gradient sync
  // when the staleness bound expires and re-partitions membership every
  // refresh_steps (both decided from rank-agreed state, so every rank
  // takes the same branch). `codec` compresses the sync AllReduce's value
  // payload; `picker` (optional) prices the hot/cold split to choose the
  // cut — without one the full budget is cached.
  void step_end(comm::Communicator& comm, const comm::Codec* codec,
                const sparse::AlgoPicker* picker);

 private:
  int64_t slot_of(int64_t row) const;  // index into hot_rows_, -1 if cold
  // Allreduces pending hot gradients in one chunked AllReduce of two
  // segments (dense hot×dim values through the codec + exact presence
  // counts) and applies one kFull update to the replica. Always advances
  // the replica optimizer — also on an empty hot set — to keep its step
  // counter in lockstep with the shard optimizer's.
  void sync(comm::Communicator& comm, const comm::Codec* codec);
  // Membership epoch switch: allreduce the access vote, pick the new hot
  // set (top-count, ties to the lower row id, cut priced by `picker`),
  // then demote/promote the difference. Requires pending empty (sync
  // first).
  void refresh(comm::Communicator& comm, const sparse::AlgoPicker* picker);
  // Gathers shard values + optimizer state slices of `rows` from every
  // rank and installs them as replica rows.
  void promote(comm::Communicator& comm, const std::vector<int64_t>& rows);
  // Writes replica rows (values + state) back into this rank's shard
  // columns — pure local work, the replica is rank-agreed.
  void demote(const std::vector<int64_t>& rows);

  PartitionedEmbedding* shard_;
  nn::SparseOptimizer* shard_opt_;
  std::unique_ptr<nn::SparseOptimizer> replica_opt_;
  Config cfg_;

  std::vector<int64_t> hot_rows_;  // sorted, unique, rank-agreed
  Tensor replica_;                 // (vocab × dim); only hot rows are live
  SparseRows pending_;             // this rank's unsynced hot gradients
  std::vector<float> access_;      // per-row access counts since refresh
  int64_t epoch_ = 0;
  int steps_since_sync_ = 0;
  int steps_since_refresh_ = 0;
};

}  // namespace embrace::core
