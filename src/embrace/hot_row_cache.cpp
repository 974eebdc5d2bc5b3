#include "embrace/hot_row_cache.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "comm/chunked_collectives.h"
#include "common/error.h"
#include "obs/metrics.h"

namespace embrace::core {
namespace {

// Logical payload bytes of one sync / promotion leg, counted into
// embed.cache.sync_bytes on every rank (the same per-rank basis the
// embed.exchange.bytes counters use, so bench_cache can compare cached
// and uncached wire volume directly).
obs::Counter& sync_bytes_counter() {
  static obs::Counter& c = obs::counter("embed.cache.sync_bytes");
  return c;
}

}  // namespace

HotRowCache::HotRowCache(PartitionedEmbedding* shard,
                         nn::SparseOptimizer* shard_opt,
                         std::unique_ptr<nn::SparseOptimizer> replica_opt,
                         Config cfg)
    : shard_(shard),
      shard_opt_(shard_opt),
      replica_opt_(std::move(replica_opt)),
      cfg_(cfg),
      replica_({shard->vocab(), shard->dim()}),
      pending_(SparseRows::empty(shard->vocab(), shard->dim())),
      access_(static_cast<size_t>(shard->vocab()), 0.0f) {
  EMBRACE_CHECK_GE(cfg_.refresh_steps, 1);
  EMBRACE_CHECK_GE(cfg_.staleness, 0);
}

bool HotRowCache::is_hot(int64_t row) const {
  return std::binary_search(hot_rows_.begin(), hot_rows_.end(), row);
}

int64_t HotRowCache::slot_of(int64_t row) const {
  const auto it = std::lower_bound(hot_rows_.begin(), hot_rows_.end(), row);
  if (it == hot_rows_.end() || *it != row) return -1;
  return it - hot_rows_.begin();
}

std::span<const float> HotRowCache::row(int64_t row) const {
  EMBRACE_CHECK(is_hot(row), << "row " << row << " is not cached");
  return replica_.row(row);
}

void HotRowCache::record_access(const std::vector<int64_t>& my_ids) {
  for (int64_t id : my_ids) {
    EMBRACE_CHECK(id >= 0 && id < shard_->vocab(), << "id out of vocab");
    access_[static_cast<size_t>(id)] += 1.0f;
  }
}

void HotRowCache::accumulate(SparseRows hot_part) {
  if (hot_part.empty()) return;
  pending_ = SparseRows::concat(pending_, hot_part);
}

void HotRowCache::step_end(comm::Communicator& comm, const comm::Codec* codec,
                           const sparse::AlgoPicker* picker) {
  ++steps_since_sync_;
  const bool refresh_due = ++steps_since_refresh_ >= cfg_.refresh_steps;
  // Both branches depend only on rank-agreed state (local step counters
  // advance identically everywhere), so every rank enters the same
  // collectives in the same order.
  if (steps_since_sync_ > cfg_.staleness || refresh_due) sync(comm, codec);
  if (refresh_due) {
    refresh(comm, picker);
    steps_since_refresh_ = 0;
  }
}

void HotRowCache::sync(comm::Communicator& comm, const comm::Codec* codec) {
  static obs::Counter& syncs = obs::counter("embed.cache.syncs");
  syncs.increment();
  steps_since_sync_ = 0;
  const int64_t vocab = shard_->vocab();
  const int64_t dim = shard_->dim();
  const int64_t hot = hot_count();
  if (hot == 0) {
    // Nothing cached yet (or the picker chose an empty cut). Still apply
    // an empty update: the replica optimizer's step counter must advance
    // in lockstep with the shard optimizer's, or Adam's bias correction
    // would diverge for rows promoted later.
    EMBRACE_CHECK(pending_.empty(), << "pending gradients without a hot set");
    replica_opt_->apply(replica_, SparseRows::empty(vocab, dim),
                        nn::SparseStep::kFull);
    return;
  }
  // Scatter this rank's pending gradients into a dense (hot × dim) block
  // plus a presence vector, laid end to end in one buffer and reduced by
  // one chunked AllReduce as two segments: the values ride the codec (the
  // same wire the dense gradients use); presence travels exact, as a
  // null-codec segment — it decides which rows the optimizer sees (absent
  // rows must not decay Adam's moments), and a lossy codec must not
  // corrupt membership.
  std::vector<float> wire(static_cast<size_t>(hot * dim + hot), 0.0f);
  const std::span<float> values(wire.data(), static_cast<size_t>(hot * dim));
  const std::span<float> presence(wire.data() + hot * dim,
                                  static_cast<size_t>(hot));
  const SparseRows mine = pending_.coalesced();
  pending_ = SparseRows::empty(vocab, dim);
  for (int64_t k = 0; k < mine.nnz_rows(); ++k) {
    const int64_t slot = slot_of(mine.indices()[static_cast<size_t>(k)]);
    EMBRACE_CHECK_GE(slot, 0, << "pending gradient for a cold row");
    auto src = mine.values().row(k);
    std::copy(src.begin(), src.end(),
              values.begin() + static_cast<ptrdiff_t>(slot * dim));
    presence[static_cast<size_t>(slot)] = 1.0f;
  }
  const comm::Segment segments[] = {{.elems = hot * dim, .codec = codec},
                                    {.elems = hot}};
  comm::allreduce_chunked(comm, wire, segments, cfg_.chunk_bytes);
  sync_bytes_counter().add(hot * dim * 4 + hot * 4);
  // Assemble the coalesced union gradient (rows any rank touched) and
  // apply it as one full update — the replica stays bit-identical across
  // ranks because every input to this apply is the allreduced result.
  std::vector<int64_t> rows;
  std::vector<float> vals;
  for (int64_t slot = 0; slot < hot; ++slot) {
    if (presence[static_cast<size_t>(slot)] <= 0.0f) continue;
    rows.push_back(hot_rows_[static_cast<size_t>(slot)]);
    const auto* begin = values.data() + slot * dim;
    vals.insert(vals.end(), begin, begin + dim);
  }
  const int64_t n = static_cast<int64_t>(rows.size());
  replica_opt_->apply(
      replica_, SparseRows(vocab, std::move(rows), Tensor({n, dim}, std::move(vals))),
      nn::SparseStep::kFull);
}

void HotRowCache::refresh(comm::Communicator& comm,
                          const sparse::AlgoPicker* picker) {
  static obs::Histogram& frac_hist = obs::histogram(
      "embed.cache.hot_access_frac",
      std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  EMBRACE_CHECK(pending_.empty(), << "refresh requires a forced sync first");
  ++epoch_;
  const int64_t vocab = shard_->vocab();
  const int64_t dim = shard_->dim();
  // The epoch vote: allreduce the per-row access counters so every rank
  // ranks rows by the same global counts. The ring AllReduce is
  // deterministic, so even float ties resolve identically everywhere.
  std::vector<float> votes = access_;
  std::fill(access_.begin(), access_.end(), 0.0f);
  comm.allreduce(votes);
  double total = 0.0;
  std::vector<int64_t> order;
  for (int64_t r = 0; r < vocab; ++r) {
    const float v = votes[static_cast<size_t>(r)];
    total += v;
    if (v > 0.0f) order.push_back(r);
  }
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const float va = votes[static_cast<size_t>(a)];
    const float vb = votes[static_cast<size_t>(b)];
    if (va != vb) return va > vb;
    return a < b;  // deterministic tie-break: lower row id wins
  });
  const int64_t budget =
      std::min(cfg_.budget_rows, static_cast<int64_t>(order.size()));
  // Choose the cut. With a picker, price a small candidate grid of cut
  // sizes through the collective cost model (hot AllReduce amortized over
  // the staleness window vs the shrunken cold AlltoAll) and take the
  // cheapest; all pricing inputs are rank-agreed, so every rank lands on
  // the same cut.
  int64_t cut = budget;
  if (picker != nullptr && total > 0.0) {
    std::vector<double> prefix(static_cast<size_t>(budget) + 1, 0.0);
    for (int64_t k = 0; k < budget; ++k) {
      prefix[static_cast<size_t>(k + 1)] =
          prefix[static_cast<size_t>(k)] +
          static_cast<double>(votes[static_cast<size_t>(order[static_cast<size_t>(k)])]);
    }
    const double tokens_per_step = total / cfg_.refresh_steps;
    double best = std::numeric_limits<double>::infinity();
    int64_t prev = -1;
    for (int grid = 0; grid <= 4; ++grid) {
      const int64_t k = budget * grid / 4;
      if (k == prev) continue;  // dedup small budgets
      prev = k;
      const double cost = picker->predict_hot_split_us(
          k, prefix[static_cast<size_t>(k)] / total, tokens_per_step, dim,
          comm.size(), cfg_.staleness + 1);
      if (cost < best) {  // ascending grid: ties keep the smaller cut
        best = cost;
        cut = k;
      }
    }
  }
  std::vector<int64_t> next(order.begin(), order.begin() + cut);
  std::sort(next.begin(), next.end());
  if (total > 0.0 && cut > 0) {
    double hot_mass = 0.0;
    for (int64_t r : next) hot_mass += votes[static_cast<size_t>(r)];
    frac_hist.observe(hot_mass / total);
  }
  // The membership switch: demote leavers back into the shard (pure local
  // write-back — the replica is rank-agreed), then install the new hot set
  // and gather the joiners' shard slices.
  std::vector<int64_t> promoted, demoted;
  std::set_difference(next.begin(), next.end(), hot_rows_.begin(),
                      hot_rows_.end(), std::back_inserter(promoted));
  std::set_difference(hot_rows_.begin(), hot_rows_.end(), next.begin(),
                      next.end(), std::back_inserter(demoted));
  demote(demoted);
  hot_rows_ = std::move(next);
  promote(comm, promoted);
}

void HotRowCache::promote(comm::Communicator& comm,
                          const std::vector<int64_t>& rows) {
  static obs::Counter& promotions = obs::counter("embed.cache.promotions");
  if (rows.empty()) return;  // rank-agreed: all ranks skip together
  promotions.add(static_cast<int64_t>(rows.size()));
  const int world = comm.size();
  const int slots = replica_opt_->state_slots();
  EMBRACE_CHECK_EQ(slots, shard_opt_->state_slots());
  // Each rank contributes its columns of every promoted row: the shard's
  // current values followed by each optimizer-state slot, width floats
  // apiece. The allgather hands every rank the full-dim replica rows and
  // full-dim optimizer state in one exchange.
  const auto [my_c0, my_c1] = shard_->col_range(comm.rank());
  const int64_t my_width = my_c1 - my_c0;
  std::vector<float> mine;
  mine.reserve(rows.size() * static_cast<size_t>(my_width) *
               static_cast<size_t>(1 + slots));
  std::vector<float> scratch(static_cast<size_t>(my_width));
  for (int64_t r : rows) {
    auto src = shard_->shard().row(r);
    mine.insert(mine.end(), src.begin(), src.end());
    for (int s = 0; s < slots; ++s) {
      shard_opt_->export_state(s, r, scratch);
      mine.insert(mine.end(), scratch.begin(), scratch.end());
    }
  }
  comm::Bytes wire = comm.pool().acquire(mine.size() * sizeof(float));
  if (!wire.empty()) std::memcpy(wire.data(), mine.data(), wire.size());
  sync_bytes_counter().add(static_cast<int64_t>(wire.size()));
  auto received = comm.allgatherv(wire);
  comm.pool().release(std::move(wire));
  for (int src_rank = 0; src_rank < world; ++src_rank) {
    const auto [c0, c1] = shard_->col_range(src_rank);
    const int64_t width = c1 - c0;
    comm::Bytes& buf = received[static_cast<size_t>(src_rank)];
    EMBRACE_CHECK_EQ(buf.size(), rows.size() * static_cast<size_t>(width) *
                                     static_cast<size_t>(1 + slots) *
                                     sizeof(float));
    std::vector<float> block(buf.size() / sizeof(float));
    if (!buf.empty()) std::memcpy(block.data(), buf.data(), buf.size());
    comm.pool().release(std::move(buf));
    const float* cursor = block.data();
    for (int64_t r : rows) {
      auto dst = replica_.row(r);
      std::copy(cursor, cursor + width,
                dst.begin() + static_cast<ptrdiff_t>(c0));
      cursor += width;
      for (int s = 0; s < slots; ++s) {
        replica_opt_->import_state(
            s, r, c0, std::span<const float>(cursor, static_cast<size_t>(width)));
        cursor += width;
      }
    }
  }
}

void HotRowCache::demote(const std::vector<int64_t>& rows) {
  static obs::Counter& demotions = obs::counter("embed.cache.demotions");
  if (rows.empty()) return;
  demotions.add(static_cast<int64_t>(rows.size()));
  const auto [c0, c1] = shard_->col_range(shard_->rank());
  const int64_t width = c1 - c0;
  const int slots = replica_opt_->state_slots();
  std::vector<float> scratch(static_cast<size_t>(shard_->dim()));
  for (int64_t r : rows) {
    auto src = replica_.row(r);
    auto dst = shard_->shard().row(r);
    std::copy(src.begin() + static_cast<ptrdiff_t>(c0),
              src.begin() + static_cast<ptrdiff_t>(c1), dst.begin());
    for (int s = 0; s < slots; ++s) {
      replica_opt_->export_state(s, r, scratch);
      shard_opt_->import_state(
          s, r, 0,
          std::span<const float>(scratch.data() + c0,
                                 static_cast<size_t>(width)));
    }
  }
}

}  // namespace embrace::core
