#include "embrace/partitioned_embedding.h"

#include <cmath>
#include <cstring>

#include "comm/hierarchical_collectives.h"
#include "comm/sparse_collectives.h"
#include "common/error.h"
#include "embrace/hot_row_cache.h"
#include "obs/metrics.h"

namespace embrace::core {
namespace {

// Routes the AlltoAll through the two-level CommGroup path when one is
// supplied (payloads are bitwise-identical either way — the hierarchical
// variant only rebundles the wire messages).
std::vector<comm::Bytes> exchange(comm::Communicator& comm,
                                  comm::CommGroup* group,
                                  std::vector<comm::Bytes> payloads) {
  if (group != nullptr && group->two_level()) {
    EMBRACE_CHECK(group->world == &comm,
                  << "CommGroup must be built over this communicator");
    return comm::hierarchical_alltoallv(*group, std::move(payloads));
  }
  return comm.alltoallv(std::move(payloads));
}

// Per-rank logical payload bytes entering the embedding AlltoAlls, split by
// leg. bench_cache compares these between cached and uncached runs — the
// cache's whole value proposition is shrinking exactly these counters.
obs::Counter& lookup_bytes_counter() {
  static obs::Counter& c = obs::counter("embed.exchange.bytes{path=lookup}");
  return c;
}

obs::Counter& grad_bytes_counter() {
  static obs::Counter& c = obs::counter("embed.exchange.bytes{path=grad}");
  return c;
}

// Empty id slices / tensors are normal (a rank may own no rows of a batch);
// empty vectors may hand memcpy a null pointer, which is UB even at size 0.

comm::Bytes pack_ids(comm::Communicator& comm,
                     const std::vector<int64_t>& ids) {
  comm::Bytes b = comm.pool().acquire(ids.size() * sizeof(int64_t));
  if (!b.empty()) std::memcpy(b.data(), ids.data(), b.size());
  return b;
}

std::vector<int64_t> unpack_ids(const comm::Bytes& b) {
  EMBRACE_CHECK_EQ(b.size() % sizeof(int64_t), 0u);
  std::vector<int64_t> ids(b.size() / sizeof(int64_t));
  if (!b.empty()) std::memcpy(ids.data(), b.data(), b.size());
  return ids;
}

comm::Bytes pack_tensor(comm::Communicator& comm, const Tensor& t) {
  comm::Bytes b = comm.pool().acquire(static_cast<size_t>(t.byte_size()));
  if (!b.empty()) std::memcpy(b.data(), t.data(), b.size());
  return b;
}

Tensor unpack_tensor(const comm::Bytes& b, int64_t rows, int64_t cols) {
  EMBRACE_CHECK_EQ(b.size(), static_cast<size_t>(rows * cols * 4));
  std::vector<float> data(static_cast<size_t>(rows * cols));
  if (!b.empty()) std::memcpy(data.data(), b.data(), b.size());
  return Tensor({rows, cols}, std::move(data));
}

}  // namespace

PartitionedEmbedding::PartitionedEmbedding(int64_t vocab, int64_t dim,
                                           int rank, int world,
                                           Rng master_rng)
    : vocab_(vocab), dim_(dim), rank_(rank), world_(world) {
  EMBRACE_CHECK(rank >= 0 && rank < world);
  EMBRACE_CHECK_GE(dim, world, << "need at least one column per rank");
  // Generate the full table deterministically, keep our columns. (Memory
  // cost is transient and fine at functional-model scale; a production
  // implementation would stream-generate the slice.)
  Tensor full = Tensor::randn({vocab, dim}, master_rng,
                              1.0f / std::sqrt(static_cast<float>(dim)));
  const auto [c0, c1] = col_range(rank);
  shard_ = Tensor({vocab, c1 - c0});
  for (int64_t r = 0; r < vocab; ++r) {
    auto src = full.row(r);
    auto dst = shard_.row(r);
    for (int64_t c = c0; c < c1; ++c) dst[c - c0] = src[c];
  }
}

std::pair<int64_t, int64_t> PartitionedEmbedding::col_range(int r) const {
  return {dim_ * r / world_, dim_ * (r + 1) / world_};
}

std::vector<std::vector<int64_t>> PartitionedEmbedding::allgather_ids(
    comm::Communicator& comm, const std::vector<int64_t>& my_ids) {
  // Zero-copy fan-out: peers read this rank's id payload in place.
  auto buffers = comm.allgatherv_shared(pack_ids(comm, my_ids));
  std::vector<std::vector<int64_t>> out;
  out.reserve(buffers.size());
  for (auto& b : buffers) {
    out.push_back(unpack_ids(*b));
    // Shared payloads are read-only; the shared_ptr's final release frees
    // them (recycling via use_count() would race with the originator).
    b.reset();
  }
  return out;
}

std::vector<std::vector<std::vector<int64_t>>>
PartitionedEmbedding::allgather_id_lists(
    comm::Communicator& comm,
    const std::vector<const std::vector<int64_t>*>& lists) {
  constexpr size_t kWord = sizeof(int64_t);
  const size_t k = lists.size();
  size_t words = k;
  for (const auto* ids : lists) words += ids->size();
  comm::Bytes mine = comm.pool().acquire(words * kWord);
  std::byte* w = mine.data();
  for (const auto* ids : lists) {
    const int64_t n = static_cast<int64_t>(ids->size());
    std::memcpy(w, &n, kWord);
    w += kWord;
  }
  for (const auto* ids : lists) {
    if (ids->empty()) continue;
    std::memcpy(w, ids->data(), ids->size() * kWord);
    w += ids->size() * kWord;
  }
  auto buffers = comm.allgatherv_shared(std::move(mine));
  std::vector<std::vector<std::vector<int64_t>>> out(
      k, std::vector<std::vector<int64_t>>(buffers.size()));
  for (size_t r = 0; r < buffers.size(); ++r) {
    const comm::Bytes& b = *buffers[r];
    EMBRACE_CHECK_GE(b.size(), k * kWord, << "id lists from rank " << r);
    size_t off = k * kWord;
    for (size_t l = 0; l < k; ++l) {
      int64_t n = 0;
      std::memcpy(&n, b.data() + l * kWord, kWord);
      EMBRACE_CHECK(n >= 0 && static_cast<size_t>(n) <=
                                  (b.size() - off) / kWord,
                    << "id list " << l << " from rank " << r
                    << " overruns its payload");
      const size_t bytes = static_cast<size_t>(n) * kWord;
      out[l][r].resize(static_cast<size_t>(n));
      if (bytes > 0) std::memcpy(out[l][r].data(), b.data() + off, bytes);
      off += bytes;
    }
    EMBRACE_CHECK_EQ(off, b.size(),
                     << "trailing bytes in id lists from rank " << r);
    // Shared payloads are read-only; the last release frees them.
    buffers[r].reset();
  }
  return out;
}

Tensor PartitionedEmbedding::shard_lookup(
    const std::vector<int64_t>& ids) const {
  Tensor out({static_cast<int64_t>(ids.size()), shard_width()});
  for (size_t k = 0; k < ids.size(); ++k) {
    EMBRACE_CHECK(ids[k] >= 0 && ids[k] < vocab_, << "id out of vocab");
    auto src = shard_.row(ids[k]);
    auto dst = out.row(static_cast<int64_t>(k));
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return out;
}

Tensor PartitionedEmbedding::distributed_lookup(
    comm::Communicator& comm, const std::vector<std::vector<int64_t>>& all_ids,
    const std::vector<int64_t>& my_ids, const EmbedExchange& ex) const {
  EMBRACE_CHECK_EQ(static_cast<int>(all_ids.size()), world_);
  EMBRACE_CHECK(all_ids[static_cast<size_t>(rank_)] == my_ids,
                << "gathered ids inconsistent with my ids");
  HotRowCache* cache = ex.cache;
  const bool cached = cache != nullptr && cache->enabled();
  // Feed the refresh vote even while the hot set is still empty — the
  // counters are what bootstrap the first promotion epoch.
  if (cached) cache->record_access(my_ids);
  const bool split = cached && cache->hot_count() > 0;
  // With a live hot set, every rank filters every worker's id list against
  // the same rank-agreed membership: the shrunken AlltoAll carries cold ids
  // only and stays SPMD-consistent by construction.
  std::vector<std::vector<int64_t>> cold_ids;
  const std::vector<std::vector<int64_t>>* lookup_ids = &all_ids;
  if (split) {
    cold_ids.resize(all_ids.size());
    for (size_t w = 0; w < all_ids.size(); ++w) {
      cold_ids[w].reserve(all_ids[w].size());
      for (int64_t id : all_ids[w]) {
        if (!cache->is_hot(id)) cold_ids[w].push_back(id);
      }
    }
    lookup_ids = &cold_ids;
  }
  // Look up every worker's (cold) ids in my column shard, send each its
  // slice.
  std::vector<comm::Bytes> payloads(static_cast<size_t>(world_));
  int64_t wire_bytes = 0;
  for (int w = 0; w < world_; ++w) {
    payloads[static_cast<size_t>(w)] = pack_tensor(
        comm, shard_lookup((*lookup_ids)[static_cast<size_t>(w)]));
    wire_bytes += static_cast<int64_t>(payloads[static_cast<size_t>(w)].size());
  }
  lookup_bytes_counter().add(wire_bytes);
  auto received = exchange(comm, ex.group, std::move(payloads));
  // Positions of my batch served by the wire (all of them when uncached).
  std::vector<int64_t> cold_pos;
  cold_pos.reserve(my_ids.size());
  for (size_t k = 0; k < my_ids.size(); ++k) {
    if (!split || !cache->is_hot(my_ids[k])) {
      cold_pos.push_back(static_cast<int64_t>(k));
    }
  }
  // Assemble my batch's full-dim vectors from the column slices, reading the
  // wire buffers in place and recycling them once consumed.
  Tensor out({static_cast<int64_t>(my_ids.size()), dim_});
  for (int r = 0; r < world_; ++r) {
    const auto [c0, c1] = col_range(r);
    comm::Bytes& buf = received[static_cast<size_t>(r)];
    Tensor slice = unpack_tensor(
        buf, static_cast<int64_t>(cold_pos.size()), c1 - c0);
    comm.pool().release(std::move(buf));
    for (size_t k = 0; k < cold_pos.size(); ++k) {
      auto src = slice.row(static_cast<int64_t>(k));
      auto dst = out.row(cold_pos[k]);
      for (int64_t c = c0; c < c1; ++c) dst[c] = src[c - c0];
    }
  }
  if (split) {
    // Hot positions come straight out of the local replica, full-dim.
    for (size_t k = 0; k < my_ids.size(); ++k) {
      if (!cache->is_hot(my_ids[k])) continue;
      auto src = cache->row(my_ids[k]);
      auto dst = out.row(static_cast<int64_t>(k));
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }
  if (cached) {
    static obs::Counter& hits = obs::counter("embed.cache.hits");
    static obs::Counter& misses = obs::counter("embed.cache.misses");
    hits.add(static_cast<int64_t>(my_ids.size()) -
             static_cast<int64_t>(cold_pos.size()));
    misses.add(static_cast<int64_t>(cold_pos.size()));
  }
  return out;
}

SparseRows PartitionedEmbedding::exchange_grad(comm::Communicator& comm,
                                               const SparseRows& part,
                                               const EmbedExchange& ex) const {
  EMBRACE_CHECK_EQ(part.num_total_rows(), vocab_);
  EMBRACE_CHECK_EQ(part.dim(), dim_);
  // Hot rows never touch the AlltoAll: their gradients park in the cache's
  // pending buffer until the next hotsync AllReduce. The membership is
  // rank-agreed, so every rank ships the same cold row set.
  HotRowCache* cache = ex.cache;
  const SparseRows* cold = &part;
  SparseRows cold_storage;
  if (cache != nullptr && cache->enabled() && cache->hot_count() > 0) {
    auto [hot, rest] = part.split_by_membership(cache->hot_rows());
    cache->accumulate(std::move(hot));
    cold_storage = std::move(rest);
    cold = &cold_storage;
  }
  // Ship each rank the column slice it owns, serialized straight into
  // pooled wire buffers (values codec-encoded when a codec is active).
  std::vector<comm::Bytes> payloads(static_cast<size_t>(world_));
  int64_t wire_bytes = 0;
  for (int r = 0; r < world_; ++r) {
    const auto [c0, c1] = col_range(r);
    payloads[static_cast<size_t>(r)] =
        comm::sparse_pack_wire(comm, cold->slice_columns(c0, c1), ex.codec);
    wire_bytes += static_cast<int64_t>(payloads[static_cast<size_t>(r)].size());
  }
  grad_bytes_counter().add(wire_bytes);
  auto received = exchange(comm, ex.group, std::move(payloads));
  if (ex.codec != nullptr) {
    // Encoded payloads cannot be viewed in place: decode each, then sum.
    SparseRows acc = SparseRows::empty(vocab_, shard_width());
    for (comm::Bytes& buf : received) {
      acc = SparseRows::concat(acc, comm::sparse_unpack_wire(buf, ex.codec));
      comm.pool().release(std::move(buf));
    }
    return acc.coalesced();
  }
  // Sum the contributions of all workers for my shard: parse every payload
  // in place, assemble in one pass, coalesce once.
  std::vector<SparseRows::WireView> views;
  views.reserve(received.size());
  for (const comm::Bytes& buf : received) {
    views.push_back(SparseRows::parse_packed(buf.data(), buf.size()));
  }
  SparseRows acc = SparseRows::concat_views(vocab_, shard_width(), views);
  for (comm::Bytes& buf : received) comm.pool().release(std::move(buf));
  return acc.coalesced();
}

// --- RowPartitionedEmbedding ---

RowPartitionedEmbedding::RowPartitionedEmbedding(int64_t vocab, int64_t dim,
                                                 int world)
    : vocab_(vocab), dim_(dim), world_(world) {
  EMBRACE_CHECK_GE(vocab, world);
  (void)dim_;
}

std::pair<int64_t, int64_t> RowPartitionedEmbedding::row_range(int r) const {
  return {vocab_ * r / world_, vocab_ * (r + 1) / world_};
}

int RowPartitionedEmbedding::owner_of(int64_t row) const {
  EMBRACE_CHECK(row >= 0 && row < vocab_);
  int r = static_cast<int>(row * world_ / vocab_);
  while (r > 0 && row < row_range(r).first) --r;
  while (r + 1 < world_ && row >= row_range(r).second) ++r;
  return r;
}

std::vector<int64_t> RowPartitionedEmbedding::shard_load(
    const std::vector<int64_t>& ids) const {
  std::vector<int64_t> load(static_cast<size_t>(world_), 0);
  for (int64_t id : ids) ++load[static_cast<size_t>(owner_of(id))];
  return load;
}

}  // namespace embrace::core
