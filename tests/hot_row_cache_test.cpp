// Hot-row embedding cache (DESIGN.md §15): membership epochs must be
// rank-agreed and deterministic, promotion/demotion must move row values
// and optimizer state losslessly, the hit/miss accounting must add up, the
// staleness bound must gate the forced sync — and at staleness 0 the whole
// cached trainer must stay oracle-equal for every hybrid strategy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <vector>

#include "comm/chunked_collectives.h"
#include "comm/cluster.h"
#include "comm/codec.h"
#include "common/rng.h"
#include "embrace/hot_row_cache.h"
#include "embrace/partitioned_embedding.h"
#include "embrace/strategy.h"
#include "nn/embedding.h"
#include "nn/optim.h"
#include "obs/metrics.h"

namespace embrace::core {
namespace {

constexpr int64_t kVocab = 24;
constexpr int64_t kDim = 8;

// One rank's cache rig: shard + shard optimizer + cache, all from the same
// deterministic seed so every rank (and the reference table) agrees.
struct Rig {
  Rig(comm::Communicator& comm, HotRowCache::Config cfg, uint64_t seed = 9)
      : pe(kVocab, kDim, comm.rank(), comm.size(), Rng(seed)),
        opt(kVocab, pe.shard_width(), /*lr=*/0.05f) {
    cache = std::make_unique<HotRowCache>(
        &pe, &opt,
        std::make_unique<nn::SparseAdam>(kVocab, kDim, /*lr=*/0.05f), cfg);
  }
  PartitionedEmbedding pe;
  nn::SparseAdam opt;
  std::unique_ptr<HotRowCache> cache;
};

HotRowCache::Config cache_config(int64_t budget, int refresh, int staleness) {
  HotRowCache::Config cfg;
  cfg.budget_rows = budget;
  cfg.refresh_steps = refresh;
  cfg.staleness = staleness;
  return cfg;
}

TEST(HotRowCache, RefreshPromotesTopRowsByVote) {
  comm::run_cluster(1, [&](comm::Communicator& comm) {
    Rig rig(comm, cache_config(/*budget=*/2, /*refresh=*/1, /*staleness=*/0));
    EXPECT_TRUE(rig.cache->enabled());
    EXPECT_EQ(rig.cache->hot_count(), 0);
    rig.cache->record_access({1, 1, 1, 5, 5, 7});
    rig.cache->step_end(comm, nullptr, nullptr);
    EXPECT_EQ(rig.cache->epoch(), 1);
    ASSERT_EQ(rig.cache->hot_count(), 2);  // top-2 by count: rows 1 and 5
    EXPECT_TRUE(rig.cache->is_hot(1));
    EXPECT_TRUE(rig.cache->is_hot(5));
    EXPECT_FALSE(rig.cache->is_hot(7));
    // World 1: the shard is the full table, and a freshly promoted replica
    // row must equal it bitwise.
    auto replica_row = rig.cache->row(1);
    auto shard_row = rig.pe.shard().row(1);
    ASSERT_EQ(replica_row.size(), shard_row.size());
    for (size_t c = 0; c < shard_row.size(); ++c) {
      EXPECT_EQ(replica_row[c], shard_row[c]) << "col " << c;
    }
  });
}

TEST(HotRowCache, MembershipAndReplicaAgreeAcrossRanks) {
  constexpr int kWorld = 4;
  std::mutex mu;
  std::vector<std::vector<int64_t>> hot_sets(kWorld);
  std::vector<std::vector<float>> replica_rows(kWorld);
  comm::run_cluster(kWorld, [&](comm::Communicator& comm) {
    Rig rig(comm, cache_config(/*budget=*/4, /*refresh=*/1, /*staleness=*/0));
    // Deliberately rank-skewed accesses: rows 16/17 are hot everywhere,
    // the rest differ per rank. The allreduced vote must still land every
    // rank on the identical hot set (ties break to the lower row id).
    const int64_t r = comm.rank();
    rig.cache->record_access({16, 16, 17, 17, r, r + 4});
    rig.cache->step_end(comm, nullptr, nullptr);
    auto row16 = rig.cache->row(16);
    std::lock_guard<std::mutex> lock(mu);
    hot_sets[static_cast<size_t>(r)] = rig.cache->hot_rows();
    replica_rows[static_cast<size_t>(r)].assign(row16.begin(), row16.end());
  });
  for (int r = 1; r < kWorld; ++r) {
    EXPECT_EQ(hot_sets[static_cast<size_t>(r)], hot_sets[0]) << "rank " << r;
    EXPECT_EQ(replica_rows[static_cast<size_t>(r)], replica_rows[0])
        << "rank " << r;
  }
  // Vote counts: 16 and 17 get 8 each; every per-rank row gets 1, ties
  // break low, so rows 0 and 1 fill the remaining budget.
  EXPECT_EQ(hot_sets[0], (std::vector<int64_t>{0, 1, 16, 17}));
}

TEST(HotRowCache, PromoteDemoteRoundTripsValuesAndOptimizerState) {
  comm::run_cluster(2, [&](comm::Communicator& comm) {
    Rig rig(comm, cache_config(/*budget=*/2, /*refresh=*/1, /*staleness=*/0));
    // Give the shard optimizer nonzero Adam state on rows 3 and 5 first.
    std::vector<int64_t> ids{3, 5};
    Rng grad_rng(123);
    Tensor grad = Tensor::randn({2, kDim}, grad_rng);
    const auto [c0, c1] = rig.pe.col_range(comm.rank());
    rig.opt.apply(rig.pe.shard(),
                  SparseRows(kVocab, ids, grad).slice_columns(c0, c1),
                  nn::SparseStep::kFull);
    const int64_t width = rig.pe.shard_width();
    std::vector<float> val3(rig.pe.shard().row(3).begin(),
                            rig.pe.shard().row(3).end());
    std::vector<float> m3(static_cast<size_t>(width));
    std::vector<float> v3(static_cast<size_t>(width));
    rig.opt.export_state(0, 3, m3);
    rig.opt.export_state(1, 3, v3);
    // Epoch 1 promotes {3, 5}; epoch 2 votes for {7, 8}, demoting both.
    rig.cache->record_access({3, 3, 5});
    rig.cache->step_end(comm, nullptr, nullptr);
    EXPECT_TRUE(rig.cache->is_hot(3));
    rig.cache->record_access({7, 7, 8});
    rig.cache->step_end(comm, nullptr, nullptr);
    EXPECT_FALSE(rig.cache->is_hot(3));
    EXPECT_TRUE(rig.cache->is_hot(7));
    // No gradients touched row 3 while cached, so the write-back must
    // restore the shard's values and both Adam state rows bit-for-bit.
    std::vector<float> val3_after(rig.pe.shard().row(3).begin(),
                                  rig.pe.shard().row(3).end());
    std::vector<float> m3_after(static_cast<size_t>(width));
    std::vector<float> v3_after(static_cast<size_t>(width));
    rig.opt.export_state(0, 3, m3_after);
    rig.opt.export_state(1, 3, v3_after);
    EXPECT_EQ(val3_after, val3) << "rank " << comm.rank();
    EXPECT_EQ(m3_after, m3) << "rank " << comm.rank();
    EXPECT_EQ(v3_after, v3) << "rank " << comm.rank();
  });
}

TEST(HotRowCache, LookupServesHotRowsAndCountsHitsMisses) {
  const int64_t hits0 = obs::counter("embed.cache.hits").value();
  const int64_t misses0 = obs::counter("embed.cache.misses").value();
  Rng reference_rng(9);
  nn::Embedding reference(kVocab, kDim, reference_rng);
  comm::run_cluster(2, [&](comm::Communicator& comm) {
    Rig rig(comm, cache_config(/*budget=*/2, /*refresh=*/1, /*staleness=*/0));
    rig.cache->record_access({1, 1, 2, 2});
    rig.cache->step_end(comm, nullptr, nullptr);
    ASSERT_EQ(rig.cache->hot_count(), 2);
    // rank 0 looks up {1, 2, 3} (2 hot), rank 1 looks up {2, 4} (1 hot).
    const std::vector<int64_t> my_ids =
        comm.rank() == 0 ? std::vector<int64_t>{1, 2, 3}
                         : std::vector<int64_t>{2, 4};
    auto all_ids = PartitionedEmbedding::allgather_ids(comm, my_ids);
    EmbedExchange ex;
    ex.cache = rig.cache.get();
    Tensor out = rig.pe.distributed_lookup(comm, all_ids, my_ids, ex);
    // No updates have been applied, so cached and cold rows alike must
    // equal the replicated reference table.
    EXPECT_LT(out.max_abs_diff(reference.forward(my_ids)), 1e-6f)
        << "rank " << comm.rank();
  });
  EXPECT_EQ(obs::counter("embed.cache.hits").value() - hits0, 3);
  EXPECT_EQ(obs::counter("embed.cache.misses").value() - misses0, 2);
}

TEST(HotRowCache, StalenessBoundGatesTheForcedSync) {
  comm::run_cluster(1, [&](comm::Communicator& comm) {
    // staleness 1, refresh every 3 steps: within an epoch the sync runs on
    // the 2nd step (bound expired) and the 3rd (refresh-forced) — never on
    // the 1st.
    Rig rig(comm, cache_config(/*budget=*/2, /*refresh=*/3, /*staleness=*/1));
    for (int s = 0; s < 3; ++s) {
      rig.cache->record_access({1, 5});
      rig.cache->step_end(comm, nullptr, nullptr);
    }
    ASSERT_EQ(rig.cache->hot_count(), 2);
    const int64_t syncs0 = obs::counter("embed.cache.syncs").value();
    rig.cache->record_access({1, 5});
    rig.cache->step_end(comm, nullptr, nullptr);
    EXPECT_EQ(obs::counter("embed.cache.syncs").value() - syncs0, 0);
    rig.cache->record_access({1, 5});
    rig.cache->step_end(comm, nullptr, nullptr);
    EXPECT_EQ(obs::counter("embed.cache.syncs").value() - syncs0, 1);
    rig.cache->record_access({1, 5});
    rig.cache->step_end(comm, nullptr, nullptr);  // refresh step
    EXPECT_EQ(obs::counter("embed.cache.syncs").value() - syncs0, 2);
  });
}

// --- trainer-level: the cache under the full hybrid strategies ---

void expect_losses_close(const std::vector<float>& a,
                         const std::vector<float>& b, float tol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol * std::max(1.0f, std::abs(a[i])))
        << "step " << i;
  }
}

// The sync reduces values and presence in one collective, as two segments
// of one chunked AllReduce. The replica must come out bitwise equal to the
// two-collective sync (the codec'd values AllReduce, then an exact
// presence AllReduce) replayed on the same inputs, and presence must stay
// exact under a lossy codec: in round 2, row 19's tiny gradient shares a
// top-k slice with row 18's large one and is dropped from the values, yet
// row 19 is still present, so Adam's moments from round 1 still move it.
TEST(HotRowCache, OneCollectiveSyncMatchesTwoCollectiveResult) {
  constexpr int kWorld = 3;
  const auto topk = comm::make_codec(comm::CodecKind::kTopK, 0.25);
  HotRowCache::Config cfg = cache_config(/*budget=*/4, /*refresh=*/3,
                                         /*staleness=*/0);
  cfg.chunk_bytes = 64;  // 16 floats: slots 2 and 3 share a slice
  comm::run_cluster(kWorld, [&](comm::Communicator& comm) {
    Rig rig(comm, cfg);
    // Three step_ends: two empty syncs, then an empty sync and the refresh
    // that promotes {16, 17, 18, 19} (slots 0..3).
    rig.cache->record_access({16, 17, 18, 19});
    for (int i = 0; i < 3; ++i) rig.cache->step_end(comm, topk.get(), nullptr);
    ASSERT_EQ(rig.cache->hot_rows(), (std::vector<int64_t>{16, 17, 18, 19}));
    // Reference replica and optimizer at the same point: promoted rows,
    // zero moments, three empty steps.
    Tensor ref({kVocab, kDim});
    for (int64_t row : rig.cache->hot_rows()) {
      const auto src = rig.cache->row(row);
      std::copy(src.begin(), src.end(), ref.row(row).begin());
    }
    nn::SparseAdam ref_opt(kVocab, kDim, /*lr=*/0.05f);
    for (int i = 0; i < 3; ++i) {
      ref_opt.apply(ref, SparseRows::empty(kVocab, kDim),
                    nn::SparseStep::kFull);
    }
    const int r = comm.rank();
    Rng rng(40 + static_cast<uint64_t>(r));
    for (int round = 0; round < 2; ++round) {
      std::vector<int64_t> ids;
      if (round == 0) {
        ids = r == 0 ? std::vector<int64_t>{16, 19}
                     : std::vector<int64_t>{17, 18};
      } else {
        ids = r == 0 ? std::vector<int64_t>{19} : std::vector<int64_t>{18};
      }
      Tensor vals = Tensor::randn({static_cast<int64_t>(ids.size()), kDim},
                                  rng);
      if (round == 1) {
        for (float& v : vals.flat()) v *= r == 0 ? 1e-6f : 10.0f;
      }
      // The two-collective sync, replayed on this rank's inputs.
      std::vector<float> values(4 * kDim, 0.0f), presence(4, 0.0f);
      for (size_t k = 0; k < ids.size(); ++k) {
        const int64_t slot = ids[k] - 16;
        const auto src = vals.row(static_cast<int64_t>(k));
        std::copy(src.begin(), src.end(), values.begin() + slot * kDim);
        presence[static_cast<size_t>(slot)] = 1.0f;
      }
      rig.cache->accumulate(SparseRows(kVocab, ids, vals));
      rig.cache->step_end(comm, topk.get(), nullptr);
      comm::allreduce_chunked(comm, values, cfg.chunk_bytes,
                              comm::ReduceOp::kSum, topk.get());
      comm.allreduce(presence);
      std::vector<int64_t> rows;
      std::vector<float> union_vals;
      for (int64_t slot = 0; slot < 4; ++slot) {
        if (presence[static_cast<size_t>(slot)] <= 0.0f) continue;
        rows.push_back(16 + slot);
        union_vals.insert(union_vals.end(), values.begin() + slot * kDim,
                          values.begin() + (slot + 1) * kDim);
      }
      if (round == 1) {
        // Row 19's values were dropped, its presence was not.
        EXPECT_EQ(presence[3], 1.0f);
        for (int64_t c = 0; c < kDim; ++c) {
          EXPECT_EQ(values[3 * kDim + c], 0.0f);
        }
      }
      const auto n = static_cast<int64_t>(rows.size());
      ref_opt.apply(ref,
                    SparseRows(kVocab, std::move(rows),
                               Tensor({n, kDim}, std::move(union_vals))),
                    nn::SparseStep::kFull);
      for (int64_t row = 16; row < 20; ++row) {
        const auto got = rig.cache->row(row);
        const auto want = ref.row(row);
        EXPECT_EQ(std::memcmp(got.data(), want.data(), kDim * sizeof(float)),
                  0)
            << "rank " << r << " round " << round << " row " << row;
      }
    }
  });
}

TrainConfig cached_config(StrategyKind strategy) {
  TrainConfig cfg;
  cfg.strategy = strategy;
  cfg.vocab = 300;
  cfg.dim = 12;
  cfg.hidden = 16;
  cfg.classes = 20;
  cfg.optim = OptimKind::kAdam;
  cfg.lr = 0.01f;
  cfg.batch_per_worker = 4;
  cfg.steps = 8;
  cfg.seed = 77;
  cfg.zipf_skew = 1.2;  // skewed traffic: a small hot set carries the mass
  cfg.cache_frac = 0.1;
  cfg.cache_refresh_steps = 2;
  cfg.cache_staleness = 0;
  // Bandwidth-bound emulated links. The refresh-time pricing is honest: on
  // the default latency-bound profile the extra hot-sync collective never
  // pays and the picker correctly keeps the cache empty, so engaging it in
  // a test requires links where wire bytes dominate.
  cfg.link_alpha_us = 1.0;
  cfg.link_bytes_per_us = 10.0;
  return cfg;
}

TEST(HotRowCacheTrainer, StalenessZeroStaysOracleEqual) {
  for (const StrategyKind strategy :
       {StrategyKind::kEmbRace, StrategyKind::kEmbRaceNoVss}) {
    const int64_t promotions0 =
        obs::counter("embed.cache.promotions").value();
    const int64_t hits0 = obs::counter("embed.cache.hits").value();
    TrainConfig cfg = cached_config(strategy);
    constexpr int kWorkers = 3;
    const auto cached = run_distributed(cfg, kWorkers);
    // The run must actually have cached something — otherwise this test
    // passes vacuously with the cache priced off.
    EXPECT_GT(obs::counter("embed.cache.promotions").value() - promotions0, 0)
        << strategy_kind_name(strategy);
    EXPECT_GT(obs::counter("embed.cache.hits").value() - hits0, 0)
        << strategy_kind_name(strategy);
    const auto oracle = run_oracle(cfg, kWorkers);
    expect_losses_close(cached.losses, oracle.losses, 2e-3f);
    // And against the identical run with the cache off: same tolerance
    // (the cache only reorders float summation at staleness 0).
    TrainConfig uncached = cfg;
    uncached.cache_frac = 0.0;
    expect_losses_close(cached.losses, run_distributed(uncached, kWorkers).losses,
                        2e-3f);
  }
}

TEST(HotRowCacheTrainer, StalenessZeroOracleEqualForEveryOptimizer) {
  // SGD has no per-row state, Adagrad one slot, Adam two (plus the step
  // counter) — promotion/demotion and the sync apply must be exact for all.
  for (const OptimKind optim :
       {OptimKind::kSgd, OptimKind::kAdagrad, OptimKind::kAdam}) {
    TrainConfig cfg = cached_config(StrategyKind::kEmbRace);
    cfg.optim = optim;
    constexpr int kWorkers = 3;
    const auto cached = run_distributed(cfg, kWorkers);
    const auto oracle = run_oracle(cfg, kWorkers);
    expect_losses_close(cached.losses, oracle.losses, 2e-3f);
  }
}

TEST(HotRowCacheTrainer, CacheShrinksEmbeddingExchangeBytes) {
  obs::Counter& lookup_bytes =
      obs::counter("embed.exchange.bytes{path=lookup}");
  obs::Counter& grad_bytes = obs::counter("embed.exchange.bytes{path=grad}");
  TrainConfig cfg = cached_config(StrategyKind::kEmbRace);
  cfg.steps = 10;
  const int64_t c0 = lookup_bytes.value() + grad_bytes.value();
  (void)run_distributed(cfg, 3);
  const int64_t cached = lookup_bytes.value() + grad_bytes.value() - c0;
  TrainConfig off = cfg;
  off.cache_frac = 0.0;
  const int64_t u0 = lookup_bytes.value() + grad_bytes.value();
  (void)run_distributed(off, 3);
  const int64_t uncached = lookup_bytes.value() + grad_bytes.value() - u0;
  EXPECT_LT(cached, uncached);
}

}  // namespace
}  // namespace embrace::core
