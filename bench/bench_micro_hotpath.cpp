// Hot-path perf-regression harness: times the allocation-lean kernels
// (coalesce, wire pack/unpack, membership split), the dense backward's
// matmul_nt and the top-k codec's encode, and the pooled collectives
// over a 4-rank in-process cluster, then dumps every number as a gauge to
// BENCH_hotpath.json. CI diffs the *_us gauges against the checked-in
// bench/baseline_hotpath.json (>2x = regression) and asserts that the
// allreduce ring path reuses its wire buffers (pool hits >> misses).
//
// Timings are best-of-N wall clock: the minimum is the least noisy statistic
// on shared CI machines, and a genuine regression moves the minimum too.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_json.h"
#include "comm/cluster.h"
#include "comm/codec.h"
#include "comm/communicator.h"
#include "comm/sparse_collectives.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "tensor/linalg.h"
#include "tensor/sparse_rows.h"

using namespace embrace;
using namespace embrace::comm;

namespace {

constexpr int64_t kVocab = 100000;
constexpr int64_t kDim = 32;
constexpr int kRanks = 4;

obs::MetricsRegistry registry;
TextTable results({"kernel", "best us"});

void record(const std::string& name, double us) {
  registry.gauge("hotpath." + name + "_us").set(us);
  results.add_row({name, TextTable::num(us, 1)});
}

double best_of(int reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    Stopwatch sw;
    fn();
    best = i == 0 ? sw.micros() : std::min(best, sw.micros());
  }
  return best;
}

// A duplicate-heavy gradient: nnz draws from a pool of nnz/4 distinct rows,
// the shape COALESCE exists for.
SparseRows make_grad(int64_t nnz, uint64_t seed) {
  Rng rng(seed);
  const int64_t distinct = std::max<int64_t>(1, nnz / 4);
  const int64_t stride = std::max<int64_t>(1, kVocab / distinct);
  std::vector<int64_t> ids(static_cast<size_t>(nnz));
  for (auto& id : ids) id = rng.next_int(0, distinct - 1) * stride;
  Tensor vals = Tensor::randn({nnz, kDim}, rng);
  return SparseRows(kVocab, std::move(ids), std::move(vals));
}

// Times `iters` iterations of an SPMD body over a fresh 4-rank cluster;
// returns rank 0's per-iteration wall clock after one warmup round (which
// also primes the buffer pools).
double time_collective(Fabric& fabric, int iters,
                       const std::function<void(Communicator&)>& body) {
  double us = 0.0;
  run_cluster(fabric, [&](Communicator& c) {
    body(c);  // warmup
    c.barrier();
    Stopwatch sw;
    for (int i = 0; i < iters; ++i) body(c);
    c.barrier();
    if (c.rank() == 0) us = sw.micros() / iters;
  });
  return us;
}

}  // namespace

int main() {
  // --- single-thread kernels ---
  for (const int64_t nnz : {int64_t{4096}, int64_t{65536}}) {
    const SparseRows grad = make_grad(nnz, 7);
    record("coalesce{nnz=" + std::to_string(nnz) + "}",
           best_of(9, [&] { (void)grad.coalesced(); }));
  }
  {
    const SparseRows grad = make_grad(16384, 11);
    std::vector<std::byte> wire(grad.packed_byte_size());
    record("pack{nnz=16384}", best_of(9, [&] {
             grad.pack_into(wire.data(), wire.size());
           }));
    record("unpack{nnz=16384}", best_of(9, [&] {
             (void)SparseRows::unpack(wire.data(), wire.size());
           }));

    const SparseRows co = grad.coalesced();
    std::vector<int64_t> keep;
    for (int64_t r = 0; r < kVocab; r += 2) keep.push_back(r);
    record("split{nnz=16384}", best_of(9, [&] {
             (void)co.split_by_membership(keep);
           }));
    record("row_density{nnz=16384}",
           best_of(9, [&] { (void)co.row_density(); }));
  }

  {
    // Linear::backward's dx = dy * W^T at a classifier head's shape.
    Rng rng(17);
    const Tensor dy = Tensor::randn({32, 200}, rng);
    const Tensor w = Tensor::randn({256, 200}, rng);
    record("matmul_nt{m=32,k=200,n=256}",
           best_of(9, [&] { (void)matmul_nt(dy, w); }));
  }
  {
    // The default top-k fraction over a gradient-sized block.
    const auto codec = make_codec(CodecKind::kTopK, 0.2);
    Rng rng(19);
    const Tensor values = Tensor::randn({65536}, rng);
    std::vector<std::byte> wire(
        static_cast<size_t>(codec->encoded_bytes(values.numel())));
    record("topk_encode{n=65536}", best_of(9, [&] {
             codec->encode_into(values.flat(), wire.data());
           }));
  }

  // --- pooled collectives (4 ranks, real threads) ---
  constexpr int kIters = 40;
  {
    Fabric fabric(kRanks);
    std::vector<float> data(1 << 16, 1.0f);
    record("allreduce{ranks=4,len=65536}",
           time_collective(fabric, kIters, [&](Communicator& c) {
             std::vector<float> local = data;
             c.allreduce(local);
           }));
    // The acceptance gate for the pooled ring path: after the warmup round
    // every send buffer should come from the free lists, so hits dwarf
    // misses over the timed iterations.
    int64_t hits = 0, misses = 0;
    for (int r = 0; r < kRanks; ++r) {
      const auto s = fabric.pool(r).stats();
      hits += s.hits;
      misses += s.misses;
    }
    registry.gauge("hotpath.pool_hits{path=allreduce}")
        .set(static_cast<double>(hits));
    registry.gauge("hotpath.pool_misses{path=allreduce}")
        .set(static_cast<double>(misses));
    std::printf("allreduce pool: %lld hits / %lld misses\n",
                static_cast<long long>(hits), static_cast<long long>(misses));
  }
  {
    Fabric fabric(kRanks);
    record("reduce_scatter{ranks=4,len=65536}",
           time_collective(fabric, kIters, [&](Communicator& c) {
             std::vector<float> local(1 << 16, 2.0f);
             (void)c.reduce_scatter(local);
           }));
  }
  {
    Fabric fabric(kRanks);
    std::vector<float> block(1 << 14, 3.0f);
    record("allgather{ranks=4,block=16384}",
           time_collective(fabric, kIters, [&](Communicator& c) {
             (void)c.allgather(block);
           }));
  }
  {
    Fabric fabric(kRanks);
    record("allgatherv_shared{ranks=4,bytes=65536}",
           time_collective(fabric, kIters, [&](Communicator& c) {
             Bytes mine = c.pool().acquire(1 << 16);
             (void)c.allgatherv_shared(std::move(mine));
           }));
  }
  {
    Fabric fabric(kRanks);
    record("alltoallv{ranks=4,bytes=16384}",
           time_collective(fabric, kIters, [&](Communicator& c) {
             std::vector<Bytes> send(kRanks);
             for (auto& b : send) b = c.pool().acquire(1 << 14);
             auto out = c.alltoallv(std::move(send));
             for (auto& b : out) c.pool().release(std::move(b));
           }));
  }
  {
    Fabric fabric(kRanks);
    const SparseRows grad = make_grad(2048, 13);
    record("sparse_allgather{ranks=4,nnz=2048}",
           time_collective(fabric, kIters, [&](Communicator& c) {
             (void)sparse_allgather(c, grad);
           }));
  }

  results.print();
  return bench::write_bench_json(registry, "hotpath") ? 0 : 1;
}
