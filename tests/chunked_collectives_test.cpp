// ChunkedAllReduce correctness: the chunked pipelined ring must be
// BITWISE-equal to the monolithic Communicator::allreduce for every world
// size, payload size, chunk size, and reduce op — the invariant that lets
// the trainer flip chunk_bytes without perturbing a single loss bit — and
// its quantum count must be a rank-invariant pure function of the geometry
// (what lets every rank submit identical slice counts to the negotiated
// scheduler). Also exercises the chunked path under recoverable fault
// injection and interleaved with other traffic on the same channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "comm/chunk_plan.h"
#include "comm/chunked_collectives.h"
#include "comm/codec.h"
#include "comm/cluster.h"
#include "comm/communicator.h"
#include "common/rng.h"

namespace embrace::comm {
namespace {

std::vector<float> make_data(int rank, int64_t elems, uint64_t seed) {
  Rng rng(seed + static_cast<uint64_t>(rank) * 101);
  std::vector<float> data(static_cast<size_t>(elems));
  for (auto& v : data) v = static_cast<float>(rng.next_double(-2.0, 2.0));
  return data;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Monolithic result on one copy, chunked on another, same cluster: the two
// must agree bit for bit (same block partition, same reduce order; only the
// wire messages differ).
void expect_chunked_matches_monolithic(int world, int64_t elems) {
  Fabric fabric(world);
  run_cluster(fabric, [&](Communicator& c) {
    const std::vector<float> data = make_data(c.rank(), elems, 7);
    for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kMax}) {
      std::vector<float> mono = data;
      c.allreduce(mono, op);
      for (const int64_t chunk :
           {int64_t{0}, int64_t{16}, int64_t{256}, int64_t{4096},
            int64_t{1} << 24}) {
        std::vector<float> chunked = data;
        allreduce_chunked(c, chunked, chunk, op);
        EXPECT_TRUE(bitwise_equal(mono, chunked))
            << "world=" << world << " elems=" << elems << " chunk=" << chunk
            << " op=" << static_cast<int>(op);
      }
    }
  });
}

TEST(ChunkedAllReduce, BitwiseEqualToMonolithicRing) {
  for (const int world : {1, 2, 3, 4}) {
    for (const int64_t elems :
         {int64_t{0}, int64_t{1}, int64_t{5}, int64_t{64}, int64_t{1000},
          int64_t{4097}}) {
      expect_chunked_matches_monolithic(world, elems);
    }
  }
}

TEST(ChunkedAllReduce, NumQuantaIsPureGeometryFunction) {
  // world == 1: one trivial quantum regardless of size or chunking.
  EXPECT_EQ(ChunkedAllReduce::num_quanta(0, 1, 16), 1);
  EXPECT_EQ(ChunkedAllReduce::num_quanta(1 << 20, 1, 16), 1);
  // 1000 elems over 4 ranks: max block 250 elems; 16-byte chunks hold 4
  // floats -> ceil(250/4) = 63 slices per step, 2*(4-1) steps.
  EXPECT_EQ(ChunkedAllReduce::num_quanta(1000, 4, 16), 2 * 3 * 63);
  // chunk_bytes <= 0: one slice per ring step.
  EXPECT_EQ(ChunkedAllReduce::num_quanta(1000, 4, 0), 2 * 3);
  // Empty payload still has one (empty) slice per step.
  EXPECT_EQ(ChunkedAllReduce::num_quanta(0, 3, 64), 2 * 2);
  // The count never depends on a rank: cursors on every rank agree.
  Fabric fabric(3);
  run_cluster(fabric, [&](Communicator& c) {
    std::vector<float> data(static_cast<size_t>(100), 1.0f);
    ChunkedAllReduce cursor(c, data, 32);
    EXPECT_EQ(cursor.num_quanta(), ChunkedAllReduce::num_quanta(100, 3, 32));
    cursor.run_all();
    EXPECT_TRUE(cursor.done());
  });
}

TEST(ChunkedAllReduce, QuantaMustRunInOrder) {
  Fabric fabric(1);
  run_cluster(fabric, [&](Communicator& c) {
    std::vector<float> data(8, 1.0f);
    ChunkedAllReduce cursor(c, data, 16);
    EXPECT_EQ(cursor.next_quantum(), 0);
    EXPECT_THROW(cursor.run_quantum(1), Error);
    cursor.run_quantum(0);
    EXPECT_TRUE(cursor.done());
    EXPECT_THROW(cursor.run_quantum(1), Error);
  });
}

// Interleaving two cursors' quanta on the same channel (the preemption
// pattern): tags were reserved at construction, so arbitrary interleaving
// must still land every slice.
TEST(ChunkedAllReduce, InterleavedCursorsOnOneChannel) {
  constexpr int kWorld = 4;
  constexpr int64_t kElems = 512;
  Fabric fabric(kWorld);
  run_cluster(fabric, [&](Communicator& c) {
    const std::vector<float> a0 = make_data(c.rank(), kElems, 11);
    const std::vector<float> b0 = make_data(c.rank(), kElems, 13);
    std::vector<float> a_mono = a0, b_mono = b0;
    c.allreduce(a_mono);
    c.allreduce(b_mono);
    std::vector<float> a = a0, b = b0;
    ChunkedAllReduce ca(c, a, 64);
    ChunkedAllReduce cb(c, b, 128);
    // Alternate quanta: a, b, a, b, ... then drain whichever remains.
    while (!ca.done() || !cb.done()) {
      if (!ca.done()) ca.run_quantum(ca.next_quantum());
      if (!cb.done()) cb.run_quantum(cb.next_quantum());
    }
    EXPECT_TRUE(bitwise_equal(a, a_mono));
    EXPECT_TRUE(bitwise_equal(b, b_mono));
  });
}

// A non-null identity codec must be wire-transparent: same bits as the
// codec-less path (it round-trips every chunk through encode/decode buffers
// but never alters a value).
TEST(ChunkedAllReduce, IdentityCodecIsBitwiseTransparent) {
  constexpr int kWorld = 4;
  constexpr int64_t kElems = 777;
  Fabric fabric(kWorld);
  run_cluster(fabric, [&](Communicator& c) {
    const std::vector<float> data = make_data(c.rank(), kElems, 23);
    std::vector<float> plain = data;
    allreduce_chunked(c, plain, 64);
    const auto codec = make_codec(CodecKind::kIdentity);
    std::vector<float> coded = data;
    allreduce_chunked(c, coded, 64, ReduceOp::kSum, codec.get());
    EXPECT_TRUE(bitwise_equal(plain, coded));
  });
}

TEST(ChunkedAllReduce, SurvivesRecoverableFaultInjection) {
  constexpr int kWorld = 3;
  constexpr int64_t kElems = 1000;
  // Clean-fabric reference first: fault recovery must not change a bit.
  std::vector<std::vector<float>> expected(kWorld);
  {
    Fabric fabric(kWorld);
    run_cluster(fabric, [&](Communicator& c) {
      std::vector<float> data = make_data(c.rank(), kElems, 17);
      c.allreduce(data);
      expected[static_cast<size_t>(c.rank())] = std::move(data);
    });
  }
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Fabric fabric(kWorld);
    FaultConfig faults;
    faults.drop_prob = 0.02;
    faults.dup_prob = 0.02;
    faults.reorder_prob = 0.05;
    faults.recoverable = true;
    fabric.set_fault_config(faults, seed);
    run_cluster(fabric, [&](Communicator& c) {
      std::vector<float> data = make_data(c.rank(), kElems, 17);
      allreduce_chunked(c, data, 64);
      EXPECT_TRUE(
          bitwise_equal(data, expected[static_cast<size_t>(c.rank())]))
          << "rank " << c.rank() << " seed " << seed;
    });
  }
}

// --- segmented rings ---

// Segment sizes covering the edge cases: empty and one-element segments,
// segments smaller and larger than one 256-byte slice, and odd lengths (an
// odd fp16 slice leaves the next raw segment misaligned in the message).
const std::vector<int64_t> kSegmentElems = {0, 1, 37, 300, 1, 129};

// One codec list per case: all null, all fp16, all top-k, and a mix.
std::vector<std::vector<const Codec*>> codec_lists(const Codec* fp16,
                                                   const Codec* topk) {
  const size_t n = kSegmentElems.size();
  std::vector<const Codec*> mixed;
  for (size_t i = 0; i < n; ++i) {
    const Codec* cycle[] = {nullptr, fp16, topk};
    mixed.push_back(cycle[i % 3]);
  }
  return {std::vector<const Codec*>(n, nullptr),
          std::vector<const Codec*>(n, fp16),
          std::vector<const Codec*>(n, topk), mixed};
}

std::vector<Segment> segments_of(const std::vector<const Codec*>& codecs) {
  std::vector<Segment> segs;
  for (size_t i = 0; i < kSegmentElems.size(); ++i) {
    segs.push_back({.elems = kSegmentElems[i], .codec = codecs[i]});
  }
  return segs;
}

// Messages one rank sends in a flat segmented ring: per ring step, the
// largest slice count of any segment's send block.
int64_t expected_ring_messages(const std::vector<Segment>& segs, int world,
                               int rank, int64_t chunk_bytes) {
  const auto block_elems = [&](int64_t elems, int chunk) {
    return elems * (chunk + 1) / world - elems * chunk / world;
  };
  int64_t total = 0;
  for (int step = 0; step < 2 * (world - 1); ++step) {
    const int s = step < world - 1 ? step : step - (world - 1);
    const int chunk = step < world - 1 ? (rank - s - 1 + 2 * world) % world
                                       : (rank - s + 2 * world) % world;
    int64_t slices = 0;
    for (const Segment& seg : segs) {
      slices = std::max(
          slices, ChunkPlan::over(block_elems(seg.elems, chunk), chunk_bytes)
                      .num_chunks());
    }
    total += slices;
  }
  return total;
}

// Each segment of a segmented ring must come out bitwise equal to a lone
// allreduce_chunked over that segment (same codec, same chunking), while
// the ring sends one message per ring step and slice, not one per segment.
TEST(SegmentedAllReduce, EachSegmentBitwiseEqualsLoneCall) {
  const auto fp16 = make_codec(CodecKind::kFp16);
  const auto topk = make_codec(CodecKind::kTopK, 0.25);
  int64_t total = 0;
  for (const int64_t e : kSegmentElems) total += e;
  for (const int world : {2, 3, 4, 5}) {
    for (const auto& codecs : codec_lists(fp16.get(), topk.get())) {
      const std::vector<Segment> segs = segments_of(codecs);
      for (const int64_t chunk : {int64_t{0}, int64_t{256}}) {
        SCOPED_TRACE("world=" + std::to_string(world) +
                     " chunk=" + std::to_string(chunk));
        std::vector<std::vector<float>> lone(static_cast<size_t>(world));
        {
          Fabric fabric(world);
          run_cluster(fabric, [&](Communicator& c) {
            std::vector<float> out;
            for (size_t i = 0; i < segs.size(); ++i) {
              std::vector<float> seg =
                  make_data(c.rank(), segs[i].elems, 31 + i);
              allreduce_chunked(c, seg, chunk, ReduceOp::kSum,
                                segs[i].codec);
              out.insert(out.end(), seg.begin(), seg.end());
            }
            lone[static_cast<size_t>(c.rank())] = std::move(out);
          });
        }
        Fabric fabric(world);
        run_cluster(fabric, [&](Communicator& c) {
          std::vector<float> data;
          for (size_t i = 0; i < segs.size(); ++i) {
            const std::vector<float> seg =
                make_data(c.rank(), segs[i].elems, 31 + i);
            data.insert(data.end(), seg.begin(), seg.end());
          }
          ASSERT_EQ(static_cast<int64_t>(data.size()), total);
          ChunkedAllReduce cursor(c, data, segs, chunk);
          EXPECT_EQ(cursor.num_quanta(),
                    ChunkedAllReduce::num_quanta(segs, world, chunk));
          cursor.run_all();
          EXPECT_TRUE(bitwise_equal(data, lone[static_cast<size_t>(c.rank())]))
              << "rank " << c.rank();
        });
        // Kmax: the slice count of the largest block of any segment.
        int64_t kmax = 1;
        for (const Segment& seg : segs) {
          kmax = std::max(kmax, ChunkPlan::over((seg.elems + world - 1) / world,
                                                chunk)
                                    .num_chunks());
        }
        EXPECT_EQ(ChunkedAllReduce::num_quanta(segs, world, chunk),
                  2 * (world - 1) * kmax);
        for (int r = 0; r < world; ++r) {
          const int64_t sent = fabric.traffic_from(r).messages;
          EXPECT_EQ(sent, expected_ring_messages(segs, world, r, chunk))
              << "rank " << r;
          EXPECT_LE(sent, 2 * (world - 1) * kmax) << "rank " << r;
          // Unsliced, every ring step is exactly one message.
          if (chunk == 0) {
            EXPECT_EQ(sent, 2 * (world - 1)) << "rank " << r;
          }
        }
      }
    }
  }
}

// Presence-style exactness: a null-codec segment stays exact beside a
// lossy top-k segment in the same messages.
TEST(SegmentedAllReduce, NullSegmentStaysExactBesideLossySegment) {
  constexpr int kWorld = 4;
  constexpr int64_t kValues = 240;
  constexpr int64_t kFlags = 60;
  const auto topk = make_codec(CodecKind::kTopK, 0.05);
  Fabric fabric(kWorld);
  run_cluster(fabric, [&](Communicator& c) {
    std::vector<float> data = make_data(c.rank(), kValues, 9);
    std::vector<float> expected(static_cast<size_t>(kFlags), 0.0f);
    for (int64_t k = 0; k < kFlags; ++k) {
      for (int r = 0; r < kWorld; ++r) {
        if ((k + r) % 3 == 0) expected[static_cast<size_t>(k)] += 1.0f;
      }
      data.push_back((k + c.rank()) % 3 == 0 ? 1.0f : 0.0f);
    }
    const Segment segs[] = {{.elems = kValues, .codec = topk.get()},
                            {.elems = kFlags}};
    allreduce_chunked(c, data, segs, 256);
    const std::vector<float> flags(data.begin() + kValues, data.end());
    EXPECT_EQ(flags, expected) << "rank " << c.rank();
  });
}

TEST(ChunkPlan, CoversEveryElementInOrder) {
  const ChunkPlan plan = ChunkPlan::over(1001, 64, sizeof(float));
  // 64-byte chunks of floats: 16 elems each, ceil(1001/16) = 63 chunks.
  EXPECT_EQ(plan.num_chunks(), 63);
  int64_t cursor = 0;
  for (int64_t i = 0; i < plan.num_chunks(); ++i) {
    const auto [b, e] = plan.chunk(i);
    EXPECT_EQ(b, cursor);
    EXPECT_GT(e, b);
    cursor = e;
  }
  EXPECT_EQ(cursor, 1001);
  // Degenerate shapes still yield exactly one (possibly empty) chunk.
  EXPECT_EQ(ChunkPlan::over(0, 64).num_chunks(), 1);
  EXPECT_EQ(ChunkPlan::over(10, 0).num_chunks(), 1);
}

// Sub-element chunk budgets degrade to 1-element quanta, never zero: a
// zero-element chunk would make num_chunks unbounded and stall the ring.
// The budget bounds granularity, not message size, so the chunks overshoot
// the byte budget by up to one element and still cover every element.
TEST(ChunkPlan, SubElementChunkBytesYieldsOneElemQuanta) {
  for (const int64_t chunk_bytes : {int64_t{1}, int64_t{2}, int64_t{3}}) {
    const ChunkPlan plan = ChunkPlan::over(7, chunk_bytes, sizeof(float));
    EXPECT_EQ(plan.chunk_elems, 1) << "chunk_bytes=" << chunk_bytes;
    EXPECT_EQ(plan.num_chunks(), 7);
    for (int64_t i = 0; i < 7; ++i) {
      EXPECT_EQ(plan.chunk(i), (std::pair<int64_t, int64_t>{i, i + 1}));
    }
  }
  // Wider elements hit the same floor.
  EXPECT_EQ(ChunkPlan::over(5, 7, 8).chunk_elems, 1);
  // And the degenerate combination still yields the single empty chunk.
  EXPECT_EQ(ChunkPlan::over(0, 1, 8).num_chunks(), 1);
}

// Zero-byte items can never push `filled` past the budget, so they merge
// into the current bucket instead of spawning empty transfers — even when
// the bucket already sits exactly at its budget, and even when they trail
// the last real payload.
TEST(ChunkPlan, ZeroByteItemsMergeIntoCurrentBucket) {
  // Zero-byte trailing items ride the previous bucket.
  const std::vector<int64_t> trailing = {100, 100, 0, 0, 0};
  const auto t = plan_buckets(trailing, 200);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0], (std::pair<size_t, size_t>{0, 5}));
  // A bucket exactly at budget still absorbs a zero-byte item; the next
  // real payload is what closes it.
  const std::vector<int64_t> exact = {200, 0, 1};
  const auto e = plan_buckets(exact, 200);
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[0], (std::pair<size_t, size_t>{0, 2}));
  EXPECT_EQ(e[1], (std::pair<size_t, size_t>{2, 3}));
  // Zero-byte items between payloads join the open bucket, not the next.
  const std::vector<int64_t> interior = {150, 0, 100, 50};
  const auto m = plan_buckets(interior, 200);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0], (std::pair<size_t, size_t>{0, 2}));
  EXPECT_EQ(m[1], (std::pair<size_t, size_t>{2, 4}));
  // All-zero runs collapse into one bucket...
  EXPECT_EQ(plan_buckets(std::vector<int64_t>{0, 0, 0}, 64).size(), 1u);
  // ...except under the per-item rule, which wins for zero bytes too.
  EXPECT_EQ(plan_buckets(std::vector<int64_t>{0, 0, 0}, 0).size(), 3u);
}

TEST(ChunkPlan, PlanBucketsGreedyInOrder) {
  const std::vector<int64_t> bytes = {100, 100, 100, 500, 40, 40};
  // Budget 240: [100,100] | [100] | [500 oversize alone] | [40,40].
  const auto buckets = plan_buckets(bytes, 240);
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], (std::pair<size_t, size_t>{0, 2}));
  EXPECT_EQ(buckets[1], (std::pair<size_t, size_t>{2, 3}));
  EXPECT_EQ(buckets[2], (std::pair<size_t, size_t>{3, 4}));
  EXPECT_EQ(buckets[3], (std::pair<size_t, size_t>{4, 6}));
  // Budget <= 0: one item per bucket.
  EXPECT_EQ(plan_buckets(bytes, 0).size(), bytes.size());
  EXPECT_TRUE(plan_buckets(std::vector<int64_t>{}, 128).empty());
}

}  // namespace
}  // namespace embrace::comm
