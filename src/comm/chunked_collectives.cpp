#include "comm/chunked_collectives.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace embrace::comm {
namespace {

// The largest block under chunk_range's contiguous partitioning: blocks
// differ by at most one element (floor(total*k/n) bounds).
int64_t max_block_elems(int64_t elems, int world_size) {
  const int64_t q = elems / world_size;
  const int64_t r = elems % world_size;
  return q + (r > 0 ? 1 : 0);
}

int64_t padded_slices_per_step(std::span<const Segment> segments,
                               int world_size, int64_t chunk_bytes) {
  int64_t kmax = 1;
  for (const Segment& seg : segments) {
    EMBRACE_CHECK_GE(seg.elems, 0);
    kmax = std::max(kmax, ChunkPlan::over(max_block_elems(seg.elems,
                                                          world_size),
                                          chunk_bytes, sizeof(float))
                              .num_chunks());
  }
  return kmax;
}

// A float view of n wire floats at p. Wire buffers are max_align_t
// aligned, but a raw segment that follows an odd-length fp16 slice is
// not; that case is copied out first.
std::span<const float> floats_at(const std::byte* p, size_t n,
                                 std::vector<float>& scratch) {
  if (reinterpret_cast<uintptr_t>(p) % alignof(float) == 0) {
    return {reinterpret_cast<const float*>(p), n};
  }
  scratch.resize(n);
  if (n > 0) std::memcpy(scratch.data(), p, scratch.size() * sizeof(float));
  return scratch;
}

}  // namespace

int64_t ChunkedAllReduce::num_quanta(std::span<const Segment> segments,
                                     int world_size, int64_t chunk_bytes) {
  EMBRACE_CHECK_GE(world_size, 1);
  if (world_size == 1) return 1;
  return 2 * (world_size - 1) *
         padded_slices_per_step(segments, world_size, chunk_bytes);
}

int64_t ChunkedAllReduce::num_quanta(int64_t elems, int world_size,
                                     int64_t chunk_bytes) {
  const std::array<Segment, 1> one{Segment{.elems = elems}};
  return num_quanta(one, world_size, chunk_bytes);
}

ChunkedAllReduce::ChunkedAllReduce(Communicator& comm, std::span<float> data,
                                   int64_t chunk_bytes, ReduceOp op,
                                   const Codec* codec)
    : ChunkedAllReduce(
          comm, data,
          std::array<Segment, 1>{Segment{
              .elems = static_cast<int64_t>(data.size()), .codec = codec}},
          chunk_bytes, op) {}

ChunkedAllReduce::ChunkedAllReduce(Communicator& comm, std::span<float> data,
                                   std::span<const Segment> segments,
                                   int64_t chunk_bytes, ReduceOp op)
    : comm_(&comm),
      data_(data),
      op_(op),
      chunk_bytes_(chunk_bytes),
      trivial_(comm.size() == 1) {
  static obs::Counter& bytes_counter =
      obs::counter("comm.bytes{collective=allreduce_chunked}");
  static obs::Counter& calls_counter =
      obs::counter("comm.calls{collective=allreduce_chunked}");
  bytes_counter.add(static_cast<int64_t>(data.size() * sizeof(float)));
  calls_counter.increment();
  int64_t offset = 0;
  parts_.reserve(segments.size());
  for (const Segment& seg : segments) {
    EMBRACE_CHECK_GE(seg.elems, 0);
    parts_.push_back({offset, seg.elems, seg.codec});
    offset += seg.elems;
  }
  EMBRACE_CHECK_EQ(offset, static_cast<int64_t>(data.size()),
                   << "segments must tile the buffer");
  if (trivial_) return;
  kmax_ = padded_slices_per_step(segments, comm.size(), chunk_bytes);
  total_quanta_ = 2 * (comm.size() - 1) * kmax_;
  base_tag_ = comm.reserve_tags(total_quanta_);
}

void ChunkedAllReduce::run_quantum(int64_t q) {
  EMBRACE_CHECK_EQ(q, next_, << "quanta must run in order");
  EMBRACE_CHECK_LT(q, total_quanta_);
  ++next_;
  if (trivial_) return;
  obs::ScopedSpan span("allreduce_chunked", "chunk", q, "channel",
                       comm_->channel_id());
  const int n = comm_->size();
  const int rank = comm_->rank();
  const int64_t step = q / kmax_;
  const int64_t j = q % kmax_;
  // Same block walk as the monolithic ring (reduce_scatter + allgather in
  // Communicator), per segment: reduce-scatter step s sends block
  // (rank-s-1) and receive-reduces block (rank-s-2); allgather step s
  // forwards block (rank-s) and receive-copies block (rank-s-1).
  const bool reduce_phase = step < n - 1;
  const int s = static_cast<int>(reduce_phase ? step : step - (n - 1));
  const int send_chunk = reduce_phase ? (rank - s - 1 + 2 * n) % n
                                      : (rank - s + 2 * n) % n;
  const int recv_chunk = reduce_phase ? (rank - s - 2 + 2 * n) % n
                                      : (rank - s - 1 + 2 * n) % n;
  const int to = (rank + 1) % n;
  const int from = (rank - 1 + n) % n;
  const auto tag = [&](int64_t slice) {
    return base_tag_ + static_cast<uint64_t>(step * kmax_ + slice);
  };
  // Calls fn(segment, slice) for slice k of every segment's block `chunk`
  // that has one, in segment order; false when none has.
  const auto for_slice = [&](int chunk, int64_t k, auto&& fn) {
    bool any = false;
    for (const Part& part : parts_) {
      const auto [b, e] = comm_->chunk_range(part.elems, chunk);
      const ChunkPlan plan = ChunkPlan::over(e - b, chunk_bytes_);
      if (k >= plan.num_chunks()) continue;
      const auto [sb, se] = plan.chunk(k);
      any = true;
      fn(part, data_.subspan(static_cast<size_t>(part.offset + b + sb),
                             static_cast<size_t>(se - sb)));
    }
    return any;
  };
  const auto wire_bytes = [](const Part& part, std::span<const float> slice) {
    const auto elems = static_cast<int64_t>(slice.size());
    return part.codec != nullptr ? part.codec->encoded_bytes(elems)
                                 : elems * static_cast<int64_t>(sizeof(float));
  };
  if (j == 0 && !reduce_phase && s == 0) {
    // Reduce->gather transition: this rank now owns its fully-reduced
    // blocks in raw form, but every peer will receive
    // decode(encode(block)). Under a lossy codec the owner must project its
    // own copy through the codec — per send slice, since top-k selects
    // within a slice — or ranks end the collective with different bits.
    const auto project = [&](const Part& part, std::span<float> slice) {
      if (part.codec == nullptr) return;
      wire_scratch_.resize(static_cast<size_t>(wire_bytes(part, slice)));
      part.codec->encode_into(slice, wire_scratch_.data());
      part.codec->decode(wire_scratch_, slice);
    };
    int64_t k = 0;
    while (for_slice(send_chunk, k, project)) ++k;
  }
  if (j == 0) {
    // First quantum of the step: eagerly enqueue every slice message
    // (fabric sends are async), so the peer's receives pipeline behind
    // them while later quanta — ours or a preempting op's — execute.
    // Message k packs slice k of every segment that has one.
    for (int64_t k = 0;; ++k) {
      int64_t bytes = 0;
      const auto size = [&](const Part& part, std::span<float> slice) {
        bytes += wire_bytes(part, slice);
      };
      if (!for_slice(send_chunk, k, size)) break;
      Bytes msg = comm_->pool().acquire(static_cast<size_t>(bytes));
      std::byte* out = msg.data();
      for_slice(send_chunk, k, [&](const Part& part, std::span<float> slice) {
        if (part.codec != nullptr) {
          part.codec->encode_into(slice, out);
          codec_count_bytes(*part.codec, static_cast<int64_t>(slice.size()));
        } else if (!slice.empty()) {
          std::memcpy(out, slice.data(), slice.size_bytes());
        }
        out += wire_bytes(part, slice);
      });
      comm_->send_bytes_block(to, tag(k), std::move(msg));
    }
  }
  // Receive message j of the step's recv blocks. Quanta past every
  // segment's own slice count are padding (blocks differ by at most one
  // element across ranks; the schedule is padded to Kmax so every rank
  // agrees on the quantum count) — nothing to receive.
  int64_t expected = 0;
  const auto size = [&](const Part& part, std::span<float> slice) {
    expected += wire_bytes(part, slice);
  };
  if (!for_slice(recv_chunk, j, size)) return;
  Bytes wire = comm_->recv_bytes_block(from, tag(j));
  EMBRACE_CHECK_EQ(static_cast<int64_t>(wire.size()), expected,
                   << "segmented payload size mismatch");
  const std::byte* in = wire.data();
  for_slice(recv_chunk, j, [&](const Part& part, std::span<float> slice) {
    const int64_t len = wire_bytes(part, slice);
    if (part.codec != nullptr) {
      const std::span<const std::byte> src(in, static_cast<size_t>(len));
      if (reduce_phase) {
        decode_scratch_.resize(slice.size());
        part.codec->decode(src, decode_scratch_);
        reduce_into(slice, decode_scratch_, op_);
      } else {
        part.codec->decode(src, slice);
      }
    } else if (reduce_phase) {
      reduce_into(slice, floats_at(in, slice.size(), decode_scratch_), op_);
    } else if (!slice.empty()) {
      std::memcpy(slice.data(), in, slice.size_bytes());
    }
    in += len;
  });
  comm_->pool().release(std::move(wire));
}

void ChunkedAllReduce::run_all() {
  while (!done()) run_quantum(next_);
}

void allreduce_chunked(Communicator& comm, std::span<float> data,
                       int64_t chunk_bytes, ReduceOp op, const Codec* codec) {
  ChunkedAllReduce cursor(comm, data, chunk_bytes, op, codec);
  cursor.run_all();
}

void allreduce_chunked(Communicator& comm, std::span<float> data,
                       std::span<const Segment> segments, int64_t chunk_bytes,
                       ReduceOp op) {
  ChunkedAllReduce cursor(comm, data, segments, chunk_bytes, op);
  cursor.run_all();
}

}  // namespace embrace::comm
