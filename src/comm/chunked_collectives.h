// Pipelined, chunk-granular ring AllReduce (DESIGN.md §10).
//
// The monolithic ring AllReduce (Communicator::allreduce) runs 2(N-1)
// steps, each sending one whole block and receive-reducing another; a
// scheduler driving it can only switch ops between *whole transfers*.
// ChunkedAllReduce exposes the same algorithm as a cursor of `num_quanta()`
// ordered quanta so a scheduler can interleave quanta of several ops: a
// high-priority op preempts an in-flight dense AllReduce at a chunk
// boundary instead of waiting behind the whole tensor.
//
// Quantum schedule. Each ring step's blocks are sliced into <= chunk_bytes
// pieces (ChunkPlan). The first quantum of a step eagerly enqueues *all* of
// the step's slice sends (fabric sends are async), then each quantum
// receive-reduces (reduce-scatter phase) or receive-copies (allgather
// phase) one slice — so the wire carries small messages the peer starts
// consuming immediately (pipelining), while this rank is free to run other
// ops' quanta between slices.
//
// Segments. One cursor may reduce several tensors laid end to end in one
// buffer (the trainer's dense head gradients, the hot-row sync's values
// and presence). Each Segment is reduced as if it ran alone: its own block
// partition (chunk_range over the segment), its own ChunkPlan slicing and
// its own codec per hop. Only the wire is shared: the message of ring step
// s, slice j carries slice j of every segment's step-s block, back to back
// in segment order. Codec::encoded_bytes depends on the element count
// alone, so the receiver splits a message without a length prefix. A
// latency-bound link pays α once per ring step instead of once per tensor.
//
// Invariants (tested):
//  * Bitwise reproducibility. Every segment's block partition and
//    per-element reduce order are exactly the monolithic ring's over that
//    segment; only the wire messages are split or shared. Results are
//    bitwise-equal, segment by segment, to Communicator::allreduce (null
//    codec) or to a lone cursor over the segment (any codec), for every
//    chunk size.
//  * Rank-invariant quantum count. Block sizes differ by at most one
//    element across ranks, so per-step slice counts could differ; every
//    step is padded to Kmax (the largest slice count of any segment's
//    largest block) with no-op quanta. num_quanta() is a pure function of
//    (segment sizes, world, chunk_bytes), letting all ranks submit
//    identical slice counts to the negotiated scheduler.
//  * SPMD tags. Construction reserves the whole tag range up front
//    (Communicator::reserve_tags), so constructing the cursor is the only
//    point that must line up across ranks; quanta may then interleave with
//    other channels' traffic arbitrarily.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comm/chunk_plan.h"
#include "comm/codec.h"
#include "comm/communicator.h"

namespace embrace::comm {

// The next `elems` floats of a segmented buffer and the codec their wire
// slices travel in (null: raw float blocks). Segments tile the buffer in
// order; all ranks must pass the same sizes and equivalent codecs.
struct Segment {
  int64_t elems = 0;
  const Codec* codec = nullptr;  // not owned
};

class ChunkedAllReduce {
 public:
  // Quanta for the given geometry: 2(world-1)*Kmax, or 1 when world == 1
  // (a single no-op quantum keeps "submit one sliced op" uniform).
  // Identical on every rank; chunk_bytes <= 0 means one slice per ring
  // step (step-granular preemption, no intra-block splitting).
  static int64_t num_quanta(std::span<const Segment> segments, int world_size,
                            int64_t chunk_bytes);
  // One segment of `elems` floats.
  static int64_t num_quanta(int64_t elems, int world_size,
                            int64_t chunk_bytes);

  // `data` must outlive the cursor and have equal size on all ranks.
  // Reserves tags: all ranks must construct at the same point in the
  // channel's collective order.
  //
  // With a non-null `codec` every wire slice travels codec-encoded (and is
  // decoded + reduced on arrival); all ranks must pass an equivalent codec
  // (same kind and parameters), and `codec` must outlive the cursor. A
  // null codec keeps the raw float-block fast path — byte-for-byte today's
  // wire traffic. Lossy codecs quantize each hop's partial sums, so the
  // result is approximate; pair them with error feedback (comm/codec.h).
  ChunkedAllReduce(Communicator& comm, std::span<float> data,
                   int64_t chunk_bytes, ReduceOp op = ReduceOp::kSum,
                   const Codec* codec = nullptr);
  // Segmented form: `segments` tile `data` in order (their sizes must sum
  // to data.size()), and each carries its own codec. Codecs must outlive
  // the cursor; the segment list itself is copied.
  ChunkedAllReduce(Communicator& comm, std::span<float> data,
                   std::span<const Segment> segments, int64_t chunk_bytes,
                   ReduceOp op = ReduceOp::kSum);

  int64_t num_quanta() const { return total_quanta_; }
  int64_t next_quantum() const { return next_; }
  bool done() const { return next_ == total_quanta_; }

  // Runs quantum `q`; quanta must run in strictly increasing order
  // (q == next_quantum()). Other work — including other cursors' quanta —
  // may run between calls.
  void run_quantum(int64_t q);

  // Runs every remaining quantum back-to-back (the unscheduled path).
  void run_all();

 private:
  struct Part {
    int64_t offset = 0;  // into data_
    int64_t elems = 0;
    const Codec* codec = nullptr;
  };

  Communicator* comm_;
  std::span<float> data_;
  std::vector<Part> parts_;
  ReduceOp op_;
  int64_t chunk_bytes_ = 0;
  int64_t kmax_ = 1;         // padded slice count per ring step
  int64_t total_quanta_ = 1;
  int64_t next_ = 0;
  uint64_t base_tag_ = 0;    // tag(step, j) = base + step * kmax_ + j
  bool trivial_ = false;     // world == 1: nothing to exchange
  std::vector<float> decode_scratch_;
  std::vector<std::byte> wire_scratch_;
};

// Convenience: constructs a cursor and runs every quantum. Bitwise-equal
// to Communicator::allreduce when codec is null (or lossless).
void allreduce_chunked(Communicator& comm, std::span<float> data,
                       int64_t chunk_bytes, ReduceOp op = ReduceOp::kSum,
                       const Codec* codec = nullptr);
// Segmented convenience: every segment bitwise-equal to a lone call on it,
// 2(world-1)·Kmax messages per rank at most (exactly 2(world-1) at
// chunk_bytes <= 0) instead of that many per segment.
void allreduce_chunked(Communicator& comm, std::span<float> data,
                       std::span<const Segment> segments, int64_t chunk_bytes,
                       ReduceOp op = ReduceOp::kSum);

}  // namespace embrace::comm
