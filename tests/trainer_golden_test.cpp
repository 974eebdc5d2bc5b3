// Golden training runs for the threaded trainer: every step's loss bit
// pattern, and the fabric's byte and message totals, over a grid of knob
// combinations. A refactor of the training step that moves a single loss
// bit, wire byte or message shows up here as a changed row.
//
// The loss bits were captured before the dense-sync paths were folded into
// one, and have not moved since. The byte and message totals were re-pinned
// once, when the dense head became one segmented AllReduce per step and the
// per-step loss AllReduce became one segmented ring after the last step.
// Payload bytes did not change; on every unchunked row the drop is exactly
// what is no longer sent:
//   * loss: (5 - 1) steps × 4 ranks × 2(4 - 1) = 96 messages;
//   * dense, fusion_bytes 0 (the head's 4 tensors were 4 ops, now one):
//     3 × 5 steps × 24 messages (flat ring) or × 12 (2×2 two-level);
//   * announcements, fusion_bytes 0: the names "dense/sS/1".."dense/sS/3"
//     and their separators, 33 bytes × 3 followers × 5 steps = 495 bytes.
// fusion_bytes 4096 rows already ran one dense op and drop only the loss
// messages.
//
// Grid, in row order: strategy × codec × topology {flat, 2 nodes × 2 GPUs}
// × chunk_bytes {0, 256} × fusion_bytes {0, 4096} × tables {1, 2}, with 4
// workers, vocab 300, dim 12 and 5 steps. The four fabric strategies run
// the codecs {identity, fp16, top-k}; the two PS emulations ignore the
// codec knob and run identity only. 14 × 16 = 224 rows.
//
// Chunked rows (chunk_bytes > 0) pin losses only. Their dense ops run as
// slices, every slice ends a negotiation round, and which other ops a
// round picks up depends on what the training thread has submitted by
// then, so the number of round announcements on the wire may follow
// thread timing. The losses do not: every rank applies the same updates
// in the same order. Unchunked rows pin all three.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "embrace/strategy.h"

namespace embrace::core {
namespace {

constexpr int kWorkers = 4;
constexpr int kSteps = 5;
constexpr int64_t kUnpinned = -1;

struct Case {
  StrategyKind strategy;
  CodecKind codec;
  bool topology;
  int64_t chunk_bytes;
  int64_t fusion_bytes;
  int tables;
};

struct Golden {
  uint32_t loss_bits[kSteps];
  int64_t fabric_bytes;     // kUnpinned on chunked rows
  int64_t fabric_messages;  // kUnpinned on chunked rows
};

bool is_ps(StrategyKind s) {
  return s == StrategyKind::kParallaxPs || s == StrategyKind::kBytePsDense;
}

// One (strategy, codec) pair per test instance, in grid order.
struct Arm {
  StrategyKind strategy;
  CodecKind codec;
};

std::vector<Arm> arms() {
  std::vector<Arm> out;
  for (StrategyKind s :
       {StrategyKind::kHorovodAllReduce, StrategyKind::kHorovodAllGather,
        StrategyKind::kBytePsDense, StrategyKind::kParallaxPs,
        StrategyKind::kEmbRaceNoVss, StrategyKind::kEmbRace}) {
    if (is_ps(s)) {
      out.push_back({s, CodecKind::kIdentity});
      continue;
    }
    for (CodecKind c :
         {CodecKind::kIdentity, CodecKind::kFp16, CodecKind::kTopK}) {
      out.push_back({s, c});
    }
  }
  return out;
}

std::vector<Case> grid() {
  std::vector<Case> out;
  for (const Arm& a : arms()) {
    for (bool topology : {false, true}) {
      for (int64_t chunk : {int64_t{0}, int64_t{256}}) {
        for (int64_t fusion : {int64_t{0}, int64_t{4096}}) {
          for (int tables : {1, 2}) {
            out.push_back(
                {a.strategy, a.codec, topology, chunk, fusion, tables});
          }
        }
      }
    }
  }
  return out;
}

TrainConfig config_of(const Case& c) {
  TrainConfig cfg;
  cfg.strategy = c.strategy;
  cfg.vocab = 300;
  cfg.dim = 12;
  cfg.hidden = 16;
  cfg.classes = 20;
  cfg.head = nn::HeadKind::kPoolMlp;
  cfg.optim = is_ps(c.strategy) ? OptimKind::kSgd : OptimKind::kAdam;
  cfg.lr = 0.01f;
  cfg.batch_per_worker = 4;
  cfg.steps = kSteps;
  cfg.seed = 77;
  cfg.codec = c.codec;
  cfg.chunk_bytes = c.chunk_bytes;
  cfg.fusion_bytes = c.fusion_bytes;
  cfg.num_tables = c.tables;
  if (c.topology) {
    cfg.topo_nodes = 2;
    cfg.topo_gpus_per_node = 2;
  }
  return cfg;
}

std::string describe(const Case& c) {
  return std::string(strategy_kind_name(c.strategy)) + " codec=" +
         codec_kind_name(c.codec) + (c.topology ? " topo=2x2" : " flat") +
         " chunk=" + std::to_string(c.chunk_bytes) +
         " fusion=" + std::to_string(c.fusion_bytes) +
         " tables=" + std::to_string(c.tables);
}

constexpr Golden kGolden[] = {
    // horovod-allreduce, codec=identity
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     511899, 342},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     944109, 522},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     511899, 342},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     944109, 522},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     523075, 312},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     955285, 492},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     523075, 312},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     955285, 492},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     kUnpinned, kUnpinned},
    // horovod-allreduce, codec=fp16
    {{0x403fc04au, 0x4040a21eu, 0x40416907u, 0x4042f13cu, 0x4040a165u},
     263019, 342},
    {{0x4042091du, 0x40408cd7u, 0x4040b84eu, 0x403d3ff1u, 0x403c3371u},
     479229, 522},
    {{0x403fc04au, 0x4040a21eu, 0x40416904u, 0x4042f134u, 0x4040a16eu},
     263019, 342},
    {{0x4042091du, 0x40408cd7u, 0x4040b850u, 0x403d3ff0u, 0x403c3372u},
     479229, 522},
    {{0x403fc04au, 0x4040a21eu, 0x40416907u, 0x4042f13cu, 0x4040a165u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b84eu, 0x403d3ff1u, 0x403c3371u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416904u, 0x4042f134u, 0x4040a16eu},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b850u, 0x403d3ff0u, 0x403c3372u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a168u},
     296115, 312},
    {{0x4042091du, 0x40408cd7u, 0x4040b850u, 0x403d3feeu, 0x403c336fu},
     512325, 492},
    {{0x403fc04au, 0x4040a21eu, 0x40416904u, 0x4042f13au, 0x4040a167u},
     296115, 312},
    {{0x4042091du, 0x40408cd7u, 0x4040b850u, 0x403d3fecu, 0x403c3374u},
     512325, 492},
    {{0x403fc04au, 0x4040a21eu, 0x40416907u, 0x4042f13cu, 0x4040a165u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b84eu, 0x403d3ff1u, 0x403c3371u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416904u, 0x4042f134u, 0x4040a16eu},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b850u, 0x403d3ff0u, 0x403c3372u},
     kUnpinned, kUnpinned},
    // horovod-allreduce, codec=topk
    {{0x403fc04au, 0x40403e47u, 0x4041643eu, 0x4043fc06u, 0x40414acfu},
     218619, 342},
    {{0x4042091du, 0x40403ca5u, 0x4040eebfu, 0x403df790u, 0x403c5565u},
     392589, 522},
    {{0x403fc04au, 0x40408642u, 0x40419465u, 0x4043b370u, 0x4040e39eu},
     215739, 342},
    {{0x4042091du, 0x40406960u, 0x40411bfbu, 0x403daf7au, 0x403cbe87u},
     389709, 522},
    {{0x403fc04au, 0x40403a4au, 0x404164b6u, 0x4043eca4u, 0x40416c22u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40403916u, 0x4040f2a8u, 0x403df07bu, 0x403c771cu},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x404073e7u, 0x4041b854u, 0x4043804cu, 0x40409e72u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40406f3eu, 0x404135d6u, 0x403de119u, 0x403c928au},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x40407a37u, 0x4041982bu, 0x4043de71u, 0x4040cceeu},
     252515, 312},
    {{0x4042091du, 0x40405432u, 0x40410b7cu, 0x403ded02u, 0x403caef2u},
     426485, 492},
    {{0x403fc04au, 0x40407fecu, 0x40419dd8u, 0x4043c5ecu, 0x4040c210u},
     251875, 312},
    {{0x4042091du, 0x40404c0bu, 0x40410578u, 0x403db2a4u, 0x403cb7cbu},
     425845, 492},
    {{0x403fc04au, 0x40403a4au, 0x404164b6u, 0x4043eca4u, 0x40416c22u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40403916u, 0x4040f2a8u, 0x403df07bu, 0x403c771cu},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x404073e7u, 0x4041b854u, 0x4043804cu, 0x40409e72u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40406f3eu, 0x404135d6u, 0x403de119u, 0x403c928au},
     kUnpinned, kUnpinned},
    // horovod-allgather, codec=identity
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     114895, 325},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     127185, 485},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     114895, 325},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     127185, 485},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     126071, 295},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     138361, 455},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     126071, 295},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     138361, 455},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     kUnpinned, kUnpinned},
    // horovod-allgather, codec=fp16
    {{0x403fc04au, 0x4040a21eu, 0x40416907u, 0x4042f13eu, 0x4040a166u},
     61807, 325},
    {{0x4042091du, 0x40408cd7u, 0x4040b84eu, 0x403d3ff3u, 0x403c3370u},
     69537, 485},
    {{0x403fc04au, 0x4040a21eu, 0x40416904u, 0x4042f136u, 0x4040a170u},
     61807, 325},
    {{0x4042091du, 0x40408cd7u, 0x4040b850u, 0x403d3ff1u, 0x403c3372u},
     69537, 485},
    {{0x403fc04au, 0x4040a21eu, 0x40416907u, 0x4042f13eu, 0x4040a166u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b84eu, 0x403d3ff3u, 0x403c3370u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416904u, 0x4042f136u, 0x4040a170u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b850u, 0x403d3ff1u, 0x403c3372u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416903u, 0x4042f13au, 0x4040a16au},
     94903, 295},
    {{0x4042091du, 0x40408cd7u, 0x4040b84fu, 0x403d3feeu, 0x403c3370u},
     102633, 455},
    {{0x403fc04au, 0x4040a21eu, 0x40416904u, 0x4042f13cu, 0x4040a168u},
     94903, 295},
    {{0x4042091du, 0x40408cd7u, 0x4040b84fu, 0x403d3fedu, 0x403c3373u},
     102633, 455},
    {{0x403fc04au, 0x4040a21eu, 0x40416907u, 0x4042f13eu, 0x4040a166u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b84eu, 0x403d3ff3u, 0x403c3370u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416904u, 0x4042f136u, 0x4040a170u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b850u, 0x403d3ff1u, 0x403c3372u},
     kUnpinned, kUnpinned},
    // horovod-allgather, codec=topk
    {{0x403fc04au, 0x40403e67u, 0x404163a7u, 0x4043fc19u, 0x404149f8u},
     56071, 325},
    {{0x4042091du, 0x40403df5u, 0x4040f2f6u, 0x403dfa71u, 0x403c5d14u},
     63321, 485},
    {{0x403fc04au, 0x40408660u, 0x4041944au, 0x4043b575u, 0x4040e420u},
     53191, 325},
    {{0x4042091du, 0x40406abau, 0x4041202au, 0x403dae6cu, 0x403cca94u},
     60441, 485},
    {{0x403fc04au, 0x40404171u, 0x40415f38u, 0x4043f7dbu, 0x40414746u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40403f1eu, 0x4040f5f5u, 0x403dee1eu, 0x403c7164u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x40407af7u, 0x4041b002u, 0x40438ad1u, 0x404075d6u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40407542u, 0x404137deu, 0x403ddf54u, 0x403c88dau},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x40407a55u, 0x404197d8u, 0x4043dd92u, 0x4040cf54u},
     89967, 295},
    {{0x4042091du, 0x4040558au, 0x40410ff4u, 0x403dec5au, 0x403cb7c2u},
     97217, 455},
    {{0x403fc04au, 0x40408007u, 0x40419da7u, 0x4043c7b6u, 0x4040c2dau},
     89327, 295},
    {{0x4042091du, 0x40404d5eu, 0x40410afeu, 0x403db62fu, 0x403cc18eu},
     96577, 455},
    {{0x403fc04au, 0x40404171u, 0x40415f38u, 0x4043f7dbu, 0x40414746u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40403f1eu, 0x4040f5f5u, 0x403dee1eu, 0x403c7164u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x40407af7u, 0x4041b002u, 0x40438ad1u, 0x404075d6u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40407542u, 0x404137deu, 0x403ddf54u, 0x403c88dau},
     kUnpinned, kUnpinned},
    // byteps-dense, codec=identity
    {{0x403fc04au, 0x40405584u, 0x40423f9cu, 0x4045555cu, 0x4041df99u},
     66267, 162},
    {{0x4042091du, 0x40403c4cu, 0x4041a3b4u, 0x403eb23cu, 0x403d9fc0u},
     66477, 162},
    {{0x403fc04au, 0x40405584u, 0x40423f9cu, 0x4045555cu, 0x4041df99u},
     66267, 162},
    {{0x4042091du, 0x40403c4cu, 0x4041a3b4u, 0x403eb23cu, 0x403d9fc0u},
     66477, 162},
    {{0x403fc04au, 0x40405584u, 0x40423f9cu, 0x4045555cu, 0x4041df99u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40403c4cu, 0x4041a3b4u, 0x403eb23cu, 0x403d9fc0u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x40405584u, 0x40423f9cu, 0x4045555cu, 0x4041df99u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40403c4cu, 0x4041a3b4u, 0x403eb23cu, 0x403d9fc0u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x40405584u, 0x40423f9cu, 0x4045555cu, 0x4041df99u},
     77443, 132},
    {{0x4042091du, 0x40403c4cu, 0x4041a3b4u, 0x403eb23cu, 0x403d9fc0u},
     77653, 132},
    {{0x403fc04au, 0x40405584u, 0x40423f9cu, 0x4045555cu, 0x4041df99u},
     77443, 132},
    {{0x4042091du, 0x40403c4cu, 0x4041a3b4u, 0x403eb23cu, 0x403d9fc0u},
     77653, 132},
    {{0x403fc04au, 0x40405584u, 0x40423f9cu, 0x4045555cu, 0x4041df99u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40403c4cu, 0x4041a3b4u, 0x403eb23cu, 0x403d9fc0u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x40405584u, 0x40423f9cu, 0x4045555cu, 0x4041df99u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40403c4cu, 0x4041a3b4u, 0x403eb23cu, 0x403d9fc0u},
     kUnpinned, kUnpinned},
    // parallax-ps, codec=identity
    {{0x403fc04au, 0x40405584u, 0x40423f9cu, 0x4045555cu, 0x4041df99u},
     66267, 162},
    {{0x4042091du, 0x40403c4cu, 0x4041a3b4u, 0x403eb23cu, 0x403d9fc0u},
     66477, 162},
    {{0x403fc04au, 0x40405584u, 0x40423f9cu, 0x4045555cu, 0x4041df99u},
     66267, 162},
    {{0x4042091du, 0x40403c4cu, 0x4041a3b4u, 0x403eb23cu, 0x403d9fc0u},
     66477, 162},
    {{0x403fc04au, 0x40405584u, 0x40423f9cu, 0x4045555cu, 0x4041df99u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40403c4cu, 0x4041a3b4u, 0x403eb23cu, 0x403d9fc0u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x40405584u, 0x40423f9cu, 0x4045555cu, 0x4041df99u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40403c4cu, 0x4041a3b4u, 0x403eb23cu, 0x403d9fc0u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x40405584u, 0x40423f9cu, 0x4045555cu, 0x4041df99u},
     77443, 132},
    {{0x4042091du, 0x40403c4cu, 0x4041a3b4u, 0x403eb23cu, 0x403d9fc0u},
     77653, 132},
    {{0x403fc04au, 0x40405584u, 0x40423f9cu, 0x4045555cu, 0x4041df99u},
     77443, 132},
    {{0x4042091du, 0x40403c4cu, 0x4041a3b4u, 0x403eb23cu, 0x403d9fc0u},
     77653, 132},
    {{0x403fc04au, 0x40405584u, 0x40423f9cu, 0x4045555cu, 0x4041df99u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40403c4cu, 0x4041a3b4u, 0x403eb23cu, 0x403d9fc0u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x40405584u, 0x40423f9cu, 0x4045555cu, 0x4041df99u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40403c4cu, 0x4041a3b4u, 0x403eb23cu, 0x403d9fc0u},
     kUnpinned, kUnpinned},
    // embrace-novss, codec=identity
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     139614, 357},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     142050, 477},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     139614, 357},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     142050, 477},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     190502, 307},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     196298, 407},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     190502, 307},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     196298, 407},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     kUnpinned, kUnpinned},
    // embrace-novss, codec=fp16
    {{0x403fc04au, 0x4040a21eu, 0x40416908u, 0x4042f13eu, 0x4040a169u},
     85590, 357},
    {{0x4042091du, 0x40408cd7u, 0x4040b84eu, 0x403d3ff1u, 0x403c3371u},
     90714, 477},
    {{0x403fc04au, 0x4040a21eu, 0x40416905u, 0x4042f136u, 0x4040a172u},
     85590, 357},
    {{0x4042091du, 0x40408cd7u, 0x4040b850u, 0x403d3ff0u, 0x403c3371u},
     90714, 477},
    {{0x403fc04au, 0x4040a21eu, 0x40416908u, 0x4042f13eu, 0x4040a169u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b84eu, 0x403d3ff1u, 0x403c3371u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416905u, 0x4042f136u, 0x4040a172u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b850u, 0x403d3ff0u, 0x403c3371u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416903u, 0x4042f139u, 0x4040a16cu},
     144162, 307},
    {{0x4042091du, 0x40408cd7u, 0x4040b850u, 0x403d3fecu, 0x403c336fu},
     154382, 407},
    {{0x403fc04au, 0x4040a21eu, 0x40416904u, 0x4042f13cu, 0x4040a16bu},
     144162, 307},
    {{0x4042091du, 0x40408cd7u, 0x4040b84fu, 0x403d3fedu, 0x403c3372u},
     154382, 407},
    {{0x403fc04au, 0x4040a21eu, 0x40416908u, 0x4042f13eu, 0x4040a169u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b84eu, 0x403d3ff1u, 0x403c3371u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416905u, 0x4042f136u, 0x4040a172u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b850u, 0x403d3ff0u, 0x403c3371u},
     kUnpinned, kUnpinned},
    // embrace-novss, codec=topk
    {{0x403fc04au, 0x40403c08u, 0x40415f00u, 0x4043f50cu, 0x4041488au},
     83022, 357},
    {{0x4042091du, 0x40403aa2u, 0x4040ea3cu, 0x403de9d7u, 0x403c588du},
     88506, 477},
    {{0x403fc04au, 0x404083f1u, 0x40418f52u, 0x4043aaedu, 0x4040e2f8u},
     80142, 357},
    {{0x4042091du, 0x40406758u, 0x4041184au, 0x403d9ddeu, 0x403cbf78u},
     85626, 477},
    {{0x403fc04au, 0x40403f10u, 0x40415a3au, 0x4043f0ccu, 0x404143b7u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40403bcbu, 0x4040ec74u, 0x403ddad4u, 0x403c6a54u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040788fu, 0x4041aadau, 0x40438446u, 0x4040759au},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x404071ddu, 0x40412f1au, 0x403dcf83u, 0x403c8525u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x40407800u, 0x40419328u, 0x4043d41fu, 0x4040c8a2u},
     142134, 307},
    {{0x4042091du, 0x40405232u, 0x40410723u, 0x403dde78u, 0x403cb45fu},
     152970, 407},
    {{0x403fc04au, 0x40407d9au, 0x404198d2u, 0x4043bdcdu, 0x4040bf8au},
     141494, 307},
    {{0x4042091du, 0x40404a00u, 0x404101beu, 0x403da44eu, 0x403cba2au},
     152330, 407},
    {{0x403fc04au, 0x40403f10u, 0x40415a3au, 0x4043f0ccu, 0x404143b7u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40403bcbu, 0x4040ec74u, 0x403ddad4u, 0x403c6a54u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040788fu, 0x4041aadau, 0x40438446u, 0x4040759au},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x404071ddu, 0x40412f1au, 0x403dcf83u, 0x403c8525u},
     kUnpinned, kUnpinned},
    // embrace, codec=identity
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     125634, 417},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     133530, 597},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     125634, 417},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     133530, 597},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     168082, 357},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     183978, 507},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     168082, 357},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     183978, 507},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416902u, 0x4042f138u, 0x4040a175u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b851u, 0x403d3feeu, 0x403c337eu},
     kUnpinned, kUnpinned},
    // embrace, codec=fp16
    {{0x403fc04au, 0x4040a21eu, 0x40416908u, 0x4042f13eu, 0x4040a169u},
     87210, 417},
    {{0x4042091du, 0x40408cd7u, 0x4040b84eu, 0x403d3ff1u, 0x403c3371u},
     93954, 597},
    {{0x403fc04au, 0x4040a21eu, 0x40416905u, 0x4042f136u, 0x4040a172u},
     87210, 417},
    {{0x4042091du, 0x40408cd7u, 0x4040b850u, 0x403d3ff0u, 0x403c3371u},
     93954, 597},
    {{0x403fc04au, 0x4040a21eu, 0x40416908u, 0x4042f13eu, 0x4040a169u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b84eu, 0x403d3ff1u, 0x403c3371u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416905u, 0x4042f136u, 0x4040a172u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b850u, 0x403d3ff0u, 0x403c3371u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416903u, 0x4042f139u, 0x4040a16cu},
     147942, 357},
    {{0x4042091du, 0x40408cd7u, 0x4040b850u, 0x403d3fecu, 0x403c336fu},
     161942, 507},
    {{0x403fc04au, 0x4040a21eu, 0x40416904u, 0x4042f13cu, 0x4040a16bu},
     147942, 357},
    {{0x4042091du, 0x40408cd7u, 0x4040b84fu, 0x403d3fedu, 0x403c3372u},
     161942, 507},
    {{0x403fc04au, 0x4040a21eu, 0x40416908u, 0x4042f13eu, 0x4040a169u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b84eu, 0x403d3ff1u, 0x403c3371u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040a21eu, 0x40416905u, 0x4042f136u, 0x4040a172u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40408cd7u, 0x4040b850u, 0x403d3ff0u, 0x403c3371u},
     kUnpinned, kUnpinned},
    // embrace, codec=topk
    {{0x403fc04au, 0x40403d12u, 0x404168e4u, 0x4043f85du, 0x4041508cu},
     85266, 417},
    {{0x4042091du, 0x40403d74u, 0x4040e944u, 0x403ded9du, 0x403c5ef6u},
     93162, 597},
    {{0x403fc04au, 0x40408510u, 0x4041972du, 0x4043b3b0u, 0x4040f05fu},
     82386, 417},
    {{0x4042091du, 0x40406a1au, 0x404116d0u, 0x403da218u, 0x403cc31au},
     90282, 597},
    {{0x403fc04au, 0x40404010u, 0x40416406u, 0x4043f319u, 0x40414bd4u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40403e98u, 0x4040eaacu, 0x403ddcecu, 0x403c7572u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x404079a2u, 0x4041b7b1u, 0x404386eau, 0x4040787au},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x404074adu, 0x40412e6au, 0x403dcfeeu, 0x403c8cf7u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x4040791eu, 0x40419d10u, 0x4043d55cu, 0x4040d0d2u},
     146938, 357},
    {{0x4042091du, 0x40405508u, 0x4041064au, 0x403de0dbu, 0x403cb65fu},
     162866, 507},
    {{0x403fc04au, 0x40407ec4u, 0x4041a1cbu, 0x4043c148u, 0x4040c859u},
     146298, 357},
    {{0x4042091du, 0x40404cccu, 0x4041005eu, 0x403da50bu, 0x403cc2a1u},
     162226, 507},
    {{0x403fc04au, 0x40404010u, 0x40416406u, 0x4043f319u, 0x40414bd4u},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x40403e98u, 0x4040eaacu, 0x403ddcecu, 0x403c7572u},
     kUnpinned, kUnpinned},
    {{0x403fc04au, 0x404079a2u, 0x4041b7b1u, 0x404386eau, 0x4040787au},
     kUnpinned, kUnpinned},
    {{0x4042091du, 0x404074adu, 0x40412e6au, 0x403dcfeeu, 0x403c8cf7u},
     kUnpinned, kUnpinned},
};

class TrainerGolden : public ::testing::TestWithParam<size_t> {};

TEST_P(TrainerGolden, MatchesCapturedRun) {
  const std::vector<Case> all = grid();
  ASSERT_EQ(all.size(), std::size(kGolden));
  const Arm arm = arms()[GetParam()];
  int checked = 0;
  for (size_t row = 0; row < all.size(); ++row) {
    const Case& c = all[row];
    if (c.strategy != arm.strategy || c.codec != arm.codec) continue;
    SCOPED_TRACE("row " + std::to_string(row) + ": " + describe(c));
    const TrainStats stats = run_distributed(config_of(c), kWorkers);
    const Golden& want = kGolden[row];
    ASSERT_EQ(stats.losses.size(), static_cast<size_t>(kSteps));
    for (int s = 0; s < kSteps; ++s) {
      EXPECT_EQ(std::bit_cast<uint32_t>(stats.losses[static_cast<size_t>(s)]),
                want.loss_bits[s])
          << "step " << s << " loss " << stats.losses[static_cast<size_t>(s)];
    }
    if (c.chunk_bytes == 0) {
      EXPECT_EQ(stats.fabric_bytes, want.fabric_bytes);
      EXPECT_EQ(stats.fabric_messages, want.fabric_messages);
    }
    ++checked;
  }
  EXPECT_EQ(checked, 16);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TrainerGolden, ::testing::Range(size_t{0}, arms().size()),
    [](const ::testing::TestParamInfo<size_t>& param) {
      const Arm a = arms()[param.param];
      std::string name = std::string(strategy_kind_name(a.strategy)) + "_" +
                         codec_kind_name(a.codec);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace embrace::core
