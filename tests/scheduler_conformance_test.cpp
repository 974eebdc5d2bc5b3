// Scheduler conformance suite: the op-level contract of the scheduler
// (typed OpDesc submit, chunked slices, preemption at chunk boundaries,
// failure propagation, drain). Every contract body runs twice as plain
// tests: `Conformance.*` on a single rank, where nothing is negotiated and
// the scheduler is the plain local priority queue, and
// `NegotiatedConformance.*` on every rank of a 3-rank cluster, where the
// leader announces each round and the followers execute the announced
// order. A final multi-rank test pins the preemption contract where it
// matters: a chunked dense transfer through a 4-rank NegotiatedScheduler
// interrupted by a high-priority op at a chunk boundary, identically on
// every rank.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/chunked_collectives.h"
#include "comm/cluster.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "sched/negotiated_scheduler.h"

namespace embrace::sched {
namespace {

OpDesc desc(std::string name, double priority, OpKind kind = OpKind::kOther) {
  OpDesc d;
  d.name = std::move(name);
  d.priority = priority;
  d.kind = kind;
  return d;
}

int64_t preemptions() { return obs::counter("sched.preemptions").value(); }
int64_t rounds() { return obs::counter("sched.rounds").value(); }

// Spins until `flag` is set.
void await(const std::atomic<bool>& flag) {
  while (!flag) std::this_thread::sleep_for(std::chrono::microseconds(200));
}

// Submits an op that spins until `release`, and returns once its body has
// started: the gate's round is then under way on this rank.
void park_comm_thread(NegotiatedScheduler& sched, std::atomic<bool>& release) {
  std::atomic<bool> started{false};
  sched.submit(desc("gate", -1.0), [&] {
    started = true;
    await(release);
  });
  await(started);
}

void typed_submit_executes_and_records(NegotiatedScheduler& sched) {
  std::atomic<bool> ran{false};
  Handle h = sched.submit(desc("op", 1.0), [&] { ran = true; });
  h.wait();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(h.done());
  EXPECT_FALSE(h.failed());
  sched.drain();
  const auto records = sched.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "op");
  EXPECT_LE(records[0].start, records[0].end);
}

void backlogged_ops_run_in_priority_order(NegotiatedScheduler& sched) {
  // Gate the comm thread so the backlog builds up, then check the
  // drained order is by (priority, submission seq), not submission order.
  std::atomic<bool> release{false};
  sched.submit(desc("gate", 0.0), [&] {
    while (!release) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  sched.submit(desc("c", 3.0), [] {});
  sched.submit(desc("a", 1.0), [] {});
  sched.submit(desc("b", 2.0), [] {});
  sched.submit(desc("a2", 1.0), [] {});  // ties break by submission order
  release = true;
  sched.drain();
  const auto records = sched.records();
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records[0].name, "gate");
  EXPECT_EQ(records[1].name, "a");
  EXPECT_EQ(records[2].name, "a2");
  EXPECT_EQ(records[3].name, "b");
  EXPECT_EQ(records[4].name, "c");
}

void chunked_slices_run_in_order(NegotiatedScheduler& sched) {
  std::vector<int64_t> seen;
  Handle h = sched.submit(desc("chunked", 1.0), 5,
                          [&](int64_t i) { seen.push_back(i); });
  h.wait();
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  // One completion record for the whole op, not one per slice.
  sched.drain();
  ASSERT_EQ(sched.records().size(), 1u);
  EXPECT_EQ(sched.records()[0].name, "chunked");
}

void high_priority_op_preempts_chunked_at_slice_boundary(
    NegotiatedScheduler& sched) {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  Handle dense = sched.submit(
      desc("dense", 10.0, OpKind::kDense), 4, [&](int64_t i) {
        if (i == 0) {
          started = true;
          while (!release) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }
      });
  // Submit the urgent op while slice 0 is still executing: the scheduler
  // must run it before dense's remaining slices.
  while (!started) std::this_thread::sleep_for(std::chrono::microseconds(200));
  Handle hot = sched.submit(desc("hot", 0.0, OpKind::kSparsePrior), [] {});
  release = true;
  hot.wait();
  dense.wait();
  sched.drain();
  const auto records = sched.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "hot");
  EXPECT_EQ(records[1].name, "dense");
}

void slice_failure_fails_op_and_backlog(NegotiatedScheduler& sched) {
  std::vector<int64_t> seen;
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  Handle bad = sched.submit(desc("bad", 1.0), 4, [&](int64_t i) {
    seen.push_back(i);
    if (i == 0) {
      started = true;
      while (!release) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    if (i == 1) throw Error("boom");
  });
  // Park the comm thread in slice 0 so "behind" is enqueued before the
  // failure happens (no submit-vs-fail race).
  while (!started) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Handle behind = sched.submit(desc("behind", 2.0), [] {});
  release = true;
  EXPECT_THROW(bad.wait(), Error);
  EXPECT_THROW(behind.wait(), SchedulerError);
  // Slices after the throwing one never ran.
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1}));
  EXPECT_TRUE(sched.failed());
  EXPECT_THROW(sched.submit(desc("late", 0.0), [] {}), SchedulerError);
  EXPECT_THROW(sched.drain(), Error);
}

void drain_waits_for_every_submitted_op(NegotiatedScheduler& sched) {
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    sched.submit(desc("op" + std::to_string(i), static_cast<double>(i % 3)),
                 [&] { ++ran; });
  }
  sched.drain();
  EXPECT_EQ(ran, 16);
  EXPECT_EQ(sched.records().size(), 16u);
}

void invalid_submissions_are_rejected(NegotiatedScheduler& sched) {
  EXPECT_THROW(sched.submit(desc("zero-slices", 0.0), 0, [](int64_t) {}),
               Error);
  // Park the comm thread so "dup" is still pending for the name check.
  std::atomic<bool> release{false};
  Handle gate = sched.submit(desc("gate", 0.0), [&] {
    while (!release) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  Handle h = sched.submit(desc("dup", 1.0), [] {});
  EXPECT_THROW(sched.submit(desc("dup", 2.0), [] {}), Error);
  release = true;
  gate.wait();
  h.wait();
}

void ready_set_is_one_round(NegotiatedScheduler& sched) {
  // Four ops submitted out of priority order while the gate runs form the
  // next round together and run in priority order on every rank.
  std::atomic<bool> release{false};
  park_comm_thread(sched, release);
  std::mutex mu;
  std::vector<std::string> order;
  for (const auto& [name, priority] :
       {std::pair{"d", 4.0}, {"b", 2.0}, {"a", 1.0}, {"c", 3.0}}) {
    sched.submit(desc(name, priority), [&, name = std::string(name)] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(name);
    });
  }
  release = true;
  sched.drain();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c", "d"}));
}

void urgent_op_submitted_mid_round_runs_after_it(NegotiatedScheduler& sched) {
  // "late" and then "urgent" are submitted while round {a, b} runs: the
  // round finishes first (b before the more urgent op), and the next round
  // runs urgent before late.
  std::atomic<bool> release{false};
  park_comm_thread(sched, release);
  std::mutex mu;
  std::vector<std::string> order;
  auto log = [&](std::string name) {
    return [&, name] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(name);
    };
  };
  std::atomic<bool> a_started{false};
  std::atomic<bool> a_release{false};
  sched.submit(desc("a", 1.0), [&] {
    log("a")();
    a_started = true;
    await(a_release);
  });
  sched.submit(desc("b", 2.0), log("b"));
  release = true;
  await(a_started);
  sched.submit(desc("late", 3.0), log("late"));
  sched.submit(desc("urgent", 0.0), log("urgent"));
  a_release = true;
  sched.drain();
  EXPECT_EQ(order,
            (std::vector<std::string>{"a", "b", "urgent", "late"}));
}

void batch_is_one_round(NegotiatedScheduler& sched) {
  // A Batch keeps the leader from snapshotting half a burst: "urgent",
  // submitted last and well after "routine", still runs first, in the
  // same round.
  std::mutex mu;
  std::vector<std::string> order;
  auto log = [&](std::string name) {
    return [&, name] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(name);
    };
  };
  {
    NegotiatedScheduler::Batch burst(sched);
    sched.submit(desc("routine", 2.0), log("routine"));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sched.submit(desc("urgent", 1.0), log("urgent"));
  }
  sched.drain();
  EXPECT_EQ(order, (std::vector<std::string>{"urgent", "routine"}));
}

// A single-rank scheduler: nothing is negotiated, so it is the plain
// local priority queue. Its destructor drains what is still queued, or
// tears down locally once an op failed.
void run_on_one_rank(void (*body)(NegotiatedScheduler&)) {
  comm::Fabric fabric(1);
  NegotiatedScheduler sched{comm::Communicator(fabric, 0)};
  body(sched);
}

// Every rank of a cluster runs the same body against its own scheduler,
// as the trainer's SPMD workers do; rank 0 leads the announcements.
void run_on_every_rank(void (*body)(NegotiatedScheduler&)) {
  comm::Fabric fabric(3);
  comm::run_cluster(fabric, [&](comm::Communicator& comm) {
    NegotiatedScheduler sched(comm.channel(0));
    body(sched);
    if (sched.failed()) {
      sched.abort();
    } else {
      sched.shutdown();
    }
  });
}

TEST(Conformance, TypedSubmitExecutesAndRecords) {
  run_on_one_rank(typed_submit_executes_and_records);
}
TEST(NegotiatedConformance, TypedSubmitExecutesAndRecords) {
  run_on_every_rank(typed_submit_executes_and_records);
}

TEST(Conformance, BackloggedOpsRunInPriorityOrder) {
  run_on_one_rank(backlogged_ops_run_in_priority_order);
}
TEST(NegotiatedConformance, BackloggedOpsRunInPriorityOrder) {
  run_on_every_rank(backlogged_ops_run_in_priority_order);
}

TEST(Conformance, ChunkedSlicesRunInOrder) {
  run_on_one_rank(chunked_slices_run_in_order);
}
TEST(NegotiatedConformance, ChunkedSlicesRunInOrder) {
  run_on_every_rank(chunked_slices_run_in_order);
}

TEST(Conformance, SliceFailureFailsOpAndBacklog) {
  run_on_one_rank(slice_failure_fails_op_and_backlog);
}
TEST(NegotiatedConformance, SliceFailureFailsOpAndBacklog) {
  run_on_every_rank(slice_failure_fails_op_and_backlog);
}

TEST(Conformance, DrainWaitsForEverySubmittedOp) {
  run_on_one_rank(drain_waits_for_every_submitted_op);
}
TEST(NegotiatedConformance, DrainWaitsForEverySubmittedOp) {
  run_on_every_rank(drain_waits_for_every_submitted_op);
}

TEST(Conformance, InvalidSubmissionsAreRejected) {
  run_on_one_rank(invalid_submissions_are_rejected);
}
TEST(NegotiatedConformance, InvalidSubmissionsAreRejected) {
  run_on_every_rank(invalid_submissions_are_rejected);
}

TEST(Conformance, HighPriorityOpPreemptsChunkedAtSliceBoundary) {
  const int64_t preempt0 = preemptions();
  run_on_one_rank(high_priority_op_preempts_chunked_at_slice_boundary);
  EXPECT_GE(preemptions() - preempt0, 1);
}

TEST(NegotiatedConformance, HighPriorityOpPreemptsChunkedAtSliceBoundary) {
  const int64_t preempt0 = preemptions();
  run_on_every_rank(high_priority_op_preempts_chunked_at_slice_boundary);
  // Counted once (leader only), not once per rank.
  EXPECT_GE(preemptions() - preempt0, 1);
}

// Rounds: the gate's, the backlog's, and the stop token at shutdown.
TEST(Conformance, ReadySetIsOneRound) {
  const int64_t rounds0 = rounds();
  run_on_one_rank(ready_set_is_one_round);
  EXPECT_EQ(rounds() - rounds0, 3);
}

TEST(NegotiatedConformance, ReadySetIsOneRound) {
  const int64_t rounds0 = rounds();
  run_on_every_rank(ready_set_is_one_round);
  // Counted once (leader only), not once per rank.
  EXPECT_EQ(rounds() - rounds0, 3);
}

// Rounds: the gate's, {a, b}, {urgent, late}, and the stop token.
TEST(Conformance, UrgentOpSubmittedMidRoundRunsAfterIt) {
  const int64_t rounds0 = rounds();
  run_on_one_rank(urgent_op_submitted_mid_round_runs_after_it);
  EXPECT_EQ(rounds() - rounds0, 4);
}

TEST(NegotiatedConformance, UrgentOpSubmittedMidRoundRunsAfterIt) {
  const int64_t rounds0 = rounds();
  run_on_every_rank(urgent_op_submitted_mid_round_runs_after_it);
  EXPECT_EQ(rounds() - rounds0, 4);
}

// Rounds: the burst's and the stop token.
TEST(Conformance, BatchIsOneRound) {
  const int64_t rounds0 = rounds();
  run_on_one_rank(batch_is_one_round);
  EXPECT_EQ(rounds() - rounds0, 2);
}

TEST(NegotiatedConformance, BatchIsOneRound) {
  const int64_t rounds0 = rounds();
  run_on_every_rank(batch_is_one_round);
  EXPECT_EQ(rounds() - rounds0, 2);
}

// The end-to-end preemption contract: on a real 4-rank cluster, a chunked
// dense AllReduce driven slice-by-slice through the NegotiatedScheduler is
// preempted at a chunk boundary by a late high-priority op — on every rank,
// at the same boundary (the leader's announcement stream is the execution
// order), with the dense result still bitwise-correct.
TEST(NegotiatedChunked, HighPriorityOpPreemptsDenseTransferOnAllRanks) {
  constexpr int kRanks = 4;
  constexpr int64_t kElems = 1 << 14;
  constexpr int64_t kChunk = 1024;
  const int64_t preempt0 = obs::counter("sched.preemptions").value();
  std::mutex mu;
  std::vector<std::vector<ExecRecord>> logs(kRanks);
  comm::Fabric fabric(kRanks);
  comm::run_cluster(fabric, [&](comm::Communicator& comm) {
    comm::Communicator data_ch = comm.channel(1);
    NegotiatedScheduler scheduler(comm.channel(0));
    std::vector<float> dense(kElems,
                             static_cast<float>(comm.rank() + 1));
    std::vector<float> hot{1.0f};
    const int64_t slices =
        comm::ChunkedAllReduce::num_quanta(kElems, kRanks, kChunk);
    ASSERT_GT(slices, 4);
    auto cursor =
        std::make_shared<std::optional<comm::ChunkedAllReduce>>();
    std::atomic<bool> started{false};
    OpDesc dense_desc = desc("dense", 10.0, OpKind::kDense);
    Handle dense_h =
        scheduler.submit(dense_desc, slices, [&, cursor](int64_t i) {
          if (i == 0) {
            started = true;
            cursor->emplace(data_ch, std::span<float>(dense), kChunk);
          }
          (*cursor)->run_quantum(i);
          // Stretch each quantum so the hot op reliably lands mid-flight.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
    // Submit the urgent op only once this rank's quantum 0 has begun, so
    // it can only join a round behind dense's first slice.
    while (!started) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    Handle hot_h = scheduler.submit(desc("hot", 0.0, OpKind::kSparsePrior),
                                    [&] { data_ch.allreduce(hot); });
    hot_h.wait();
    dense_h.wait();
    scheduler.shutdown();
    // The chunked transfer still produced the full ring-AllReduce sum.
    const float expected = static_cast<float>(kRanks * (kRanks + 1) / 2);
    for (const float v : dense) ASSERT_EQ(v, expected);
    EXPECT_EQ(hot[0], static_cast<float>(kRanks));
    std::lock_guard<std::mutex> lock(mu);
    logs[static_cast<size_t>(comm.rank())] = scheduler.records();
  });
  // Every rank executed hot before dense completed (same announced order).
  for (int r = 0; r < kRanks; ++r) {
    const auto& log = logs[static_cast<size_t>(r)];
    ASSERT_EQ(log.size(), 2u) << "rank " << r;
    EXPECT_EQ(log[0].name, "hot") << "rank " << r;
    EXPECT_EQ(log[1].name, "dense") << "rank " << r;
  }
  // Counted once (leader only), not once per rank.
  EXPECT_GE(obs::counter("sched.preemptions").value() - preempt0, 1);
}

}  // namespace
}  // namespace embrace::sched
