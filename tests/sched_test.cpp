// Tests for the communication scheduler as a local priority queue (a
// single-rank NegotiatedScheduler: nothing is negotiated) and for
// Algorithm 1.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <mutex>
#include <thread>

#include "comm/communicator.h"
#include "common/error.h"
#include "common/rng.h"
#include "sched/negotiated_scheduler.h"
#include "sched/vertical.h"
#include "tensor/index_ops.h"

namespace embrace::sched {
namespace {

OpDesc desc(std::string name, double priority) {
  OpDesc d;
  d.name = std::move(name);
  d.priority = priority;
  return d;
}

// A single-rank scheduler. Its destructor drains what is still queued, or
// tears down locally once an op failed.
class Scheduler : public ::testing::Test {
 protected:
  comm::Fabric fabric_{1};
  NegotiatedScheduler sched{comm::Communicator(fabric_, 0)};
};
using SchedulerFailure = Scheduler;

// Parks the comm thread inside an op: the constructor returns once the op
// runs (alone in its round), and the op then blocks until release(). So
// everything submitted in between is queued when the scheduler picks
// again — priority order becomes observable instead of racing the comm
// thread. The destructor releases a park the test did not.
class Park {
 public:
  explicit Park(NegotiatedScheduler& sched)
      : gate_(std::make_shared<Gate>()) {
    sched.submit(desc("warmup", -1.0), [gate = gate_] {
      gate->started.count_down();
      gate->released.wait();
    });
    gate_->started.wait();
  }
  Park(const Park&) = delete;
  Park& operator=(const Park&) = delete;
  ~Park() { release(); }

  void release() {
    if (released_) return;
    released_ = true;
    gate_->released.count_down();
  }

 private:
  struct Gate {
    std::latch started{1};
    std::latch released{1};
  };
  std::shared_ptr<Gate> gate_;
  bool released_ = false;
};

TEST_F(Scheduler, ExecutesByPriorityRegardlessOfSubmitOrder) {
  std::vector<std::string> executed;
  std::mutex m;
  auto body = [&](const char* n) {
    return [&, n] {
      std::lock_guard<std::mutex> lock(m);
      executed.push_back(n);
    };
  };
  Park park(sched);
  // Submit out of priority order: c first.
  sched.submit(desc("c", 3.0), body("c"));
  sched.submit(desc("a", 1.0), body("a"));
  sched.submit(desc("b", 2.0), body("b"));
  park.release();
  sched.drain();
  EXPECT_EQ(executed, (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(Scheduler, LateUrgentSubmissionOvertakesQueuedOp) {
  std::vector<std::string> executed;
  std::mutex m;
  auto body = [&](const char* n) {
    return [&, n] {
      std::lock_guard<std::mutex> lock(m);
      executed.push_back(n);
    };
  };
  Park park(sched);
  sched.submit(desc("low", 9.0), body("low"));
  // Submitted later but more urgent: must run first.
  sched.submit(desc("high", 1.0), body("high"));
  park.release();
  sched.drain();
  EXPECT_EQ(executed, (std::vector<std::string>{"high", "low"}));
}

TEST_F(Scheduler, HandleWaitBlocksUntilDone) {
  std::atomic<bool> finished{false};
  auto h = sched.submit(desc("slow", 0.0), [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished.store(true);
  });
  h.wait();
  EXPECT_TRUE(finished.load());
}

TEST_F(Scheduler, StepScopedPrioritiesRunBackToBack) {
  std::vector<std::string> executed;
  std::mutex m;
  auto body = [&](std::string n) {
    return [&, n] {
      std::lock_guard<std::mutex> lock(m);
      executed.push_back(n);
    };
  };
  Park park(sched);
  // Two steps' worth of ops, submitted out of order; step-scoped priorities
  // (1e6 * step + index) keep the cross-step order.
  sched.submit(desc("s1/x", 1e6 + 0.0), body("s1/x"));
  sched.submit(desc("s0/y", 1.0), body("s0/y"));
  sched.submit(desc("s0/x", 0.0), body("s0/x"));
  park.release();
  sched.drain();
  EXPECT_EQ(executed,
            (std::vector<std::string>{"s0/x", "s0/y", "s1/x"}));
}

TEST_F(Scheduler, RecordsExecutionTimes) {
  sched.submit(desc("op", 0.0), [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  sched.drain();
  auto recs = sched.records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].name, "op");
  EXPECT_GE(recs[0].end - recs[0].start, 0.004);
}

TEST_F(Scheduler, RejectsDuplicateNameUntilExecuted) {
  Park park(sched);
  sched.submit(desc("a", 1.0), [] {});
  EXPECT_THROW(sched.submit(desc("a", 2.0), [] {}), Error);
  park.release();
  sched.drain();
  // Same name may be submitted again once executed.
  EXPECT_NO_THROW(sched.submit(desc("a", 1.0), [] {}));
  sched.drain();
}

TEST_F(Scheduler, OverlapsWithMainThread) {
  // The comm thread must run concurrently: total wall time for a 40ms comm
  // op + 40ms of main-thread work should be well under 80ms.
  const auto t0 = std::chrono::steady_clock::now();
  auto h = sched.submit(desc("comm", 0.0), [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));  // "compute"
  h.wait();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 0.075);
}

// --- failure propagation (DESIGN.md §8) ---

TEST_F(SchedulerFailure, OpExceptionRethrownFromWait) {
  auto h = sched.submit(desc("boom", 0.0),
                        [] { throw Error("op body failed"); });
  EXPECT_THROW(
      {
        try {
          h.wait();
        } catch (const Error& e) {
          EXPECT_NE(std::string(e.what()).find("op body failed"),
                    std::string::npos);
          throw;
        }
      },
      Error);
  EXPECT_TRUE(h.done());
  EXPECT_TRUE(h.failed());
}

TEST_F(SchedulerFailure, BacklogFailsFastAfterOpThrows) {
  Park park(sched);
  auto h_after = sched.submit(desc("after", 2.0),
                              [] { FAIL() << "must never run"; });
  auto h_boom =
      sched.submit(desc("boom", 1.0), [] { throw Error("kaput"); });
  park.release();
  // The abandoned op's waiter must not hang: it gets a SchedulerError
  // naming the culprit, well before any watchdog.
  EXPECT_THROW(
      {
        try {
          h_after.wait();
        } catch (const SchedulerError& e) {
          EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
          throw;
        }
      },
      SchedulerError);
  EXPECT_THROW(h_boom.wait(), Error);
  // drain() rethrows the original failure instead of wedging.
  EXPECT_THROW(sched.drain(), Error);
  // The scheduler is terminally failed: new work is refused.
  EXPECT_THROW(sched.submit(desc("more", 3.0), [] {}), SchedulerError);
}

TEST_F(SchedulerFailure, DrainDoesNotWedgeWhenOpFailsMidDrain) {
  sched.submit(desc("slow_boom", 0.0), [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    throw Error("late failure");
  });
  sched.submit(desc("abandoned", 1.0), [] { FAIL() << "must never run"; });
  EXPECT_THROW(sched.drain(), Error);
}

// --- Algorithm 1 ---

SparseRows grad_from_ids(int64_t vocab, const std::vector<int64_t>& ids,
                         int64_t dim, Rng& rng) {
  Tensor vals = Tensor::randn({static_cast<int64_t>(ids.size()), dim}, rng);
  return SparseRows(vocab, ids, vals);
}

TEST(Vertical, SplitsExactlyPerAlgorithm1) {
  Rng rng(1);
  // Current data (with duplicates): {3, 5, 3, 9}; next: {5, 9, 11}.
  const std::vector<int64_t> cur{3, 5, 3, 9};
  const std::vector<int64_t> next{5, 9, 11};
  SparseRows g = grad_from_ids(20, cur, 2, rng);
  auto split = vertical_sparse_schedule(g, cur, next);
  EXPECT_EQ(split.prior_rows, (std::vector<int64_t>{5, 9}));
  EXPECT_EQ(split.delayed_rows, (std::vector<int64_t>{3}));
  EXPECT_EQ(split.prior.indices(), split.prior_rows);
  EXPECT_EQ(split.delayed.indices(), split.delayed_rows);
  EXPECT_TRUE(split.prior.is_coalesced());
  EXPECT_TRUE(split.delayed.is_coalesced());
  // Reassembled parts equal the coalesced gradient.
  EXPECT_TRUE(SparseRows::concat(split.prior, split.delayed)
                  .logically_equal(g.coalesced(), 1e-5f));
}

TEST(Vertical, AllRowsDelayedWhenNoOverlap) {
  Rng rng(2);
  const std::vector<int64_t> cur{1, 2};
  SparseRows g = grad_from_ids(10, cur, 3, rng);
  auto split = vertical_sparse_schedule(g, cur, {7, 8});
  EXPECT_TRUE(split.prior.empty());
  EXPECT_EQ(split.delayed.nnz_rows(), 2);
}

TEST(Vertical, AllRowsPriorWhenFullOverlap) {
  Rng rng(3);
  const std::vector<int64_t> cur{1, 2, 1};
  SparseRows g = grad_from_ids(10, cur, 3, rng);
  auto split = vertical_sparse_schedule(g, cur, {1, 2, 3});
  EXPECT_EQ(split.prior.nnz_rows(), 2);
  EXPECT_TRUE(split.delayed.empty());
}

// RAII save/restore for the global verify switch so tests can't leak state.
struct ScopedVerticalVerify {
  explicit ScopedVerticalVerify(bool enabled)
      : prev_(set_vertical_verify(enabled)) {}
  ~ScopedVerticalVerify() { set_vertical_verify(prev_); }
  bool prev_;
};

TEST(Vertical, RejectsGradRowsOutsideCurrentData) {
  ScopedVerticalVerify verify(true);
  Rng rng(4);
  SparseRows g = grad_from_ids(10, {4}, 2, rng);
  EXPECT_THROW(vertical_sparse_schedule(g, {1, 2}, {1}), Error);
}

TEST(Vertical, MembershipCheckIsGatedByVerifyFlag) {
  ScopedVerticalVerify verify(false);
  Rng rng(4);
  // Out-of-batch gradient row: invalid input, but with verification off the
  // O(nnz log n) check is skipped and the split proceeds.
  SparseRows g = grad_from_ids(10, {4}, 2, rng);
  EXPECT_NO_THROW(vertical_sparse_schedule(g, {1, 2, 4}, {1}));
}

// Pin: the verify flag is observation-only — the computed prior/delayed
// split is bit-identical with the check on and off.
TEST(Vertical, VerifyFlagDoesNotChangeSplit) {
  const std::vector<int64_t> cur{3, 5, 3, 9, 12, 5};
  const std::vector<int64_t> next{5, 9, 11, 12};
  Rng rng_a(17);
  Rng rng_b(17);
  SparseRows g_a = grad_from_ids(20, cur, 4, rng_a);
  SparseRows g_b = grad_from_ids(20, cur, 4, rng_b);
  VerticalSplit with_check, without_check;
  {
    ScopedVerticalVerify verify(true);
    with_check = vertical_sparse_schedule(g_a, cur, next);
  }
  {
    ScopedVerticalVerify verify(false);
    without_check = vertical_sparse_schedule(g_b, cur, next);
  }
  EXPECT_EQ(with_check.prior_rows, without_check.prior_rows);
  EXPECT_EQ(with_check.delayed_rows, without_check.delayed_rows);
  EXPECT_TRUE(with_check.prior.logically_equal(without_check.prior, 0.0f));
  EXPECT_TRUE(
      with_check.delayed.logically_equal(without_check.delayed, 0.0f));
}

// Property: for random data, prior rows ⊆ D_next, delayed ∩ D_next = ∅,
// and the two parts partition the coalesced gradient.
class VerticalProperty : public ::testing::TestWithParam<int> {};

TEST_P(VerticalProperty, InvariantsHold) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 5);
  const int64_t vocab = 40;
  std::vector<int64_t> cur, next;
  const int64_t nc = rng.next_int(1, 30);
  const int64_t nn = rng.next_int(0, 30);
  for (int64_t i = 0; i < nc; ++i) cur.push_back(rng.next_int(0, vocab - 1));
  for (int64_t i = 0; i < nn; ++i) next.push_back(rng.next_int(0, vocab - 1));
  Rng vr = rng.split(1);
  SparseRows g = grad_from_ids(vocab, cur, 2, vr);
  auto split = vertical_sparse_schedule(g, cur, next);
  const auto d_next = unique_sorted(next);
  for (int64_t r : split.prior.indices()) {
    EXPECT_TRUE(std::binary_search(d_next.begin(), d_next.end(), r));
  }
  for (int64_t r : split.delayed.indices()) {
    EXPECT_FALSE(std::binary_search(d_next.begin(), d_next.end(), r));
  }
  EXPECT_EQ(split.prior.nnz_rows() + split.delayed.nnz_rows(),
            g.coalesced().nnz_rows());
  EXPECT_TRUE(SparseRows::concat(split.prior, split.delayed)
                  .logically_equal(g.coalesced(), 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(RandomizedSweep, VerticalProperty,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace embrace::sched
