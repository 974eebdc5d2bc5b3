"""Benchmark workloads: each is the TrainConfig the harness passes to
core::run_distributed, plus how long to train and how to check the result.

All three use Adam and 2 workers (one process; a train thread plus a comm
thread per worker). The seed given to the benchmark derives the data and
model seeds of the workload's sub-runs; the program only ever sees the
resulting TrainConfig.

Why these three:
  embrace-latency    EmbRace on a high-alpha link. The step is bound by
                     message count (most of it is comm_wait), so it shows
                     scheduler, negotiation, vertical-split and fabric-alpha
                     changes, and bypasses kernel, codec and cache changes.
                     Oracle-exact. The large alpha keeps emulated links
                     sleeping rather than spinning.
  embrace-bandwidth  EmbRace on a narrow link with the hot-row cache at
                     staleness 0: wire bytes dominate (AlltoAll volume,
                     cache sync, set-up of the large tables). Oracle-exact.
  allgather-topk     kHorovodAllGather with the sparse-algorithm picker and
                     the lossy top-k codec. Compute and codec CPU dominate;
                     it uses comm through the picked sparse AllReduce
                     (recursive doubling at these sizes) and the chunked
                     dense AllReduce rather than AlltoAll, and bypasses the
                     vertical split and the cache. Lossy but deterministic:
                     losses repeat bit for bit and stay within
                     bench_codec's top-k band of the oracle.

Known gap: EmbRace + top-k + 2 tables is not a workload. At these sizes it
hangs or aborts ("topk offset N out of range N") because the top-k codec's
scratch is shared between the train and comm threads; it has no throughput
to measure until that race is fixed, and the fix adds it as a workload.
"""

from dataclasses import dataclass, field

# Ranks per run; perfbench_harness's kWorkers.
WORKERS = 2

# Exact workloads: every step's loss within this share of the oracle's
# (relative to max(1, |oracle|)).
ORACLE_RTOL = 1e-3
# Lossy workloads: |final_loss - oracle final_loss| bound, the same band
# bench_codec gates top-k with.
TOPK_LOSS_BAND = 0.15
# final_loss is the mean global loss over this trailing share of the steps.
FINAL_LOSS_TAIL = 0.1
# tokens_per_s is this percentile (nearest rank) of the timed runs' rates.
TOKENS_LEVEL = 75.0
# Fewest timed runs per benchmark run: from 4 on, the TOKENS_LEVEL
# percentile is never simply the fastest run.
MIN_TIMED_RUNS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    steps: int          # steps of a timed (untraced) run
    trace_steps: int    # steps of a traced run
    # A run makes --seconds / timed_run_s timed runs, or --seconds /
    # trace_cycle_s traced cycles (a plain and a traced run per sub-seed).
    # Set so that at 25 s a run takes 25-40 s on a 4-vCPU x86-64 host, the
    # oracle, lone and probe runs included. The counts depend on nothing
    # else, so they are the same on every commit.
    timed_run_s: float
    trace_cycle_s: float
    lossy: bool = False
    layers: frozenset = field(default_factory=frozenset)

    def args(self):
        return [f"{k}={v}" for k, v in self.config.items()]

    def timed_runs(self, seconds):
        return max(MIN_TIMED_RUNS, round(seconds / self.timed_run_s))

    def trace_cycles(self, seconds):
        return max(1, round(seconds / self.trace_cycle_s))

    @property
    def alpha_us(self):
        return float(self.config["alpha_us"])

    @property
    def bytes_per_us(self):
        return float(self.config["bytes_per_us"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="embrace-latency",
            config=dict(strategy="embrace", tables=2, vocab=2000, dim=16,
                        hidden=32, batch=8, alpha_us=500, bytes_per_us=1250,
                        codec="identity"),
            steps=200,
            trace_steps=120,
            timed_run_s=3.0,
            trace_cycle_s=10.0,
            layers=frozenset({"vss", "embed"}),
        ),
        Workload(
            name="embrace-bandwidth",
            config=dict(strategy="embrace", tables=2, vocab=20000, dim=64,
                        hidden=32, batch=16, max_len=24, zipf=1.2,
                        alpha_us=5, bytes_per_us=50, codec="identity",
                        cache_frac=0.125, cache_refresh_steps=4,
                        cache_staleness=0),
            steps=300,
            trace_steps=160,
            timed_run_s=1.8,
            trace_cycle_s=5.0,
            layers=frozenset({"vss", "embed", "cache"}),
        ),
        Workload(
            name="allgather-topk",
            config=dict(strategy="allgather", tables=1, sparse_algo="auto",
                        codec="topk", topk=0.2, error_feedback=1,
                        vocab=20000, dim=64, hidden=256, classes=200,
                        batch=32, max_len=24, alpha_us=50, bytes_per_us=1250),
            steps=120,
            trace_steps=80,
            timed_run_s=2.8,
            trace_cycle_s=12.0,
            lossy=True,
            layers=frozenset({"picker", "codec"}),
        ),
    )
}

# Sub-runs per benchmark run, each on its own derived seed: final_loss is
# their median, so one unlucky seed does not move it.
SUBSEEDS = 3


def subseeds(seed):
    return [(seed * 1_000_003 + k + 1) % (1 << 62) for k in range(SUBSEEDS)]
