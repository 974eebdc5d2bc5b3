"""The benchmark's arithmetic, kept free of I/O so it can be unit-tested on
synthetic inputs (see test_stats.py)."""

import statistics

# Percentile levels a tail may be reported at, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def split_setup(wall_one_step, wall_s_steps, steps):
    """Splits two runs of one workload -- 1 step and `steps` steps, same
    seed -- into (setup_s, steady_step_s). The steady step is the wall
    growth per extra step; set-up is the 1-step run minus one steady step,
    so it also carries first-step warm-up and teardown."""
    if steps < 2:
        raise ValueError("need at least 2 steps to split set-up from steps")
    step_s = (wall_s_steps - wall_one_step) / (steps - 1)
    return wall_one_step - step_s, step_s


def steady_rate(work_per_step, wall_one_step, wall_s_steps):
    """Work per second over steps 1..S-1: the S-step run minus the 1-step
    run, so set-up and step 0 cancel. `work_per_step` lists all S steps."""
    elapsed = wall_s_steps - wall_one_step
    if elapsed <= 0:
        raise ValueError("S-step run was not slower than the 1-step run")
    return sum(work_per_step[1:]) / elapsed


def _rank(level, n):
    """1-based nearest rank of the `level` percentile among n samples, in
    exact integer arithmetic (level has at most one decimal)."""
    return max(1, -(-round(level * 10) * n // 1000))


def nearest_rank(sorted_values, level):
    """The `level` percentile (0 < level <= 100) by nearest rank."""
    return sorted_values[_rank(level, len(sorted_values)) - 1]


def tail_level(n):
    """The highest percentile in TAIL_LEVELS that leaves at least
    MIN_BEYOND of `n` samples beyond its nearest-rank sample, or None."""
    for level in TAIL_LEVELS:
        if n - _rank(level, n) >= MIN_BEYOND:
            return level
    return None


def median_and_tail(values, level):
    """(median, `level` percentile) of a sample."""
    ordered = sorted(values)
    return statistics.median(ordered), nearest_rank(ordered, level)


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    child spans cover. `spans` is a list of (thread, start, duration); a
    child is a span on the same thread that starts inside a still-open
    span. Returns the self times in input order."""
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i][0], spans[i][1], -spans[i][2]))
    covered = [0.0] * len(spans)
    stack = []  # indices of open spans on the current thread
    thread = None
    for i in order:
        tid, start, dur = spans[i]
        if tid != thread:
            stack, thread = [], tid
        while stack and spans[stack[-1]][1] + spans[stack[-1]][2] <= start:
            stack.pop()
        if stack:
            parent = stack[-1]
            parent_end = spans[parent][1] + spans[parent][2]
            covered[parent] += max(0.0, min(start + dur, parent_end) - start)
        stack.append(i)
    return [max(0.0, spans[i][2] - covered[i]) for i in range(len(spans))]


def link_floor_ms(messages, nbytes, alpha_us, bytes_per_us, links):
    """Wire time the alpha-beta link model charges for `messages` messages
    carrying `nbytes` bytes, per directed link, in ms:
    (alpha * messages + bytes / beta) / links."""
    if links < 1:
        raise ValueError("need at least one link")
    wire_us = alpha_us * messages
    if bytes_per_us > 0:
        wire_us += nbytes / bytes_per_us
    return wire_us / links / 1000.0


def ratio(numerator, denominator, empty=0.0):
    """numerator / denominator, or `empty` when nothing was counted."""
    return numerator / denominator if denominator else empty
