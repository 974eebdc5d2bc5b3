"""Per-layer metrics of one traced run, derived only from what the program
already emits: the Chrome trace (spans), the metrics snapshot (counters and
histograms) and TrainStats::step_profiles.

Conventions: counts and bytes are all ranks together per training step;
times are per rank per step. A layer that does not run on a workload reads
0, but a layer the workload declares (Workload.layers) must leave its
counters behind, and a collective or sparse algorithm the lists below do not
name is an error -- a renamed span or counter fails the run instead of
vanishing from the report.
"""

import re

import stats

PHASES = ("forward", "backward", "optimizer", "comm_issue", "comm_wait",
          "other")
COLLECTIVES = ("alltoallv", "allgatherv", "allgather", "allreduce",
               "allreduce_chunked", "broadcast")
ALGOS = ("allgather", "recursive-doubling", "dense", "two-level")

_LABELLED = re.compile(r"^(?P<base>[^{]+)\{(?P<key>[^=]+)=(?P<value>[^}]*)\}$")


class LayerError(RuntimeError):
    pass


def labelled(counters, base, key):
    """{label value: count} of the counters named base{key=value}."""
    out = {}
    for name, value in counters.items():
        m = _LABELLED.match(name)
        if m and m["base"] == base and m["key"] == key:
            out[m["value"]] = value
    return out


def _need(counters, name, layer):
    if name not in counters:
        raise LayerError(f"layer '{layer}' ran but counter '{name}' is missing")
    return counters[name]


def _lanes(trace_events):
    """{tid: lane name ("train", "comm")} from the thread_name records."""
    return {e["tid"]: e["args"]["name"] for e in trace_events
            if e.get("ph") == "M" and e.get("name") == "thread_name"}


def phase_samples(result):
    """Per-(rank, step) samples of each StepProfile phase, the step wall and
    the per-step skew between ranks; step 0 (warm-up) is left out."""
    names = result["phases"]
    if tuple(names) != PHASES:
        raise LayerError(f"StepProfile phases changed: {names}")
    samples = {f"trainer.{p}_ms": [] for p in PHASES}
    samples["trainer.step_ms"] = []
    walls_by_step = {}
    for _rank, step, wall, *phase_ms in result["profiles"]:
        if step == 0:
            continue
        samples["trainer.step_ms"].append(wall)
        walls_by_step.setdefault(step, []).append(wall)
        for p, ms in zip(PHASES, phase_ms):
            samples[f"trainer.{p}_ms"].append(ms)
    samples["trainer.step_skew_ms"] = [
        max(w) - min(w) for w in walls_by_step.values()]
    if not samples["trainer.step_ms"]:
        raise LayerError("traced run published no step profiles")
    return samples


def span_metrics(trace_events, steps, ranks):
    """Scheduler busy/idle time and per-collective self time from spans."""
    lanes = _lanes(trace_events)
    spans = [e for e in trace_events if e.get("ph") == "X"]
    selfs = stats.self_times([(e["tid"], e["ts"], e["dur"]) for e in spans])
    out = {f"comm.{c}.self_ms_per_step": 0.0 for c in COLLECTIVES}
    busy_us = step_us = 0.0
    # Top-level spans on a comm lane are scheduler ops; the comm thread is
    # busy while one runs.
    open_until = {}
    for i in sorted(range(len(spans)),
                    key=lambda i: (spans[i]["tid"], spans[i]["ts"],
                                   -spans[i]["dur"])):
        e = spans[i]
        lane = lanes.get(e["tid"])
        if e["name"] in COLLECTIVES:
            out[f"comm.{e['name']}.self_ms_per_step"] += selfs[i] / 1000.0
        if lane == "train" and e["name"] == "step":
            step_us += e["dur"]
        if lane == "comm" and e["ts"] >= open_until.get(e["tid"], -1.0):
            busy_us += e["dur"]
            open_until[e["tid"]] = e["ts"] + e["dur"]
    if not step_us:
        raise LayerError("no 'step' spans on a train lane")
    if not busy_us:
        raise LayerError("no spans on a comm lane")
    for c in COLLECTIVES:
        out[f"comm.{c}.self_ms_per_step"] /= steps * ranks
    out["sched.busy_ms"] = busy_us / 1000.0 / (steps * ranks)
    out["sched.idle_frac"] = 1.0 - busy_us / step_us
    return out


def counter_metrics(metrics, workload, steps, ranks):
    """Per-step counts, bytes and ratios from the metrics snapshot."""
    c = metrics["counters"]
    h = metrics["histograms"]
    layers = workload.layers
    out = {}

    calls = labelled(c, "comm.calls", "collective")
    nbytes = labelled(c, "comm.bytes", "collective")
    unknown = set(calls) - set(COLLECTIVES)
    if unknown:
        raise LayerError(f"collectives not in the benchmark's list: {sorted(unknown)}")
    for op in COLLECTIVES:
        out[f"comm.{op}.calls_per_step"] = calls.get(op, 0) / steps
        out[f"comm.{op}.bytes_per_step"] = nbytes.get(op, 0) / steps

    msgs = _need(c, "fabric.send.messages", "fabric")
    sent = _need(c, "fabric.send.bytes", "fabric")
    out["fabric.msgs_per_step"] = msgs / steps
    out["fabric.bytes_per_step"] = sent / steps
    wait = h.get("fabric.recv.wait_us")
    if wait is None:
        raise LayerError("histogram 'fabric.recv.wait_us' is missing")
    out["fabric.recv_wait_us_p50"] = wait["p50"]
    out["fabric.recv_wait_us_p99"] = wait["p99"]
    out["fabric.link_floor_ms_per_step"] = stats.link_floor_ms(
        msgs, sent, workload.alpha_us, workload.bytes_per_us,
        links=ranks * (ranks - 1)) / steps
    pool_hits = _need(c, "comm.pool.hits", "comm")
    out["comm.pool.hit_ratio"] = stats.ratio(
        pool_hits, pool_hits + _need(c, "comm.pool.misses", "comm"))

    out["sched.ops_per_step"] = _need(c, "sched.ops_executed", "sched") / steps
    out["sched.preemptions_per_step"] = c.get("sched.preemptions", 0) / steps
    depth = h.get("sched.queue_depth")
    if depth is None:
        raise LayerError("histogram 'sched.queue_depth' is missing")
    out["sched.queue_depth_p50"] = depth["p50"]
    if "vss" in layers:
        for name in ("vertical.prior_rows", "vertical.delayed_rows"):
            _need(c, name, "vss")
    prior = c.get("vertical.prior_rows", 0)
    out["vss.prior_rows_frac"] = stats.ratio(
        prior, prior + c.get("vertical.delayed_rows", 0))

    codec_in = sum(labelled(c, "comm.codec.bytes_in", "codec").values())
    codec_out = sum(labelled(c, "comm.codec.bytes_out", "codec").values())
    if "codec" in layers and not codec_in:
        raise LayerError("layer 'codec' ran but no comm.codec.bytes_in counter")
    out["codec.bytes_in_per_step"] = codec_in / steps
    out["codec.bytes_out_per_step"] = codec_out / steps
    # No codec traffic means the wire carried raw fp32: ratio 1.
    out["codec.out_in_ratio"] = stats.ratio(codec_out, codec_in, empty=1.0)

    exchange = labelled(c, "embed.exchange.bytes", "path")
    if "embed" in layers and not exchange:
        raise LayerError("layer 'embed' ran but no embed.exchange.bytes counter")
    out["embed.exchange_bytes_per_step"] = sum(exchange.values()) / steps
    if "cache" in layers:
        for name in ("embed.cache.hits", "embed.cache.misses",
                     "embed.cache.sync_bytes", "embed.cache.syncs"):
            _need(c, name, "cache")
    hits = c.get("embed.cache.hits", 0)
    out["embed.cache.hit_ratio"] = stats.ratio(
        hits, hits + c.get("embed.cache.misses", 0))
    out["embed.cache.sync_bytes_per_step"] = c.get("embed.cache.sync_bytes", 0) / steps
    out["embed.cache.syncs_per_step"] = c.get("embed.cache.syncs", 0) / steps

    picks = labelled(c, "sparse.algo.picks", "algo")
    unknown = set(picks) - set(ALGOS)
    if unknown:
        raise LayerError(f"sparse algorithms not in the benchmark's list: {sorted(unknown)}")
    if "picker" in layers and not picks:
        raise LayerError("layer 'picker' ran but no sparse.algo.picks counter")
    for algo in ALGOS:
        out[f"sparse.algo.{algo}.picks"] = picks.get(algo, 0) / steps
    out["sparse.algo.bytes_per_step"] = sum(
        labelled(c, "sparse.algo.bytes", "algo").values()) / steps
    return out


def traced_run_metrics(result, trace_events, metrics, workload, ranks):
    """Scalar per-layer metrics of one traced run."""
    steps = result["steps"]
    out = span_metrics(trace_events, steps, ranks)
    out.update(counter_metrics(metrics, workload, steps, ranks))
    return out
