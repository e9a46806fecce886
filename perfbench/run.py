"""Closed-loop benchmark of sedwitness: one client runs the next op only after
the previous one has finished, the way a researcher waits on a sweep or a
readout.

    python3 perfbench/run.py --workload readout --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The run builds nothing: it imports the package from the checkout's `src/`
and exits with code 2 when that is missing. With `--trace 0` it reports the
end-to-end metrics, with `--trace 1` the per-layer metrics of a traced run.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Full results, provenance,
spans and the layer summary go to `.perfbench_out/`. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import source

WORKLOAD_NAMES = ("noisy_sweep", "readout", "circuit_synth")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
MAX_PROBLEMS_KEPT = 20


class Stats:
    def __init__(self):
        self.latencies: list[float] = []  # wall seconds of each successful op, probe time removed
        self.windows: list[tuple[float, float]] = []  # (start, end) of the same ops
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, other: "Stats") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems

    def ops_per_s(self) -> float:
        return throughput(self.latencies)


def throughput(latencies: list[float]) -> float:
    """Ops completed per second that the program spent in ops."""
    return len(latencies) / sum(latencies) if latencies else 0.0


def run_op(wl, state, inp: dict, index: int, stats: Stats, tracer=None, probe=None, timed: bool = True) -> None:
    """Run one op and check it; an exception or a failed check is a failure."""
    stats.attempted += 1
    try:
        if tracer is not None:
            tracer.op, tracer.active = index, True
        probe_before = probe.spent if probe else 0.0
        t0 = perf_counter()
        out = wl.op(state, inp) if tracer is None else tracer.op_span(wl.op, state, inp)
        t1 = perf_counter()
        elapsed = t1 - t0 - (probe.spent - probe_before if probe else 0.0)
        if tracer is not None:
            tracer.active = False
        problem = wl.check(state, inp, out, index)
    except (Exception, SystemExit) as exc:  # the CLI reports bad input by SystemExit
        problem = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.active = False
    if problem is None:
        if timed:
            stats.latencies.append(elapsed)
            stats.windows.append((t0, t1))
    else:
        stats.failed += 1
        if len(stats.problems) < MAX_PROBLEMS_KEPT:
            stats.problems.append(f"op {index}: {problem}")


def run_blocks(wl, state, seed: int, seconds: float, probe=None) -> Stats:
    """Run whole blocks of seeded inputs until `seconds` have passed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    stats, index = Stats(), 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        for inp in wl.block(rng):  # inputs are drawn outside the timed span
            run_op(wl, state, inp, index, stats, probe=probe)
            index += 1
    return stats


def warm_up(wl, state, seed: int) -> Stats:
    """Run the first op once, untimed, so lazy caches fill before timing."""
    import numpy as np

    stats = Stats()
    run_op(wl, state, wl.block(np.random.default_rng(seed))[0], 0, stats, timed=False)
    return stats


def probe_setup(workload: str) -> tuple[float, float]:
    """Raw set-up seconds of one fresh interpreter and its speed scale."""
    probe = Path(__file__).with_name("setup_probe.py")
    done = subprocess.run(
        [sys.executable, str(probe), workload],
        cwd=source.ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    raw, scale = done.stdout.split()[-2:]
    return float(raw), float(scale)


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = source.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, wl) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in source.BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "block_size": wl.block_size,
        "params": wl.params(),
    }


def end_to_end(latencies: list[float], setup_s: float) -> dict:
    lat_ms = [x * 1e3 for x in latencies]
    return {
        "ops_per_s": {"value": throughput(latencies), "unit": "1/s"},
        "op_p50_ms": {"value": percentile(lat_ms, 50), "unit": "ms"},
        "op_p90_ms": {"value": percentile(lat_ms, 90), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def traced_run(args, wl, state, stats: Stats, tag: str) -> tuple[dict, dict]:
    """Per-layer metrics per traced op.

    Blocks alternate between tracing off and on, so both see the same
    machine state and their throughput ratio is the tracing overhead.
    While off, the wrappers stay in place but record nothing.
    """
    import numpy as np

    import tracing

    rng = np.random.default_rng(args.seed)
    plain, traced, index = Stats(), Stats(), 0
    tracer = tracing.Tracer()
    tracer.patch()
    t0 = perf_counter()
    try:
        while perf_counter() - t0 < args.seconds:
            for lane, lane_tracer in ((plain, None), (traced, tracer)):
                for inp in wl.block(rng):
                    run_op(wl, state, inp, index, lane, lane_tracer)
                    index += 1
    finally:
        tracer.unpatch()
    stats.add(plain)
    stats.add(traced)
    ops = max(traced.attempted, 1)
    calls, self_s = tracer.self_times()
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = {"value": calls[name] / ops, "unit": "calls/op"}
        metrics[f"{name}.self_s"] = {"value": self_s[name] / ops, "unit": "s/op"}
    metrics[tracing.GATES_OUT] = {"value": tracer.gates_out / ops, "unit": "gates/op"}
    slowdown = plain.ops_per_s() / traced.ops_per_s() if traced.latencies else 0.0
    metrics["trace.slowdown"] = {"value": slowdown, "unit": "ratio"}
    spans_path = source.OUT_DIR / f"spans_{tag}.json"
    tracer.write_spans(spans_path, t0)
    summary = {
        "ops_traced": len(traced.latencies),
        "untraced_ops_per_s": plain.ops_per_s(),
        "traced_ops_per_s": traced.ops_per_s(),
        "tracing_slowdown": slowdown,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(source.ROOT)),
        "op_self_s_total": self_s[tracing.OP_SPAN],
        "per_layer_totals": {n: {"calls": calls[n], "self_s": self_s[n]} for n in tracing.SPAN_NAMES},
        "gates_out_total": tracer.gates_out,
    }
    return metrics, summary


def run_workload(args) -> int:
    source.pin_blas_threads()
    if not source.use_source_tree():
        print(f"error: no sedwitness package source under {source.SRC}", file=sys.stderr)
        return 2
    import speed
    import workloads

    source.OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](source.OUT_DIR, args.seed)
    setups = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(raw * scale for raw, scale in setups)
    raw_setup_s = statistics.median(raw for raw, _ in setups)
    state = wl.setup()
    stats = warm_up(wl, state, args.seed)
    tag = f"{wl.name}_seed{args.seed}_trace{args.trace}"
    summary = raw = None
    if args.trace:
        metrics, summary = traced_run(args, wl, state, stats, tag)
    else:
        with speed.SpeedProbe(wl.probe_kind) as probe:
            timed = run_blocks(wl, state, args.seed, args.seconds, probe=probe)
        stats.add(timed)
        normalized = [lat * probe.scale(*win) for lat, win in zip(timed.latencies, timed.windows)]
        metrics = end_to_end(normalized, setup_s)
        raw = end_to_end(timed.latencies, raw_setup_s)
        raw["probe_samples"] = {"value": len(probe.costs), "unit": "count"}
        raw["probe_median_us"] = {"value": statistics.median(probe.costs) * 1e6 if probe.costs else 0.0, "unit": "us"}

    fail_frac = stats.failed / stats.attempted
    result = {
        "provenance": provenance(args, wl),
        "metrics": metrics,
        "fail_frac": fail_frac,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "problems": stats.problems,
    }
    if raw is not None:
        result["raw"] = raw
    if summary is not None:
        result["layers"] = summary
    result_path = source.OUT_DIR / f"result_{tag}.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, m in (raw or {}).items():
        print(f"raw {name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {fail_frac:.6g} ({stats.failed}/{stats.attempted})")
    for problem in stats.problems:
        print(f"failure: {problem}")
    print(f"result file: {result_path.relative_to(source.ROOT)}")
    print("provenance: " + json.dumps(result["provenance"]))
    print(json.dumps({"correct": stats.failed == 0, "attempted": stats.attempted, "failed": stats.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in a process of its own and print each result line."""
    combined, code = {}, 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=source.ROOT, capture_output=True, text=True)
        print(done.stdout, end="", file=sys.stdout)
        print(done.stderr, end="", file=sys.stderr)
        code = code or done.returncode
        if done.returncode == 0:
            combined[name] = json.loads(done.stdout.strip().splitlines()[-1])
    if code == 0:
        print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
