"""Benchmark of the spanwitness package.

    python3 perfbench/run.py --workload curve_verify --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ./src. Every
input is generated from --seed. Each workload runs closed loop with one
client in this one process, with BLAS threads pinned to 1; cli_cold starts
one child process at a time.

--trace 0 measures the end-to-end metrics for --seconds seconds. --trace 1
runs a fixed number of operations twice, untraced and then traced, and
reports per-operation layer metrics from the spans plus the tracing
overhead; it writes the spans to .bench_out/ once, at the end.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Lines before it name every metric with its unit, the tail
percentile and its sample count, and the run environment. Exit code 2
means the benchmark could not run (no checkout, or a set-up failure).
"""

from __future__ import annotations

import os

# Pinned before anything imports numpy, here and in every child process.
BLAS_PIN = {
    var: "1"
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402
import tracing  # noqa: E402
from children import elapsed_ms, import_times_ms, run_child  # noqa: E402
from workloads import WORKLOADS, CliCold, make  # noqa: E402

HERE = Path(__file__).resolve().parent

# name -> unit; reported on every workload with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "slow_quarter_p50_ms": "ms",
    "tail_ms": "ms",
    "slow_quarter_ops_per_s": "1/s",
}

# Every workload reports the same end-to-end names; the latency and
# throughput ones are also printed under the operation they time.
OPERATION = {
    "curve_verify": "verify",
    "state_detect": "detect",
    "cli_cold": "cli_command",
}

# Operations per window: the slow_quarter_* metrics are taken over the
# slowest quarter of these windows (stats.slow_quarter). About 1.5 s of work
# in-process; a cli_cold window is one cycle of its five timed commands.
WINDOW_OPS = {"curve_verify": 4, "state_detect": 2000, "cli_cold": 5}

SETUP_PROBES = 7
IMPORT_PROBES = 3
CLI_PROBES = 3

# Operations per pass of a traced run. Fixed, so that a seed gives the
# same operations, and hence the same call counts, on every run.
TRACE_OPS = {"curve_verify": 6, "state_detect": 2000, "cli_cold": 12}


class SetupError(RuntimeError):
    pass


def child_env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), **BLAS_PIN)
    env.pop("PYTHONSTARTUP", None)
    return env


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": BLAS_PIN,
    }


def setup_seconds(args, env: dict, workdir: Path, root: Path) -> float:
    """Median wall time of fresh processes that import the package, set up
    the workload and finish one warm-up operation."""
    walls = []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{k}"
        probe_dir.mkdir()
        argv = [sys.executable, str(HERE / "probe.py"), args.workload, str(args.seed), str(probe_dir)]
        res = run_child(argv, env, probe_dir, root)
        if res.returncode != 0:
            raise SetupError(f"set-up probe exited {res.returncode}: {res.stderr.decode(errors='replace')}")
        walls.append(res.wall_s)
    return stats.median(walls)


class Pass:
    """Counts and timings of one pass over a workload's operations."""

    def __init__(self, keep_results: bool = False):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.keep_results = keep_results
        self.results: list[tuple] = []  # (op, result) of timed operations, if kept

    def run_op(self, w, op) -> None:
        t0 = time.perf_counter()
        result = w.execute(op)
        dt = time.perf_counter() - t0
        self.attempted += 1
        self.failed += not w.check(op, result)
        if getattr(op, "timed", True):
            self.latencies.append(dt)
            if self.keep_results:
                self.results.append((op, result))


def timed_run(args, w, env: dict, workdir: Path, root: Path):
    setup_s = setup_seconds(args, env, workdir, root)
    cli = isinstance(w, CliCold)
    run = Pass(keep_results=cli)
    ops = iter(w.ops())
    if not cli:
        run.run_op(w, next(ops))  # warm-up, gated but not timed
        run.latencies.clear()
    started = time.perf_counter()
    for op in ops:
        run.run_op(w, op)
        if time.perf_counter() - started >= args.seconds and getattr(op, "closes_cycle", True):
            break
    if cli:
        peak = max(res.maxrss_mb for _, res in run.results)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    q, tail_value, beyond = stats.tail(run.latencies)
    slow = stats.slow_quarter(run.latencies, WINDOW_OPS[args.workload])
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "slow_quarter_p50_ms": stats.median(slow) * 1e3,
        "tail_ms": tail_value * 1e3,
        "slow_quarter_ops_per_s": len(slow) / sum(slow),
    }
    info = {
        "samples": len(run.latencies),
        "slow_quarter_samples": len(slow),
        "tail_percentile": q,
        "tail_samples_beyond": beyond,
        "p50_ms": stats.median(run.latencies) * 1e3,
        "ops_per_s": len(run.latencies) / sum(run.latencies),
    }
    if cli:
        by_label: dict[str, list[float]] = {}
        for op, res in run.results:
            by_label.setdefault(op.label, []).append(res.wall_s)
        info["cli_report_s"] = stats.median(by_label["report"])
        info["cli_verify_s"] = stats.median(by_label["verify"])
        info["cli_startup_s"] = stats.median(
            by_label["build"] + by_label["detect"] + by_label["spanning"]
        )
    return run, metrics, info


def import_metrics(env: dict, workdir: Path, root: Path) -> dict:
    numpy_ms, own_ms = [], []
    for _ in range(IMPORT_PROBES):
        argv = [sys.executable, "-X", "importtime", "-c", "import spanwitness"]
        res = run_child(argv, env, workdir, root)
        times = import_times_ms(res.stderr)
        if res.returncode != 0 or "spanwitness" not in times or "numpy" not in times:
            raise SetupError("import probe failed: " + res.stderr[-2000:].decode(errors="replace"))
        numpy_ms.append(times["numpy"])
        own_ms.append(times["spanwitness"] - times["numpy"])
    return {
        "cli.import_numpy_ms": stats.median(numpy_ms),
        "cli.import_spanwitness_ms": stats.median(own_ms),
    }


def cli_split(walls_s: list[float], computes_ms: list[float]) -> dict:
    """Mean CLI compute per command (its own `elapsed` line) and the mean of
    the rest of the wall time, which is start-up and output."""
    n = len(computes_ms)
    return {
        "cli.compute_ms": sum(computes_ms) / n,
        "cli.startup_ms": sum(w * 1e3 - c for w, c in zip(walls_s, computes_ms)) / n,
    }


def cli_probe_argv(op) -> list[str]:
    """The cold CLI form of an in-process operation."""
    if hasattr(op, "seesaw_seed"):
        return ["verify", "--s", repr(op.s), "--t", repr(op.t), "--seed", str(op.seesaw_seed)]
    return ["detect", op.spec, "--s", repr(op.s), "--t", repr(8.0 / op.s)]


def cli_probe_metrics(op, env: dict, workdir: Path, root: Path) -> dict:
    walls, computes = [], []
    for _ in range(CLI_PROBES):
        res = run_child([sys.executable, "-m", "spanwitness", *cli_probe_argv(op)], env, workdir, root)
        compute = elapsed_ms(res.stderr)
        if res.returncode != 0 or compute is None:
            raise SetupError("CLI probe failed: " + res.stderr.decode(errors="replace"))
        walls.append(res.wall_s)
        computes.append(compute)
    return cli_split(walls, computes)


def traced_run(args, w, env: dict, workdir: Path, root: Path, out_dir: Path):
    ops = list(islice(w.ops(), TRACE_OPS[args.workload]))
    cli = isinstance(w, CliCold)
    untraced, traced = Pass(keep_results=cli), Pass()
    if cli:
        for op in ops:
            untraced.run_op(w, op)
        spans = tracing.Spans()
        w.traced = True
        for op in ops:
            traced.run_op(w, op)
            spans.extend(json.loads(w.spans_path.read_text(encoding="utf-8")))
        timed = [(op, res) for op, res in untraced.results if op.label != "build"]
        cli_metrics = cli_split(
            [res.wall_s for _, res in timed], [elapsed_ms(res.stderr) for _, res in timed]
        )
    else:
        untraced.run_op(w, ops[0])  # warm-up, gated but not timed
        untraced.latencies.clear()
        for op in ops:
            untraced.run_op(w, op)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for op in ops:
                traced.run_op(w, op)
        finally:
            tracer.uninstall()
        spans = tracer.spans
        cli_metrics = cli_probe_metrics(ops[0], env, workdir, root)
    n = len(traced.latencies)
    metrics = tracing.layer_metrics(spans, n)
    metrics.update(import_metrics(env, workdir, root))
    metrics.update(cli_metrics)
    metrics["trace.overhead_ratio"] = sum(traced.latencies) / sum(untraced.latencies)
    with open(out_dir / f"trace-{args.workload}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(spans.to_dict(), ops=n, env=environment(args)), fh)
    info = {"traced_ops": n, "spans": len(spans.name)}
    return (untraced, traced), metrics, info


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = list(tracing.layer_metrics(tracing.Spans(), 1))
    names += ["cli.import_numpy_ms", "cli.import_spanwitness_ms", "cli.compute_ms", "cli.startup_ms",
              "trace.overhead_ratio"]
    units = {}
    for name in names:
        if name.startswith("cli."):
            units[name] = "ms"
        elif name.endswith(".calls"):
            units[name] = "calls/op"
        elif name == "seesaw.sweeps_best":
            units[name] = "sweeps"
        elif name == "trace.overhead_ratio":
            units[name] = "ratio"
        else:
            units[name] = "ms/op"
    return units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "spanwitness" / "__init__.py").is_file():
        print(f"error: {src / 'spanwitness'} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = child_env(src)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = root / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        w = make(args.workload, args.seed, workdir, env, root)
        if args.trace:
            passes, metrics, info = traced_run(args, w, env, workdir, root, out_dir)
            units = per_layer_units()
        else:
            run, metrics, info = timed_run(args, w, env, workdir, root)
            passes = (run,)
            units = END_TO_END
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    env_record = environment(args)
    print("env " + json.dumps(env_record))
    print("info " + json.dumps(info))
    if not args.trace:
        op = OPERATION[args.workload]
        print(f"metric {op}_p50_ms {info['p50_ms']:.6g} ms (whole run)")
        print(f"metric {op}_slow_quarter_p50_ms {metrics['slow_quarter_p50_ms']:.6g} ms"
              f" ({info['slow_quarter_samples']} samples of the slowest quarter of windows)")
        print(f"metric {op}_tail_ms {metrics['tail_ms']:.6g} ms"
              f" (p{info['tail_percentile']:g} of {info['samples']} samples)")
        print(f"metric {op}_per_s {info['ops_per_s']:.6g} 1/s (whole run)")
        print(f"metric {op}_slow_quarter_per_s {metrics['slow_quarter_ops_per_s']:.6g} 1/s")
        for name in ("cli_report_s", "cli_verify_s", "cli_startup_s"):
            if name in info:
                print(f"metric {name} {info[name]:.6g} s")
    print(f"metric fail_ratio {failed / attempted:.6g} ratio")
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    record = {"env": env_record, "info": info, "result": result}
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{stamp}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
