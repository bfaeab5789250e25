"""diffusim benchmark: one workload, one seed, one process, one thread.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload chain_sparse --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The package is imported from ``src/`` of the checkout and nowhere else;
without it the run exits with code 2 and prints no result. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones (see
BENCHMARK.json and perfbench/README.md). Outputs, the run record and the
spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# one process on one thread: pin the chain's pool and every BLAS pool
# before numpy is first imported
PINNED = {
    "DIFFUSION_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(PINNED)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (perfbench/ is the script's directory)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("chain_sparse", "small_exact", "mean_field")
# claims are re-checked on this seed, which no change may be tuned on
HELD_OUT_SEED = 7919
SETUP_REPEATS = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 175

END_TO_END = {"setup_s": "s", "pass_rel": "ratio", "pass_cpu_rel": "ratio", "peak_mem_mb": "MB"}
# the reference loop is timed this many times on each side of a pass; the fastest counts
PROBE_REPEATS = 5
PROBE_ITERATIONS = 100_000
PER_LAYER = {
    "cli.self_s": "s",
    "config.busy_s": "s",
    "threshold.busy_s": "s",
    "model.endemic_s": "s",
    "integrate.busy_s": "s",
    "integrate.rk4_steps": "count",
    "integrate.rk4_steps_per_s": "1/s",
    "integrate.clamped_steps": "count",
    "logistic.rk4_steps": "count",
    "logistic.rk4_steps_per_s": "1/s",
    "logistic.slowdown": "ratio",
    "dtmc.ensemble_s": "s",
    "dtmc.ensemble_replica_epochs": "count",
    "dtmc.ensemble_replica_epochs_per_s": "1/s",
    "dtmc.extinction_s": "s",
    "dtmc.extinction_replica_epochs": "count",
    "dtmc.extinction_replica_epochs_per_s": "1/s",
    "dtmc.event_epochs": "count",
    "dtmc.event_epoch_base": "count",
    "dtmc.event_epoch_ratio": "ratio",
    "dtmc.exact_build_s": "s",
    "dtmc.exact_propagate_s": "s",
    "dtmc.exact_states": "count",
    "dtmc.pass_share": "ratio",
    "trajectory.csv_s": "s",
    "trajectory.csv_bytes": "bytes",
    **{f"{layer}.{kind}": "count" for layer in tracing.LAYERS for kind in ("calls", "errors")},
    "trace.spans": "count",
    "trace.overhead": "ratio",
}
# per-layer metrics that are work counts: they must repeat exactly across passes
EXACT_UNITS = ("count", "bytes")


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_diffusim():
    """Import diffusim from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import diffusim
    import diffusim.cli

    if SRC not in Path(diffusim.__file__).resolve().parents:
        _fail(f"imported diffusim from {diffusim.__file__}, not from {SRC}")
    return diffusim, diffusim.cli


def measure_import() -> float:
    """Seconds to import diffusim in a fresh interpreter (numpy and scipy included)."""
    code = (
        "import time\n"
        "t = time.perf_counter()\n"
        "import diffusim\n"
        "print(repr(time.perf_counter() - t))\n"
        "print(diffusim.__file__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing diffusim failed: {proc.stderr.strip()}")
    seconds, path = proc.stdout.split("\n")[:2]
    if SRC not in Path(path).resolve().parents:
        raise RuntimeError(f"child imported diffusim from {path}, not from {SRC}")
    return float(seconds)


def environment(seed: int) -> dict:
    """Machine, library versions and source revision, for the run record."""
    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    try:
        proc = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10)
        for line in proc.stdout.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0] in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
                caches[parts[0].lower()] = int(parts[1])
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                sha = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "unknown (git failed)"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "l2_bytes": caches.get("level2_cache_size"),
        "l3_bytes": caches.get("level3_cache_size"),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "seed": seed,
        "pinned_env": PINNED,
    }


class Tally:
    """Checked operations: every leg run, every oracle, every digest compare."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def run_pass(run, inp, ctx, tally: Tally, reference: str | None):
    """One pass: returns (wall s, cpu s, outputs, digest), outputs None on error."""
    gc.collect()
    before = ctx.legs.entered
    c0 = time.process_time()
    w0 = time.perf_counter()
    try:
        out = run(inp, ctx)
    except Exception:  # a failing leg is reported as a failed operation
        wall = time.perf_counter() - w0
        traceback.print_exc(file=sys.stderr)
        tally.attempted += ctx.legs.entered - before
        tally.record(False, f"pass raised after {ctx.legs.entered - before} legs")
        return wall, time.process_time() - c0, None, None
    wall = time.perf_counter() - w0
    cpu = time.process_time() - c0
    tally.attempted += ctx.legs.entered - before
    h = workloads.digest(out)
    if reference is not None:
        tally.record(h == reference, f"digest {h[:12]} differs from the first pass {reference[:12]}")
    return wall, cpu, out, h


def _reference_loop() -> int:
    """Fixed pure-Python work, independent of diffusim: the speed probe."""
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return total


def probe() -> tuple[float, float]:
    """Fastest (wall s, cpu s) of the reference loop over PROBE_REPEATS calls.

    The shared host drifts between speed regimes that last seconds, and
    wall and CPU time drift together. Timing this loop right before and
    after each pass measures the speed the pass ran at.
    """
    walls, cpus = [], []
    for _ in range(PROBE_REPEATS):
        c0 = time.process_time()
        w0 = time.perf_counter()
        _reference_loop()
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    return min(walls), min(cpus)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(values)
    rank = n - 10
    if rank < 1:
        return None
    return math.floor(100 * rank / n), sorted(values)[rank - 1]


def measure_untraced(run, inp, ctx, tally, reference, seconds, setups, record) -> dict:
    """Timed passes, each between two probes, for ``seconds``; then one pass under tracemalloc."""
    walls, cpus, rel, cpu_rel, probes = [], [], [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(walls) < MIN_PASSES:
        before = probe()
        wall, cpu, out, _ = run_pass(run, inp, ctx, tally, reference)
        if out is None:
            return {}
        after = probe()
        walls.append(wall)
        cpus.append(cpu)
        probes.append((before, after))
        rel.append(wall / ((before[0] + after[0]) / 2))
        cpu_rel.append(cpu / ((before[1] + after[1]) / 2))
    tracemalloc.start()
    _, _, out, _ = run_pass(run, inp, ctx, tally, reference)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    record.update(pass_s_samples=walls, pass_cpu_s_samples=cpus, probe_samples=probes,
                  pass_rel_samples=rel, pass_cpu_rel_samples=cpu_rel, peak_bytes=peak)
    tail = tail_percentile(walls)
    if tail is not None:
        record["pass_tail"] = {"percentile": tail[0], "seconds": tail[1]}
    if out is None:
        return {}
    return {
        "setup_s": statistics.median(setups),
        "pass_rel": statistics.median(rel),
        "pass_cpu_rel": statistics.median(cpu_rel),
        "peak_mem_mb": peak / 2**20,
    }


def measure_traced(run, inp, ctx, tally, reference, seconds, record) -> dict:
    """Untraced and traced passes in turn; per-layer medians and overhead."""
    D, cli, counter = ctx.diffusim, ctx.cli, ctx.legs
    tracer = tracing.Tracer()
    plain, traced, per_pass = [], [], []
    while sum(plain) + sum(traced) < seconds or min(len(plain), len(traced)) < 2:
        wall, _, out, _ = run_pass(run, inp, ctx, tally, reference)
        if out is None:
            return {}
        plain.append(wall)
        tracer.pass_id = len(traced)
        first_span = len(tracer.spans)
        tracer.install(D, cli)
        ctx.legs = tracer
        try:
            wall, _, out, _ = run_pass(run, inp, ctx, tally, reference)
        finally:
            tracer.uninstall()
            ctx.legs = counter
        if out is None:
            return {}
        traced.append(wall)
        per_pass.append(tracing.layer_metrics(tracer.spans[first_span:], wall))
    record.update(untraced_pass_s_samples=plain, traced_pass_s_samples=traced)
    spans_path = Path(ctx.out_dir) / "spans.json"
    tracer.dump(spans_path)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    metrics = {"trace.overhead": statistics.median(traced) / statistics.median(plain)}
    for name, unit in PER_LAYER.items():
        if name in metrics:
            continue
        values = [p[name] for p in per_pass]
        if unit in EXACT_UNITS:
            tally.record(len(set(values)) == 1, f"work count {name} differs between passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    return metrics


def run_workload(args) -> int:
    D, cli = _import_diffusim()
    prepare, run, check = workloads.WORKLOADS[args.workload]
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-{args.size}"
    out_dir.mkdir(parents=True, exist_ok=True)
    counter = workloads.LegCounter()
    ctx = workloads.Context(D, cli, counter, out_dir, workloads.SIZES[args.workload][args.size])
    tally = Tally()
    record: dict = {"workload": args.workload, "seed": args.seed, "size": args.size,
                    "trace": args.trace, "seconds": args.seconds, "environment": environment(args.seed)}

    # set-up: import in a fresh interpreter, then generate, parse, calibrate
    setups = []
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        imported = measure_import()
        t0 = time.perf_counter()
        inp = prepare(args.seed, ctx)
        setups.append(imported + time.perf_counter() - t0)
    record["setup_s_samples"] = setups

    # warm-up pass: lazy imports and caches settle; its outputs are checked
    _, _, warm, reference = run_pass(run, inp, ctx, tally, None)
    if warm is not None:
        for name, ok, detail in check(inp, warm, ctx):
            tally.record(bool(ok), f"oracle {name}: {detail}")
            record.setdefault("oracles", []).append({"name": name, "ok": bool(ok), "detail": detail})
    record["digest"] = reference

    metrics: dict = {}
    if warm is not None and args.trace == 0:
        metrics = measure_untraced(run, inp, ctx, tally, reference, args.seconds, setups, record)
    elif warm is not None:
        metrics = measure_traced(run, inp, ctx, tally, reference, args.seconds, record)

    units = END_TO_END if args.trace == 0 else PER_LAYER
    result = {
        "correct": tally.failed == 0 and len(metrics) == len(units),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    record.update(result=result, failed_ops=tally.failed / max(tally.attempted, 1), failures=tally.notes)
    record_path = out_dir / f"result-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for note in tally.notes:
        print(f"FAILED {note}")
    print(summary_line(args, record))
    if args.trace == 1:
        for name, item in result["metrics"].items():
            print(f"  {name} = {item['value']!r} {item['unit']}")
    print(json.dumps(result))
    return 0


def summary_line(args, record: dict) -> str:
    result = record["result"]
    m = {name: item["value"] for name, item in result["metrics"].items()}
    head = f"{args.workload} seed={args.seed} size={args.size} trace={args.trace}:"
    ops = f"failed_ops={record['failed_ops']!r} ratio ({result['failed']}/{result['attempted']})"
    digest = f"digest={record['digest']}"
    if args.trace == 1:
        n = len(record.get("traced_pass_s_samples", []))
        return f"{head} {n} traced passes | trace.overhead={m.get('trace.overhead', 0.0):.4f} ratio | {ops} | {digest}"
    walls = record.get("pass_s_samples", [])
    cpus = record.get("pass_cpu_s_samples", [])
    n = len(walls)
    tail = record.get("pass_tail")
    tail_text = f"p{tail['percentile']}={tail['seconds']:.4f} s" if tail else "no percentile has ten passes above it"
    parts = [
        f"setup_s={m.get('setup_s', 0.0):.4f} s",
        f"pass_rel={m.get('pass_rel', 0.0):.3f} ratio",
        f"pass_cpu_rel={m.get('pass_cpu_rel', 0.0):.3f} ratio",
        f"pass_s={statistics.median(walls) if walls else 0.0:.4f} s (median of {n} passes; {tail_text})",
        f"pass_cpu_s={statistics.median(cpus) if cpus else 0.0:.4f} s",
        f"peak_mem_mb={m.get('peak_mem_mb', 0.0):.3f} MB",
        ops,
        digest,
    ]
    return f"{head} " + " | ".join(parts)


def _run_child(workload: str, seed: int, seconds: float, trace: int, size: str) -> tuple[int, list[str]]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def run_all(args) -> int:
    """Every workload in its own process; prints each one's lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOAD_NAMES:
        code, lines = _run_child(workload, args.seed, args.seconds, args.trace, args.size)
        if code != 0 or not lines:
            print(f"{workload}: exited with {code}")
            status = 1
            combined["correct"] = False
            continue
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, item in result["metrics"].items():
            combined["metrics"][f"{workload}:{name}"] = item
    print(json.dumps(combined))
    return status


def run_smoke(args) -> int:
    """Tiny sizes: every metric prints with its unit and every oracle passes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    mine = {0: END_TO_END, 1: PER_LAYER}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {item["name"]: item["unit"] for item in spec[key]}
        if declared != mine[trace]:
            problems.append(f"BENCHMARK.json {key} does not match the metrics run.py prints")
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            known = len(problems)
            code, lines = _run_child(workload, args.seed, 0.5, trace, "smoke")
            tag = f"{workload} trace={trace}"
            if code != 0 or not lines:
                problems.append(f"{tag}: exited with {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
                problems.append(f"{tag}: correct={result.get('correct')} failed={result.get('failed')}")
            got = {name: item.get("unit") for name, item in result.get("metrics", {}).items()}
            if got != mine[trace]:
                problems.append(f"{tag}: metrics or units differ from BENCHMARK.json")
            for name, item in result.get("metrics", {}).items():
                value = item.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{tag}: {name} = {value!r}")
                elif trace == 0 and value <= 0:
                    problems.append(f"{tag}: end-to-end {name} = {value!r} is not positive")
            status = "ok" if len(problems) == known else "FAILED"
            print(f"{tag}: {status} ({result.get('attempted')} checked operations)")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(json.dumps({"smoke_ok": not problems, "problems": len(problems)}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1,
                        help=f"workload seed (claims are re-checked on the held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0, help="timed passes run for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true", help="check the harness at tiny sizes, then exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "diffusim" / "__init__.py").is_file():
        _fail(f"no diffusim sources under {SRC}; run from a source checkout")
    if args.smoke:
        return run_smoke(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
