"""flowrec benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a flowrec checkout. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
metrics are the end-to-end ones of BENCHMARK.json with ``--trace 0`` and the
per-layer ones with ``--trace 1``. Lines before it give the environment, the
operation counts and reference figures, and the same record is written under
``benchmark/runs/``. See benchmark/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads; every child process inherits it.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3


class Unrunnable(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def preflight() -> dict:
    if not (ROOT / "src" / "flowrec" / "__init__.py").is_file():
        raise Unrunnable(f"no flowrec sources under {ROOT / 'src'}; run from a flowrec checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise Unrunnable("BENCHMARK.json is missing")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import flowrec

    if Path(flowrec.__file__).resolve().parent != (ROOT / "src" / "flowrec").resolve():
        raise Unrunnable(f"imported flowrec from {flowrec.__file__}, not from this checkout")
    with open(spec_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every process it starts, to one CPU.

    The client waits while the server works, so one CPU serves both; pinned,
    no wake-up crosses CPUs and no process migrates between CPUs of unequal
    load. Serving runs spread far less this way on a shared 2-vCPU VM.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    sources = sorted((ROOT / "src" / "flowrec").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": dict(BLAS_THREADS),
        "git_sha": sha,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
    }


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------

def time_ops(w, seconds: float, first_index: int = 0, tracer=None) -> list[dict]:
    """Run operations back to back until ``seconds`` have passed (at least one).

    Each operation is checked as soon as it ends, outside its timed region,
    and its output is dropped then, so memory does not grow with the number
    of operations. With a tracer, its wrappers are installed around each
    timed call only.
    """
    ops = []
    deadline = time.perf_counter() + seconds
    index = first_index
    while True:
        args = w.prepare(index)
        if tracer is not None:
            tracer.op = index
            tracer.install()
        started = time.perf_counter()
        try:
            out, error = w.run(args), None
        except Exception as exc:  # an operation that raises is counted as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - started) * 1000.0
        if tracer is not None:
            tracer.uninstall()
            tracer.op = None
        problems = [error] if error else w.check(args, out)
        ops.append({"index": index, "ms": ms, "error": error, "problems": problems,
                    "items": 0 if problems else w.items(args, out)})
        index += 1
        if time.perf_counter() >= deadline:
            return ops


def tally(ops: list[dict]) -> tuple[bool, int, int]:
    failed = sum(1 for op in ops if op["problems"])
    wrong = sum(1 for op in ops if op["problems"] and not op["error"])
    return wrong == 0 and failed < len(ops), len(ops), failed


def timing_summary(ops: list[dict]) -> dict:
    """Median plus p90/p99 only where at least ten samples lie beyond them."""
    ms = sorted(op["ms"] for op in ops if not op["problems"])
    out = {"n": len(ms), "op_ms_p50": statistics.median(ms) if ms else None}
    if len(ms) >= 100:
        out["op_ms_p90"] = statistics.quantiles(ms, n=10)[8]
    if len(ms) >= 1000:
        out["op_ms_p99"] = statistics.quantiles(ms, n=100)[98]
    return out


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def measure(w, seconds: float, workdir: Path) -> tuple[list[dict], dict, dict]:
    """End-to-end run: set up several times (median), then time operations."""
    setup_s = []
    for k in range(SETUP_REPEATS):
        if k:
            w.close()
        target = workdir / f"setup{k}"
        target.mkdir(parents=True)
        started = time.perf_counter()
        w.setup(target)
        setup_s.append(time.perf_counter() - started)
    w.warm_up()
    ops = time_ops(w, seconds)
    peak_rss = w.peak_rss_mb()
    ok = [op for op in ops if not op["problems"]]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss,
        "op_ms_p50": statistics.median(op["ms"] for op in ok) if ok else 0.0,
        "items_per_s": (sum(op["items"] for op in ok) / (sum(op["ms"] for op in ok) / 1000.0)
                        if ok else 0.0),
    }
    reference = {"setup_s_samples": setup_s, **timing_summary(ops)}
    if w.kind == "serve":
        reference["cli_stage_s"] = dict(w.stage_s)
    return ops, metrics, reference


def measure_traced(w, seconds: float, workdir: Path) -> tuple[list[dict], dict, dict]:
    """Traced run: half the time untraced, half traced, both on the same set-up."""
    from layers import per_layer_metrics, self_time_shares
    from spans import Tracer, load_spans

    target = workdir / "setup0"
    target.mkdir(parents=True)
    spans_dir = workdir / "spans"
    spans_dir.mkdir()
    tracer = Tracer()
    extra: dict = {}
    if w.kind == "train":
        tracer.install()
        try:
            w.setup(target)
        finally:
            tracer.uninstall()
        plain = time_ops(w, seconds / 2)
        traced = time_ops(w, seconds / 2, first_index=len(plain), tracer=tracer)
        tracer.dump(spans_dir / "bench.json", process="bench")
        op_spans = [s for s in tracer.spans if s.op is not None]
        setup_spans = [s for s in tracer.spans if s.op is None]
        top = sum(s.ms for s in op_spans if s.parent is None)
        wall = sum(op["ms"] for op in traced)
    else:
        w.setup(target, spans_dir)
        w.warm_up()
        plain = time_ops(w, seconds / 2)
        w.stop_server()
        w.start_server(spans_dir / "serve.json")
        w.warm_up()
        traced = time_ops(w, seconds / 2, first_index=len(plain))
        extra["store_mb"] = w.file_mb("store.bin")
        extra["checkpoint_mb"] = w.file_mb("checkpoint.bin")
        extra["stage_s"] = dict(w.stage_s)
        w.stop_server()
        setup_spans = [s for stage in w.STAGES for s in load_spans(spans_dir / f"{stage}.json")]
        server = load_spans(spans_dir / "serve.json")
        handles = sorted((s for s in server if s.name == "serve.handle_rank"), key=lambda s: s.start)
        timed = handles[w.recipe.warmup:]
        if len(timed) != len(traced):
            raise RuntimeError(f"{len(timed)} handled requests for {len(traced)} timed ones")

        def root(span):
            while span.parent is not None:
                span = span.parent
            return span

        timed_ids = {id(s) for s in timed}
        op_spans = [s for s in server if id(root(s)) in timed_ids]
        setup_spans += [s for s in server if root(s).name != "serve.handle_rank"]
        extra["http_ms"] = [op["ms"] - h.ms for op, h in zip(traced, timed)]
        top = sum(h.ms for h in timed)
        wall = sum(op["ms"] for op in traced)
    untraced_p50 = statistics.median(op["ms"] for op in plain)
    traced_p50 = statistics.median(op["ms"] for op in traced)
    extra["overhead_ms"] = traced_p50 - untraced_p50
    extra["unaccounted_pct"] = 100.0 * (wall - top) / wall
    metrics = per_layer_metrics(w.kind, op_spans, setup_spans, len(traced), extra)
    reference = {
        "untraced": timing_summary(plain), "traced": timing_summary(traced),
        "self_time_shares": self_time_shares(op_spans),
    }
    return plain + traced, metrics, reference


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = preflight()
    except Unrunnable as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    import workloads

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    listed = spec["per_layer" if args.trace else "end_to_end"]
    pin_to_one_cpu()
    env = environment()
    runs = BENCH_DIR / "runs"
    label = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir = runs / label
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    w = workloads.make(args.workload, args.seed)
    try:
        ops, values, reference = (measure_traced if args.trace else measure)(w, args.seconds, workdir)
    except workloads.SetupError as exc:
        print(f"benchmark: set-up failed: {exc}", file=sys.stderr)
        return 3
    finally:
        w.close()
        for entry in workdir.iterdir():
            if entry.name != "spans":
                shutil.rmtree(entry, ignore_errors=True)
    if set(values) != {m["name"] for m in listed}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    correct, attempted, failed = tally(ops)
    reference.update(w.reference_figures)
    if args.trace:
        reference["spans"] = str((workdir / "spans").relative_to(ROOT))
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    problems = [f"op {op['index']}: {p}" for op in ops for p in op["problems"]][:20]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "reference": reference, "problems": problems,
              "result": result}
    with open(runs / f"{label}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed}")
    for p in problems:
        print(f"problem: {p}")
    print("env " + json.dumps(env, sort_keys=True))
    print("reference " + json.dumps(reference, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
