"""Benchmark command for the maria reproduction.

    python3 bench/run.py --workload train-maria --seed 1 --seconds 15 --trace 0

Run from the repository root. The command imports ``maria`` from ``src/`` of
the same checkout, runs one workload (see ``bench/README.md``) and prints:

* one line per metric with its unit and direction;
* one JSON line with the full report: environment, seed, tail percentile and
  sample count, digests, every per-layer metric and the failures;
* as the last line, ``{"correct", "attempted", "failed", "metrics"}`` holding
  the metrics ``BENCHMARK.json`` names: its ``end_to_end`` list with
  ``--trace 0``, its ``per_layer`` list with ``--trace 1``.

With ``--trace 1`` the first half of ``--seconds`` runs untraced and the
second half traced, so ``trace.overhead_frac`` compares the two; the spans
are written to ``.bench_out/``. Any failed check makes the exit code 1; a
missing program makes it 2.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 3  # set-ups per run; setup_s reports their median
MIN_UNITS = 2  # timed units per loop even when one overruns the time
# Phase-specific names of the workload-generic metrics. Every workload must
# print every gated metric, so BENCHMARK.json gates the generic ones.
ALIASES = {
    "train": {"inst_per_s": "train_inst_per_s", "step_ms_p50": "train_step_ms_p50", "step_ms_tail": "train_step_ms_tail"},
    "eval": {"inst_per_s": "eval_inst_per_s", "step_ms_p50": "eval_pass_ms_p50", "step_ms_tail": "eval_pass_ms_tail"},
}
# End-to-end metrics printed but not gated by BENCHMARK.json, whose bounds
# may not exceed 0.25. This machine's speed drifts by 15-25% over minutes, and
# over ten runs the step-latency p50 and tail and the set-up generation rate
# spread up to 0.22-0.30 of their median; total throughput, averaged over
# the whole run, stayed within 0.2. The batch-64 model's final loss lands in
# one of two basins by seed (spread about 0.2). fail_frac is 0 on a correct
# run, and a gated metric may never be 0.
UNGATED = {
    "step_ms_p50": ("ms", "lower"),
    "step_ms_tail": ("ms", "lower"),
    "gen_inst_per_s": ("inst/s", "higher"),
    "final_train_loss": ("nats", "lower"),
    "fail_frac": ("ratio", "lower"),
}


class MissingProgram(RuntimeError):
    pass


def load_maria():
    """Import ``maria`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import maria
    except ImportError as exc:
        raise MissingProgram(f"cannot import maria from {SRC}: {exc}") from exc
    if Path(maria.__file__).resolve().parent.parent != SRC:
        raise MissingProgram(f"maria was imported from {maria.__file__}, not from {SRC}")
    return maria


def blas_threads() -> int | None:
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def timed_loop(workload, seconds: float, min_steps: int = 0) -> list[float]:
    """Closed loop of workload units for ``seconds``, and until at least
    ``min_steps`` steps were timed; returns each unit's rate."""
    deadline = time.perf_counter() + seconds
    rates: list[float] = []
    while len(rates) < MIN_UNITS or time.perf_counter() < deadline or len(workload.step_ms()) < min_steps:
        rates.append(workload.unit())
    return rates


def run(args, spec: dict, workdir: Path) -> tuple[dict, dict]:
    """Returns (final line, report)."""
    import spans
    from stats import TAIL_BEYOND, median, tail_percentile
    from workloads import Checks, make_workload

    checks = Checks()
    workload = make_workload(args.workload, args.seed, workdir, checks)
    import_s = time.perf_counter() - _STARTED
    setup_times = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)
    units = SETUPS
    report: dict = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                    "env": environment(args.seed), "import_s": import_s, "setup_times_s": setup_times}

    if not args.trace:
        rates = timed_loop(workload, args.seconds, min_steps=2 * TAIL_BEYOND)
        units += len(rates)
        steps = workload.step_ms()
        percentile, tail, samples = tail_percentile(steps)
        measured = dict(workload.metrics())
        measured.update({
            "step_ms_p50": median(steps),
            "step_ms_tail": tail,
            "gen_inst_per_s": workload.gen_rate(),
            "setup_s": import_s + median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        report["step_tail"] = {"percentile": percentile, "samples": samples}
        report["timed_units"] = len(rates)
        report["aliases"] = ALIASES[workload.primary]
        wanted = spec["end_to_end"]
    else:
        untraced = timed_loop(workload, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            workload.setup()
            tracer.phase = "timed"
            traced = timed_loop(workload, args.seconds / 2)
        finally:
            patched = tracer.patched()
            tracer.uninstall()
        units += 1 + len(untraced) + len(traced)
        checks.expect(all(vars(owner)[attr] is original for owner, attr, original in patched),
                      "a traced function was not restored")
        rows = tracer.rows()
        measured = spans.layer_metrics(rows, tracer.step_kind, workload.primary)
        measured["trace.overhead_frac"] = median(untraced) / median(traced) - 1.0
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_file)
        report["trace_file"] = str(trace_file.relative_to(ROOT))
        report["self_ms_per_step"] = spans.self_time_table(rows, tracer.step_kind, workload.primary)
        report["timed_units"] = {"untraced": len(untraced), "traced": len(traced)}
        wanted = spec["per_layer"]

    report["digests"] = workload.digests()
    report["metrics"] = measured
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        value = measured.get(name)
        checks.expect(value is not None, f"metric {name} was not measured")
        if value is not None:
            metrics[name] = {"value": float(value), "unit": entry["unit"]}
    attempted = units + checks.attempted
    if not args.trace:
        measured["fail_frac"] = len(checks.failures) / attempted
    report["failures"] = checks.failures
    final = {"correct": not checks.failures, "attempted": attempted, "failed": len(checks.failures), "metrics": metrics}
    return final, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="maria benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    try:
        load_maria()
    except MissingProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        final, report = run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    shown = {e["name"]: (e["unit"], e["better"]) for e in spec["end_to_end"] + spec["per_layer"]}
    shown.update(UNGATED)
    aliases = report.get("aliases", {})
    for name in list(final["metrics"]) + ([] if args.trace else list(UNGATED)):
        value = report["metrics"][name]
        unit, better = shown[name]
        alias = f", {aliases[name]}" if name in aliases else ""
        print(f"{name:<36} {value:>14.6g} {unit:<8} ({better} is better{alias})")
    for failure in report["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
