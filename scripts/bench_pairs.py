"""Alternating parent/change pairs of one benchmark workload.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload train-maria --pairs 10 \\
        --first-seed 951 --out BENCH_pairs.json

The change is the working tree this script sits in. The parent is the
committed tree of ``--parent``, exported with ``git archive`` into a fresh
directory under ``.bench_out/``, as the benchmark compares committed files;
the directory is removed at the end. Pair ``i`` runs ``bench/run.py --trace
0`` on both sides with seed ``first_seed + i`` for the ``run_seconds`` that
``BENCHMARK.json`` sets: the parent first on even pairs, the change first on
odd ones, so that this machine's drift in speed falls on both sides alike.

The output holds, for every metric that ``BENCHMARK.json`` gates: the values
per pair, the medians and quartiles of each side, the parent's interquartile
range (IQR), the relative change of the medians and the number of pairs the
change wins. A gain is claimed only when the change wins at least nine
pairs in ten and its median beats the parent's by more than the parent's
IQR (``claim_holds``). Each metric also gets a no-regression ``verdict``
against its ``bound`` in ``BENCHMARK.json``, where the allowance is bound x
parent median: ``regressed`` when the change median is worse than the
parent's by more than the allowance; ``unresolved`` when the parent IQR
exceeds the allowance, unless every change run beats every parent run;
``ok`` otherwise. Every run's exit code and failed-check count are kept,
and each pair records whether both sides reported the same step-loss and
checkpoint digests (``digests_equal``; the top-level count of such pairs
is printed at the end).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def export_tree(rev: str, into: Path) -> str:
    """Write the committed files of ``rev`` under ``into``; returns the full hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return commit


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run: its exit code, failed-check count, gated
    metrics and the digests of its training losses and checkpoint."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        report, final = json.loads(lines[-2])["report"], json.loads(lines[-1])
    except (IndexError, KeyError, json.JSONDecodeError):
        return {"exit": proc.returncode, "failed": None, "metrics": {}, "stderr": proc.stderr[-2000:]}
    metrics = {name: entry["value"] for name, entry in final["metrics"].items()}
    return {"exit": proc.returncode, "failed": final["failed"], "metrics": metrics, "digests": report.get("digests")}


def digests_equal(pair: dict) -> bool:
    """Whether both runs of a pair reported digests, and the same ones."""
    parent, change = pair["parent"].get("digests"), pair["change"].get("digests")
    return parent is not None and parent == change


def summarise(pairs: list[dict], gated: list[dict]) -> dict:
    out = {}
    for entry in gated:
        name, higher = entry["name"], entry["better"] == "higher"
        both = [
            (p["parent"]["metrics"][name], p["change"]["metrics"][name])
            for p in pairs if name in p["parent"]["metrics"] and name in p["change"]["metrics"]
        ]
        if not both:
            continue
        parent = np.array([a for a, _ in both])
        change = np.array([b for _, b in both])
        pq = np.percentile(parent, [25, 50, 75])
        cq = np.percentile(change, [25, 50, 75])
        wins = int(np.sum(change > parent) if higher else np.sum(change < parent))
        gain = (cq[1] - pq[1]) if higher else (pq[1] - cq[1])
        iqr = float(pq[2] - pq[0])
        allowance = entry["bound"] * abs(pq[1])
        beats_all = change.min() > parent.max() if higher else change.max() < parent.min()
        if -gain > allowance:
            verdict = "regressed"
        elif iqr > allowance and not beats_all:
            verdict = "unresolved"
        else:
            verdict = "ok"
        out[name] = {
            "unit": entry["unit"],
            "better": entry["better"],
            "parent": parent.tolist(),
            "change": change.tolist(),
            "parent_median": float(pq[1]),
            "change_median": float(cq[1]),
            "parent_quartiles": [float(pq[0]), float(pq[2])],
            "change_quartiles": [float(cq[0]), float(cq[2])],
            "parent_iqr": iqr,
            "relative_change": float(cq[1] / pq[1] - 1.0),
            "wins": wins,
            "pairs": len(both),
            "claim_holds": bool(wins * 10 >= 9 * len(both) and gain > iqr),
            "bound": entry["bound"],
            "verdict": verdict,
        }
    return out


def write_result(out: Path, workload: str, result: dict) -> None:
    """Set ``workload``'s entry of the JSON document ``out``, keeping the
    other workloads' entries. The document goes to a temp file beside ``out``
    that then replaces it, so a write that fails leaves the old file as it was."""
    document = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    document[workload] = result
    fd, tmp = tempfile.mkstemp(prefix=f".{out.name}.", suffix=".tmp", dir=out.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, out)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default="BENCH_pairs.json", help="output JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.first_seed < 0:
        parser.error("--pairs must be positive and --first-seed non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    parent_dir = Path(tempfile.mkdtemp(prefix="pairs-parent-", dir=ROOT / ".bench_out"))
    pairs = []
    try:
        commit = export_tree(args.parent, parent_dir)
        trees = {"parent": parent_dir, "change": ROOT}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], args.workload, seed, seconds)
            pair["digests_equal"] = digests_equal(pair)
            pairs.append(pair)
            shown = {s: {k: round(v, 4) for k, v in pair[s]["metrics"].items()} for s in ("parent", "change")}
            print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): {json.dumps(shown)}, "
                  f"digests {'equal' if pair['digests_equal'] else 'differ'}", flush=True)
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)

    result = {
        "workload": args.workload,
        "parent": commit,
        "change": "working tree",
        "seconds": seconds,
        "seeds": [p["seed"] for p in pairs],
        "runs_failed": sum(1 for p in pairs for s in ("parent", "change") if p[s]["exit"] != 0 or p[s]["failed"]),
        "digests_equal": sum(p["digests_equal"] for p in pairs),
        "metrics": summarise(pairs, spec["end_to_end"]),
        "pairs": pairs,
    }
    write_result(Path(args.out), args.workload, result)
    for name, m in result["metrics"].items():
        print(f"{name:<12} parent {m['parent_median']:.6g} [IQR {m['parent_iqr']:.4g}] -> change "
              f"{m['change_median']:.6g} ({m['relative_change']:+.1%}), wins {m['wins']}/{m['pairs']}, "
              f"claim {'holds' if m['claim_holds'] else 'does not hold'}, verdict {m['verdict']}")
    print(f"digests equal in {result['digests_equal']}/{len(pairs)} pairs")
    return 0 if result["runs_failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
