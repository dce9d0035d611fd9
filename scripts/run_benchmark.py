"""Run the scenario-diversity comparison and print the summary.

The default sizes (50k train / 10k eval, 3 seeds, 3 model kinds) finish in
under a minute on a 2-core machine. Use --train-count/--eval-count for a
quicker look.
"""

import argparse
import json

from maria.benchmark import BENCH_KINDS, BENCH_SEEDS, run_benchmark
from maria.model import MODEL_KINDS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-count", type=int, default=50000)
    parser.add_argument("--eval-count", type=int, default=10000)
    parser.add_argument("--seeds", default=",".join(str(s) for s in BENCH_SEEDS),
                        help="comma-separated training seeds")
    parser.add_argument("--kinds", default=",".join(BENCH_KINDS),
                        help="comma-separated model kinds to compare")
    parser.add_argument("--json", action="store_true", help="print the full report as JSON")
    args = parser.parse_args()
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    unknown = [k for k in kinds if k not in MODEL_KINDS]
    if unknown:
        parser.error(f"--kinds: unknown kind {unknown[0]!r}; expected any of {', '.join(MODEL_KINDS)}")
    try:
        seeds = tuple(int(s) for s in args.seeds.split(","))
    except ValueError:
        parser.error(f"--seeds: expected comma-separated integers, got {args.seeds!r}")

    report = run_benchmark(
        kinds=kinds,
        seeds=seeds,
        train_count=args.train_count,
        eval_count=args.eval_count,
        log_fn=None if args.json else print,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
