"""Directional comparison on scenario-diverse synthetic data.

Three scenarios with disjoint ground-truth feature masks force genuinely
different feature use per scenario. The full model, a single shared tower,
and a gated mixture over the raw features train on identical data and
seeds; the report carries the mean AUC gaps and the cross-scenario
divergence of the user-field refiner selection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from . import datagen, training
from .config import RunConfig, build_run_config
from .metrics import shown

BENCH_KINDS = ("maria", "hard_sharing", "mmoe")
BENCH_SEEDS = (0, 1, 2)
TRAIN_DATA_SEED = 11
EVAL_DATA_SEED = 12

# Desk-scale recipe. The default learning rate destabilizes the narrow
# towers used here, so the experiment pins 0.01; three user-field refiners
# under a half-width bottleneck give scenarios a real reason to disagree.
_BENCH_SETTINGS = {
    "vocab.users": "150",
    "vocab.items": "200",
    "vocab.scenarios": "3",
    "model.experts": "4",
    "model.expert_hidden": "64",
    "model.tower_dims": "32,16",
    "model.scale_hidden": "32",
    "model.refiners": "1,3,1,1,1",
    "model.gumbel_temperature": "1.0",
    "train.learning_rate": "0.01",
    "train.batch_size": "512",
    "train.epochs": "4",
}


def benchmark_overrides() -> dict[str, str]:
    """Config overrides for the experiment; scenario masks stay on the
    auto-disjoint default while label weights are pinned to strong values."""
    out = dict(_BENCH_SETTINGS)
    probe = build_run_config({}, {k: v for k, v in out.items() if not k.startswith("train.")})
    weights = ",".join("5" if j % 2 == 0 else "-5" for j in range(probe.schema.element_count))
    for s in range(3):
        out[f"scenario.{s}.label_weights"] = weights
    return out


def benchmark_config(count: int, gen_seed: int) -> RunConfig:
    return build_run_config(benchmark_overrides(), {"gen.count": str(count), "gen.seed": str(gen_seed)})


@dataclass
class BenchmarkReport:
    runs: list[training.CellResult]
    train_bayes: float | None  # None where the log holds one label class or no rows
    eval_bayes: float | None
    seconds: float
    gen_seconds: float  # generating the train and eval logs

    @property
    def mean_auc(self) -> dict[str, float]:
        """Mean AUC per kind, in run order; a kind with an undefined AUC has none."""
        out = {}
        for kind in dict.fromkeys(r.kind for r in self.runs):
            values = [r.auc for r in self.runs if r.kind == kind]
            if all(v is not None for v in values):
                out[kind] = sum(values) / len(values)
        return out

    @property
    def user_divergences(self) -> list[float]:
        """The full model's user-field refiner divergence, per seed."""
        return [r.user_divergence for r in self.runs if r.kind == "maria" and r.user_divergence is not None]

    def gap(self, kind: str) -> float | None:
        if "maria" not in self.mean_auc or kind not in self.mean_auc:
            return None
        return self.mean_auc["maria"] - self.mean_auc[kind]

    def to_dict(self) -> dict:
        return {
            "runs": [
                {
                    "kind": r.kind,
                    "seed": r.seed,
                    "auc": r.auc,
                    "per_scenario_auc": {str(k): v for k, v in r.per_scenario_auc.items()},
                    "user_divergence": r.user_divergence,
                    "seconds": r.seconds,
                }
                for r in self.runs
            ],
            "mean_auc": self.mean_auc,
            "gap_vs_hard_sharing": self.gap("hard_sharing"),
            "gap_vs_mmoe": self.gap("mmoe"),
            "user_divergences": self.user_divergences,
            "train_bayes": self.train_bayes,
            "eval_bayes": self.eval_bayes,
            "seconds": self.seconds,
            "gen_seconds": self.gen_seconds,
        }

    def summary(self) -> str:
        lines = [
            f"oracle ceiling: train bayes auc {shown(self.train_bayes)}, eval bayes auc {shown(self.eval_bayes)}",
            "mean test auc over seeds:",
        ]
        for kind, value in self.mean_auc.items():
            lines.append(f"  {kind:<13} {value:.4f}")
        for kind in ("hard_sharing", "mmoe"):
            gap = self.gap(kind)
            if gap is not None:
                lines.append(f"full model vs {kind}: {gap:+.4f}")
        if self.user_divergences:
            per_seed = ", ".join(f"{d:.3f}" for d in self.user_divergences)
            lines.append(f"user-field refiner divergence per seed: {per_seed}")
        lines.append(f"wall time {self.seconds:.1f}s")
        return "\n".join(lines)


def run_benchmark(
    kinds=BENCH_KINDS,
    seeds=BENCH_SEEDS,
    train_count: int = 50000,
    eval_count: int = 10000,
    log_fn=None,
) -> BenchmarkReport:
    """Train every kind once per seed on shared data and compare test AUC.

    The two datasets share the ground truth (explicit label weights and the
    deterministic disjoint masks) but draw disjoint instances from different
    generator seeds.
    """
    started = time.perf_counter()
    cfg = benchmark_config(train_count, TRAIN_DATA_SEED)
    train_ds, _ = datagen.generate(cfg)
    eval_ds, _ = datagen.generate(benchmark_config(eval_count, EVAL_DATA_SEED))
    gen_seconds = time.perf_counter() - started
    if log_fn:
        log_fn(
            f"data ready: {train_count} train / {eval_count} eval in {gen_seconds:.1f}s "
            f"({(train_count + eval_count) / gen_seconds:.0f} inst/s), "
            f"eval bayes auc {shown(eval_ds.manifest.bayes_auc.get('overall'))}"
        )

    runs = []
    for kind in kinds:
        for seed in seeds:
            cell_cfg = replace(cfg, train=replace(cfg.train, seed=seed))
            run = training.run_cell(cell_cfg, train_ds.instances, eval_ds.instances, kind=kind)
            runs.append(run)
            if log_fn:
                log_fn(f"{kind} seed {seed}: auc {shown(run.auc)} ({run.seconds:.1f}s)")
    return BenchmarkReport(
        runs=runs,
        train_bayes=train_ds.manifest.bayes_auc.get("overall"),
        eval_bayes=eval_ds.manifest.bayes_auc.get("overall"),
        seconds=time.perf_counter() - started,
        gen_seconds=gen_seconds,
    )
