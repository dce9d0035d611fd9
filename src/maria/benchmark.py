"""Directional comparison on scenario-diverse synthetic data.

Three scenarios with disjoint ground-truth feature masks force genuinely
different feature use per scenario. The full model, a single shared tower,
and a gated mixture over the raw features train on identical data and
seeds; the report carries the mean AUC gaps and the cross-scenario
divergence of the user-field refiner selection.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

from . import datagen, training
from .autodiff import Graph
from .config import RunConfig, build_run_config
from .model import build_model

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
class BenchRun:
    kind: str
    seed: int
    auc: float | None
    per_scenario_auc: dict[int, float | None]
    user_divergence: float | None
    seconds: float


@dataclass
class BenchmarkReport:
    runs: list[BenchRun]
    mean_auc: dict[str, float]
    train_bayes: float
    eval_bayes: float
    seconds: float
    gen_seconds: float  # generating the train and eval logs
    user_divergences: list[float] = field(default_factory=list)  # full model, per seed

    def gap(self, kind: str) -> float | None:
        if "maria" not in self.mean_auc or kind not in self.mean_auc:
            return None
        return self.mean_auc["maria"] - self.mean_auc[kind]

    def to_dict(self) -> dict:
        return {
            "runs": [
                {**asdict(r), "per_scenario_auc": {str(k): v for k, v in r.per_scenario_auc.items()}}
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
            f"oracle ceiling: train bayes auc {self.train_bayes:.4f}, eval bayes auc {self.eval_bayes:.4f}",
            "mean test auc over seeds:",
        ]
        for kind, value in self.mean_auc.items():
            lines.append(f"  {kind:<13} {value:.4f}")
        for kind in ("hard_sharing", "mmoe"):
            gap = self.gap(kind)
            if gap is not None:
                lines.append(f"full model vs {kind}: {gap:+.4f}")
        if self.user_divergences:
            shown = ", ".join(f"{d:.3f}" for d in self.user_divergences)
            lines.append(f"user-field refiner divergence per seed: {shown}")
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
    train_ds, _ = datagen.generate(benchmark_config(train_count, TRAIN_DATA_SEED))
    eval_ds, _ = datagen.generate(benchmark_config(eval_count, EVAL_DATA_SEED))
    gen_seconds = time.perf_counter() - started
    if log_fn:
        log_fn(
            f"data ready: {train_count} train / {eval_count} eval in {gen_seconds:.1f}s "
            f"({(train_count + eval_count) / gen_seconds:.0f} inst/s), "
            f"eval bayes auc {eval_ds.manifest.bayes_auc['overall']:.4f}"
        )

    runs: list[BenchRun] = []
    divergences: list[float] = []
    for kind in kinds:
        for seed in seeds:
            t0 = time.perf_counter()
            cfg = benchmark_config(train_count, TRAIN_DATA_SEED)
            cfg = replace(cfg, train=replace(cfg.train, seed=seed))
            graph = Graph(seed=seed)
            model = build_model(graph, cfg, kind=kind)
            training.train(graph, model, train_ds.instances, cfg.train)
            report = training.evaluate(model, eval_ds.instances, cfg.train.batch_size)
            divergence = report.refiner_divergence().get("user")
            if kind == "maria" and divergence is not None:
                divergences.append(divergence)
            run = BenchRun(
                kind=kind,
                seed=seed,
                auc=report.auc,
                per_scenario_auc={s: e.auc for s, e in report.per_scenario.items()},
                user_divergence=divergence,
                seconds=time.perf_counter() - t0,
            )
            runs.append(run)
            if log_fn:
                shown = "n/a" if run.auc is None else f"{run.auc:.4f}"
                log_fn(f"{kind} seed {seed}: auc {shown} ({run.seconds:.1f}s)")

    mean_auc = {}
    for kind in kinds:
        values = [r.auc for r in runs if r.kind == kind]
        if values and all(v is not None for v in values):
            mean_auc[kind] = sum(values) / len(values)
    return BenchmarkReport(
        runs=runs,
        mean_auc=mean_auc,
        train_bayes=train_ds.manifest.bayes_auc["overall"],
        eval_bayes=eval_ds.manifest.bayes_auc["overall"],
        seconds=time.perf_counter() - started,
        gen_seconds=gen_seconds,
        user_divergences=divergences,
    )
