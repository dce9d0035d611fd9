"""Training loop, evaluation, experiment cells, ablations, and the gradient-check harness."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import metrics
from .autodiff import Graph
from .config import ABLATION_FLAGS, RunConfig, TrainSettings
from .datagen import InstanceTable, batch_iter
from .model import bce_loss, build_model, group_of_parameter, make_batch
from .optim import Adam, NonFiniteGradient


class TrainingDiverged(RuntimeError):
    """Loss or a gradient left the finite range; the message names the step
    (and, for a gradient, the parameter and its group)."""


@dataclass
class TrainReport:
    steps: int
    step_losses: list[float]           # batch-mean loss per optimizer step
    epoch_losses: list[float]          # mean per-instance loss per epoch
    final_loss: float | None           # last epoch's loss; None without an epoch
    clamp_events: int
    eval_history: list[tuple[int, float | None]]  # (epoch, overall auc)
    stopped_early: bool = False


def train(
    graph: Graph,
    model,
    instances: InstanceTable,
    settings: TrainSettings,
    eval_instances: InstanceTable | None = None,
    log_fn=None,
) -> TrainReport:
    """Optimize the model in place; deterministic given settings.seed.

    The steps, and mid-training evals, run at the graph's dtype: float32
    for a default graph. If a step raises, the arena is truncated to its
    entry mark.
    """
    if len(instances) == 0:
        raise ValueError("train: no instances")
    named = model.named_parameters()
    opt = Adam([value for _, value in named], learning_rate=settings.learning_rate,
               weight_decay=settings.weight_decay)
    start = graph.mark()
    try:
        return _train_steps(graph, model, named, opt, instances, settings, eval_instances, log_fn)
    finally:
        if len(graph) > start:  # a step that raised left its nodes behind
            graph.truncate(start)


def _train_steps(graph, model, named, opt, instances, settings, eval_instances, log_fn) -> TrainReport:
    step = 0
    step_losses: list[float] = []
    epoch_losses: list[float] = []
    eval_history: list[tuple[int, float | None]] = []
    best_auc = -np.inf
    misses = 0
    stopped = False
    for epoch in range(settings.epochs):
        opt.learning_rate = settings.learning_rate * settings.lr_decay**epoch
        total, seen = 0.0, 0
        for block in batch_iter(instances, settings.batch_size, seed=settings.seed, epoch=epoch):
            batch = make_batch(block, model.vocab, model.schema, model.trigger_mode)
            mark = graph.mark()
            loss = bce_loss(model.forward(batch, mode="train").score, batch.labels)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDiverged(f"loss became {value} at step {step}")
            graph.zero_grads()
            ad.backward(loss)
            try:
                opt.step()
            except NonFiniteGradient as exc:
                name = named[exc.index][0]
                raise TrainingDiverged(
                    f"gradient of {name} ({group_of_parameter(name)}) became non-finite at step {step}"
                ) from None
            graph.truncate(mark)
            step_losses.append(value / batch.size)
            total += value
            seen += batch.size
            step += 1
        epoch_losses.append(total / seen)
        if log_fn:
            log_fn(f"epoch {epoch}: mean loss {epoch_losses[-1]:.5f}")
        due = eval_instances is not None and settings.eval_every > 0 and (epoch + 1) % settings.eval_every == 0
        if due:
            auc = evaluate(model, eval_instances, settings.batch_size).auc
            eval_history.append((epoch, auc))
            if log_fn:
                log_fn(f"epoch {epoch}: eval auc {metrics.shown(auc)}")
            score = -np.inf if auc is None else auc
            if score > best_auc:
                best_auc = score
                misses = 0
            else:
                misses += 1
                if settings.early_stop_patience > 0 and misses >= settings.early_stop_patience:
                    stopped = True
                    break
    return TrainReport(
        steps=step,
        step_losses=step_losses,
        epoch_losses=epoch_losses,
        final_loss=epoch_losses[-1] if epoch_losses else None,
        clamp_events=graph.clamp_events,
        eval_history=eval_history,
        stopped_early=stopped,
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class ScenarioEval:
    count: int
    positive_rate: float
    auc: float | None
    pcoc: float | None


@dataclass
class EvalReport:
    count: int
    loss: float | None                 # None without instances
    auc: float | None
    pcoc: float | None
    per_scenario: dict[int, ScenarioEval]
    refiner_hist: dict[str, np.ndarray] = field(default_factory=dict)  # field -> (scenarios, refiners) counts
    warnings: list[str] = field(default_factory=list)

    def refiner_divergence(self) -> dict[str, float]:
        """Largest pairwise total-variation distance between the scenario
        selection histograms of each field; empty without refiners."""
        out: dict[str, float] = {}
        for fname, hist in self.refiner_hist.items():
            best = 0.0
            rows = [r for r in hist if r.sum() > 0]
            for i in range(len(rows)):
                for j in range(i + 1, len(rows)):
                    best = max(best, metrics.total_variation(rows[i], rows[j]))
            out[fname] = best
        return out

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "loss": self.loss,
            "auc": self.auc,
            "pcoc": self.pcoc,
            "per_scenario": {str(s): asdict(e) for s, e in sorted(self.per_scenario.items())},
            "refiner_hist": {f: h.astype(int).tolist() for f, h in self.refiner_hist.items()},
            "refiner_divergence": self.refiner_divergence(),
            "warnings": list(self.warnings),
        }


def evaluate(model, instances: InstanceTable, batch_size: int = 512, workers: int = 1) -> EvalReport:
    """Score instances in eval mode and aggregate ranking metrics.

    The forward runs at the graph's dtype (float32 for a default graph);
    the loss and the metrics are computed on the scores widened to float64.
    Leaves the model untouched: no parameter updates, no RNG draws, and the
    graph arena is as it was on every exit, also when a batch raises.
    ``workers`` stays only for ``bench/workloads.py``, which passes
    1; any other value is refused.
    """
    if workers != 1:
        raise ValueError(f"evaluate: workers must be 1, got {workers}")
    blocks = list(batch_iter(instances, batch_size))
    graph, fr = model.graph, model.fr
    refiner_hist: dict[str, np.ndarray] = {}
    if fr is not None:
        refiner_hist = {fname: np.zeros((model.vocab.scenarios, count)) for fname, count in fr.counts.items()}
    scores_parts = []
    start = graph.mark()
    try:
        for block in blocks:
            batch = make_batch(block, model.vocab, model.schema, model.trigger_mode)
            result = model.forward(batch, mode="eval")
            scores_parts.append(result.score.data.copy())
            for fname, picks in result.trace.get("refiner_choice", {}).items():
                np.add.at(refiner_hist[fname], (block.scenario, picks), 1.0)
            graph.truncate(start)
    finally:
        if len(graph) > start:  # a batch that raised left its nodes behind
            graph.truncate(start)

    labels = instances.label.astype(np.float64)
    scenario = instances.scenario
    # float64, since in float32 the 1 - 1e-12 below would round to 1.0
    scores = np.concatenate(scores_parts, dtype=np.float64) if scores_parts else np.zeros(0)

    clipped = np.clip(scores, 1e-12, 1.0 - 1e-12)
    loss = float(np.mean(-(labels * np.log(clipped) + (1.0 - labels) * np.log(1.0 - clipped)))) if len(instances) else None

    warnings: list[str] = []
    per_scenario: dict[int, ScenarioEval] = {}
    for sid in np.unique(scenario):
        sel = scenario == sid
        auc_s = metrics.auc(scores[sel], labels[sel])
        if auc_s is None:
            warnings.append(f"scenario {int(sid)}: only one label class present; auc undefined")
        per_scenario[int(sid)] = ScenarioEval(
            count=int(sel.sum()),
            positive_rate=float(labels[sel].mean()),
            auc=auc_s,
            pcoc=metrics.pcoc(scores[sel], labels[sel]),
        )

    return EvalReport(
        count=len(instances),
        loss=loss,
        auc=metrics.auc(scores, labels),
        pcoc=metrics.pcoc(scores, labels),
        per_scenario=per_scenario,
        refiner_hist=refiner_hist,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# experiment cells and the ablation sweep
# ---------------------------------------------------------------------------

ABLATION_VARIANTS = ("full",) + tuple(f"wo_{name}" for name in ABLATION_FLAGS)


@dataclass
class CellResult:
    """One model of an experiment, trained and scored by ``run_cell``."""
    kind: str
    seed: int
    auc: float | None
    per_scenario_auc: dict[int, float | None]
    user_divergence: float | None  # None for a model without field refinement
    parameters: int
    seconds: float


def run_cell(
    cfg: RunConfig, train_instances: InstanceTable, eval_instances: InstanceTable, kind: str = "maria"
) -> CellResult:
    """Build a model of ``kind`` seeded by ``cfg.train.seed``, train it without
    mid-training evals and score it at the training batch size."""
    started = time.perf_counter()
    graph = Graph(seed=cfg.train.seed)
    model = build_model(graph, cfg, kind=kind)
    train(graph, model, train_instances, cfg.train)
    report = evaluate(model, eval_instances, cfg.train.batch_size)
    return CellResult(
        kind=kind,
        seed=cfg.train.seed,
        auc=report.auc,
        per_scenario_auc={s: e.auc for s, e in report.per_scenario.items()},
        user_divergence=report.refiner_divergence().get("user"),
        parameters=model.parameter_summary()["total"],
        seconds=time.perf_counter() - started,
    )


@dataclass
class AblationReport:
    results: dict[str, CellResult]  # variant -> its cell

    def gains(self) -> dict[str, dict[str, float | None]]:
        """Per-variant AUC deltas against the full model, per scenario plus
        their sum; positive means the removed stage was hurting."""
        full = self.results["full"]
        out: dict[str, dict[str, float | None]] = {}
        for name, res in self.results.items():
            if name == "full":
                continue
            row: dict[str, float | None] = {}
            total = 0.0
            valid = True
            for sid, value in res.per_scenario_auc.items():
                ref = full.per_scenario_auc.get(sid)
                if value is None or ref is None:
                    row[str(sid)] = None
                    valid = False
                else:
                    delta = value - ref
                    row[str(sid)] = delta
                    total += delta
            row["total_gain"] = total if valid else None
            out[name] = row
        return out

    def to_dict(self) -> dict:
        return {
            "results": {
                name: {
                    "auc": r.auc,
                    "per_scenario_auc": {str(k): v for k, v in r.per_scenario_auc.items()},
                    "parameters": r.parameters,
                }
                for name, r in self.results.items()
            },
            "gains": self.gains(),
        }

    def to_table(self) -> str:
        scenarios = sorted(self.results["full"].per_scenario_auc)
        header = ["variant"] + [f"auc[s{c}]" for c in scenarios] + ["auc", "params", "total_gain"]
        rows = [header]
        gains = self.gains()
        for name, r in self.results.items():
            cells = [name]
            for sid in scenarios:
                cells.append(metrics.shown(r.per_scenario_auc.get(sid)))
            cells.append(metrics.shown(r.auc))
            cells.append(str(r.parameters))
            if name == "full":
                cells.append("-")
            else:
                cells.append(metrics.shown(gains[name]["total_gain"], "+.4f"))
            rows.append(cells)
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows)


def ablate(
    cfg: RunConfig,
    train_instances: InstanceTable,
    eval_instances: InstanceTable,
    variants=ABLATION_VARIANTS,
    log_fn=None,
) -> AblationReport:
    """Retrain the model once per variant under identical seeds and data."""
    results: dict[str, CellResult] = {}
    for variant in variants:
        if variant == "full":
            cfg_v = cfg
        else:
            name = variant[len("wo_"):]
            if name not in ABLATION_FLAGS:
                raise ValueError(f"unknown ablation variant {variant!r}")
            cfg_v = replace(cfg, flags=cfg.flags.disable([name]))
        results[variant] = run_cell(cfg_v, train_instances, eval_instances)
        if log_fn:
            log_fn(f"{variant}: auc {metrics.shown(results[variant].auc)}")
    return AblationReport(results=results)


# ---------------------------------------------------------------------------
# gradient check harness
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    per_group: dict[str, float]
    overall: float
    coords: int
    seconds: float

    def to_dict(self) -> dict:
        return asdict(self)


def gradient_check(
    graph: Graph,
    model,
    instances: InstanceTable,
    coords_per_tensor: int = 2,
    eps: float = 1e-5,
    rel_floor: float = 1e-3,
    corrupt_group: str | None = None,
) -> GradCheckReport:
    """Compare backward gradients against central finite differences.

    The training-mode forward consumes selection noise and gradient-frozen
    views; both are recorded on the analytic pass and replayed bit for bit
    during every probe, so the probes measure exactly the partial derivative
    the backward pass computed. ``corrupt_group`` deliberately skews that
    group's analytic gradients, proving the harness can fail. The graph must
    be float64: central differences at ``eps`` 1e-5 mean nothing in float32.
    """
    if graph.dtype != np.float64:
        raise ValueError(f"gradient_check: needs a float64 graph, got {graph.dtype}")
    started = time.perf_counter()
    batch = make_batch(instances, model.vocab, model.schema, model.trigger_mode)
    named = model.named_parameters()

    graph.record_context()
    mark = graph.mark()
    loss = bce_loss(model.forward(batch, mode="train").score, batch.labels)
    graph.zero_grads()
    ad.backward(loss)
    grads = {name: value.grad.copy() for name, value in named}
    graph.truncate(mark)

    if corrupt_group is not None:
        touched = 0
        for name in grads:
            if group_of_parameter(name) == corrupt_group:
                grads[name] = grads[name] * 1.1 + 0.05
                touched += 1
        if not touched:
            raise ValueError(f"corrupt_group {corrupt_group!r} matches no parameters")

    def loss_value() -> float:
        graph.replay_context()
        inner = graph.mark()
        value = float(bce_loss(model.forward(batch, mode="train").score, batch.labels).data)
        graph.truncate(inner)
        return value

    rng = np.random.default_rng(0)
    per_group: dict[str, list[float]] = {}
    coords = 0
    for name, value in named:
        flat = value.data.reshape(-1)
        picks = rng.choice(flat.size, size=min(coords_per_tensor, flat.size), replace=False)
        for c in picks:
            base = flat[c]
            flat[c] = base + eps
            up = loss_value()
            flat[c] = base - eps
            down = loss_value()
            flat[c] = base
            numeric = (up - down) / (2.0 * eps)
            analytic = grads[name].reshape(-1)[c]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), rel_floor)
            per_group.setdefault(group_of_parameter(name), []).append(err)
            coords += 1
    graph.live_context()
    return GradCheckReport(
        per_group={group: float(max(errs)) for group, errs in sorted(per_group.items())},
        overall=float(max(max(errs) for errs in per_group.values())),
        coords=coords,
        seconds=time.perf_counter() - started,
    )
