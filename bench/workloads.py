"""The three benchmark workloads and the checks on their outputs.

Every workload is a closed loop: one unit of work starts when the previous
one returns, in one process with no worker threads. The seed picks the
training log, the held-out log and the model initialisation; the program only
ever receives the generated data.

* ``train-maria``: the full model on the scenario-diversity recipe of
  ``maria.benchmark`` at batch 512. One unit is ``training.train`` from a
  fresh model, then ``checkpoint.save_model`` and an eval for AUC. A step is
  one optimizer step.
* ``train-mmoe-b64``: the ``mmoe`` baseline on the same recipe and data at
  batch 64, where per-node and per-step fixed costs dominate.
* ``score-maria``: set-up trains the ``train-maria`` model, saves it and
  writes the held-out log as JSON lines. One unit, and one step, is the
  ``maria eval`` flow in-process: load the checkpoint, read the log,
  evaluate, build the report.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from maria import checkpoint, datagen, training
from maria.autodiff import Graph
from maria.benchmark import benchmark_config
from maria.config import RunConfig
from maria.model import build_model, make_batch

# Sized so that final loss and AUC vary little from seed to seed: on 4096
# instances the batch-64 model overfits and its final loss spread 30% between
# seeds, on 12288 it spreads 10-20%.
TRAIN_COUNT = 12288
HELDOUT_COUNT = 2048
EPOCHS = 2
WARM_UP_COUNT = 2048
EVAL_BATCH = 512  # the `maria eval` default
HELDOUT_SEED_OFFSET = 1_000_003  # held-out log: disjoint generator stream, same ground truth
# The held-out AUC must recover at least this share of the Bayes AUC's lift
# over chance. Over 20 seeds maria recovered at least 0.55 of it (AUC 0.76
# against a Bayes AUC of 0.97), over 30 seeds mmoe at least 0.77; a broken
# forward pass or optimizer recovers close to none.
AUC_FLOOR_SHARE = 0.25


class Checks:
    """Correctness checks of one run; each failure counts against the run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class StepClock:
    """Step latency from outside the trainer: one timestamp each time it
    pulls a block from ``batch_iter``, so a gap spans one whole step."""

    def __init__(self):
        self.gaps_ms: list[float] = []

    @contextmanager
    def attached(self):
        original = training.batch_iter

        def stamped(*args, **kwargs):
            last = time.perf_counter()
            for block in original(*args, **kwargs):
                yield block
                now = time.perf_counter()
                self.gaps_ms.append((now - last) * 1e3)
                last = now

        training.batch_iter = stamped
        try:
            yield self
        finally:
            training.batch_iter = original


@dataclass
class Data:
    cfg: RunConfig
    train: list
    heldout: datagen.Dataset
    gen_seconds: float

    @property
    def gen_count(self) -> int:
        return len(self.train) + self.heldout.manifest.count

    @property
    def auc_floor(self) -> float:
        bayes = self.heldout.manifest.bayes_auc["overall"]
        return 0.5 + AUC_FLOOR_SHARE * (bayes - 0.5)


def generate_data(seed: int, batch_size: int) -> Data:
    started = time.perf_counter()
    train_ds, _ = datagen.generate(benchmark_config(TRAIN_COUNT, seed))
    heldout, _ = datagen.generate(benchmark_config(HELDOUT_COUNT, seed + HELDOUT_SEED_OFFSET))
    gen_seconds = time.perf_counter() - started
    cfg = benchmark_config(TRAIN_COUNT, seed)
    cfg = replace(cfg, train=replace(cfg.train, batch_size=batch_size, epochs=EPOCHS, seed=seed))
    return Data(cfg=cfg, train=train_ds.instances, heldout=heldout, gen_seconds=gen_seconds)


@dataclass
class TrainRun:
    report: training.TrainReport
    seconds: float
    loss_digest: str
    param_digest: str  # sha256 of the saved checkpoint file

    @property
    def inst_per_s(self) -> float:
        return TRAIN_COUNT * EPOCHS / self.seconds


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def train_and_save(data: Data, kind: str, path: Path, clock: StepClock | None = None):
    """Train a fresh model of ``kind`` and save it; returns (model, TrainRun)."""
    graph = Graph(seed=data.cfg.train.seed)
    model = build_model(graph, data.cfg, kind=kind)
    started = time.perf_counter()
    with clock.attached() if clock else nullcontext():
        report = training.train(graph, model, data.train, data.cfg.train)
    seconds = time.perf_counter() - started
    checkpoint.save_model(path, model)
    run = TrainRun(
        report=report,
        seconds=seconds,
        loss_digest=_digest(np.asarray(report.step_losses, dtype="<f8").tobytes()),
        param_digest=_digest(path.read_bytes()),
    )
    return model, run


def check_eval(checks: Checks, report: training.EvalReport, data: Data, kind: str, label: str) -> None:
    checks.expect(report.count == HELDOUT_COUNT, f"{label}: evaluated {report.count} of {HELDOUT_COUNT} instances")
    if kind == "maria":
        checks.expect(bool(report.refiner_hist), f"{label}: no refiner histograms")
    for fname, hist in report.refiner_hist.items():
        checks.expect(int(hist.sum()) == report.count,
                      f"{label}: refiner histogram {fname} totals {int(hist.sum())}, eval count {report.count}")
    floor = data.auc_floor
    checks.expect(report.auc is not None and report.auc >= floor,
                  f"{label}: eval auc {report.auc} below floor {floor:.4f}")


def check_same(checks: Checks, run: TrainRun, first: TrainRun, label: str) -> None:
    checks.expect(run.loss_digest == first.loss_digest, f"{label}: step-loss digest differs from the first run")
    checks.expect(run.param_digest == first.param_digest, f"{label}: checkpoint differs from the first run")


def raw_scores(model, instances) -> np.ndarray:
    """Eval-mode click probabilities, batch by batch as ``evaluate`` scores them."""
    graph = model.graph
    parts = []
    for block in datagen.batch_iter(instances, EVAL_BATCH):
        mark = graph.mark()
        batch = make_batch(block, model.vocab, model.schema, model.trigger_mode)
        parts.append(model.forward(batch, mode="eval").score.data.copy())
        graph.truncate(mark)
    return np.concatenate(parts)


class Workload:
    """What every workload keeps: its seed, checks, data and set-up counts."""

    primary = "train"  # the step kind the per-layer medians are taken over

    def __init__(self, kind: str, batch_size: int, seed: int, checks: Checks):
        self.kind, self.batch_size, self.seed = kind, batch_size, seed
        self.checks = checks
        self.data: Data | None = None
        self.gen_count = 0  # instances generated over all set-ups
        self.gen_seconds = 0.0

    def _generate(self) -> None:
        self.data = generate_data(self.seed, self.batch_size)
        self.gen_count += self.data.gen_count
        self.gen_seconds += self.data.gen_seconds

    def gen_rate(self) -> float:
        return self.gen_count / self.gen_seconds


class TrainWorkload(Workload):
    """``train-maria`` and ``train-mmoe-b64``: one unit is a full training run."""

    def __init__(self, kind: str, batch_size: int, seed: int, workdir: Path, checks: Checks):
        super().__init__(kind, batch_size, seed, checks)
        self.path = workdir / f"{kind}.ckpt"
        self.clock = StepClock()
        self.runs: list[TrainRun] = []
        self.evals: list[training.EvalReport] = []

    def setup(self) -> None:
        """Generate both logs, then warm up: one epoch on a throwaway model and
        one eval batch, since a process's first steps run ten times slower."""
        self._generate()
        graph = Graph(seed=self.seed)
        model = build_model(graph, self.data.cfg, kind=self.kind)
        training.train(graph, model, self.data.train[:WARM_UP_COUNT], replace(self.data.cfg.train, epochs=1))
        training.evaluate(model, self.data.heldout.instances[:EVAL_BATCH], EVAL_BATCH)

    def unit(self) -> float:
        """One training run; returns instances per second of training."""
        label = f"{self.kind} run {len(self.runs)}"
        model, run = train_and_save(self.data, self.kind, self.path, self.clock)
        report = training.evaluate(model, self.data.heldout.instances, EVAL_BATCH)
        check_eval(self.checks, report, self.data, self.kind, label)
        if self.runs:
            check_same(self.checks, run, self.runs[0], label)
            self.checks.expect(report.to_dict() == self.evals[0].to_dict(),
                               f"{label}: eval report differs from the first run")
        self.runs.append(run)
        self.evals.append(report)
        return run.inst_per_s

    def step_ms(self) -> list[float]:
        return self.clock.gaps_ms

    def metrics(self) -> dict[str, float]:
        return {
            "inst_per_s": TRAIN_COUNT * EPOCHS * len(self.runs) / sum(r.seconds for r in self.runs),
            "eval_auc": self.evals[0].auc,
            "final_train_loss": self.runs[0].report.final_loss,
        }

    def digests(self) -> dict[str, str]:
        return {"step_losses": self.runs[0].loss_digest, "checkpoint": self.runs[0].param_digest}


class ScoreWorkload(Workload):
    """``score-maria``: one unit is load checkpoint, read log, evaluate, report."""

    primary = "eval"

    def __init__(self, seed: int, workdir: Path, checks: Checks):
        super().__init__("maria", 512, seed, checks)
        self.ckpt = workdir / "maria.ckpt"
        self.log = workdir / "heldout.jsonl"
        self.train_runs: list[TrainRun] = []
        self.pass_seconds: list[float] = []
        self.first_report: training.EvalReport | None = None

    def setup(self) -> None:
        """Generate both logs, train and save the checkpoint, write the
        held-out log, and make one untimed scoring pass."""
        self._generate()
        model, run = train_and_save(self.data, self.kind, self.ckpt)
        datagen.write_jsonl(self.data.heldout, self.log)
        if self.train_runs:
            check_same(self.checks, run, self.train_runs[0], f"set-up {len(self.train_runs)}")
        else:
            reloaded, _, _ = checkpoint.load_model(self.ckpt)
            instances = self.data.heldout.instances
            self.checks.expect(np.array_equal(raw_scores(model, instances), raw_scores(reloaded, instances)),
                               "reloaded checkpoint scores differ from the in-memory model")
        self.train_runs.append(run)
        self.score_pass()

    def score_pass(self) -> float:
        """The `maria eval` flow; returns the pass's seconds."""
        started = time.perf_counter()
        model, _, _ = checkpoint.load_model(self.ckpt)
        dataset = datagen.read_jsonl(self.log)
        report = training.evaluate(model, dataset.instances, batch_size=EVAL_BATCH, workers=1)
        doc = report.to_dict()
        seconds = time.perf_counter() - started
        if self.first_report is None:
            check_eval(self.checks, report, self.data, self.kind, "first pass")
            self.first_report = report
        else:
            self.checks.expect(doc == self.first_report.to_dict(), "eval report differs from the first pass")
        return seconds

    def unit(self) -> float:
        """One timed pass; returns instances per second of the pass."""
        self.pass_seconds.append(self.score_pass())
        return HELDOUT_COUNT / self.pass_seconds[-1]

    def step_ms(self) -> list[float]:
        return [s * 1e3 for s in self.pass_seconds]

    def metrics(self) -> dict[str, float]:
        return {
            "inst_per_s": HELDOUT_COUNT * len(self.pass_seconds) / sum(self.pass_seconds),
            "eval_auc": self.first_report.auc,
            "final_train_loss": self.train_runs[0].report.final_loss,
        }

    def digests(self) -> dict[str, str]:
        return {"step_losses": self.train_runs[0].loss_digest, "checkpoint": self.train_runs[0].param_digest}


WORKLOADS = ("train-maria", "train-mmoe-b64", "score-maria")


def make_workload(name: str, seed: int, workdir: Path, checks: Checks):
    if name == "train-maria":
        return TrainWorkload("maria", 512, seed, workdir, checks)
    if name == "train-mmoe-b64":
        return TrainWorkload("mmoe", 64, seed, workdir, checks)
    if name == "score-maria":
        return ScoreWorkload(seed, workdir, checks)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
