"""Command-line entry point: gen-data, train, eval, ablate, gradcheck.

Exit codes: 0 success, 1 check failure, 2 usage or config error, 3 I/O error.
Subcommand --help lists every config key with its default.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import checkpoint, config, datagen, training
from .autodiff import Graph
from .checkpoint import CheckpointError
from .config import ConfigError, RunConfig
from .datagen import DataError, Dataset
from .fileio import atomic_writer
from .metrics import shown
from .model import BASELINE_KINDS, build_model

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _load_config(args, extra: dict[str, str] | None = None) -> RunConfig:
    mapping = config.parse_config_file(args.config) if args.config else {}
    overrides = _parse_overrides(args.set)
    overrides.update(extra or {})  # dedicated flags win over --set
    return config.build_run_config(mapping, overrides)


def _read_dataset(path: str, want_digest: str, label: str) -> Dataset:
    dataset = datagen.read_jsonl(path)
    have = dataset.manifest.compat_digest
    if have != want_digest:
        raise ConfigError(
            f"{path}: dataset is incompatible with the {label} "
            f"(vocabulary, schema, or trigger mode differ; "
            f"data digest {have[:12]}…, expected {want_digest[:12]}…)"
        )
    return dataset


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    extra = {}
    if args.count is not None:
        extra["gen.count"] = str(args.count)
    if args.seed is not None:
        extra["gen.seed"] = str(args.seed)
    cfg = _load_config(args, extra)
    dataset, _ = datagen.generate(cfg)
    datagen.write_jsonl(dataset, args.out)
    m = dataset.manifest
    if args.json:
        _emit({"out": str(args.out), "manifest": datagen.manifest_to_json(m)})
        return EXIT_OK
    print(f"wrote {m.count} instances to {args.out} (+ {datagen.manifest_path(args.out).name})")
    for sid in sorted(m.scenario_counts):
        print(
            f"scenario {sid}: {m.scenario_counts[sid]} instances, "
            f"positive rate {m.positive_rates[str(sid)]:.4f}, bayes auc {shown(m.bayes_auc.get(str(sid)))}"
        )
    print(f"overall bayes auc {shown(m.bayes_auc.get('overall'))}")
    return EXIT_OK


def _format_eval(report: training.EvalReport) -> str:
    lines = [
        f"instances {report.count}  loss {shown(report.loss)}  "
        f"auc {shown(report.auc)}  pcoc {shown(report.pcoc)}"
    ]
    for sid, e in sorted(report.per_scenario.items()):
        lines.append(
            f"scenario {sid}: count {e.count}  positive rate {e.positive_rate:.4f}  "
            f"auc {shown(e.auc)}  pcoc {shown(e.pcoc)}"
        )
    divergence = report.refiner_divergence()
    if divergence:
        pairs = ", ".join(f"{f} {v:.3f}" for f, v in divergence.items())
        lines.append(f"refiner selection divergence across scenarios: {pairs}")
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines)


def cmd_train(args) -> int:
    extra = {}
    if args.disable:
        extra["train.disable"] = args.disable
    cfg = _load_config(args, extra)
    if cfg.train.early_stop_patience > 0 and not args.eval_data:
        raise ConfigError(
            f"train.early_stop_patience: {cfg.train.early_stop_patience} needs --eval-data to evaluate on"
        )
    kind = args.baseline or "maria"
    want = config.data_compat_digest(cfg)
    dataset = _read_dataset(args.data, want, "run configuration")
    eval_instances = None
    if args.eval_data:
        eval_instances = _read_dataset(args.eval_data, want, "run configuration").instances

    graph = Graph(seed=cfg.train.seed)
    model = build_model(graph, cfg, kind=kind)
    log_fn = None if args.json else print
    report = training.train(
        graph, model, dataset.instances, cfg.train, eval_instances=eval_instances, log_fn=log_fn
    )
    final = training.evaluate(
        model, eval_instances if eval_instances is not None else dataset.instances, batch_size=cfg.train.batch_size
    )

    meta = {"kind": kind, "train": dict(vars(cfg.train)), "data_digest": want}
    checkpoint.save_model(args.model_out, model, meta=meta)
    doc = {
        "kind": kind,
        "parameters": model.parameter_summary()["total"],
        "steps": report.steps,
        "step_losses": report.step_losses,
        "epoch_losses": report.epoch_losses,
        "final_loss": report.final_loss,
        "clamp_events": report.clamp_events,
        "stopped_early": report.stopped_early,
        "eval_split": "eval" if eval_instances is not None else "train",
        "eval": final.to_dict(),
    }
    metrics_file = Path(str(args.model_out) + ".metrics.json")
    with atomic_writer(metrics_file) as fh:
        fh.write((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    if args.json:
        _emit(doc)
    else:
        print(f"saved {kind} checkpoint to {args.model_out} (metrics in {metrics_file.name})")
        print(_format_eval(final))
    return EXIT_OK


def cmd_eval(args) -> int:
    model, _, _ = checkpoint.load_model(args.model)
    spec = model.spec()
    want = config.compat_digest_parts(spec["vocab"], spec["schema"], spec["trigger_mode"])
    dataset = _read_dataset(args.data, want, "checkpointed model")
    report = training.evaluate(model, dataset.instances, batch_size=args.batch_size)
    if args.json:
        _emit(report.to_dict())
    else:
        print(_format_eval(report))
    return EXIT_OK


def cmd_ablate(args) -> int:
    variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    for v in variants:
        if v not in training.ABLATION_VARIANTS:
            raise ConfigError(
                f"--variants: unknown variant {v!r}; expected some of {','.join(training.ABLATION_VARIANTS)}"
            )
    if "full" not in variants:
        raise ConfigError("--variants: the list must include full, which every gain is measured against")
    cfg = _load_config(args)
    want = config.data_compat_digest(cfg)
    train_ds = _read_dataset(args.data, want, "run configuration")
    eval_ds = _read_dataset(args.eval_data, want, "run configuration")
    report = training.ablate(
        cfg,
        train_ds.instances,
        eval_ds.instances,
        variants=variants,
        log_fn=None if args.json else print,
    )
    if args.json:
        _emit(report.to_dict())
    else:
        print(report.to_table())
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    for flag, value in (("--count", args.count), ("--coords", args.coords)):
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    extra = {"gen.count": str(args.count)}
    if args.seed is not None:
        extra["gen.seed"] = str(args.seed)
        extra["train.seed"] = str(args.seed)
    cfg = _load_config(args, extra)
    dataset, _ = datagen.generate(cfg)
    graph = Graph(seed=cfg.train.seed, dtype=np.float64)  # central differences need float64
    model = build_model(graph, cfg, kind=args.baseline or "maria")
    report = training.gradient_check(
        graph,
        model,
        dataset.instances,
        coords_per_tensor=args.coords,
        corrupt_group=args.corrupt_group,
    )
    failing = sorted(g for g, err in report.per_group.items() if err > args.tolerance)
    if args.json:
        _emit({**report.to_dict(), "tolerance": args.tolerance, "failing": failing})
    else:
        width = max(len(g) for g in report.per_group)
        for group, err in report.per_group.items():
            verdict = "ok" if err <= args.tolerance else "FAIL"
            print(f"{group:<{width}}  max rel err {err:.3e}  {verdict}")
        print(
            f"{report.coords} coordinates in {report.seconds:.2f}s; overall {report.overall:.3e} "
            f"vs tolerance {args.tolerance:.0e}"
        )
    if failing:
        print(f"gradient check FAILED for: {', '.join(failing)}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="config file of key = value lines")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable, wins over --config)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maria",
        description="Multi-scenario ranking models over synthetic click logs.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def subcommand(name, help_, func, config_keys=True):
        p = sub.add_parser(
            name,
            help=help_,
            epilog=config.config_help_text() if config_keys else None,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.set_defaults(run=func)
        return p

    gen = subcommand("gen-data", "generate a synthetic dataset with a manifest", cmd_gen_data)
    _add_config_flags(gen)
    gen.add_argument("--out", required=True, metavar="FILE", help="output data file (JSON lines)")
    gen.add_argument("--count", type=int, metavar="N", help="instances to generate (wins over gen.count)")
    gen.add_argument("--seed", type=int, metavar="S", help="generator seed (wins over gen.seed)")
    gen.add_argument("--json", action="store_true", help="print the manifest as JSON")

    tr = subcommand("train", "train a model and write a checkpoint plus metrics JSON", cmd_train)
    _add_config_flags(tr)
    tr.add_argument("--data", required=True, metavar="FILE", help="training data file")
    tr.add_argument("--eval-data", metavar="FILE", help="held-out data for epoch and final evaluation")
    tr.add_argument("--model-out", required=True, metavar="FILE", help="checkpoint path to write")
    tr.add_argument(
        "--baseline",
        choices=BASELINE_KINDS,
        help="train this comparator instead of the full model",
    )
    tr.add_argument(
        "--disable",
        metavar="LIST",
        help="comma-separated stages to switch off: fs,fr,fcm,nl,st,gs",
    )
    tr.add_argument("--json", action="store_true", help="print the metrics document as JSON")

    ev = subcommand("eval", "evaluate a checkpoint on a dataset", cmd_eval, config_keys=False)
    ev.add_argument("--model", required=True, metavar="FILE", help="checkpoint to evaluate")
    ev.add_argument("--data", required=True, metavar="FILE", help="evaluation data file")
    ev.add_argument("--batch-size", type=int, default=512, help="evaluation batch size")
    ev.add_argument("--json", action="store_true", help="print the report as JSON")

    ab = subcommand("ablate", "retrain stage-ablated variants and compare AUC", cmd_ablate)
    _add_config_flags(ab)
    ab.add_argument("--data", required=True, metavar="FILE", help="training data file")
    ab.add_argument("--eval-data", required=True, metavar="FILE", help="held-out data file")
    ab.add_argument(
        "--variants",
        default=",".join(training.ABLATION_VARIANTS),
        metavar="LIST",
        help="comma-separated subset, with full in it, of: " + ",".join(training.ABLATION_VARIANTS),
    )
    ab.add_argument("--json", action="store_true", help="print results and gains as JSON")

    gc = subcommand("gradcheck", "compare backward gradients against finite differences", cmd_gradcheck)
    _add_config_flags(gc)
    gc.add_argument("--count", type=int, default=8, metavar="N", help="probe batch size")
    gc.add_argument("--seed", type=int, metavar="S", help="seed for both init and the probe batch")
    gc.add_argument("--coords", type=int, default=2, help="coordinates probed per parameter tensor")
    gc.add_argument("--tolerance", type=float, default=1e-4, help="max relative error allowed")
    gc.add_argument(
        "--baseline",
        choices=BASELINE_KINDS,
        help="check this comparator instead of the full model",
    )
    gc.add_argument(
        "--corrupt-group",
        metavar="GROUP",
        help="skew this group's analytic gradients to demonstrate a failure",
    )
    gc.add_argument("--json", action="store_true", help="print the report as JSON")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "run", None) is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except training.TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
