"""Minimal end-to-end tour: generate data, train, checkpoint, reload, evaluate.

Everything runs in-process on a small config; takes a few seconds.
"""

import argparse
import tempfile
from pathlib import Path

from maria import checkpoint, config, datagen, training
from maria.autodiff import Graph
from maria.metrics import shown
from maria.model import build_model

SMALL = {
    "vocab.users": "60", "vocab.items": "80", "vocab.scenarios": "2",
    "model.experts": "2", "model.expert_hidden": "32",
    "model.tower_dims": "16,8", "model.scale_hidden": "16",
    "train.learning_rate": "0.02", "train.batch_size": "128", "train.epochs": "6",
    # strong disjoint ground truth so a few epochs show real ranking lift
    "scenario.0.label_weights": ",".join(["5", "-5"] * 5 + ["5"]),
    "scenario.1.label_weights": ",".join(["-5", "5"] * 5 + ["-5"]),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=3000, help="training instances")
    parser.add_argument("--workdir", help="keep artifacts here instead of a temp dir")
    args = parser.parse_args()

    cfg = config.build_run_config(SMALL, {"gen.count": str(args.count), "gen.seed": "1"})
    train_ds, _ = datagen.generate(cfg)
    eval_cfg = config.build_run_config(SMALL, {"gen.count": str(args.count // 5), "gen.seed": "2"})
    eval_ds, _ = datagen.generate(eval_cfg)
    print(f"generated {len(train_ds.instances)} train / {len(eval_ds.instances)} eval instances")
    print(f"eval bayes auc {shown(eval_ds.manifest.bayes_auc.get('overall'))}")

    graph = Graph(seed=cfg.train.seed)
    model = build_model(graph, cfg)
    print(f"model has {model.parameter_summary()['total']} parameters")
    training.train(graph, model, train_ds.instances, cfg.train, log_fn=print)

    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="maria-"))
    workdir.mkdir(parents=True, exist_ok=True)
    ckpt = workdir / "quickstart.ckpt"
    checkpoint.save_model(ckpt, model, meta={"demo": True})
    reloaded, _, _ = checkpoint.load_model(ckpt)
    print(f"checkpoint round trip via {ckpt}")

    report = training.evaluate(reloaded, eval_ds.instances, cfg.train.batch_size)
    print(f"eval: loss {shown(report.loss)}, auc {shown(report.auc)}")
    for sid, e in sorted(report.per_scenario.items()):
        print(f"  scenario {sid}: auc {shown(e.auc)}, pcoc {shown(e.pcoc, '.3f')}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
