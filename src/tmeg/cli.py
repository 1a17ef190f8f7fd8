"""Command-line harness.

Subcommands: gen-data, make-tasks, train, eval, grad-check, transfer,
sweep-lambda. Metrics are emitted as a single JSON object (stdout or
--metrics-out); logs go to standard error. Exit code 0 on success,
nonzero with a categorized error otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import data as D
from . import graph as G
from .harness import (
    ABLATIONS, MetricsReport, RunConfig, TrainError, _batch_loss, config_kwargs,
    evaluate, load_model, make_instances, prepare_instances, resolve_corpora,
    save_model, sweep_lambda_b, train, transfer,
)
from .model import TmegModel, init_params
from .optim import CheckpointError, finite_difference_check


def _log(msg: str):
    print(msg, file=sys.stderr)


def _emit_metrics(args, report_or_payload):
    if isinstance(report_or_payload, MetricsReport):
        text = report_or_payload.to_json(deterministic=True)
    else:
        text = json.dumps(report_or_payload, sort_keys=True, separators=(",", ":"))
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _load_run_config(path: str, seed_override) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = RunConfig.from_dict(json.load(fh))
    if seed_override is not None:
        cfg.seed = seed_override
    return cfg


def _maybe_dump_graphs(args, corpus, instances, cfg: RunConfig):
    if not args.dump_graphs:
        return
    prepared = prepare_instances(corpus, instances[:4], cfg.lambda_t,
                                 cfg.lambda_m, cfg.ablation)
    dumps = [G.dump_graph(g) for p in prepared for g in p.graphs]
    path = (args.metrics_out or "metrics.json") + ".graphs.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dumps, fh)
    _log(f"wrote {len(dumps)} graph dumps to {path}")


def cmd_gen_data(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = D.SyntheticConfig(**config_kwargs(
            D.SyntheticConfig, json.load(fh), "synthetic config"))
    if args.seed is not None:
        cfg.seed = args.seed
    corpus = D.generate_synthetic_corpus(cfg, domain_tag=args.domain_tag)
    D.save_corpus(corpus, args.out)
    _log(f"wrote {len(corpus.documents)} documents to {args.out}")
    return 0


def cmd_make_tasks(args):
    corpus = D.load_corpus(args.corpus)
    seed = args.seed if args.seed is not None else 0
    instances = make_instances(corpus, [args.task], args.n_candidates, seed)
    D.save_task_instances(instances, args.out)
    _log(f"wrote {len(instances)} {args.task} instances to {args.out}")
    return 0


def cmd_train(args):
    cfg = _load_run_config(args.config, args.seed)
    result = train(cfg)
    ckpt = args.checkpoint_out or "model.ckpt"
    save_model(ckpt, result.model)
    _log(f"best epoch {result.best_epoch}; checkpoint at {ckpt} "
         f"({result.report.wall_clock_seconds:.1f}s)")
    _emit_metrics(args, result.report)
    return 0


def cmd_eval(args):
    model = load_model(args.checkpoint)
    corpus = D.load_corpus(args.corpus)
    instances = D.load_task_instances(args.tasks)
    cfg = RunConfig(model=model.config, seed=args.seed or 0,
                    ablation=args.ablation)
    _maybe_dump_graphs(args, corpus, instances, cfg)
    report = evaluate(model, instances, corpus, cfg)
    _emit_metrics(args, report)
    return 0


def cmd_grad_check(args):
    cfg = _load_run_config(args.config, args.seed)
    # tiny deterministic corpus for the check
    # five steps so one image falls outside the cloze window and can
    # serve as the distractor
    syn = D.SyntheticConfig(num_docs=2, steps_min=5, steps_max=5,
                            tokens_per_step_min=3, tokens_per_step_max=3,
                            entity_vocab_size=4, token_vocab_size=8,
                            objects_per_image_min=2, objects_per_image_max=2,
                            images_per_step=1, d_v=cfg.model.d_v,
                            n_candidates=2, seed=cfg.seed)
    corpus = D.generate_synthetic_corpus(syn)
    vocab = D.build_vocab(corpus)
    # A wider-than-default init keeps every layer norm away from its stiff
    # near-zero-variance regime, where central differences lose accuracy
    # to truncation error. Gradient formulas do not depend on the point.
    store = init_params(cfg.model, cfg.seed, init_scale=0.5)
    model = TmegModel(cfg.model, vocab, store=store)
    instances = make_instances(corpus, ["cloze"], 2, cfg.seed)[:2]
    prepared = prepare_instances(corpus, instances, cfg.lambda_t, cfg.lambda_m,
                                 cfg.ablation)

    def loss_fn():
        return _batch_loss(model, prepared, cfg, np.random.default_rng(cfg.seed))

    err = finite_difference_check(loss_fn, model.store, seed=cfg.seed,
                                  max_coords_per_param=4)
    _emit_metrics(args, {"max_relative_error": err, "threshold": 1e-4,
                         "passed": bool(err < 1e-4)})
    return 0 if err < 1e-4 else 1


def cmd_transfer(args):
    cfg = _load_run_config(args.config, args.seed)
    corpus_a = D.load_corpus(args.train)
    corpus_b = D.load_corpus(args.eval)
    report = transfer(corpus_a, corpus_b, cfg)
    _emit_metrics(args, report)
    return 0


def cmd_sweep_lambda(args):
    cfg = _load_run_config(args.config, args.seed)
    values = [float(v) for v in args.values.split(",")]
    train_corpus, valid_corpus = resolve_corpora(cfg)
    reports = sweep_lambda_b(cfg, values, train_corpus, valid_corpus)
    payload = [json.loads(r.to_json()) for r in reports]
    _emit_metrics(args, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmeg",
        description="Temporal-modal entity graph harness for procedural "
                    "multimodal comprehension tasks.")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured master seed")
    parser.add_argument("--dump-graphs", action="store_true",
                        help="dump a sample of assembled graphs as JSON")
    parser.add_argument("--metrics-out", default=None,
                        help="write the metrics JSON object to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--domain-tag", default="recipe-like")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("make-tasks", help="build task instances from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--task", required=True,
                   choices=D.TASK_KINDS)
    p.add_argument("--n-candidates", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_make_tasks)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint-out", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on task instances")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tasks", required=True, help="task-instance JSONL file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--ablation", default="none", choices=ABLATIONS)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("grad-check", help="finite-difference gradient check")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_grad_check)

    p = sub.add_parser("transfer", help="train on one corpus, test on another")
    p.add_argument("--train", required=True)
    p.add_argument("--eval", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_transfer)

    p = sub.add_parser("sweep-lambda", help="balance-parameter sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--values", default="0,0.05,0.1,0.15,0.2")
    p.set_defaults(fn=cmd_sweep_lambda)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except D.CorpusError as exc:
        _log(f"data error: {exc}")
        return 3
    except CheckpointError as exc:
        _log(f"checkpoint error: {exc}")
        return 4
    except TrainError as exc:
        _log(f"training error: {exc}")
        return 5
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
