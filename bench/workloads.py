"""The benchmark's workloads: inputs made from a seed, one operation, and
the check of its output.

Every call into tmeg goes through a module attribute (``H.train``,
``cli.main``, ``D.load_corpus``, ...), so the traced run's wrappers see it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from tmeg import cli
from tmeg import data as D
from tmeg import harness as H
from tmeg.graph import DEFAULT_LAMBDA_M, DEFAULT_LAMBDA_T
from tmeg.model import ModelConfig, TmegModel

N_DOCS = 80
N_TRAIN_DOCS = 64          # the rest validate
N_CANDIDATES = 4
EPOCHS = 1                 # patience is set to EPOCHS, so every epoch runs
EVAL_TASKS = ("cloze", "coherence", "ordering")
EVAL_BATCH = 64            # instances per evaluation chunk, as harness.evaluate uses
SAMPLE_GRAPHS = 24         # graphs re-scored one at a time on every eval run
SCORE_TOL = 1e-9

# The criterion-6 learnability shape: every graph of a task has one structure.
UNIFORM_SHAPE = dict(
    steps_min=7, steps_max=7, tokens_per_step_min=3, tokens_per_step_max=3,
    entity_vocab_size=24, token_vocab_size=30, objects_per_image_min=3,
    objects_per_image_max=3, images_per_step=1, d_v=8,
    feature_noise_sigma=0.1, roster_size=3, box_grid=True)
# SyntheticConfig defaults: hundreds of distinct graph structures.
RAGGED_SHAPE: dict = {}


def synthetic_config(shape: dict, seed: int) -> D.SyntheticConfig:
    return D.SyntheticConfig(num_docs=N_DOCS, n_candidates=N_CANDIDATES,
                             seed=seed, **shape)


def model_config() -> ModelConfig:
    """The criterion-6 model."""
    return ModelConfig(d_model=32, n_heads=4, n_layers=2, ffn_multiplier=2,
                       scorer_layers=2, scorer_heads=4, tau=0.07,
                       k_negatives=8, lambda_b=0.1, token_vocab_size=64,
                       d_v=8, max_steps=16, init_scale=0.1)


def run_config(seed: int) -> H.RunConfig:
    return H.RunConfig(model=model_config(), tasks=["cloze"], batch_size=16,
                       learning_rate=1e-3, max_epochs=EPOCHS, patience=EPOCHS,
                       n_candidates=N_CANDIDATES, seed=seed)


def param_digest(store) -> str:
    h = hashlib.sha256()
    for name in sorted(store.params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(store.params[name].value).tobytes())
    return h.hexdigest()


def _round_trip_corpus(shape: dict, seed: int, workdir: str):
    corpus = D.generate_synthetic_corpus(synthetic_config(shape, seed))
    path = os.path.join(workdir, "corpus.json")
    D.save_corpus(corpus, path)
    return D.load_corpus(path), path


# Spans every workload fires; the zero-call guard names any that stays silent.
_COMMON_SPANS = (
    "data.generate", "data.save_corpus", "data.load_corpus",
    "data.make_instances", "harness.prepare_instances",
    "harness.evaluate_prepared", "graph.assemble", "graph.build_nodes",
    "graph.intra_modal", "graph.temporal_text", "graph.temporal_visual",
    "graph.inter_modal", "graph.edge_based", "graph.validate",
    "model.prepare_batch", "model.encode_nodes", "model.project_modalities",
    "model.fusion_stack", "model.extract_cls", "model.assemble_pair",
    "model.score_candidate")


# ----------------------------------------------------------------------
# training


@dataclass
class TrainInputs:
    config: H.RunConfig
    train: D.Corpus
    valid: D.Corpus


class TrainWorkload:
    """One op is one ``harness.train`` call of EPOCHS epochs."""

    kind = "train"
    setups = 5
    expected_spans = _COMMON_SPANS + (
        "harness.train", "model.prediction_loss", "model.coherence_loss",
        "model.total_loss", "autodiff.backward", "optim.adam")

    def __init__(self, name: str, shape: dict):
        self.name = name
        self.shape = shape

    def configs(self, seed: int) -> dict:
        return {"synthetic": asdict(synthetic_config(self.shape, seed)),
                "run": run_config(seed).to_dict(),
                "split_docs": [N_TRAIN_DOCS, N_DOCS - N_TRAIN_DOCS],
                "epochs": EPOCHS}

    def setup(self, seed: int, workdir: str, warm_up: bool = True) -> TrainInputs:
        corpus, _ = _round_trip_corpus(self.shape, seed, workdir)
        docs = corpus.documents
        return TrainInputs(run_config(seed),
                           D.Corpus(corpus.d_v, docs[:N_TRAIN_DOCS]),
                           D.Corpus(corpus.d_v, docs[N_TRAIN_DOCS:]))

    def op(self, inputs: TrainInputs) -> tuple[float, dict]:
        t0 = time.perf_counter()
        result = H.train(inputs.config, inputs.train, inputs.valid)
        wall = time.perf_counter() - t0
        return wall, {"curves": result.report.curves,
                      "digest": param_digest(result.model.store)}

    def graphs_per_op(self, inputs: TrainInputs) -> int:
        cfg = inputs.config
        instances = H.make_instances(inputs.train, cfg.tasks, cfg.n_candidates,
                                     cfg.seed)
        return EPOCHS * sum(len(i.candidates) for i in instances)

    def reference(self, inputs: TrainInputs, first: dict) -> dict:
        """Training is deterministic, so every op must repeat the first."""
        return first

    def check(self, outcome: dict, reference: dict) -> str | None:
        loss = outcome["curves"][-1]["train_loss"]
        if not math.isfinite(loss):
            return f"non-finite training loss {loss}"
        if outcome["curves"] != reference["curves"]:
            return "training curves differ between runs at one seed"
        if outcome["digest"] != reference["digest"]:
            return "trained parameters differ between runs at one seed"
        return None

    def loss(self, outcome: dict, reference: dict) -> float:
        """Mean training loss of the last epoch."""
        return float(outcome["curves"][-1]["train_loss"])


# ----------------------------------------------------------------------
# evaluation


@dataclass
class EvalInputs:
    argv: list
    metrics_path: str
    checkpoint: str
    corpus_path: str
    tasks_path: str
    n_graphs: int


class EvalWorkload:
    """One op is one in-process ``tmeg eval`` request on an untrained,
    seeded checkpoint."""

    kind = "eval"
    setups = 3
    expected_spans = _COMMON_SPANS + (
        "data.save_tasks", "data.load_tasks", "harness.save_model",
        "optim.checkpoint_save", "cli.main", "cli.cmd_eval",
        "harness.load_model", "optim.checkpoint_load", "harness.evaluate")

    def __init__(self, name: str, shape: dict):
        self.name = name
        self.shape = shape

    def configs(self, seed: int) -> dict:
        return {"synthetic": asdict(synthetic_config(self.shape, seed)),
                "model": model_config().to_dict(), "model_seed": seed,
                "tasks": list(EVAL_TASKS), "n_candidates": N_CANDIDATES,
                "task_seed": seed}

    def setup(self, seed: int, workdir: str, warm_up: bool = True) -> EvalInputs:
        corpus, corpus_path = _round_trip_corpus(self.shape, seed, workdir)
        instances = H.make_instances(corpus, list(EVAL_TASKS), N_CANDIDATES, seed)
        tasks_path = os.path.join(workdir, "tasks.jsonl")
        D.save_task_instances(instances, tasks_path)
        checkpoint = os.path.join(workdir, "model.ckpt")
        H.save_model(checkpoint, TmegModel(model_config(), D.build_vocab(corpus),
                                           seed=seed))
        metrics_path = os.path.join(workdir, "metrics.json")
        inputs = EvalInputs(
            argv=["--metrics-out", metrics_path, "eval", "--checkpoint",
                  checkpoint, "--tasks", tasks_path, "--corpus", corpus_path],
            metrics_path=metrics_path, checkpoint=checkpoint,
            corpus_path=corpus_path, tasks_path=tasks_path,
            n_graphs=sum(len(i.candidates) for i in instances))
        if warm_up:
            self.op(inputs)
        return inputs

    def op(self, inputs: EvalInputs) -> tuple[float, dict]:
        if os.path.exists(inputs.metrics_path):
            os.remove(inputs.metrics_path)
        t0 = time.perf_counter()
        code = cli.main(list(inputs.argv))
        wall = time.perf_counter() - t0
        text = None
        if code == 0:
            with open(inputs.metrics_path, encoding="utf-8") as fh:
                text = fh.read()
        return wall, {"exit_code": code, "metrics": text}

    def graphs_per_op(self, inputs: EvalInputs) -> int:
        return inputs.n_graphs

    def reference(self, inputs: EvalInputs, first: dict) -> dict:
        """Accuracy recomputed from TmegModel.score_graphs.

        Graphs are scored in structure groups within chunks of EVAL_BATCH
        instances; a fixed sample is re-scored one graph at a time and must
        agree within SCORE_TOL."""
        model = H.load_model(inputs.checkpoint)
        corpus = D.load_corpus(inputs.corpus_path)
        instances = D.load_task_instances(inputs.tasks_path)
        prepared = H.prepare_instances(corpus, instances, DEFAULT_LAMBDA_T,
                                       DEFAULT_LAMBDA_M)
        scores = np.zeros((len(prepared), N_CANDIDATES))
        for start in range(0, len(prepared), EVAL_BATCH):
            groups: dict[tuple, list] = {}
            for ip in range(start, min(start + EVAL_BATCH, len(prepared))):
                for cp, g in enumerate(prepared[ip].graphs):
                    sig = tuple((n.modality, n.kind, n.step_index) for n in g.nodes)
                    groups.setdefault(sig, []).append((ip, cp, g))
            for members in groups.values():
                s = model.score_graphs([g for _, _, g in members]).data
                for (ip, cp, _), v in zip(members, s):
                    scores[ip, cp] = v
        flat = [(ip, cp) for ip in range(len(prepared)) for cp in range(N_CANDIDATES)]
        sample = np.linspace(0, len(flat) - 1, SAMPLE_GRAPHS).astype(int)
        worst = 0.0
        for k in sample:
            ip, cp = flat[k]
            single = model.score_graphs([prepared[ip].graphs[cp]]).data[0]
            worst = max(worst, abs(single - scores[ip, cp]))

        by_task: dict[str, list[int]] = {}
        for p, row in zip(prepared, scores):
            by_task.setdefault(p.instance.task_kind, []).append(
                int(int(np.argmax(row)) == p.instance.gold_index))
        acc = {task: float(np.mean(v)) for task, v in sorted(by_task.items())}
        gold = np.array([p.instance.gold_index for p in prepared])
        top = scores.max(axis=1)
        lse = top + np.log(np.exp(scores - top[:, None]).sum(axis=1))
        return {"per_task_accuracy": acc,
                "average_accuracy": float(np.mean(list(acc.values()))),
                "worst_sample_diff": worst,
                "loss": float(np.mean(lse - scores[np.arange(len(gold)), gold]))}

    def check(self, outcome: dict, reference: dict) -> str | None:
        if outcome["exit_code"] != 0:
            return f"tmeg eval exited with {outcome['exit_code']}"
        if reference["worst_sample_diff"] > SCORE_TOL:
            return (f"one-at-a-time scores differ from batched scores by "
                    f"{reference['worst_sample_diff']:.3g}")
        got = json.loads(outcome["metrics"])
        for key in ("per_task_accuracy", "average_accuracy"):
            if got[key] != reference[key]:
                return f"{key} {got[key]} != recomputed {reference[key]}"
        return None

    def loss(self, outcome: dict, reference: dict) -> float:
        """Mean candidate cross-entropy of the scores behind the accuracy."""
        return reference["loss"]


WORKLOADS = {
    w.name: w for w in (
        TrainWorkload("train-uniform", UNIFORM_SHAPE),
        TrainWorkload("train-ragged", RAGGED_SHAPE),
        EvalWorkload("eval-uniform", UNIFORM_SHAPE),
    )
}
