"""Training, evaluation, ablations, transfer, and the balance-parameter sweep.

Each minibatch of instances runs as one padded batch of (document,
candidate) graphs, whatever their shapes; evaluation builds no autodiff
tape. All randomness flows from named streams derived from the master
seed, so a (seed, config, corpus) triple reproduces byte-identical metrics
and checkpoints.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field, asdict

import numpy as np

from . import data as D
from . import graph as G
from .autodiff import Tensor, concat, no_grad
from .model import (
    ModelConfig, TmegModel, coherence_loss, prediction_loss_batch,
    param_spec, prepare_batch, total_loss,
)
from .optim import (
    CheckpointError, ParamStore, adam_step, grad_eval, load_checkpoint,
    save_checkpoint,
)

ABLATIONS = ("none", "no_temporal", "no_modal", "no_both", "no_coherence")


class TrainError(Exception):
    pass


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train_corpus: str | None = None
    valid_corpus: str | None = None
    test_corpus: str | None = None
    tasks: list[str] = field(default_factory=lambda: ["cloze"])
    batch_size: int = 16
    learning_rate: float = 5e-5
    max_epochs: int = 10
    patience: int = 5
    ablation: str = "none"
    lambda_b: float | None = None  # None -> model.lambda_b
    n_candidates: int = 4
    lambda_t: float = G.DEFAULT_LAMBDA_T
    lambda_m: float = G.DEFAULT_LAMBDA_M
    seed: int = 0

    def __post_init__(self):
        if self.patience < 1:
            raise TrainError("patience must be >= 1")
        if self.batch_size < 1:
            raise TrainError("batch_size must be >= 1")
        if self.ablation not in ABLATIONS:
            raise TrainError(f"unknown ablation: {self.ablation}")

    def effective_lambda_b(self) -> float:
        lb = self.model.lambda_b if self.lambda_b is None else self.lambda_b
        if self.ablation == "no_coherence":
            return 0.0
        return lb

    def to_dict(self) -> dict:
        d = asdict(self)
        return d

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        d = dict(d)
        if "model" in d and isinstance(d["model"], dict):
            d["model"] = ModelConfig(**d["model"])
        return RunConfig(**d)


@dataclass
class AblationEffect:
    zero_t: bool
    zero_m: bool
    lambda_b: float


def apply_ablation(config: RunConfig) -> AblationEffect:
    ab = config.ablation
    return AblationEffect(
        zero_t=ab in ("no_temporal", "no_both"),
        zero_m=ab in ("no_modal", "no_both"),
        lambda_b=config.effective_lambda_b(),
    )


@dataclass
class MetricsReport:
    per_task_accuracy: dict
    average_accuracy: float
    curves: list
    config: dict
    seed: int
    wall_clock_seconds: float = 0.0
    domain_pair: list | None = None

    def to_json(self, deterministic: bool = True) -> str:
        payload = {
            "per_task_accuracy": self.per_task_accuracy,
            "average_accuracy": self.average_accuracy,
            "curves": self.curves,
            "config": self.config,
            "seed": self.seed,
        }
        if self.domain_pair is not None:
            payload["domain_pair"] = self.domain_pair
        if not deterministic:
            payload["wall_clock_seconds"] = self.wall_clock_seconds
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# instance and graph preparation


def make_instances(corpus: D.Corpus, kinds: list[str], n_candidates: int,
                   seed: int) -> list[D.TaskInstance]:
    """Per-document instance construction with per-document seeded streams."""
    instances = []
    for kind in kinds:
        for doc in corpus.documents:
            rng = np.random.default_rng(
                [seed, zlib.crc32(kind.encode()), zlib.crc32(doc.doc_id.encode())])
            instances.extend(D.build_task_instances(doc, kind, n_candidates, rng))
    return instances


@dataclass
class PreparedInstance:
    instance: D.TaskInstance
    graphs: list[G.TmegGraph]     # one per candidate
    aligned_rows: np.ndarray      # text CLS row indices aligned with candidates


def prepare_instances(corpus: D.Corpus, instances: list[D.TaskInstance],
                      lambda_t: float, lambda_m: float) -> list[PreparedInstance]:
    """Resolve every instance, then label each (document, context) group
    once: all cloze, coherence and ordering instances of a document that
    share a context window get their graphs from one
    `assemble_candidate_graphs` call."""
    docs = {doc.doc_id: doc for doc in corpus.documents}
    images = corpus.image_index()
    resolved = []
    for inst in instances:
        doc = docs.get(inst.doc_id)
        if doc is None:
            raise TrainError(f"instance references unknown doc {inst.doc_id}")
        step_by_index = {s.index: s for s in doc.steps}
        missing = [i for i in inst.context_steps if i not in step_by_index]
        if missing:
            raise TrainError(
                f"instance for {inst.doc_id}: context steps {missing} "
                f"not in the document")
        try:
            cands = [[images[r] for r in cand] for cand in inst.candidates]
        except KeyError as exc:
            raise TrainError(
                f"instance for {inst.doc_id}: unresolved image ref {exc}")
        resolved.append(([step_by_index[i] for i in inst.context_steps], cands))

    groups: dict[tuple, list[int]] = {}
    for k, inst in enumerate(instances):
        groups.setdefault((inst.doc_id, tuple(inst.context_steps)), []).append(k)
    prepared: list[PreparedInstance] = [None] * len(instances)
    for members in groups.values():
        steps = resolved[members[0]][0]
        graphs = iter(G.assemble_candidate_graphs(
            steps, [c for k in members for c in resolved[k][1]], lambda_t, lambda_m))
        for k in members:
            inst = instances[k]
            inst_graphs = [next(graphs) for _ in inst.candidates]
            for ci, graph in enumerate(inst_graphs):
                graph.candidate_index = ci
            n_a = len(inst.candidates[0])
            with_images = [pos for pos, s in enumerate(steps) if s.images]
            aligned = np.array(with_images[:n_a], dtype=np.int64)
            prepared[k] = PreparedInstance(inst, inst_graphs, aligned)
    return prepared


def _batch_scores(model: TmegModel, prepared: list[PreparedInstance],
                  effect: AblationEffect):
    """Score every candidate graph of a minibatch in one padded batch.

    Returns (scores, ht, hv, batch): scores is (n_instances, N_c); ht, hv
    are the padded CLS rows of the flat graph list, where instance i's
    candidate c is graph i * N_c + c.
    """
    n_c = len(prepared[0].graphs)
    if any(len(p.graphs) != n_c for p in prepared):
        raise TrainError("all instances in a batch must share N_c")
    graphs = [g for p in prepared for g in p.graphs]
    batch = prepare_batch(graphs, model.vocab, model.config)
    scores, ht, hv = model.score_batch(batch, effect.zero_t, effect.zero_m)
    return scores.reshape(len(prepared), n_c), ht, hv, batch


def _batch_loss(model: TmegModel, prepared: list[PreparedInstance],
                effect: AblationEffect, config: RunConfig,
                rng: np.random.Generator) -> Tensor:
    scores, ht, hv, batch = _batch_scores(model, prepared, effect)
    gold = np.array([p.instance.gold_index for p in prepared])
    pred = prediction_loss_batch(scores, gold)
    if effect.lambda_b == 0:
        return pred

    # contrastive coherence on gold graphs; negatives are visual CLS rows
    # drawn from other instances in the batch (fallback: the instance's own
    # non-gold candidates when the batch has a single instance)
    n_c = scores.shape[1]
    gold_graph = np.arange(len(prepared)) * n_c + gold
    n_a = [len(p.instance.candidates[0]) for p in prepared]
    coh_terms = []
    for ip, p in enumerate(prepared):
        pool = [(gold_graph[jp], r) for jp in range(len(prepared)) if jp != ip
                for r in range(n_a[jp])]
        if not pool:
            pool = [(ip * n_c + cj, r) for cj in range(n_c) if cj != gold[ip]
                    for r in range(n_a[ip])]
        if not pool:
            raise TrainError("cannot sample coherence negatives")
        k = min(config.model.k_negatives, len(pool))
        chosen = rng.choice(len(pool), size=k, replace=False)
        g = gold_graph[ip]
        n = int(min(p.aligned_rows.size, batch.n_vis_cls[g]))
        if n == 0:
            continue
        neg_graphs, neg_rows = np.array(pool)[chosen].T
        coh_terms.append(coherence_loss(
            ht[np.full(n, g), p.aligned_rows[:n]], hv[g, :n],
            hv[neg_graphs, neg_rows],
            config.model.tau, config.model.coherence_inclusive,
        ).reshape(1))
    if not coh_terms:
        return pred
    coh = concat(coh_terms, axis=0).mean()
    return total_loss(pred, coh, effect.lambda_b)


# ----------------------------------------------------------------------
# evaluation


def evaluate_prepared(model: TmegModel, prepared: list[PreparedInstance],
                      effect: AblationEffect,
                      batch_size: int) -> tuple[dict, list]:
    """Accuracy per task plus a per-instance prediction log, scored in
    chunks of `batch_size` instances."""
    if not prepared:
        raise TrainError("cannot evaluate an empty instance list")
    log = []
    by_task: dict[str, list[int]] = {}
    for start in range(0, len(prepared), batch_size):
        chunk = prepared[start:start + batch_size]
        with no_grad():
            scores = _batch_scores(model, chunk, effect)[0]
        for p, row in zip(chunk, scores.data):
            pred_idx = int(np.argmax(row))  # ties resolve to the lowest index
            correct = int(pred_idx == p.instance.gold_index)
            by_task.setdefault(p.instance.task_kind, []).append(correct)
            log.append({
                "doc_id": p.instance.doc_id,
                "task_kind": p.instance.task_kind,
                "predicted": pred_idx,
                "gold": p.instance.gold_index,
                "correct": correct,
            })
    acc = {task: float(np.mean(v)) for task, v in sorted(by_task.items())}
    return acc, log


def evaluate(model: TmegModel, instances: list[D.TaskInstance],
             corpus: D.Corpus, config: RunConfig) -> MetricsReport:
    effect = apply_ablation(config)
    prepared = prepare_instances(corpus, instances, config.lambda_t,
                                 config.lambda_m)
    acc, _ = evaluate_prepared(model, prepared, effect, config.batch_size)
    return MetricsReport(
        per_task_accuracy=acc,
        average_accuracy=float(np.mean(list(acc.values()))),
        curves=[],
        config=config.to_dict(),
        seed=config.seed,
    )


# ----------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    model: TmegModel
    report: MetricsReport
    best_epoch: int


def _snapshot(store: ParamStore) -> dict:
    return {
        "params": {k: p.value.copy() for k, p in store.params.items()},
        "m1": {k: v.copy() for k, v in store.moment1.items()},
        "m2": {k: v.copy() for k, v in store.moment2.items()},
        "step": store.step_count,
    }


def _restore(store: ParamStore, snap: dict):
    for k, p in store.params.items():
        p.value = snap["params"][k].copy()
    store.moment1 = {k: v.copy() for k, v in snap["m1"].items()}
    store.moment2 = {k: v.copy() for k, v in snap["m2"].items()}
    store.step_count = snap["step"]


def train(config: RunConfig, train_corpus: D.Corpus | None = None,
          valid_corpus: D.Corpus | None = None) -> TrainResult:
    t0 = time.monotonic()
    if train_corpus is None:
        if config.train_corpus is None:
            raise TrainError("no training corpus given")
        train_corpus = D.load_corpus(config.train_corpus)
    if valid_corpus is None:
        if config.valid_corpus is None:
            raise TrainError("no validation corpus given")
        valid_corpus = D.load_corpus(config.valid_corpus)

    effect = apply_ablation(config)
    vocab = D.build_vocab(train_corpus)
    if len(vocab) > config.model.token_vocab_size:
        raise TrainError(
            f"corpus vocab {len(vocab)} exceeds token_vocab_size="
            f"{config.model.token_vocab_size}")
    model = TmegModel(config.model, vocab, seed=config.seed)

    train_instances = make_instances(train_corpus, config.tasks,
                                     config.n_candidates, config.seed)
    valid_instances = make_instances(valid_corpus, config.tasks,
                                     config.n_candidates, config.seed + 1)
    train_prep = prepare_instances(train_corpus, train_instances,
                                   config.lambda_t, config.lambda_m)
    valid_prep = prepare_instances(valid_corpus, valid_instances,
                                   config.lambda_t, config.lambda_m)

    curves = []
    best_acc = -1.0
    best_epoch = 0
    best_snap = _snapshot(model.store)
    stale = 0
    for epoch in range(1, config.max_epochs + 1):
        order = np.random.default_rng([config.seed, epoch]).permutation(
            len(train_prep))
        neg_rng = np.random.default_rng([config.seed, epoch, 7919])
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = [train_prep[i] for i in order[start:start + config.batch_size]]
            loss = _batch_loss(model, batch, effect, config, neg_rng)
            if not np.isfinite(loss.data):
                raise TrainError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}")
            grad_eval(loss, model.store)
            adam_step(model.store, config.learning_rate)
            losses.append(float(loss.data))
        acc, _ = evaluate_prepared(model, valid_prep, effect,
                                   config.batch_size)
        valid_acc = float(np.mean(list(acc.values())))
        curves.append({
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
            "valid_accuracy": valid_acc,
        })
        if valid_acc > best_acc:
            best_acc = valid_acc
            best_epoch = epoch
            best_snap = _snapshot(model.store)
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    _restore(model.store, best_snap)

    acc, _ = evaluate_prepared(model, valid_prep, effect, config.batch_size)
    report = MetricsReport(
        per_task_accuracy=acc,
        average_accuracy=float(np.mean(list(acc.values()))),
        curves=curves,
        config=config.to_dict(),
        seed=config.seed,
        wall_clock_seconds=time.monotonic() - t0,
    )
    return TrainResult(model=model, report=report, best_epoch=best_epoch)


# ----------------------------------------------------------------------
# model persistence


def save_model(path: str, model: TmegModel):
    save_checkpoint(path, model.store, model.config.hash())
    sidecar = {"model_config": model.config.to_dict(), "vocab": model.vocab}
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True, separators=(",", ":"))


def load_model(path: str) -> TmegModel:
    """Load a checkpoint and its JSON sidecar. A malformed sidecar, or
    parameters whose names or shapes do not match the sidecar's model
    config, raise CheckpointError."""
    with open(path + ".json", "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        sidecar = json.loads(text)
        config = ModelConfig(**sidecar["model_config"])
        vocab = sidecar["vocab"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}.json: bad sidecar ({exc})") from exc
    store = load_checkpoint(path, expected_config_hash=config.hash())
    expected = {name: shape for name, _, shape in param_spec(config)}
    found = {name: p.value.shape for name, p in store.params.items()}
    if found != expected:
        bad = sorted(n for n in expected.keys() | found.keys()
                     if expected.get(n) != found.get(n))
        raise CheckpointError(
            f"{path}: parameters do not match the model config: "
            + ", ".join(f"{n} {found.get(n)} != {expected.get(n)}"
                        for n in bad[:5]))
    try:
        return TmegModel(config, vocab, store=store)
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"{path}.json: bad sidecar ({exc})") from exc


# ----------------------------------------------------------------------
# transfer and sweep


def transfer(train_corpus: D.Corpus, eval_corpus: D.Corpus,
             config: RunConfig) -> MetricsReport:
    """Train on corpus A, evaluate on corpus B. When no separate validation
    corpus is configured, the last 20% of A's documents are held out."""
    if config.valid_corpus is not None:
        valid = D.load_corpus(config.valid_corpus)
        train_part = train_corpus
    else:
        n = len(train_corpus.documents)
        cut = max(1, int(n * 0.8))
        if cut >= n:
            cut = n - 1
        if cut < 1:
            raise TrainError("transfer needs at least 2 training documents")
        train_part = D.Corpus(train_corpus.d_v, train_corpus.documents[:cut])
        valid = D.Corpus(train_corpus.d_v, train_corpus.documents[cut:])
    result = train(config, train_corpus=train_part, valid_corpus=valid)
    instances = make_instances(eval_corpus, config.tasks, config.n_candidates,
                               config.seed + 2)
    report = evaluate(result.model, instances, eval_corpus, config)
    report.curves = result.report.curves
    src = train_corpus.documents[0].domain_tag if train_corpus.documents else ""
    dst = eval_corpus.documents[0].domain_tag if eval_corpus.documents else ""
    report.domain_pair = [src, dst]
    return report


def sweep_lambda_b(config: RunConfig, values: list[float],
                   train_corpus: D.Corpus,
                   valid_corpus: D.Corpus) -> list[MetricsReport]:
    if not values:
        raise TrainError("sweep needs at least one value")
    reports = []
    for v in sorted(values):
        cfg = RunConfig.from_dict(config.to_dict())
        cfg.lambda_b = float(v)
        result = train(cfg, train_corpus=train_corpus, valid_corpus=valid_corpus)
        reports.append(result.report)
    return reports
