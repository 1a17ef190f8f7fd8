"""Training, evaluation, ablations, transfer, and the balance-parameter sweep.

Each training minibatch runs as one padded batch of (document, candidate)
graphs, whatever their shapes. Evaluation builds no autodiff tape and
scores each distinct graph once: a candidate shared by instances of one
(document, context) group is one graph. An ablation removes a kind of
relation from the graphs themselves: `prepare_instances` clears the
temporal codes, the modal codes or both to NONE (see `ablate_graph`),
and no_coherence sets the coherence weight to 0. All randomness flows
from named streams derived from the master seed, so a (seed, config,
corpus) triple reproduces byte-identical metrics and checkpoints.
"""

from __future__ import annotations

import json
import math
import time
import types
import typing
import zlib
from dataclasses import dataclass, field, fields, asdict, is_dataclass, replace

import numpy as np

from . import data as D
from . import graph as G
from .autodiff import Tensor, no_grad
from .model import (
    ModelConfig, TmegModel, _left_pack, coherence_loss, param_spec,
    prediction_loss_batch, prepare_batch, total_loss,
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
        # each bound is written so that NaN fails it too
        if self.lambda_b is not None and not 0 <= self.lambda_b < math.inf:
            raise TrainError("lambda_b must be >= 0 and finite")
        if not 0 < self.lambda_t < math.inf:
            raise TrainError("lambda_t must be > 0 and finite")
        if not 0 <= self.lambda_m < 1:
            raise TrainError("lambda_m must be in [0, 1)")
        if not 0 <= self.learning_rate < math.inf:
            raise TrainError("learning_rate must be >= 0 and finite")
        if self.patience < 1:
            raise TrainError("patience must be >= 1")
        if self.max_epochs < 1:
            raise TrainError("max_epochs must be >= 1")
        if self.batch_size < 1:
            raise TrainError("batch_size must be >= 1")
        if self.ablation not in ABLATIONS:
            raise TrainError(f"unknown ablation: {self.ablation}")
        if self.n_candidates < 2:
            raise TrainError("n_candidates must be >= 2")
        if not self.tasks or len(set(self.tasks) & set(D.TASK_KINDS)) < len(self.tasks):
            raise TrainError(f"tasks must name one or more of {', '.join(D.TASK_KINDS)}, each once")

    def effective_lambda_b(self) -> float:
        if self.ablation == "no_coherence":
            return 0.0
        return self.model.lambda_b if self.lambda_b is None else self.lambda_b

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        """A RunConfig from its JSON form. A value that is not an object,
        at the top level or as "model", or an unknown key raises
        ValueError naming it."""
        d = config_kwargs(RunConfig, d, "run config")
        if "model" in d:
            d["model"] = ModelConfig(**config_kwargs(ModelConfig, d["model"],
                                                     "run config \"model\""))
        return RunConfig(**d)


def config_kwargs(cls, obj, what: str) -> dict:
    """`obj` as keyword arguments for dataclass `cls`: it must be a JSON
    object whose keys all name fields of `cls` and whose values fit the
    fields' annotations (see `_fits`), or ValueError names the offender."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not "
                         f"{type(obj).__name__}")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{what}: unknown key {unknown[0]!r}")
    hints = typing.get_type_hints(cls)
    for key, value in obj.items():
        if not _fits(value, hints[key]):
            raise ValueError(f"{what}: {key!r} must be {_type_name(hints[key])}, "
                             f"not {type(value).__name__}")
    return dict(obj)


def _fits(value, tp) -> bool:
    """Whether a JSON value fits annotation `tp`. An int fits a float
    field, true/false fit only a bool field, null fits only an optional
    field, and a nested dataclass takes an object (checked on its own)."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return any(_fits(value, t) for t in typing.get_args(tp))
    if typing.get_origin(tp) is list:
        (item,) = typing.get_args(tp)
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    if tp is float:
        tp = (int, float)
    elif is_dataclass(tp):
        tp = dict
    return isinstance(value, tp) and (tp is bool or not isinstance(value, bool))


def _type_name(tp) -> str:
    return tp.__name__ if isinstance(tp, type) else str(tp)


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
    graphs: list[G.TmegGraph]     # one per candidate, shared with other instances
    aligned_rows: np.ndarray      # text CLS row indices aligned with candidates


# each ablation's pair codes with its kinds cleared to NONE
_CLEARED = {"no_temporal": lambda g: G.edge_codes(G.TemporalCode.NONE, g.phi_m),
            "no_modal": lambda g: G.edge_codes(g.phi_t, G.ModalCode.NONE),
            "no_both": lambda g: np.zeros_like(g.codes)}


def ablate_graph(graph: G.TmegGraph, ablation: str) -> G.TmegGraph:
    """A copy of `graph` without the relations `ablation` removes: its
    temporal codes (no_temporal), modal codes (no_modal) or both (no_both)
    all NONE. Other ablations clear nothing and return `graph` itself."""
    if ablation not in _CLEARED:
        return graph
    return replace(graph, codes=_CLEARED[ablation](graph))


def prepare_instances(corpus: D.Corpus, instances: list[D.TaskInstance],
                      lambda_t: float, lambda_m: float,
                      ablation: str = "none") -> list[PreparedInstance]:
    """Resolve every instance, then label each (document, context) group
    once: all cloze, coherence and ordering instances of a document that
    share a context window get their graphs from one
    `assemble_candidate_graphs` call over the group's distinct candidates.
    Each distinct graph is ablated once (`ablate_graph`). A repeated
    candidate is labelled once, and every instance that has it holds that
    one graph object."""
    steps_of = {doc.doc_id: {s.index: s for s in doc.steps} for doc in corpus.documents}
    images = corpus.image_index()
    groups: dict[tuple, dict] = {}    # (doc_id, context) -> refs -> images
    for inst in instances:
        by_index = steps_of.get(inst.doc_id)
        if by_index is None:
            raise TrainError(f"instance references unknown doc {inst.doc_id}")
        missing = [i for i in inst.context_steps if i not in by_index]
        if missing:
            raise TrainError(
                f"instance for {inst.doc_id}: context steps {missing} "
                f"not in the document")
        distinct = groups.setdefault((inst.doc_id, tuple(inst.context_steps)), {})
        for refs in map(tuple, inst.candidates):
            if refs not in distinct:
                try:
                    distinct[refs] = [images[r] for r in refs]
                except KeyError as exc:
                    raise TrainError(
                        f"instance for {inst.doc_id}: unresolved image ref {exc}")

    built = {}    # (doc_id, context) -> (refs -> graph, text CLS rows with images)
    for (doc_id, context), distinct in groups.items():
        steps = [steps_of[doc_id][i] for i in context]
        graphs = G.assemble_candidate_graphs(steps, list(distinct.values()), lambda_t, lambda_m)
        built[doc_id, context] = (dict(zip(distinct, (ablate_graph(g, ablation) for g in graphs))),
                                  np.array([pos for pos, s in enumerate(steps) if s.images],
                                           dtype=np.int64))
    prepared = []
    for inst in instances:
        graphs, aligned = built[inst.doc_id, tuple(inst.context_steps)]
        prepared.append(PreparedInstance(inst, [graphs[tuple(cand)] for cand in inst.candidates],
                                         aligned[:len(inst.candidates[0])]))
    return prepared


def _batch_scores(model: TmegModel, prepared: list[PreparedInstance]):
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
    scores, ht, hv = model.score_batch(batch)
    return scores.reshape(len(prepared), n_c), ht, hv, batch


def _batch_loss(model: TmegModel, prepared: list[PreparedInstance],
                config: RunConfig, rng: np.random.Generator) -> Tensor:
    scores, ht, hv, batch = _batch_scores(model, prepared)
    gold = np.array([p.instance.gold_index for p in prepared])
    pred = prediction_loss_batch(scores, gold)
    lambda_b = config.effective_lambda_b()
    if lambda_b == 0:
        return pred

    # contrastive coherence on gold graphs; negatives are visual CLS rows
    # drawn from other instances in the batch (fallback: the instance's own
    # non-gold candidates when the batch has a single instance)
    n_c = scores.shape[1]
    gold_graph = np.arange(len(prepared)) * n_c + gold
    n_a = [len(p.instance.candidates[0]) for p in prepared]
    # every gold graph's (graph, visual row) pairs, in instance order, and
    # the instance each pair belongs to
    owner = np.repeat(np.arange(len(prepared)), n_a)
    gold_rows = np.stack([gold_graph[owner], np.concatenate(
        [np.arange(n) for n in n_a])], axis=1)
    kept, text_rows, neg_pairs = [], [], []
    for ip, p in enumerate(prepared):
        pool = gold_rows[owner != ip]
        if not len(pool):
            pool = np.array([(ip * n_c + cj, r) for cj in range(n_c)
                             if cj != gold[ip] for r in range(n_a[ip])])
        if not len(pool):
            raise TrainError("cannot sample coherence negatives")
        k = min(config.model.k_negatives, len(pool))
        chosen = rng.choice(len(pool), size=k, replace=False)
        n = int(min(p.aligned_rows.size, batch.n_vis_cls[gold_graph[ip]]))
        if n == 0:
            continue
        kept.append(gold_graph[ip])
        text_rows.append(p.aligned_rows[:n])
        neg_pairs.append(pool[chosen])
    if not kept:
        return pred
    # every instance at once, padded to the most rows and negatives
    graphs = np.array(kept)[:, None]
    n_rows = np.array([len(rows) for rows in text_rows])
    n_neg = np.array([len(pairs) for pairs in neg_pairs])
    text_rows = _left_pack(n_rows, np.concatenate(text_rows))
    neg_pairs = _left_pack(n_neg, np.concatenate(neg_pairs))
    index = ((graphs, text_rows), (graphs, np.arange(text_rows.shape[1])),
             (neg_pairs[..., 0], neg_pairs[..., 1]))
    coh = coherence_loss(ht, hv, hv, config.model.tau,
                         config.model.coherence_inclusive, n_rows, n_neg, index)
    return total_loss(pred, coh, lambda_b)


# ----------------------------------------------------------------------
# evaluation


def score_prepared(model: TmegModel, prepared: list[PreparedInstance],
                   batch_size: int) -> list[np.ndarray]:
    """Each instance's candidate scores, without a tape. Instances that
    share a candidate hold one graph object (see `prepare_instances`):
    each distinct graph is scored once, in chunks of `batch_size` x N_c
    graphs, and its score fanned back out to every instance holding it."""
    distinct = {id(g): g for p in prepared for g in p.graphs}
    graphs, chunk = list(distinct.values()), batch_size * len(prepared[0].graphs)
    with no_grad():
        scores = dict(zip(distinct, np.concatenate([
            model.score_graphs(graphs[k:k + chunk]).data
            for k in range(0, len(graphs), chunk)])))
    return [np.array([scores[id(g)] for g in p.graphs]) for p in prepared]


def evaluate_prepared(model: TmegModel, prepared: list[PreparedInstance],
                      batch_size: int) -> dict:
    """Accuracy per task."""
    if not prepared:
        raise TrainError("cannot evaluate an empty instance list")
    by_task = {}
    for p, row in zip(prepared, score_prepared(model, prepared, batch_size)):
        # ties resolve to the lowest index
        by_task.setdefault(p.instance.task_kind, []).append(
            int(np.argmax(row)) == p.instance.gold_index)
    return {task: float(np.mean(v)) for task, v in sorted(by_task.items())}


def evaluate(model: TmegModel, instances: list[D.TaskInstance],
             corpus: D.Corpus, config: RunConfig) -> MetricsReport:
    prepared = prepare_instances(corpus, instances, config.lambda_t,
                                 config.lambda_m, config.ablation)
    acc = evaluate_prepared(model, prepared, config.batch_size)
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


def _snapshot(store: ParamStore) -> tuple[np.ndarray, int]:
    """A copy of the store's flat state and its step count."""
    return store.flat.copy(), store.step_count


def _restore(store: ParamStore, snap: tuple[np.ndarray, int]):
    """Copy a snapshot back into the store's flat vectors, so every
    parameter's views keep pointing at them."""
    store.flat[...] = snap[0]
    store.step_count = snap[1]


def resolve_corpora(config: RunConfig, train_corpus: D.Corpus | None = None,
                    valid_corpus: D.Corpus | None = None
                    ) -> tuple[D.Corpus, D.Corpus]:
    """The given training and validation corpora, each loaded from its
    configured path when not given; TrainError when it has neither."""
    if train_corpus is None:
        if config.train_corpus is None:
            raise TrainError("no training corpus given")
        train_corpus = D.load_corpus(config.train_corpus)
    if valid_corpus is None:
        if config.valid_corpus is None:
            raise TrainError("no validation corpus given")
        valid_corpus = D.load_corpus(config.valid_corpus)
    return train_corpus, valid_corpus


def train(config: RunConfig, train_corpus: D.Corpus | None = None,
          valid_corpus: D.Corpus | None = None) -> TrainResult:
    t0 = time.monotonic()
    train_corpus, valid_corpus = resolve_corpora(config, train_corpus,
                                                 valid_corpus)

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
                                   config.lambda_t, config.lambda_m,
                                   config.ablation)
    valid_prep = prepare_instances(valid_corpus, valid_instances,
                                   config.lambda_t, config.lambda_m,
                                   config.ablation)

    curves = []
    best_acc, best_epoch, best_task_acc, best_snap, stale = -1.0, 0, None, None, 0
    for epoch in range(1, config.max_epochs + 1):
        order = np.random.default_rng([config.seed, epoch]).permutation(
            len(train_prep))
        neg_rng = np.random.default_rng([config.seed, epoch, 7919])
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = [train_prep[i] for i in order[start:start + config.batch_size]]
            loss = _batch_loss(model, batch, config, neg_rng)
            if not np.isfinite(loss.data):
                raise TrainError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}")
            grad_eval(loss, model.store)
            adam_step(model.store, config.learning_rate)
            losses.append(float(loss.data))
        acc = evaluate_prepared(model, valid_prep, config.batch_size)
        valid_acc = float(np.mean(list(acc.values())))
        curves.append({
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
            "valid_accuracy": valid_acc,
        })
        if valid_acc > best_acc:
            best_acc, best_epoch, best_task_acc = valid_acc, epoch, acc
            best_snap = _snapshot(model.store)
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    # the best epoch's accuracies are those of the restored parameters
    _restore(model.store, best_snap)
    report = MetricsReport(per_task_accuracy=best_task_acc, average_accuracy=best_acc,
                           curves=curves, config=config.to_dict(), seed=config.seed,
                           wall_clock_seconds=time.monotonic() - t0)
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
    with open(path + ".json", "rb") as fh:
        raw = fh.read()
    try:
        sidecar = json.loads(raw.decode("utf-8"))
        config = ModelConfig(**sidecar["model_config"])
        vocab = sidecar["vocab"]
        if not isinstance(vocab, dict) or not all(
                type(i) is int and 0 <= i < config.token_vocab_size
                for i in vocab.values()):
            raise ValueError("vocab must map tokens to integer ids in "
                             f"[0, {config.token_vocab_size})")
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
        cfg = replace(config, lambda_b=float(v))
        result = train(cfg, train_corpus=train_corpus, valid_corpus=valid_corpus)
        reports.append(result.report)
    return reports
