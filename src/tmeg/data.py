"""Procedural multimodal document model, corpus IO, synthetic generation,
and task-instance construction.

A corpus is a list of annotated step-wise documents: each step carries its
token sequence, noun-phrase annotations (span, canonical entity id, and
per-image grounding boxes), and one or more images made of detected object
features. The annotations are inputs here; any upstream tagging/grounding
is out of scope.
"""

from __future__ import annotations

import itertools
import json
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

MAX_OBJECTS_PER_IMAGE = 36
TASK_KINDS = ("cloze", "coherence", "ordering")


class CorpusError(Exception):
    """Schema or invariant violation in corpus data."""


# ----------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class BoundingBox:
    x1: float
    y1: float
    x2: float
    y2: float

    def validate(self, where: str):
        if not (0.0 <= self.x1 < self.x2 <= 1.0 and 0.0 <= self.y1 < self.y2 <= 1.0):
            raise CorpusError(f"{where}: invalid bounding box {self.as_list()}")

    def as_list(self) -> list[float]:
        return [self.x1, self.y1, self.x2, self.y2]

    @staticmethod
    def from_list(vals, where: str) -> "BoundingBox":
        """A box from 4 JSON numbers; a boolean or a string is rejected, not
        converted. `validate_corpus` checks its range (NaN fails it)."""
        if len(vals) != 4 or not _all_numbers(vals):
            raise CorpusError(f"{where}: box must have 4 numeric coordinates")
        return BoundingBox(*map(float, vals))

    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


@dataclass
class ObjectFeature:
    feature: np.ndarray
    box: BoundingBox
    confidence: float


@dataclass
class StepImage:
    image_id: str
    objects: list[ObjectFeature]


@dataclass
class NounPhrase:
    span: tuple[int, int]
    entity_id: str
    grounding_boxes: dict[str, BoundingBox] = field(default_factory=dict)


@dataclass
class Step:
    index: int
    tokens: list[str]
    noun_phrases: list[NounPhrase]
    images: list[StepImage]


@dataclass
class PmdDocument:
    doc_id: str
    domain_tag: str
    steps: list[Step]

    def all_images(self) -> list[StepImage]:
        return [img for step in self.steps for img in step.images]


@dataclass
class Corpus:
    d_v: int
    documents: list[PmdDocument]

    def image_index(self) -> dict[str, StepImage]:
        return {
            img.image_id: img for doc in self.documents for img in doc.all_images()
        }


@dataclass
class TaskInstance:
    task_kind: str  # one of TASK_KINDS
    doc_id: str
    context_steps: list[int]
    candidates: list[list[str]]  # image-id sequences, all of length N_a
    gold_index: int


@dataclass
class SyntheticConfig:
    num_docs: int = 16
    steps_min: int = 4
    steps_max: int = 6
    tokens_per_step_min: int = 4
    tokens_per_step_max: int = 6
    entity_vocab_size: int = 12
    token_vocab_size: int = 40
    objects_per_image_min: int = 1
    objects_per_image_max: int = 3
    images_per_step: int = 2
    d_v: int = 8
    feature_noise_sigma: float = 0.5
    grounding_jitter: float = 0.02
    n_candidates: int = 4
    seed: int = 0
    # Scale of the per-entity latent features. With latents ~ N(0, scale),
    # cross-entity distances concentrate near scale*sqrt(2*d_v) while
    # same-entity distances stay near sigma*sqrt(2*d_v); the default
    # temporal threshold of 7 must sit between the two.
    entity_scale: float = 4.0
    # When set, each document's entity roster is split in two phases: steps
    # up to this index draw from the first part, later steps from the rest.
    # Later-step images then depict entities that never occur in the early
    # window, which makes them unambiguous cloze distractors.
    entity_phase_steps: int | None = None
    # Overrides the per-document roster size (default: one entity per step,
    # at least 3). A roster of 3 makes every step mention the same three
    # entities, so candidate images differ only in grounding.
    roster_size: int | None = None
    # Place object boxes on a fixed slot grid instead of sampling them, so
    # box coordinates carry no information about which image is which.
    box_grid: bool = False

    def validate(self):
        counts = [
            self.num_docs, self.steps_min, self.steps_max,
            self.tokens_per_step_min, self.tokens_per_step_max,
            self.entity_vocab_size, self.token_vocab_size,
            self.objects_per_image_min, self.objects_per_image_max,
            self.images_per_step, self.d_v, self.n_candidates,
        ]
        if any(c <= 0 for c in counts):
            raise CorpusError("synthetic config: all counts must be positive")
        if self.feature_noise_sigma < 0 or self.grounding_jitter < 0:
            raise CorpusError("synthetic config: noise/jitter must be >= 0")
        if self.steps_min > self.steps_max:
            raise CorpusError("synthetic config: steps_min > steps_max")
        if self.tokens_per_step_min > self.tokens_per_step_max:
            raise CorpusError("synthetic config: tokens_per_step range inverted")
        if self.tokens_per_step_min < 2:
            raise CorpusError(
                "synthetic config: need >= 2 tokens per step for entity mentions"
            )


# ----------------------------------------------------------------------
# validation helpers


def _validate_document(doc: PmdDocument, d_v: int):
    where = f"doc {doc.doc_id}"
    if not doc.steps:
        raise CorpusError(f"{where}: document has no steps")
    for pos, step in enumerate(doc.steps, start=1):
        swhere = f"{where} step {step.index}"
        if step.index != pos:
            raise CorpusError(f"{where}: step indices must be 1..N contiguous")
        if not step.tokens:
            raise CorpusError(f"{swhere}: empty token list")
        seen: set[int] = set()
        for np_ in step.noun_phrases:
            s, e = np_.span
            if not (0 <= s < e <= len(step.tokens)):
                raise CorpusError(
                    f"{swhere}: noun-phrase span [{s},{e}) out of range "
                    f"for {len(step.tokens)} tokens"
                )
            if not np_.entity_id:
                raise CorpusError(f"{swhere}: empty entity_id")
            overlap = set(range(s, e)) & seen
            if overlap:
                raise CorpusError(f"{swhere}: overlapping noun-phrase spans")
            seen.update(range(s, e))
            for image_id, box in np_.grounding_boxes.items():
                box.validate(f"{swhere} grounding box for {image_id}")
        for img in step.images:
            iwhere = f"{swhere} image {img.image_id}"
            if not (1 <= len(img.objects) <= MAX_OBJECTS_PER_IMAGE):
                raise CorpusError(
                    f"{iwhere}: object count {len(img.objects)} outside "
                    f"[1, {MAX_OBJECTS_PER_IMAGE}]"
                )
            for obj in img.objects:
                if obj.feature.shape != (d_v,):
                    raise CorpusError(
                        f"{iwhere}: feature dimension {obj.feature.shape} != ({d_v},)"
                    )
                if not (0.0 <= obj.confidence <= 1.0):
                    raise CorpusError(f"{iwhere}: confidence outside [0, 1]")
                obj.box.validate(iwhere)


def validate_corpus(corpus: Corpus):
    seen_docs: set[str] = set()
    seen_images: set[str] = set()
    for doc in corpus.documents:
        if doc.doc_id in seen_docs:
            raise CorpusError(f"duplicate doc_id {doc.doc_id}")
        seen_docs.add(doc.doc_id)
        _validate_document(doc, corpus.d_v)
        for img in doc.all_images():
            if img.image_id in seen_images:
                raise CorpusError(f"duplicate image_id {img.image_id}")
            seen_images.add(img.image_id)


# ----------------------------------------------------------------------
# corpus interchange (JSON)


def corpus_to_dict(corpus: Corpus) -> dict:
    docs = []
    for doc in corpus.documents:
        steps = []
        for step in doc.steps:
            steps.append({
                "index": step.index,
                "tokens": list(step.tokens),
                "noun_phrases": [
                    {
                        "span": [np_.span[0], np_.span[1]],
                        "entity_id": np_.entity_id,
                        "grounding_boxes": {
                            iid: box.as_list()
                            for iid, box in sorted(np_.grounding_boxes.items())
                        },
                    }
                    for np_ in step.noun_phrases
                ],
                "images": [
                    {
                        "image_id": img.image_id,
                        "objects": [
                            {
                                "feature": [float(v) for v in obj.feature],
                                "box": obj.box.as_list(),
                                "confidence": float(obj.confidence),
                            }
                            for obj in img.objects
                        ],
                    }
                    for img in step.images
                ],
            })
        docs.append({"doc_id": doc.doc_id, "domain_tag": doc.domain_tag, "steps": steps})
    return {"d_v": corpus.d_v, "documents": docs}


def _int(value, what: str) -> int:
    """A JSON integer; a float, string or boolean raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, not {type(value).__name__}")
    return value


def _str(value, what: str) -> str:
    """A JSON string; a number, boolean or null raises TypeError."""
    if type(value) is not str:
        raise TypeError(f"{what} must be a string, not {type(value).__name__}")
    return value


def _all_numbers(values) -> bool:
    """Whether every value is an int or a float (a JSON number), never a
    boolean; one pass that collects the values' types."""
    kinds = set(map(type, values))
    return kinds <= {int, float} or all(
        issubclass(k, (int, float)) and not issubclass(k, bool) for k in kinds)


def _number_rows(rows: list, what: str) -> np.ndarray:
    """Equal-length JSON lists of numbers as one float64 array. Every value
    must be an int or a float, never a boolean or a string, and finite
    (Python's json reads NaN and Infinity); otherwise TypeError or
    ValueError."""
    if not (set(map(type, rows)) <= {list}
            and _all_numbers(itertools.chain.from_iterable(rows))):
        raise TypeError(f"{what} must be lists of numbers")
    out = np.array(rows, dtype=np.float64)
    if not np.isfinite(out).all():
        raise ValueError(f"{what} must be finite")
    return out


def _image_from_dict(idd: dict, where: str) -> StepImage:
    """One image; its objects' features are type-checked as one array.
    (`_validate_document` rejects a NaN or infinite confidence.)"""
    image_id = _str(idd["image_id"], f"{where} image_id")
    where = f"{where} image {image_id}"
    objects = idd["objects"]
    features = _number_rows([od["feature"] for od in objects],
                            f"{where} features")
    confidences = [od["confidence"] for od in objects]
    if not _all_numbers(confidences):
        raise TypeError(f"{where}: confidences must be numbers")
    return StepImage(image_id=image_id, objects=[
        ObjectFeature(feature=feature, box=BoundingBox.from_list(od["box"], where),
                      confidence=float(confidence))
        for od, feature, confidence in zip(objects, features, confidences)])


def _span_from_list(vals, where: str) -> tuple[int, int]:
    if len(vals) != 2 or any(type(v) is not int for v in vals):
        raise CorpusError(f"{where}: noun-phrase span must have 2 integers")
    return vals[0], vals[1]


def corpus_from_dict(payload: dict) -> Corpus:
    try:
        d_v = _int(payload["d_v"], "d_v")
        documents = []
        for dd in payload["documents"]:
            doc_id = _str(dd["doc_id"], "doc_id")
            steps = []
            for sd in dd["steps"]:
                where = f"doc {doc_id} step {sd['index']}"
                noun_phrases = [
                    NounPhrase(
                        span=_span_from_list(nd["span"], where),
                        entity_id=_str(nd["entity_id"], f"{where} entity_id"),
                        grounding_boxes={
                            iid: BoundingBox.from_list(box, where)
                            for iid, box in nd.get("grounding_boxes", {}).items()
                        },
                    )
                    for nd in sd.get("noun_phrases", [])
                ]
                tokens = sd["tokens"]
                if not set(map(type, tokens)) <= {str}:
                    raise TypeError(f"{where}: tokens must be strings")
                steps.append(Step(
                    index=_int(sd["index"], "step index"),
                    tokens=list(tokens),
                    noun_phrases=noun_phrases,
                    images=[_image_from_dict(idd, where)
                            for idd in sd.get("images", [])],
                ))
            documents.append(PmdDocument(
                doc_id=doc_id,
                domain_tag=_str(dd.get("domain_tag", ""), f"doc {doc_id} domain_tag"),
                steps=steps,
            ))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusError(f"malformed corpus JSON: {exc}") from exc
    corpus = Corpus(d_v=d_v, documents=documents)
    validate_corpus(corpus)
    return corpus


def load_corpus(path) -> Corpus:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}: JSON parse error at line {exc.lineno}: {exc.msg}")
    return corpus_from_dict(payload)


def save_corpus(corpus: Corpus, path):
    validate_corpus(corpus)
    with open(path, "w", encoding="utf-8") as fh:
        # json.dumps uses the C encoder; json.dump to a file never does
        fh.write(json.dumps(corpus_to_dict(corpus), sort_keys=True,
                            separators=(",", ":")))


def save_task_instances(instances: list[TaskInstance], path):
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(json.dumps({
                "task_kind": inst.task_kind,
                "doc_id": inst.doc_id,
                "context_steps": inst.context_steps,
                "candidates": inst.candidates,
                "gold_index": inst.gold_index,
            }, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def load_task_instances(path) -> list[TaskInstance]:
    instances = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                if not isinstance(d, dict):
                    raise TypeError(f"expected a JSON object, got {type(d).__name__}")
                for key in ("context_steps", "candidates"):
                    if not isinstance(d[key], list):
                        raise TypeError(f"{key} must be a list")
                if not d["candidates"] or not all(isinstance(c, list) and c and set(
                        map(type, c)) <= {str} for c in d["candidates"]):
                    raise ValueError("candidates must be non-empty lists of image ids "
                                     "(JSON strings)")
                if d["task_kind"] not in TASK_KINDS:
                    raise ValueError(f"task_kind {d['task_kind']!r} is not one "
                                     f"of {', '.join(TASK_KINDS)}")
                if not isinstance(d["doc_id"], str):
                    raise TypeError("doc_id must be a string")
                inst = TaskInstance(
                    task_kind=d["task_kind"],
                    doc_id=d["doc_id"],
                    context_steps=[_int(i, "context step") for i in d["context_steps"]],
                    candidates=d["candidates"],
                    gold_index=_int(d["gold_index"], "gold_index"),
                )
                if not 0 < len(set(inst.context_steps)) == len(inst.context_steps):
                    raise ValueError("context_steps must be non-empty and distinct")
                if not 0 <= inst.gold_index < len(inst.candidates):
                    raise ValueError(f"gold_index {inst.gold_index} outside "
                                     f"[0, {len(inst.candidates)})")
                instances.append(inst)
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusError(f"{path}:{lineno}: bad task instance: {exc}")
    return instances


# ----------------------------------------------------------------------
# synthetic corpus generation


def _doc_rng(seed: int, doc_id: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(doc_id.encode("utf-8"))])


def _grid_box(slot: int) -> BoundingBox:
    """Deterministic non-overlapping box for object slot `slot` (row-major
    3x3 grid)."""
    row, col = divmod(slot % 9, 3)
    x1 = 0.02 + col * 0.33
    y1 = 0.02 + row * 0.33
    return BoundingBox(x1, y1, x1 + 0.28, y1 + 0.28)


def _random_box(rng: np.random.Generator) -> BoundingBox:
    w = rng.uniform(0.15, 0.3)
    h = rng.uniform(0.15, 0.3)
    x1 = rng.uniform(0.0, 1.0 - w)
    y1 = rng.uniform(0.0, 1.0 - h)
    return BoundingBox(x1, y1, x1 + w, y1 + h)


def _jitter_box(box: BoundingBox, jitter: float, rng: np.random.Generator) -> BoundingBox:
    if jitter == 0:
        return box
    dx, dy = rng.uniform(-jitter, jitter, size=2)
    x1 = min(max(box.x1 + dx, 0.0), 0.98)
    y1 = min(max(box.y1 + dy, 0.0), 0.98)
    x2 = min(max(box.x2 + dx, x1 + 0.01), 1.0)
    y2 = min(max(box.y2 + dy, y1 + 0.01), 1.0)
    return BoundingBox(x1, y1, x2, y2)


def generate_synthetic_corpus(config: SyntheticConfig, domain_tag: str = "recipe-like") -> Corpus:
    """Deterministically generate an annotated corpus.

    Every entity has a persistent latent feature vector shared across the
    corpus; objects depicting it are the latent plus Gaussian noise. Each
    step mentions a small, step-dependent subset of the document's entity
    roster, arranged so that most entities recur in at least two steps.
    Each mention carries a grounding box that overlaps the true object box
    in that step's images.
    """
    config.validate()
    master = np.random.default_rng(config.seed)
    latents = master.normal(0.0, config.entity_scale,
                            size=(config.entity_vocab_size, config.d_v))
    documents = []
    for di in range(config.num_docs):
        doc_id = f"doc{di:04d}"
        rng = _doc_rng(config.seed, doc_id)
        n_steps = int(rng.integers(config.steps_min, config.steps_max + 1))
        # roster of entities for this document; each step mentions a cyclic
        # window of the roster so every entity recurs across >= 2 steps
        roster_size = (config.roster_size if config.roster_size is not None
                       else min(config.entity_vocab_size, max(3, n_steps)))
        roster_size = max(2, min(roster_size, config.entity_vocab_size))
        roster = rng.choice(config.entity_vocab_size, size=roster_size, replace=False)
        per_step = max(2, min(3, roster_size))
        phase = config.entity_phase_steps
        if phase is not None and 0 < phase < n_steps:
            cut = max(per_step, min(roster_size - per_step, phase))
            early, late = roster[:cut], roster[cut:]
        else:
            early, late, phase = roster, roster, n_steps
        steps = []
        img_counter = itertools.count()
        for t in range(1, n_steps + 1):
            if t <= phase:
                part, offset = early, t - 1
            else:
                part, offset = late, t - 1 - phase
            ents = [int(part[(offset + k) % len(part)]) for k in range(per_step)]
            n_tokens = int(rng.integers(config.tokens_per_step_min,
                                        config.tokens_per_step_max + 1))
            n_tokens = max(n_tokens, per_step)
            tokens = [
                f"w{int(rng.integers(config.token_vocab_size))}"
                for _ in range(n_tokens)
            ]
            ent_positions = rng.choice(n_tokens, size=per_step, replace=False)
            phrases = []
            for e, pos in zip(ents, sorted(int(p) for p in ent_positions)):
                tokens[pos] = f"ent{e}"
                phrases.append(NounPhrase(span=(pos, pos + 1), entity_id=f"e{e}"))
            images = []
            for _ in range(config.images_per_step):
                image_id = f"{doc_id}-img{next(img_counter):03d}"
                n_obj = int(rng.integers(config.objects_per_image_min,
                                         config.objects_per_image_max + 1))
                depicted = ents[:n_obj] if n_obj <= len(ents) else ents
                objects = []
                boxes_by_entity = {}
                for slot, e in enumerate(depicted):
                    feat = latents[e] + rng.normal(
                        0.0, config.feature_noise_sigma, size=config.d_v)
                    box = (_grid_box(slot) if config.box_grid
                           else _random_box(rng))
                    boxes_by_entity[e] = box
                    objects.append(ObjectFeature(
                        feature=feat, box=box,
                        confidence=float(rng.uniform(0.5, 1.0)),
                    ))
                while len(objects) < n_obj:
                    # background object: fresh random feature far from latents
                    feat = rng.normal(0.0, config.entity_scale, size=config.d_v)
                    box = (_grid_box(len(objects)) if config.box_grid
                           else _random_box(rng))
                    objects.append(ObjectFeature(
                        feature=feat, box=box,
                        confidence=float(rng.uniform(0.5, 1.0)),
                    ))
                for phrase, e in zip(phrases, ents):
                    if e in boxes_by_entity:
                        phrase.grounding_boxes[image_id] = _jitter_box(
                            boxes_by_entity[e], config.grounding_jitter, rng)
                images.append(StepImage(image_id=image_id, objects=objects))
            steps.append(Step(index=t, tokens=tokens,
                              noun_phrases=phrases, images=images))
        documents.append(PmdDocument(doc_id=doc_id, domain_tag=domain_tag, steps=steps))
    corpus = Corpus(d_v=config.d_v, documents=documents)
    validate_corpus(corpus)
    return corpus


def build_vocab(corpus: Corpus) -> dict[str, int]:
    """Deterministic token -> id map; id 0 is reserved for unknown tokens."""
    tokens = sorted({tok for doc in corpus.documents
                     for step in doc.steps for tok in step.tokens})
    vocab = {"<unk>": 0}
    for tok in tokens:
        vocab[tok] = len(vocab)
    return vocab


# ----------------------------------------------------------------------
# pooling and distractor sampling


def mean_pool_image(image: StepImage) -> np.ndarray:
    if not image.objects:
        raise CorpusError(f"image {image.image_id}: cannot pool empty object list")
    return np.mean([obj.feature for obj in image.objects], axis=0)


def sample_distractors(gold_image: StepImage, pool: list[StepImage], n: int) -> list[StepImage]:
    """The n pool images nearest (Euclidean, on mean-pooled features) to the
    gold image; ties broken by (distance, image_id)."""
    if any(img.image_id == gold_image.image_id for img in pool):
        raise CorpusError("distractor pool must exclude the gold image")
    if len(pool) < n:
        raise CorpusError(f"distractor pool of {len(pool)} smaller than n={n}")
    gold_feat = mean_pool_image(gold_image)
    ranked = sorted(
        pool,
        key=lambda img: (float(np.linalg.norm(mean_pool_image(img) - gold_feat)),
                         img.image_id),
    )
    return ranked[:n]


# ----------------------------------------------------------------------
# task-instance construction

CLOZE_LENGTH = 4


def _step_first_images(doc: PmdDocument) -> list[StepImage]:
    return [step.images[0] for step in doc.steps if step.images]


def _place_gold(gold_seq, distractor_seqs, rng) -> tuple[list[list[str]], int]:
    candidates = list(distractor_seqs)
    gold_index = int(rng.integers(len(candidates) + 1))
    candidates.insert(gold_index, gold_seq)
    return candidates, gold_index


def build_task_instances(
    doc: PmdDocument, kind: str, n_candidates: int, rng: np.random.Generator
) -> list[TaskInstance]:
    """Build multiple-choice instances for one document.

    cloze: for each blank position in the document's first 4-step image
    window, candidates fill the blank (gold image plus nearest-neighbor
    distractors). coherence: one instance; distractor sequences replace one
    position with a nearest neighbor. ordering: one instance; candidates
    are distinct permutations of the window, gold is the identity order.
    """
    if n_candidates < 2:
        raise CorpusError("need at least 2 candidates")
    firsts = _step_first_images(doc)
    steps_with_images = [s.index for s in doc.steps if s.images]
    all_images = doc.all_images()
    instances: list[TaskInstance] = []

    if kind in ("cloze", "coherence"):
        if len(firsts) < CLOZE_LENGTH:
            raise CorpusError(
                f"doc {doc.doc_id}: {kind} needs >= {CLOZE_LENGTH} step images"
            )
        window = firsts[:CLOZE_LENGTH]
        # the question context is the step window itself; images outside it
        # (later steps, extra per-step shots) feed the distractor pool
        context = steps_with_images[:CLOZE_LENGTH]
        window_ids = {img.image_id for img in window}
        pool = [img for img in all_images if img.image_id not in window_ids]
        if kind == "cloze":
            for blank in range(CLOZE_LENGTH):
                gold_img = window[blank]
                distractors = sample_distractors(gold_img, pool, n_candidates - 1)
                gold_seq = [img.image_id for img in window]
                d_seqs = []
                for d in distractors:
                    seq = list(gold_seq)
                    seq[blank] = d.image_id
                    d_seqs.append(seq)
                candidates, gold_index = _place_gold(gold_seq, d_seqs, rng)
                instances.append(TaskInstance(
                    task_kind="cloze", doc_id=doc.doc_id, context_steps=context,
                    candidates=candidates, gold_index=gold_index,
                ))
        else:
            gold_seq = [img.image_id for img in window]
            d_seqs: list[list[str]] = []
            used: set[tuple] = {tuple(gold_seq)}
            attempt = 0
            while len(d_seqs) < n_candidates - 1:
                pos = attempt % CLOZE_LENGTH
                rank = attempt // CLOZE_LENGTH
                if rank >= len(pool):
                    raise CorpusError(
                        f"doc {doc.doc_id}: cannot build {n_candidates} distinct "
                        "coherence candidates"
                    )
                near = sample_distractors(window[pos], pool, min(rank + 1, len(pool)))
                seq = list(gold_seq)
                seq[pos] = near[rank].image_id
                if tuple(seq) not in used:
                    used.add(tuple(seq))
                    d_seqs.append(seq)
                attempt += 1
            candidates, gold_index = _place_gold(gold_seq, d_seqs, rng)
            instances.append(TaskInstance(
                task_kind="coherence", doc_id=doc.doc_id, context_steps=context,
                candidates=candidates, gold_index=gold_index,
            ))
    elif kind == "ordering":
        n_a = min(CLOZE_LENGTH, len(firsts))
        if n_a < 2:
            raise CorpusError(f"doc {doc.doc_id}: ordering needs >= 2 step images")
        window = firsts[:n_a]
        context = steps_with_images[:n_a]
        n_perms = math.factorial(n_a) - 1
        if n_candidates - 1 > n_perms:
            raise CorpusError(
                f"doc {doc.doc_id}: only {n_perms} distinct non-identity "
                f"permutations of {n_a} images, cannot build {n_candidates} candidates"
            )
        gold_seq = [img.image_id for img in window]
        chosen: set[tuple[int, ...]] = set()
        while len(chosen) < n_candidates - 1:
            perm = tuple(rng.permutation(n_a).tolist())
            if perm == tuple(range(n_a)) or perm in chosen:
                continue
            chosen.add(perm)
        d_seqs = [[gold_seq[i] for i in perm] for perm in sorted(chosen)]
        candidates, gold_index = _place_gold(gold_seq, d_seqs, rng)
        instances.append(TaskInstance(
            task_kind="ordering", doc_id=doc.doc_id, context_steps=context,
            candidates=candidates, gold_index=gold_index,
        ))
    else:
        raise CorpusError(f"unknown task kind: {kind}")
    return instances
