"""Heterogeneous temporal-modal entity graph construction.

For one (context steps, candidate image sequence) pairing we build a node
list and label every node pair with a temporal code `phi_t` and a modal
code `phi_m`, each from a small edge-code vocabulary. A graph stores the
two labels once, as one symmetric N x N int8 matrix of pair codes
phi_t * C_m + phi_m (`edge_codes`), which the encoder reads as per-head
additive attention biases; `phi_t` and `phi_m` decode it.

Labeling passes run in a fixed order (intra-modal, temporal node-based,
inter-modal node-based, then the edge-based derivations). Each is mask
algebra over per-node arrays: a symmetric, off-diagonal boolean N x N mask
written with first-write precedence, `phi[mask & (phi == NONE)] = code`.

A `TmegGraph` builds its `Node` list from its steps and images on first read.
`assemble_candidate_graphs` labels one context's candidates with one
`assemble_graph` call over the union of their images and takes all K of
them out of its pair codes at once, as one (K, L, L) int8 stack; the K
graphs' codes are views into it. That is exact: a pair's codes depend
only on the two nodes' own attributes, the text nodes and the groundings in
one (step, image) scope. But the copies of a repeated image are INTRA_VIS
(one `unit_id`) where the union holds one copy, so they are set after slicing.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import IntEnum
from types import SimpleNamespace

import numpy as np

from .data import BoundingBox, NounPhrase, ObjectFeature, Step, StepImage

DEFAULT_LAMBDA_T = 7.0
DEFAULT_LAMBDA_M = 0.5


class TemporalCode(IntEnum):
    NONE = 0
    TEXT_NODE = 1
    VIS_NODE = 2
    EDGE = 3


class ModalCode(IntEnum):
    NONE = 0
    INTRA_TEXT = 1
    INTRA_VIS = 2
    INTER_NODE = 3
    INTER_EDGE = 4


N_TEMPORAL_CODES = len(TemporalCode)
N_MODAL_CODES = len(ModalCode)

NODE_KINDS = ("cls", "sep", "token", "object")   # `Node.kind` by its array code
CLS, SEP, TOKEN, OBJECT = range(len(NODE_KINDS))


@dataclass
class Node:
    global_index: int
    modality: str          # "text" | "visual"
    kind: str              # "cls" | "sep" | "token" | "object"
    step_index: int        # step number for text; candidate position for visual
    unit_id: str           # instruction or image identifier
    local_index: int
    entity_id: str | None = None
    token: str | None = None
    obj: ObjectFeature | None = None
    phrase: NounPhrase | None = None


@dataclass
class TmegGraph:
    """A candidate's graph; the instances that share the candidate share it.

    `codes` holds each node pair's pair code phi_t * C_m + phi_m as one
    (N, N) int8 matrix; `phi_t` and `phi_m` decode it on each read."""
    steps: list[Step]
    images: list[StepImage]    # the candidate
    codes: np.ndarray
    arrays: SimpleNamespace = field(repr=False)    # what the model batches from

    @functools.cached_property
    def nodes(self) -> list[Node]:
        return build_nodes(self.steps, self.images)

    @property
    def n_nodes(self) -> int:
        return len(self.arrays.kind)

    @property
    def phi_t(self) -> np.ndarray:
        """The temporal codes."""
        return self.codes // N_MODAL_CODES

    @property
    def phi_m(self) -> np.ndarray:
        """The modal codes."""
        return self.codes % N_MODAL_CODES

    def validate(self):
        """Raise ValueError unless `codes` is N x N and symmetric, and both
        code kinds are NONE on the diagonal and inside their vocabularies."""
        check_code_stack(self.codes[None], [self.n_nodes], candidates=False)


def edge_codes(phi_t, phi_m) -> np.ndarray:
    """Pair codes phi_t * C_m + phi_m as int8, (NONE, NONE) at 0. A code of
    either kind outside its range would alias another pair (or wrap
    around int8): IndexError. (`autodiff.encoder_layer` range-checks the
    pair codes themselves.)"""
    phi_t, phi_m = np.asarray(phi_t), np.asarray(phi_m)
    for phi, n_codes in ((phi_t, N_TEMPORAL_CODES), (phi_m, N_MODAL_CODES)):
        if phi.size and (phi.min() < 0 or phi.max() >= n_codes):
            raise IndexError(f"edge code out of range [0, {n_codes})")
    return (phi_t.astype(np.int8) * np.int8(N_MODAL_CODES)
            + phi_m.astype(np.int8))


def check_code_stack(codes: np.ndarray, sizes: list[int], candidates: bool = True) -> None:
    """`TmegGraph.validate` at once over K candidates' (K, L, L) pair-code
    stack, L = max(sizes). The error names the first bad candidate (unless
    `candidates=False`) and the failing kind, decoded from its codes."""
    shape = (len(sizes),) + (max(sizes, default=0),) * 2
    if codes.shape != shape:
        raise ValueError(f"codes has shape {codes.shape}, expected {shape}")
    bad = ((codes != codes.transpose(0, 2, 1)) | (codes < 0)
           | (codes >= N_TEMPORAL_CODES * N_MODAL_CODES)).any(axis=(1, 2))
    bad |= np.diagonal(codes, axis1=1, axis2=2).any(axis=1)
    for k in np.flatnonzero(bad)[:1]:    # the first bad candidate, if any
        where = f"candidate {k}: " if candidates else ""
        for name, phi, n in (("phi_t", codes[k] // N_MODAL_CODES, N_TEMPORAL_CODES),
                             ("phi_m", codes[k] % N_MODAL_CODES, N_MODAL_CODES)):
            for fails, what in ((phi != phi.T, "not symmetric"),
                                (phi.diagonal(), "has a non-NONE diagonal entry"),
                                ((phi < 0) | (phi >= n), f"has codes outside [0, {n})")):
                if fails.any():
                    raise ValueError(f"{where}{name} {what}")


# ----------------------------------------------------------------------
# geometry


def iou(a: BoundingBox, b: BoundingBox) -> float:
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    if inter == 0.0:
        return 0.0
    union = a.area() + b.area() - inter
    return inter / union


def euclidean(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(np.linalg.norm(u - v))


# ----------------------------------------------------------------------
# node construction


def build_nodes(steps: list[Step], candidate: list[StepImage]) -> list[Node]:
    """Node order: per step [CLS, tokens..., SEP]; then per candidate image
    [CLS, objects...]. Token nodes covered by a noun-phrase span carry the
    phrase's entity_id, which must be non-empty: the labeling passes read
    an empty id as no entity."""
    if not steps:
        raise ValueError("build_nodes: steps must be non-empty")
    nodes: list[Node] = []
    for step in steps:
        t, unit = step.index, f"step{step.index}"
        if any(not phrase.entity_id for phrase in step.noun_phrases):
            raise ValueError(f"build_nodes: step {t} has an empty entity_id")
        span_map = {pos: phrase for phrase in step.noun_phrases
                    for pos in range(phrase.span[0], phrase.span[1])}
        nodes.append(Node(len(nodes), "text", "cls", t, unit, 0))
        for pos, tok in enumerate(step.tokens):
            phrase = span_map.get(pos)
            nodes.append(Node(len(nodes), "text", "token", t, unit, pos + 1,
                              entity_id=phrase.entity_id if phrase else None,
                              token=tok, phrase=phrase))
        nodes.append(Node(len(nodes), "text", "sep", t, unit, len(step.tokens) + 1))
    for pos, image in enumerate(candidate, start=1):
        nodes.append(Node(len(nodes), "visual", "cls", pos, image.image_id, 0))
        for oi, obj in enumerate(image.objects):
            nodes.append(Node(len(nodes), "visual", "object", pos, image.image_id, oi + 1, obj=obj))
    return nodes


def node_arrays(nodes: list[Node]) -> SimpleNamespace:
    """A node list as arrays. The model batches from `n_text` (text nodes
    come first); per node `kind` (a code into NODE_KINDS) and `step`; per
    text node `token` ("" at CLS and SEP); per object node `features` and
    `boxes` (x1, y1, x2, y2). Labeling also reads per node `unit`, `entity`
    (codes, -1: none), `text`, `cls`; per object node `objects`, `obj_unit`;
    per phrase token `grounders`, and per (such token, object) the phrase's
    box for the object's image, `grounding`, valid where `has_grounding`."""
    modality = [n.modality for n in nodes]
    n_text = modality.count("text")
    if modality != ["text"] * n_text + ["visual"] * (len(nodes) - n_text):
        raise ValueError("expected contiguous text-then-visual node layout")
    units, entities = {}, {}
    unit = np.array([units.setdefault(n.unit_id, len(units)) for n in nodes], dtype=np.int64)
    kind = np.array([NODE_KINDS.index(n.kind) for n in nodes], dtype=np.int8)
    objs = [n.obj for n in nodes if n.kind == "object"]
    grounders = [n for n in nodes if n.phrase is not None]
    objects = np.flatnonzero(kind == OBJECT)
    boxes = np.zeros((len(grounders), len(units), 4))
    has_box = np.zeros((len(grounders), len(units)), dtype=bool)
    for k, n in enumerate(grounders):
        for image_id, box in n.phrase.grounding_boxes.items():
            if image_id in units:
                boxes[k, units[image_id]] = box.as_list()
                has_box[k, units[image_id]] = True
    return SimpleNamespace(
        n_text=n_text,
        kind=kind,
        token=np.array([n.token or "" for n in nodes[:n_text]], dtype=str),
        unit=unit,
        step=np.array([n.step_index for n in nodes], dtype=np.int64),
        entity=np.array([entities.setdefault(n.entity_id, len(entities))
                         if n.entity_id else -1 for n in nodes], dtype=np.int64),
        text=np.arange(len(nodes)) < n_text,
        cls=kind == CLS,
        objects=objects,
        obj_unit=unit[objects],
        features=np.array([o.feature for o in objs] or np.zeros((0, 0)), dtype=np.float64),
        boxes=np.array([o.box.as_list() for o in objs], dtype=np.float64).reshape(-1, 4),
        grounders=np.array([n.global_index for n in grounders], dtype=np.int64),
        grounding=boxes[:, unit[objects]],
        has_grounding=has_box[:, unit[objects]],
    )


# ----------------------------------------------------------------------
# labeling passes


def _write(phi: np.ndarray, mask: np.ndarray, code):
    """First write wins: `code` lands where `mask` holds and `phi` is NONE."""
    np.copyto(phi, code, where=mask & (phi == 0))


def _embed(n: int, rows: np.ndarray, cols: np.ndarray, block: np.ndarray) -> np.ndarray:
    """N x N mask holding `block` at (rows, cols), symmetrised."""
    mask = np.zeros((n, n), dtype=bool)
    mask[np.ix_(rows, cols)] = block
    return mask | mask.T


def intra_modal_labels(arr: SimpleNamespace, phi_m: np.ndarray):
    """Same unit, or same modality with either node a CLS. Text nodes come
    first, so a pair with a text node is INTRA_TEXT."""
    text, cls = arr.text, arr.cls
    mask = (arr.unit[:, None] == arr.unit) | ((text[:, None] == text) & (cls[:, None] | cls))
    np.fill_diagonal(mask, False)
    _write(phi_m, mask, np.where(text[:, None] | text,
                                 ModalCode.INTRA_TEXT, ModalCode.INTRA_VIS))


def temporal_text_labels(arr: SimpleNamespace, phi_t: np.ndarray):
    """Tokens of the same entity in different steps."""
    ent = arr.entity
    mask = (ent[:, None] == ent) & (ent >= 0) & (arr.step[:, None] != arr.step)
    _write(phi_t, mask, TemporalCode.TEXT_NODE)


def temporal_visual_labels(arr: SimpleNamespace, phi_t: np.ndarray, lambda_t: float):
    """Objects of different images whose features lie closer than lambda_t.
    numpy's sum may round differently from `euclidean`'s dot product, so
    pairs within 1e-9 relative of lambda_t are re-measured with `euclidean`:
    every decision is `euclidean(u, v) < lambda_t`."""
    if lambda_t <= 0:
        raise ValueError("lambda_t must be > 0")
    f = arr.features
    dist = np.sqrt(np.square(f[:, None, :] - f[None, :, :]).sum(axis=-1))
    for i, j in np.argwhere(np.abs(dist - lambda_t) <= 1e-9 * lambda_t):
        dist[i, j] = euclidean(f[i], f[j])
    near = (dist < lambda_t) & (arr.obj_unit[:, None] != arr.obj_unit)
    _write(phi_t, _embed(len(phi_t), arr.objects, arr.objects, near),
           TemporalCode.VIS_NODE)


def inter_modal_labels(arr: SimpleNamespace, phi_m: np.ndarray, lambda_m: float):
    """A token and an object whose IoU, between the token phrase's grounding
    box for the object's image and the object's box, exceeds lambda_m.
    The IoU repeats `iou`'s float operations elementwise."""
    gx1, gy1, gx2, gy2 = np.moveaxis(arr.grounding, -1, 0)
    bx1, by1, bx2, by2 = arr.boxes.T
    ix = np.maximum(0.0, np.minimum(gx2, bx2) - np.maximum(gx1, bx1))
    iy = np.maximum(0.0, np.minimum(gy2, by2) - np.maximum(gy1, by1))
    inter = ix * iy
    union = (gx2 - gx1) * (gy2 - gy1) + (bx2 - bx1) * (by2 - by1) - inter
    overlap = np.divide(inter, union, out=np.zeros_like(inter), where=inter > 0)
    linked = arr.has_grounding & (overlap > lambda_m)
    _write(phi_m, _embed(len(phi_m), arr.grounders, arr.objects, linked),
           ModalCode.INTER_NODE)


def derive_edge_based_labels(arr: SimpleNamespace, phi_t: np.ndarray, phi_m: np.ndarray):
    """Edge-based relations over entity pairs; node-based labels keep precedence.

    Temporal: for entities a != b each mentioned in two steps t != t', the
    cross pairs (a tokens @ t, b tokens @ t') and (b @ t, a @ t') get EDGE.
    Inter-modal: for entities a != b in one step both node-linked to objects
    of the same image, the cross pairs (a tokens, b's objects) and
    (b tokens, a's objects) get INTER_EDGE. Both are boolean matrix products
    over entity tokens; an object linked to two entities is "b's" for each.
    """
    n, tok = len(phi_t), np.flatnonzero(arr.entity >= 0)
    step, ent = arr.step[tok], arr.entity[tok]
    same_step = step[:, None] == step
    same_ent = ent[:, None] == ent
    mentioned = same_step @ same_ent        # [i, j]: j's entity occurs in i's step
    _write(phi_t, _embed(n, tok, tok, mentioned & mentioned.T & ~same_step & ~same_ent),
           TemporalCode.EDGE)

    # inter-modal edge-based, recovered from node-based links in phi_m
    linked = phi_m[np.ix_(tok, arr.objects)] == ModalCode.INTER_NODE
    same_image = arr.obj_unit[:, None] == arr.obj_unit
    own = (same_step & same_ent) @ linked @ same_image   # own entity links o's image
    other = (same_step & ~same_ent) @ linked             # another entity links o
    _write(phi_m, _embed(n, tok, arr.objects, own & other), ModalCode.INTER_EDGE)


# ----------------------------------------------------------------------
# assembly


def assemble_graph(steps: list[Step], candidate: list[StepImage],
                   lambda_t: float = DEFAULT_LAMBDA_T,
                   lambda_m: float = DEFAULT_LAMBDA_M) -> TmegGraph:
    nodes = build_nodes(steps, candidate)
    arr = node_arrays(nodes)
    phi_t = np.zeros((len(nodes), len(nodes)), dtype=np.int8)
    phi_m = np.zeros_like(phi_t)
    intra_modal_labels(arr, phi_m)
    temporal_text_labels(arr, phi_t)
    temporal_visual_labels(arr, phi_t, lambda_t)
    inter_modal_labels(arr, phi_m, lambda_m)
    derive_edge_based_labels(arr, phi_t, phi_m)
    graph = TmegGraph(steps, candidate, edge_codes(phi_t, phi_m), arr)
    graph.validate()
    return graph


def assemble_candidate_graphs(steps: list[Step], candidates: list[list[StepImage]],
                              lambda_t: float = DEFAULT_LAMBDA_T,
                              lambda_m: float = DEFAULT_LAMBDA_M) -> list[TmegGraph]:
    """One graph per candidate, equal to `assemble_graph(steps, candidate,
    ...)`, sliced out of one `assemble_graph` call over the union of the
    candidates' images (see the module docstring)."""
    union: dict[str, StepImage] = {}
    for image in itertools.chain.from_iterable(candidates):
        if union.setdefault(image.image_id, image) is not image:
            raise ValueError(f"two different images share the id {image.image_id!r}")
    whole = assemble_graph(steps, list(union.values()), lambda_t, lambda_m)
    arr, n, n_text = whole.arrays, whole.n_nodes, whole.arrays.n_text
    # every candidate image in order: its union slot, position, CLS row and node count
    slot = {image_id: u for u, image_id in enumerate(union)}
    image = np.array([slot[im.image_id] for cand in candidates for im in cand], dtype=np.int64)
    pos = np.array([p for cand in candidates for p in range(1, len(cand) + 1)], dtype=np.int64)
    size = np.array([1 + len(im.objects) for im in union.values()], dtype=np.int64)
    first, size = (n_text + np.cumsum(size) - size)[image], size[image]
    # their nodes' union rows, filled row-major into a (K, L) index padded with NONE row n
    rows = np.arange(size.sum()) + np.repeat(first - np.cumsum(size) + size, size)
    sizes = [n_text + sum(1 + len(im.objects) for im in cand) for cand in candidates]
    idx = np.full((len(candidates), max(sizes)), n)
    idx[:, :n_text] = np.arange(n_text)
    fill = np.arange(idx.shape[1] - n_text) < np.array(sizes)[:, None] - n_text
    idx[:, n_text:][fill] = rows
    step = arr.step.take(idx, mode="clip")        # a visual node's step: its image's position
    step[:, n_text:][fill] = np.repeat(pos, size)
    padded = np.zeros((n + 1, n + 1), dtype=np.int8)
    padded[:n, :n] = whole.codes
    codes = padded.ravel()[idx[:, :, None] * (n + 1) + idx[:, None, :]]
    owner = np.repeat(np.arange(len(candidates)), [len(cand) for cand in candidates])
    if np.unique(owner * n + image).size < image.size:    # a candidate repeats an image
        vis = idx[:, n_text:]
        repeat = (vis[:, :, None] == vis[:, None, :]) & (vis < n)[:, :, None]
        repeat &= ~np.eye(vis.shape[1], dtype=bool)
        codes[:, n_text:, n_text:][repeat] = ModalCode.INTRA_VIS   # phi_t is NONE in one image
    check_code_stack(codes, sizes)
    objects = np.searchsorted(arr.objects, rows[arr.kind[rows] == OBJECT])   # feature rows
    features, boxes, kind = arr.features[objects], arr.boxes[objects], arr.kind.take(idx, mode="clip")
    ends = list(itertools.accumulate(m - n_text - len(c) for m, c in zip(sizes, candidates)))
    return [TmegGraph(steps, cand, codes[c, :m, :m], SimpleNamespace(
                n_text=n_text, kind=kind[c, :m], token=arr.token, step=step[c, :m],
                features=features[start:end], boxes=boxes[start:end]))
            for c, (cand, m, start, end) in enumerate(zip(candidates, sizes, [0] + ends, ends))]


# ----------------------------------------------------------------------
# debug dump


def _rle(matrix: np.ndarray) -> list[list[int]]:
    return [[v, len(list(run))] for v, run in itertools.groupby(matrix.reshape(-1).tolist())]


def dump_graph(graph: TmegGraph, candidate_index: int = -1) -> dict:
    """JSON-ready dump: node table plus run-length-encoded code matrices."""
    return {
        "n_nodes": graph.n_nodes,
        "candidate_index": candidate_index,
        "nodes": [{f: getattr(n, f) for f in (
            "global_index", "modality", "kind", "step_index", "unit_id",
            "local_index", "entity_id", "token")} for n in graph.nodes],
        "phi_t_rle": _rle(graph.phi_t),
        "phi_m_rle": _rle(graph.phi_m),
    }
