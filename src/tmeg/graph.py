"""Heterogeneous temporal-modal entity graph construction.

For one (context steps, candidate image sequence) pairing we build a node
list followed by two symmetric N x N label matrices over small edge-code
vocabularies: `phi_t` for temporal codes and `phi_m` for modal codes. The
matrices are later consumed as additive attention biases.

Labeling passes run in a fixed order (intra-modal, temporal node-based,
inter-modal node-based, then the edge-based derivations) and never
overwrite an existing non-NONE label.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

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
    nodes: list[Node]
    phi_t: np.ndarray
    phi_m: np.ndarray
    candidate_index: int = -1

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def cls_indices(self, modality: str) -> list[int]:
        return [n.global_index for n in self.nodes
                if n.kind == "cls" and n.modality == modality]

    def validate(self):
        """Raise ValueError unless both code matrices are N x N, symmetric,
        NONE on the diagonal and inside their code vocabularies."""
        n = self.n_nodes
        for name, phi, n_codes in (("phi_t", self.phi_t, N_TEMPORAL_CODES),
                                   ("phi_m", self.phi_m, N_MODAL_CODES)):
            if phi.shape != (n, n):
                raise ValueError(f"{name} has shape {phi.shape}, expected {(n, n)}")
            if not (phi == phi.T).all():
                raise ValueError(f"{name} not symmetric")
            if (np.diag(phi) != 0).any():
                raise ValueError(f"{name} has a non-NONE diagonal entry")
            if phi.size and (phi.min() < 0 or phi.max() >= n_codes):
                raise ValueError(f"{name} has codes outside [0, {n_codes})")


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
    phrase's entity_id."""
    if not steps:
        raise ValueError("build_nodes: steps must be non-empty")
    nodes: list[Node] = []

    def add(**kw) -> Node:
        node = Node(global_index=len(nodes), **kw)
        nodes.append(node)
        return node

    for step in steps:
        unit = f"step{step.index}"
        add(modality="text", kind="cls", step_index=step.index,
            unit_id=unit, local_index=0)
        span_map: dict[int, NounPhrase] = {}
        for phrase in step.noun_phrases:
            for pos in range(phrase.span[0], phrase.span[1]):
                span_map[pos] = phrase
        for pos, tok in enumerate(step.tokens):
            phrase = span_map.get(pos)
            add(modality="text", kind="token", step_index=step.index,
                unit_id=unit, local_index=pos + 1, token=tok,
                entity_id=phrase.entity_id if phrase else None,
                phrase=phrase)
        add(modality="text", kind="sep", step_index=step.index,
            unit_id=unit, local_index=len(step.tokens) + 1)

    for pos, image in enumerate(candidate, start=1):
        add(modality="visual", kind="cls", step_index=pos,
            unit_id=image.image_id, local_index=0)
        for oi, obj in enumerate(image.objects):
            add(modality="visual", kind="object", step_index=pos,
                unit_id=image.image_id, local_index=oi + 1, obj=obj)
    return nodes


# ----------------------------------------------------------------------
# labeling passes


def _set(phi: np.ndarray, i: int, j: int, code: int):
    """Symmetric write; existing non-NONE labels take precedence."""
    if i == j:
        return
    if phi[i, j] == 0:
        phi[i, j] = code
        phi[j, i] = code


def intra_modal_labels(nodes: list[Node], phi_m: np.ndarray):
    by_unit: dict[str, list[Node]] = {}
    for n in nodes:
        by_unit.setdefault(n.unit_id, []).append(n)
    for unit_nodes in by_unit.values():
        code = (ModalCode.INTRA_TEXT if unit_nodes[0].modality == "text"
                else ModalCode.INTRA_VIS)
        for a in unit_nodes:
            for b in unit_nodes:
                if a.global_index < b.global_index:
                    _set(phi_m, a.global_index, b.global_index, code)
    # graph-level aggregation: each CLS connects to every node of its modality
    for cls in nodes:
        if cls.kind != "cls":
            continue
        code = (ModalCode.INTRA_TEXT if cls.modality == "text"
                else ModalCode.INTRA_VIS)
        for other in nodes:
            if other.modality == cls.modality and other is not cls:
                _set(phi_m, cls.global_index, other.global_index, code)


def temporal_text_labels(nodes: list[Node], phi_t: np.ndarray):
    tokens = [n for n in nodes if n.kind == "token" and n.entity_id]
    for a in tokens:
        for b in tokens:
            if (a.global_index < b.global_index
                    and a.step_index != b.step_index
                    and a.entity_id == b.entity_id):
                _set(phi_t, a.global_index, b.global_index, TemporalCode.TEXT_NODE)


def temporal_visual_labels(nodes: list[Node], phi_t: np.ndarray, lambda_t: float):
    if lambda_t <= 0:
        raise ValueError("lambda_t must be > 0")
    objs = [n for n in nodes if n.kind == "object"]
    for a in objs:
        for b in objs:
            if a.global_index < b.global_index and a.unit_id != b.unit_id:
                if euclidean(a.obj.feature, b.obj.feature) < lambda_t:
                    _set(phi_t, a.global_index, b.global_index, TemporalCode.VIS_NODE)


def inter_modal_labels(nodes: list[Node], phi_m: np.ndarray, lambda_m: float):
    objs_by_image: dict[str, list[Node]] = {}
    for n in nodes:
        if n.kind == "object":
            objs_by_image.setdefault(n.unit_id, []).append(n)
    for tnode in nodes:
        if tnode.kind != "token" or tnode.phrase is None:
            continue
        for image_id, gbox in tnode.phrase.grounding_boxes.items():
            for onode in objs_by_image.get(image_id, []):
                if iou(gbox, onode.obj.box) > lambda_m:
                    _set(phi_m, tnode.global_index, onode.global_index,
                         ModalCode.INTER_NODE)


def derive_edge_based_labels(nodes: list[Node], phi_t: np.ndarray, phi_m: np.ndarray):
    """Edge-based relations over entity pairs; node-based labels keep precedence.

    Temporal: for entities a != b each mentioned in two steps t != t', the
    cross pairs (a tokens @ t, b tokens @ t') and (b @ t, a @ t') get EDGE.
    Inter-modal: for entities a != b in one step both node-linked to objects
    of the same image, the cross pairs (a tokens, b's objects) and
    (b tokens, a's objects) get INTER_EDGE.
    """
    # tokens grouped by (step, entity)
    by_step_entity: dict[tuple[int, str], list[Node]] = {}
    for n in nodes:
        if n.kind == "token" and n.entity_id:
            by_step_entity.setdefault((n.step_index, n.entity_id), []).append(n)
    steps_of_entity: dict[str, set[int]] = {}
    for (t, e) in by_step_entity:
        steps_of_entity.setdefault(e, set()).add(t)

    entities = sorted(steps_of_entity)
    for ai, a in enumerate(entities):
        for b in entities[ai + 1:]:
            shared = steps_of_entity[a] & steps_of_entity[b]
            for t in sorted(shared):
                for t2 in sorted(shared):
                    if t == t2:
                        continue
                    for na in by_step_entity[(t, a)]:
                        for nb in by_step_entity[(t2, b)]:
                            _set(phi_t, na.global_index, nb.global_index,
                                 TemporalCode.EDGE)

    # inter-modal edge-based, recovered from node-based links in phi_m
    links: dict[tuple[int, str, str], set[int]] = {}
    node_by_idx = nodes
    for tnode in nodes:
        if tnode.kind != "token" or not tnode.entity_id:
            continue
        for j in np.nonzero(phi_m[tnode.global_index] == ModalCode.INTER_NODE)[0]:
            onode = node_by_idx[int(j)]
            if onode.kind == "object":
                key = (tnode.step_index, onode.unit_id, tnode.entity_id)
                links.setdefault(key, set()).add(onode.global_index)
    by_scope: dict[tuple[int, str], list[tuple[str, set[int]]]] = {}
    for (t, image_id, ent), objset in links.items():
        by_scope.setdefault((t, image_id), []).append((ent, objset))
    for (t, image_id), ent_links in by_scope.items():
        ent_links.sort()
        for ai in range(len(ent_links)):
            for bi in range(ai + 1, len(ent_links)):
                ent_a, objs_a = ent_links[ai]
                ent_b, objs_b = ent_links[bi]
                for tok in by_step_entity.get((t, ent_a), []):
                    for oj in objs_b:
                        _set(phi_m, tok.global_index, oj, ModalCode.INTER_EDGE)
                for tok in by_step_entity.get((t, ent_b), []):
                    for oj in objs_a:
                        _set(phi_m, tok.global_index, oj, ModalCode.INTER_EDGE)


# ----------------------------------------------------------------------
# assembly


def assemble_graph(
    steps: list[Step],
    candidate: list[StepImage],
    lambda_t: float = DEFAULT_LAMBDA_T,
    lambda_m: float = DEFAULT_LAMBDA_M,
    candidate_index: int = -1,
) -> TmegGraph:
    nodes = build_nodes(steps, candidate)
    n = len(nodes)
    phi_t = np.zeros((n, n), dtype=np.int8)
    phi_m = np.zeros((n, n), dtype=np.int8)
    intra_modal_labels(nodes, phi_m)
    temporal_text_labels(nodes, phi_t)
    temporal_visual_labels(nodes, phi_t, lambda_t)
    inter_modal_labels(nodes, phi_m, lambda_m)
    derive_edge_based_labels(nodes, phi_t, phi_m)
    graph = TmegGraph(nodes=nodes, phi_t=phi_t, phi_m=phi_m,
                      candidate_index=candidate_index)
    graph.validate()
    return graph


# ----------------------------------------------------------------------
# debug dump


def _rle(matrix: np.ndarray) -> list[list[int]]:
    flat = matrix.reshape(-1)
    runs: list[list[int]] = []
    for v in flat:
        v = int(v)
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return runs


def dump_graph(graph: TmegGraph) -> dict:
    """JSON-ready dump: node table plus run-length-encoded code matrices."""
    return {
        "n_nodes": graph.n_nodes,
        "candidate_index": graph.candidate_index,
        "nodes": [
            {
                "global_index": n.global_index,
                "modality": n.modality,
                "kind": n.kind,
                "step_index": n.step_index,
                "unit_id": n.unit_id,
                "local_index": n.local_index,
                "entity_id": n.entity_id,
                "token": n.token,
            }
            for n in graph.nodes
        ],
        "phi_t_rle": _rle(graph.phi_t),
        "phi_m_rle": _rle(graph.phi_m),
    }
