"""Graph-biased multi-head attention encoder and reasoning head.

The encoder sums content/position/segment embeddings per node, projects
each modality through a Tanh MLP, then applies stacked fusion layers whose
attention logits carry learnable per-layer, per-head scalar biases indexed
by the temporal and modal edge-code matrices. The reasoning head extracts
per-unit CLS rows, applies an InfoNCE-style coherence loss between aligned
text/image representations, and ranks candidates with a small plain
transformer scorer.

Graphs of any shapes run as one batch: `prepare_batch` gathers the node
arrays each graph got at assembly and pads them to a shared
[text block | visual block] layout, with no loop over nodes. Padded rows
are masked out of attention as keys, so each graph's scores match scoring
it alone. All heads of a layer run as one (B, H, N, d_head) computation
(`autodiff.encoder_layer`). A fusion layer reads each head's edge bias
inside the layer, from the bias tables at each node pair's (temporal,
modal) pair code; no dense (B, H, N, N) bias tensor exists. There is no
ablation mode: an ablated graph has its codes cleared to NONE, which
reads a bias of exactly 0 and passes the tables no gradient.

Each stage of a training step is one tape node with a hand-written
backward (see `autodiff`): the embeddings, the modality MLPs, each
transformer layer, the scorer input, the readout and each loss.

Each stack's last layer computes only the rows that are read next: the
last fusion layer only the text and visual CLS rows, which are all the
reasoning head reads, and the last scorer layer only the leading CLS row
its readout reads. Keys and values in those layers still span every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .autodiff import (
    Tensor, add_scaled, cross_entropy, encoder_layer, info_nce, mlp_readout,
    node_embedding, pair_sequence, split_tanh_mlps,
)
from .graph import CLS, N_MODAL_CODES, N_TEMPORAL_CODES, OBJECT, SEP, TmegGraph
from .optim import ParamStore, config_hash

# the embedding parameters, in the order `node_embedding` takes them
_EMBEDDING_PARAMS = ("token_content", "text_position", "segment", "vis_proj_w",
                     "vis_proj_b", "box_proj_w", "box_proj_b", "vis_cls")

# a transformer layer's parameters, in the order `encoder_layer` takes them
_LAYER_PARAMS = ("wq", "bq", "wk", "wv", "bv", "wo", "bo", "ln1_g", "ln1_b",
                 "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2", "ln2_g", "ln2_b")


@dataclass
class ModelConfig:
    d_model: int = 128
    n_heads: int = 8
    n_layers: int = 4
    ffn_multiplier: int = 4
    scorer_layers: int = 2
    scorer_d: int | None = None  # None -> d_model; the paper's scorer is 512 wide
    scorer_heads: int = 8
    tau: float = 0.07
    k_negatives: int = 8
    lambda_b: float = 0.1
    token_vocab_size: int = 64
    d_v: int = 8
    max_steps: int = 16
    max_positions: int = 256
    # Weight/embedding init scale. Candidate graphs differ in few nodes, so
    # a very small scale leaves candidate scores nearly indistinguishable
    # and the ranking loss on a plateau.
    init_scale: float = 0.02
    # Init scale for the edge-code bias tables only. These scalars are added
    # directly to attention logits, so an O(1) start makes graph structure
    # visible to the forward pass from the first step; tiny inits leave the
    # edge codes drowned out by content logits for many epochs.
    edge_bias_init_scale: float = 1.0
    # Inclusive InfoNCE denominator (positive + negatives). The literal
    # negatives-only variant is available for comparison.
    coherence_inclusive: bool = True

    def __post_init__(self):
        for name in ("d_model", "ffn_multiplier", "scorer_d", "k_negatives",
                     "token_vocab_size", "d_v", "max_steps", "max_positions"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.n_heads < 1 or self.scorer_heads < 1:
            raise ValueError("n_heads and scorer_heads must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.n_layers < 1 or self.scorer_layers < 1:
            raise ValueError("n_layers and scorer_layers must be >= 1")
        sd = self.scorer_d if self.scorer_d is not None else self.d_model
        if sd % self.scorer_heads != 0:
            raise ValueError("scorer_d must be divisible by scorer_heads")
        # written so that NaN fails them too
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be > 0 and finite")
        for name in ("lambda_b", "init_scale", "edge_bias_init_scale"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite")

    @property
    def scorer_dim(self) -> int:
        return self.scorer_d if self.scorer_d is not None else self.d_model

    def to_dict(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        return config_hash(self.to_dict())


# ----------------------------------------------------------------------
# parameters


def param_spec(config: ModelConfig) -> list[tuple[str, str, tuple]]:
    """(name, init kind, shape) of every parameter, in creation order.

    Kinds: "w" Normal(0, init_scale), "edge" Normal(0, edge_bias_init_scale),
    "zero" and "one" constants. Checkpoints are checked against this list.
    """
    d = config.d_model
    sd = config.scorer_dim
    spec = []

    def add(kind, name, *shape):
        spec.append((name, kind, shape))

    # embeddings: two extra content rows for the text CLS / SEP specials
    add("w", "emb/token_content", config.token_vocab_size + 2, d)
    add("w", "emb/text_position", config.max_positions, d)
    add("w", "emb/segment", config.max_steps + 1, d)
    add("w", "emb/vis_proj_w", config.d_v, d)
    add("zero", "emb/vis_proj_b", d)
    add("w", "emb/box_proj_w", 6, d)
    add("zero", "emb/box_proj_b", d)
    add("w", "emb/vis_cls", d)

    for mod in ("mlp_text", "mlp_vis"):
        add("w", f"{mod}/w1", d, d)
        add("zero", f"{mod}/b1", d)
        add("w", f"{mod}/w2", d, d)
        add("zero", f"{mod}/b2", d)

    # random (not zero) start: with zero tables the edge codes are invisible
    # to the forward pass and their gradient is dwarfed by content gradients
    add("edge", "bias_t", config.n_layers, config.n_heads, N_TEMPORAL_CODES)
    add("edge", "bias_m", config.n_layers, config.n_heads, N_MODAL_CODES)

    def transformer_layer(prefix, dim, mult):
        add("w", f"{prefix}/wq", dim, dim)
        add("zero", f"{prefix}/bq", dim)
        add("w", f"{prefix}/wk", dim, dim)
        add("w", f"{prefix}/wv", dim, dim)
        add("zero", f"{prefix}/bv", dim)
        add("w", f"{prefix}/wo", dim, dim)
        add("zero", f"{prefix}/bo", dim)
        add("one", f"{prefix}/ln1_g", dim)
        add("zero", f"{prefix}/ln1_b", dim)
        add("w", f"{prefix}/ffn_w1", dim, mult * dim)
        add("zero", f"{prefix}/ffn_b1", mult * dim)
        add("w", f"{prefix}/ffn_w2", mult * dim, dim)
        add("zero", f"{prefix}/ffn_b2", dim)
        add("one", f"{prefix}/ln2_g", dim)
        add("zero", f"{prefix}/ln2_b", dim)

    for l in range(config.n_layers):
        transformer_layer(f"enc{l}", d, config.ffn_multiplier)

    add("w", "scorer/cls", sd)
    add("w", "scorer/sep", sd)
    if sd != d:
        add("w", "scorer/in_w", d, sd)
        add("zero", "scorer/in_b", sd)
    for l in range(config.scorer_layers):
        transformer_layer(f"sc{l}", sd, config.ffn_multiplier)
    add("w", "scorer/out_w1", sd, sd)
    add("zero", "scorer/out_b1", sd)
    add("w", "scorer/out_w2", sd, 1)
    return spec


def init_params(config: ModelConfig, seed: int = 0,
                init_scale: float | None = None) -> ParamStore:
    """Normal(0, init_scale) weights, embeddings, and edge-bias scalars;
    zero additive biases; layer-norm gains at 1.

    Attention layers carry no key bias (it cancels exactly under the
    per-column softmax) and the scorer head has no final bias (a shared
    score shift cancels in the candidate cross-entropy).
    """
    if init_scale is None:
        init_scale = config.init_scale
    rng = np.random.default_rng(seed)
    values = {}
    for name, kind, shape in param_spec(config):
        if kind == "w":
            values[name] = rng.normal(0.0, init_scale, size=shape)
        elif kind == "edge":
            values[name] = rng.normal(0.0, config.edge_bias_init_scale,
                                      size=shape)
        elif kind == "zero":
            values[name] = np.zeros(shape)
        else:
            values[name] = np.ones(shape)
    return ParamStore(values)


# ----------------------------------------------------------------------
# batched graph preparation


@dataclass
class GraphBatch:
    """Graphs of any shapes, padded to one [text block | visual block] layout.

    Graph b's text nodes fill rows [0, n_text_b) and its visual nodes rows
    [n_text, n_text + n_vis_b), where n_text and n_vis are the largest
    counts in the batch. `codes` lays each graph's pair-code matrix
    (`TmegGraph.codes`) over its rows and columns. Padding rows are False
    in `node_mask`, carry the NONE pair code in `codes`, and are masked
    out as attention keys, so they never reach a real row. Graphs of one
    structure need no padding.
    `segments` holds each node's step: a text node's step number, a
    visual node's candidate position.
    """
    size: int
    n_text: int
    token_ids: np.ndarray       # (B, n_text) into the extended token table
    segments: np.ndarray        # (B, N) each node's step
    vis_features: np.ndarray    # (B, n_vis, d_v); zero rows at CLS positions
    vis_boxes: np.ndarray       # (B, n_vis, 6); zero rows at CLS positions
    vis_cls_mask: np.ndarray    # (B, n_vis) 1.0 at visual CLS rows
    node_mask: np.ndarray       # (B, N) True at real nodes
    codes: np.ndarray           # (B, N, N) int8 pair codes, see `graph.edge_codes`
    text_cls_idx: np.ndarray    # (B, N_t) rows of the text CLS nodes
    vis_cls_idx: np.ndarray     # (B, N_a) rows of the visual CLS nodes
    n_text_cls: np.ndarray      # (B,) real entries of each text_cls_idx row
    n_vis_cls: np.ndarray       # (B,) real entries of each vis_cls_idx row

    def cls_rows(self) -> np.ndarray:
        """(B, N_t + N_a) rows of each graph's text, then visual, CLS
        nodes; padded slots point at row 0."""
        return np.concatenate([self.text_cls_idx, self.vis_cls_idx], axis=1)

    def key_bias(self) -> np.ndarray | None:
        """Additive (B, 1, N, 1) logit mask for padded node keys."""
        return _key_bias(self.node_mask)

    def scorer_key_bias(self) -> np.ndarray | None:
        """The same mask over the scorer sequence
        [CLS, text CLS rows, SEP, visual CLS rows]."""
        nt = self.text_cls_idx.shape[1]
        na = self.vis_cls_idx.shape[1]
        valid = np.ones((self.size, nt + na + 2), dtype=bool)
        valid[:, 1:1 + nt] = np.arange(nt) < self.n_text_cls[:, None]
        valid[:, 2 + nt:] = np.arange(na) < self.n_vis_cls[:, None]
        return _key_bias(valid)


def _key_bias(valid: np.ndarray) -> np.ndarray | None:
    """0 at real keys and -inf at padded ones; None when nothing is padded.

    Logits are laid out [..., key, query], so the mask spans axis -2."""
    if valid.all():
        return None
    return np.where(valid, 0.0, -np.inf)[:, None, :, None]


def _scatter(mask: np.ndarray, parts: list[np.ndarray], fill=0,
             dtype=np.int64) -> np.ndarray:
    """`parts`, concatenated, laid out over the True entries of `mask`."""
    if mask.all():        # no padding, as in a batch of one graph shape
        return np.concatenate(parts).astype(dtype, copy=False).reshape(
            mask.shape + parts[0].shape[1:])
    out = np.full(mask.shape + parts[0].shape[1:], fill, dtype=dtype)
    out[mask] = np.concatenate(parts)
    return out


def _left_pack(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """`values` cut into consecutive runs of counts[b] entries, run b as
    row b, left-aligned and zero-padded to the longest run."""
    return _scatter(np.arange(counts.max()) < counts[:, None], [values])


def prepare_batch(graphs: list[TmegGraph], vocab: dict[str, int],
                  config: ModelConfig) -> GraphBatch:
    """Gathers and padding over each graph's node arrays: graph b's nodes,
    in order, fill the True entries of node_mask[b], and its (N_b, N_b)
    pair codes fill the pairs of those entries."""
    if not graphs:
        raise ValueError("empty graph batch")
    arrays = [g.arrays for g in graphs]
    counts = np.array([(a.n_text, len(a.kind) - a.n_text) for a in arrays])
    n_text, n_vis = (int(c) for c in counts.max(axis=0))
    if n_text > config.max_positions:
        raise ValueError(
            f"{n_text} text nodes exceed max_positions={config.max_positions}")
    node_mask = np.concatenate([np.arange(n_text) < counts[:, :1],
                                np.arange(n_vis) < counts[:, 1:]], axis=1)
    kind = _scatter(node_mask, [a.kind for a in arrays], fill=-1, dtype=np.int8)
    step = _scatter(node_mask, [a.step for a in arrays])
    text_kind, vis_kind = kind[:, :n_text], kind[:, n_text:]
    if step.max(initial=0) > config.max_steps:    # text and visual nodes alike
        raise ValueError("step index exceeds max_steps")

    tokens, where = np.unique(np.concatenate([a.token for a in arrays]),
                              return_inverse=True)
    rows = np.array([vocab.get(tok, 0) for tok in tokens], dtype=np.int64)
    token_ids = _scatter(node_mask[:, :n_text], [rows[where]])
    token_ids[text_kind == CLS] = config.token_vocab_size
    token_ids[text_kind == SEP] = config.token_vocab_size + 1
    features = [a.features for a in arrays if a.features.size]
    if any(f.shape[1] != config.d_v for f in features):
        raise ValueError("object feature dimension mismatch")
    boxes = np.concatenate([a.boxes for a in arrays])
    objects = vis_kind == OBJECT
    pairs = node_mask[:, :, None] & node_mask[:, None, :]
    text_cls, vis_cls = text_kind == CLS, vis_kind == CLS
    n_text_cls, n_vis_cls = text_cls.sum(axis=1), vis_cls.sum(axis=1)
    text_cls_idx = _left_pack(n_text_cls, np.nonzero(text_cls)[1])
    vis_cls_idx = _left_pack(n_vis_cls, np.nonzero(vis_cls)[1] + n_text)
    return GraphBatch(
        size=len(graphs), n_text=n_text,
        token_ids=token_ids, segments=step,
        vis_features=_scatter(objects, [np.zeros((0, config.d_v))] + features, dtype=np.float64),
        vis_boxes=_scatter(objects, [np.concatenate(
            [boxes, boxes[:, 2:] - boxes[:, :2]], axis=1)], dtype=np.float64),
        vis_cls_mask=vis_cls.astype(np.float64), node_mask=node_mask,
        codes=_scatter(pairs, [np.concatenate([g.codes.ravel() for g in graphs])],
                       dtype=np.int8),
        text_cls_idx=text_cls_idx, vis_cls_idx=vis_cls_idx,
        n_text_cls=n_text_cls, n_vis_cls=n_vis_cls,
    )


# ----------------------------------------------------------------------
# model


class TmegModel:
    def __init__(self, config: ModelConfig, vocab: dict[str, int],
                 store: ParamStore | None = None, seed: int = 0):
        if len(vocab) > config.token_vocab_size:
            raise ValueError(
                f"vocab of {len(vocab)} exceeds token_vocab_size="
                f"{config.token_vocab_size}")
        self.config = config
        self.vocab = vocab
        self.store = store if store is not None else init_params(config, seed)

    def p(self, name: str) -> Tensor:
        return self.store[name].tensor

    # ------------------------------------------------------------------
    # encoding

    def encode_nodes(self, batch: GraphBatch) -> Tensor:
        """Initial hidden states H0, one `node_embedding` tape node: text
        rows sum content, position and segment rows; visual rows sum the
        projected object features (or the visual CLS row), the projected
        box and a segment row."""
        return node_embedding(
            [self.p(f"emb/{name}") for name in _EMBEDDING_PARAMS],
            batch.token_ids, np.arange(batch.n_text), batch.segments,
            batch.vis_features, batch.vis_boxes, batch.vis_cls_mask)

    def project_modalities(self, h0: Tensor, batch: GraphBatch) -> Tensor:
        """Each modality's rows through its tanh MLP, one tape node."""
        text, vis = ([self.p(f"{mod}/{name}") for name in ("w1", "b1", "w2", "b2")]
                     for mod in ("mlp_text", "mlp_vis"))
        return split_tanh_mlps(h0, batch.n_text, text, vis)

    # ------------------------------------------------------------------
    # attention

    def _transformer_layer(self, h: Tensor, prefix: str, n_heads: int,
                           edge=None, key_bias: np.ndarray | None = None,
                           rows: np.ndarray | None = None) -> Tensor:
        """Post-norm encoder layer over (B, N, dim), all heads at once, as
        one `encoder_layer` tape node.

        `edge` (bias tables, layer index and pair codes) and `key_bias`
        (the -inf mask of padded keys) bias the (B, H, N, N) attention
        logits. With `rows` (B, R) only those query rows are computed: the
        output is (B, R, dim) and the pair codes must be (B, N, R)."""
        params = [self.p(f"{prefix}/{name}") for name in _LAYER_PARAMS]
        return encoder_layer(h, params, n_heads, edge, key_bias, rows)

    def fusion_layer(self, h: Tensor, codes: np.ndarray, layer: int,
                     key_bias: np.ndarray | None = None,
                     rows: np.ndarray | None = None) -> Tensor:
        """One fusion layer. Its attention reads each head's temporal plus
        modal bias at every node pair's pair code (see `graph.edge_codes`)
        inside the layer; a NONE code reads exactly 0 and gets no gradient.
        With `rows`, `codes` are the (B, N, R) pair-code columns of those
        query rows."""
        edge = (self.p("bias_t"), self.p("bias_m"), layer, codes)
        return self._transformer_layer(h, f"enc{layer}", self.config.n_heads,
                                       edge, key_bias, rows)

    def fusion_stack(self, h: Tensor, codes: np.ndarray,
                     key_bias: np.ndarray | None = None,
                     rows: np.ndarray | None = None) -> Tensor:
        """The fusion layers over (B, N, d). With `rows` (B, R) the result
        is only h[b, rows[b]], (B, R, d): the last layer computes just
        those query rows, over their pair-code columns codes[b, :, rows[b]]."""
        last = self.config.n_layers - 1
        for l in range(last):
            h = self.fusion_layer(h, codes, l, key_bias)
        if rows is not None:
            codes = np.take_along_axis(codes, rows[:, None, :], axis=2)
        return self.fusion_layer(h, codes, last, key_bias, rows)

    def run_encoder_batch(self, batch: GraphBatch,
                          rows: np.ndarray | None = None) -> Tensor:
        """Fused node states (B, N, d), or only rows h[b, rows[b]]."""
        h = self.encode_nodes(batch)
        h = self.project_modalities(h, batch)
        return self.fusion_stack(h, batch.codes, batch.key_bias(), rows)

    # ------------------------------------------------------------------
    # reasoning head

    def extract_cls(self, h: Tensor, batch: GraphBatch) -> tuple[Tensor, Tensor]:
        """Per-unit CLS rows: (B, N_t, d) text and (B, N_a, d) visual,
        padded to the batch's largest counts, split from the fusion
        stack's (B, N_t + N_a, d) output at rows `batch.cls_rows()`."""
        n_t = batch.text_cls_idx.shape[1]
        return h[:, :n_t], h[:, n_t:]

    def assemble_pair(self, ht: Tensor, hv: Tensor) -> Tensor:
        """[CLS, text rows..., SEP, visual rows...] in scorer space, one
        `pair_sequence` tape node."""
        proj = None
        if self.config.scorer_dim != self.config.d_model:
            proj = (self.p("scorer/in_w"), self.p("scorer/in_b"))
        return pair_sequence(ht, hv, self.p("scorer/cls"), self.p("scorer/sep"),
                             proj)

    def score_candidate(self, pair_seq: Tensor,
                        key_bias: np.ndarray | None = None) -> Tensor:
        """Plain transformer over the pair sequence; scalar per batch row.

        `key_bias` masks padded rows of the sequence out as keys. The
        readout is a one-hidden-layer fully connected head on the leading
        CLS row. Its final map carries no bias, so no parameter direction
        shifts all candidate scores by the same constant."""
        h = pair_seq
        last = self.config.scorer_layers - 1
        for l in range(last):
            h = self._transformer_layer(h, f"sc{l}", self.config.scorer_heads,
                                        key_bias=key_bias)
        # the readout reads row 0 only, so the last layer computes it alone
        h = self._transformer_layer(
            h, f"sc{last}", self.config.scorer_heads, key_bias=key_bias,
            rows=np.zeros((h.shape[0], 1), dtype=np.int64))
        return mlp_readout(h, self.p("scorer/out_w1"), self.p("scorer/out_b1"),
                           self.p("scorer/out_w2"))

    def score_batch(self, batch: GraphBatch) -> tuple[Tensor, Tensor, Tensor]:
        """Scores (B,) plus the padded CLS rows that produced them."""
        h = self.run_encoder_batch(batch, batch.cls_rows())
        ht, hv = self.extract_cls(h, batch)
        scores = self.score_candidate(self.assemble_pair(ht, hv),
                                      batch.scorer_key_bias())
        return scores, ht, hv

    def score_graphs(self, graphs: list[TmegGraph]) -> Tensor:
        """Scores for a list of graphs of any shapes, shape (B,)."""
        return self.score_batch(prepare_batch(graphs, self.vocab, self.config))[0]


# ----------------------------------------------------------------------
# losses


def coherence_loss(ht: Tensor, hv_pos: Tensor, negatives: Tensor,
                   tau: float, inclusive: bool = True,
                   n_rows=None, n_neg=None, index=None) -> Tensor:
    """InfoNCE-style alignment loss averaged over aligned steps, one
    `info_nce` tape node.

    One instance: ht, hv_pos (n, d) aligned text/image representations and
    negatives (K, d). A batch of I instances: ht, hv_pos (I, n_max, d) and
    negatives (I, K_max, d), padded to the longest, with `n_rows` (I,) and
    `n_neg` (I,) counting each instance's real rows and negatives (by
    default, none is padding); or, with `index` (three numpy indices), the
    rows ht[index[0]], hv_pos[index[1]] and negatives[index[2]], gathered
    inside the node from padded CLS rows. The loss is each instance's mean
    over its rows, averaged over instances; padding rows are ignored and
    padded negatives get a -inf logit. With `inclusive` the positive
    appears in the denominator, which bounds the loss below by 0; the
    literal negatives-only variant is kept for comparison.
    """
    if tau <= 0:
        raise ValueError("tau must be > 0")
    if index is None and ht.ndim == 2:
        index = (None,) * 3   # one instance
    return info_nce(ht, hv_pos, negatives, tau, inclusive, n_rows, n_neg,
                    index)


def prediction_loss(scores: Tensor, gold: int) -> Tensor:
    """Softmax cross-entropy over one instance's candidate scores, the
    `cross_entropy` node of a batch of one."""
    n = scores.shape[-1]
    if n < 2:
        raise ValueError("need at least 2 candidates")
    if not (0 <= gold < n):
        raise ValueError("gold index out of range")
    return cross_entropy(scores.reshape(1, n), [gold])


def prediction_loss_batch(scores: Tensor, gold: np.ndarray) -> Tensor:
    """Mean cross-entropy for (B, N_c) score rows with per-row gold indices,
    one `cross_entropy` tape node."""
    return cross_entropy(scores, gold)


def total_loss(pred: Tensor, coh: Tensor | None, lambda_b: float) -> Tensor:
    """pred + lambda_b * coh, one tape node."""
    if coh is None or lambda_b == 0:
        return pred
    return add_scaled(pred, coh, lambda_b)
