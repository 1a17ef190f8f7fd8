"""Encoder, scorer, and loss tests.

The zero-bias check compares the fusion layer against a reference
transformer layer written here from scratch with plain numpy and the
standard softmax(Q K^T / sqrt(d)) orientation.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import erf, softmax as scipy_softmax

from composed import concat, linear, logsumexp
from tmeg.autodiff import (
    Tensor, _add_code_bias, _code_grad, _code_table, _fold_code_grad,
)
from tmeg.data import SyntheticConfig, build_vocab, generate_synthetic_corpus
from tmeg.graph import N_MODAL_CODES, N_TEMPORAL_CODES, edge_codes, node_arrays
from tmeg.harness import (
    RunConfig, ablate_graph, make_instances, prepare_instances, _batch_loss,
    _batch_scores,
)
from tmeg.model import (
    GraphBatch, ModelConfig, TmegModel, _scatter, coherence_loss, init_params,
    prediction_loss, prediction_loss_batch, prepare_batch, total_loss,
)
from tmeg.optim import finite_difference_check, grad_eval


def reference_layer(h, params, prefix, n_heads):
    """Plain numpy transformer encoder layer, no attention bias."""

    def p(name):
        return params[f"{prefix}/{name}"].value

    def ln(x, g, b, eps=1e-12):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * g + b

    def gelu(x):
        return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))

    d = h.shape[-1]
    dh = d // n_heads
    q = h @ p("wq") + p("bq")
    k = h @ p("wk")
    v = h @ p("wv") + p("bv")
    outs = []
    for i in range(n_heads):
        sl = slice(i * dh, (i + 1) * dh)
        logits = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
        attn = scipy_softmax(logits, axis=-1)
        outs.append(attn @ v[:, sl])
    merged = np.concatenate(outs, axis=-1)
    h1 = ln(merged @ p("wo") + p("bo") + h, p("ln1_g"), p("ln1_b"))
    ffn = gelu(h1 @ p("ffn_w1") + p("ffn_b1")) @ p("ffn_w2") + p("ffn_b2")
    return ln(ffn + h1, p("ln2_g"), p("ln2_b"))


def edge_bias(model, layer, codes):
    """The (..., H, N, M) edge bias fusion layer `layer` adds to its
    logits at pair codes `codes`, read with the layer's own gather."""
    table = _code_table(model.store["bias_t"].value[layer],
                        model.store["bias_m"].value[layer])
    codes = np.asarray(codes)
    out = np.zeros(codes.shape[:-2] + (len(table),) + codes.shape[-2:])
    _add_code_bias(out, table, codes)
    return out


def gather_table(table, codes):
    """table[..., codes] composed from tape ops, code 0 reading 0, laid out
    (*batch, *lead, N, M): one table's reference gather."""
    masked = table * (np.arange(table.shape[-1]) > 0)
    if table.ndim == 1:
        return masked[codes]
    return masked[:, codes].swapaxes(0, 1)


def small_config(**overrides):
    kw = dict(d_model=16, n_heads=2, n_layers=2, ffn_multiplier=2,
              scorer_layers=2, scorer_heads=2, tau=0.07, k_negatives=4,
              lambda_b=0.1, token_vocab_size=64, d_v=4, max_steps=16)
    kw.update(overrides)
    return ModelConfig(**kw)


def small_corpus(seed=0, **overrides):
    kw = dict(num_docs=2, steps_min=6, steps_max=6, tokens_per_step_min=4,
              tokens_per_step_max=4, entity_vocab_size=6, token_vocab_size=20,
              objects_per_image_min=2, objects_per_image_max=2,
              images_per_step=1, d_v=4, n_candidates=3, seed=seed)
    kw.update(overrides)
    return generate_synthetic_corpus(SyntheticConfig(**kw))


def build_model(seed=0, **overrides):
    corpus = small_corpus(seed)
    config = small_config(**overrides)
    model = TmegModel(config, build_vocab(corpus), seed=seed)
    return model, corpus


def mixed_structure_setup(init_scale=0.3, ablation="none"):
    """A model plus cloze instances on the default SyntheticConfig shapes,
    whose candidate graphs differ in text, visual and CLS counts."""
    corpus = generate_synthetic_corpus(SyntheticConfig(num_docs=3, d_v=4, seed=1))
    cfg = small_config()
    model = TmegModel(cfg, build_vocab(corpus),
                      store=init_params(cfg, seed=0, init_scale=init_scale))
    by_doc = {}
    for inst in make_instances(corpus, ["cloze"], 3, 0):
        by_doc.setdefault(inst.doc_id, inst)
    instances = list(by_doc.values())
    # one instance over a shorter window, so CLS counts differ as well
    last = instances[-1]
    instances[-1] = dataclasses.replace(
        last, context_steps=last.context_steps[:3],
        candidates=[c[:3] for c in last.candidates])
    return model, prepare_instances(corpus, instances, 7.0, 0.5, ablation)


def node_walking_prepare_batch(graphs, vocab, config):
    """Reference batching that reads every field from the graphs' `Node`s
    one node at a time."""
    splits = [sum(1 for n in g.nodes if n.modality == "text") for g in graphs]
    n_text = max(splits)
    n_vis = max(len(g.nodes) - nt for g, nt in zip(graphs, splits))
    special = {"cls": config.token_vocab_size, "sep": config.token_vocab_size + 1}
    B, N = len(graphs), n_text + n_vis
    token_ids = np.zeros((B, n_text), dtype=np.int64)
    segments = np.zeros((B, N), dtype=np.int64)
    vis_features = np.zeros((B, n_vis, config.d_v))
    vis_boxes = np.zeros((B, n_vis, 6))
    vis_cls_mask = np.zeros((B, n_vis))
    node_mask = np.zeros((B, N), dtype=bool)
    codes = np.zeros((B, N, N), dtype=np.int8)
    text_cls, vis_cls = [], []
    for b, (g, nt) in enumerate(zip(graphs, splits)):
        text, vis = g.nodes[:nt], g.nodes[nt:]
        token_ids[b, :nt] = [special.get(n.kind, vocab.get(n.token, 0)) for n in text]
        for k, node in enumerate(vis):
            if node.kind == "cls":
                vis_cls_mask[b, k] = 1.0
            else:
                box = node.obj.box
                vis_features[b, k] = node.obj.feature
                vis_boxes[b, k] = [box.x1, box.y1, box.x2, box.y2,
                                   box.x2 - box.x1, box.y2 - box.y1]
        node_mask[b, :nt] = True
        node_mask[b, n_text:n_text + len(vis)] = True
        rows = np.flatnonzero(node_mask[b])
        segments[b, rows] = [n.step_index for n in g.nodes]
        codes[b][np.ix_(rows, rows)] = g.phi_t * N_MODAL_CODES + g.phi_m
        text_cls.append([k for k, n in enumerate(text) if n.kind == "cls"])
        vis_cls.append([n_text + k for k, n in enumerate(vis) if n.kind == "cls"])

    def pad(rows):
        counts = np.array([len(r) for r in rows], dtype=np.int64)
        out = np.zeros((len(rows), int(counts.max())), dtype=np.int64)
        for b, r in enumerate(rows):
            out[b, :len(r)] = r
        return out, counts

    (text_cls_idx, n_text_cls), (vis_cls_idx, n_vis_cls) = pad(text_cls), pad(vis_cls)
    return GraphBatch(
        size=B, n_nodes=N, n_text=n_text, token_ids=token_ids,
        segments=segments, vis_features=vis_features, vis_boxes=vis_boxes,
        vis_cls_mask=vis_cls_mask, node_mask=node_mask, codes=codes,
        text_cls_idx=text_cls_idx, vis_cls_idx=vis_cls_idx,
        n_text_cls=n_text_cls, n_vis_cls=n_vis_cls)


def assert_same_batch(got, want):
    for f in dataclasses.fields(GraphBatch):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert a == b, f.name


def reference_coherence(ht, hv_pos, negatives, tau, inclusive=True):
    """The InfoNCE formula for one instance of (n, d) rows, composed from
    tape ops: the reference the batched coherence loss must repeat."""

    def unit(x):
        norms = (x * x).sum(axis=-1, keepdims=True).sqrt()
        if (norms.data == 0).any():
            raise ValueError("cosine similarity undefined for zero-norm vector")
        return x / norms

    t_hat, v_hat, n_hat = unit(ht), unit(hv_pos), unit(negatives)
    pos_logit = (t_hat * v_hat).sum(axis=-1, keepdims=True) * (1.0 / tau)
    neg_logits = (t_hat @ n_hat.swapaxes(-1, -2)) * (1.0 / tau)
    if inclusive:
        neg_logits = concat([pos_logit, neg_logits], axis=-1)
    return (logsumexp(neg_logits, axis=-1, keepdims=True) - pos_logit).mean()


def reference_batch_loss(model, prepared, config, rng):
    """`_batch_loss` with one `reference_coherence` per instance, averaged
    over the instances with aligned rows: the per-instance loop."""
    scores, ht, hv, batch = _batch_scores(model, prepared)
    gold = np.array([p.instance.gold_index for p in prepared])
    pred = prediction_loss_batch(scores, gold)
    n_c = scores.shape[1]
    gold_graph = np.arange(len(prepared)) * n_c + gold
    n_a = [len(p.instance.candidates[0]) for p in prepared]
    terms = []
    for ip, p in enumerate(prepared):
        pool = [(gold_graph[jp], r) for jp in range(len(prepared)) if jp != ip
                for r in range(n_a[jp])]
        if not pool:
            pool = [(ip * n_c + cj, r) for cj in range(n_c) if cj != gold[ip]
                    for r in range(n_a[ip])]
        k = min(config.model.k_negatives, len(pool))
        chosen = rng.choice(len(pool), size=k, replace=False)
        g = gold_graph[ip]
        n = int(min(p.aligned_rows.size, batch.n_vis_cls[g]))
        if n == 0:
            continue
        neg_graphs, neg_rows = np.array(pool)[chosen].T
        terms.append(reference_coherence(
            ht[np.full(n, g), p.aligned_rows[:n]], hv[g, :n],
            hv[neg_graphs, neg_rows], config.model.tau,
            config.model.coherence_inclusive).reshape(1))
    return total_loss(pred, concat(terms, axis=0).mean(),
                      config.effective_lambda_b())


def assert_rel_close(got, want, rtol=1e-12, what=""):
    """Agreement within rtol of the reference's largest magnitude."""
    scale = max(float(np.abs(want).max()), 1e-300)
    assert float(np.abs(got - want).max()) <= rtol * scale, what


# the ablation that clears the temporal codes, the modal codes, both or none
ABLATION = {(False, False): "none", (True, False): "no_temporal",
            (False, True): "no_modal", (True, True): "no_both"}


def random_phi(rng, n):
    phi_t = rng.integers(0, 4, size=(n, n))
    phi_m = rng.integers(0, 5, size=(n, n))
    for phi in (phi_t, phi_m):
        phi[:] = np.triu(phi, 1)
        phi += phi.T
    return phi_t, phi_m


class TestConfig:

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=10, n_heads=4)

    def test_scorer_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ModelConfig(scorer_d=100, scorer_heads=8)

    @pytest.mark.parametrize("field", ["n_layers", "scorer_layers"])
    def test_at_least_one_layer_per_stack(self, field):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: 0})

    def test_tau_positive(self):
        with pytest.raises(ValueError):
            ModelConfig(tau=0.0)

    @pytest.mark.parametrize("field,value", [
        ("tau", float("nan")), ("lambda_b", -0.5), ("lambda_b", float("nan"))])
    def test_nan_or_negative_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: value})

    def test_hash_tracks_content(self):
        assert small_config().hash() == small_config().hash()
        assert small_config().hash() != small_config(tau=0.1).hash()

    def test_default_thresholds_and_sizes(self):
        cfg = ModelConfig()
        assert cfg.tau == pytest.approx(0.07)
        assert cfg.k_negatives == 8
        assert cfg.lambda_b == pytest.approx(0.1)
        assert (cfg.d_model, cfg.n_heads, cfg.n_layers) == (128, 8, 4)


class TestInitParams:

    def test_edge_bias_tables_start_nonzero(self):
        # zero-initialised tables would make edge codes invisible at the
        # start of training, so both tables draw a random init
        store = init_params(small_config(), seed=0)
        assert np.any(store["bias_t"].value != 0)
        assert np.any(store["bias_m"].value != 0)

    def test_token_table_has_special_rows(self):
        cfg = small_config()
        store = init_params(cfg, seed=0)
        assert store["emb/token_content"].value.shape == \
            (cfg.token_vocab_size + 2, cfg.d_model)

    def test_no_key_bias_parameters(self):
        store = init_params(small_config(), seed=0)
        assert not any(name.endswith("/bk") for name in store.names())

    def test_seeded_init_reproducible(self):
        a = init_params(small_config(), seed=3)
        b = init_params(small_config(), seed=3)
        for name in a.names():
            np.testing.assert_array_equal(a[name].value, b[name].value)


class TestZeroBiasEquivalence:

    def test_matches_reference_for_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            cfg = small_config()
            store = init_params(cfg, seed=seed, init_scale=0.3)
            store["bias_t"].value[:] = 0.0
            store["bias_m"].value[:] = 0.0
            model = TmegModel(cfg, {"<unk>": 0}, store=store)
            n = int(rng.integers(4, 10))
            h = rng.normal(size=(1, n, cfg.d_model))
            codes = edge_codes(*random_phi(rng, n))
            out = model.fusion_layer(Tensor(h), codes[None], layer=0).data[0]
            ref = reference_layer(h[0], store.params, "enc0", cfg.n_heads)
            np.testing.assert_allclose(out, ref, atol=1e-12, rtol=0)

    def test_nonzero_bias_breaks_equivalence(self):
        """Negative control: once biases are nonzero the layers differ."""
        rng = np.random.default_rng(0)
        cfg = small_config()
        store = init_params(cfg, seed=0, init_scale=0.3)
        store["bias_t"].value[:] = 0.7
        model = TmegModel(cfg, {"<unk>": 0}, store=store)
        h = rng.normal(size=(1, 6, cfg.d_model))
        phi_t, phi_m = random_phi(rng, 6)
        assert phi_t.any()
        out = model.fusion_layer(Tensor(h), edge_codes(phi_t, phi_m)[None],
                                 layer=0).data[0]
        ref = reference_layer(h[0], store.params, "enc0", cfg.n_heads)
        assert np.abs(out - ref).max() > 1e-6


class TestEdgeBias:

    def test_none_code_is_pinned_to_zero(self):
        cfg = small_config()
        store = init_params(cfg, seed=0)
        store["bias_t"].value[:] = 5.0
        store["bias_m"].value[:] = -3.0
        model = TmegModel(cfg, {"<unk>": 0}, store=store)
        codes = np.zeros((4, 4), dtype=np.int64)
        bias = edge_bias(model, 0, codes)
        np.testing.assert_array_equal(bias, np.zeros((cfg.n_heads, 4, 4)))
        # and the layer's output ignores the tables at NONE codes
        h = Tensor(np.random.default_rng(1).normal(size=(1, 4, cfg.d_model)))
        out = model.fusion_layer(h, codes[None], layer=0).data
        store["bias_t"].value[:] = 0.0
        store["bias_m"].value[:] = 0.0
        np.testing.assert_array_equal(
            model.fusion_layer(h, codes[None], layer=0).data, out)

    def test_logit_difference_localized_to_temporal_entries(self):
        """no_temporal may only change logits where phi_t is labeled."""
        rng = np.random.default_rng(0)
        model, corpus = build_model()
        for name in ("bias_t", "bias_m"):
            model.store[name].value[:] = rng.normal(size=model.store[name].value.shape)
        instances = make_instances(corpus, ["cloze", "coherence", "ordering"], 3, 0)
        graphs = [g for p in prepare_instances(corpus, instances, 7.0, 0.5)
                  for g in p.graphs]
        assert any(g.phi_t.any() for g in graphs[:20])
        for graph in graphs[:20]:
            ablated = ablate_graph(graph, "no_temporal")
            assert not ablated.phi_t.any()
            for layer in range(model.config.n_layers):
                full = edge_bias(model, layer, edge_codes(graph.phi_t, graph.phi_m))
                cut = edge_bias(model, layer, edge_codes(ablated.phi_t, ablated.phi_m))
                diff = full - cut
                assert (diff[:, graph.phi_t == 0] == 0.0).all()

    def test_bias_is_shared_within_code(self):
        model, _ = build_model()
        model.store["bias_t"].value[0, 0, 1] = 2.5
        phi_t = np.array([[0, 1], [1, 0]])
        phi_m = np.zeros((2, 2), dtype=np.int64)
        bias = edge_bias(model, 0, edge_codes(phi_t, phi_m))
        np.testing.assert_allclose(bias[0], [[0.0, 2.5], [2.5, 0.0]])

    @pytest.mark.parametrize("clear_t", [False, True])
    @pytest.mark.parametrize("clear_m", [False, True])
    @pytest.mark.parametrize("head", [1, slice(None)])
    def test_one_gather_matches_per_table_gathers(self, clear_t, clear_m, head):
        """On the pair codes of a padded batch of ablated graphs, the
        layer's one code-pair gather reads exactly the sum of one gather
        per table that the ablation keeps, over the unablated codes, for
        one head and for all; and its per-head bincount, folded onto both
        tables, equals their gradients through those per-table gathers."""
        model, full = mixed_structure_setup()
        _, ablated = mixed_structure_setup(ablation=ABLATION[clear_t, clear_m])
        codes = prepare_batch([g for p in full for g in p.graphs],
                              model.vocab, model.config).codes
        phi_t, phi_m = codes // N_MODAL_CODES, codes % N_MODAL_CODES
        layer = 1
        tables = {name: Tensor(model.store[name].value.copy(), requires_grad=True)
                  for name in ("bias_t", "bias_m")}
        cut = prepare_batch([g for p in ablated for g in p.graphs], model.vocab,
                            model.config).codes
        biases = edge_bias(model, layer, cut)
        got = biases[:, head]
        want = Tensor(np.zeros(got.shape))
        for name, phi, off in (("bias_t", phi_t, clear_t),
                               ("bias_m", phi_m, clear_m)):
            if not off:
                want = want + gather_table(tables[name][layer, head], phi)
        np.testing.assert_array_equal(got, want.data)
        weights = np.zeros(biases.shape)
        weights[:, head] = np.random.default_rng(4).normal(size=got.shape)
        if want.requires_grad:   # not when both tables are cleared
            (want * weights[:, head]).sum().backward()
        mine = _fold_code_grad(
            _code_grad(weights, cut, N_TEMPORAL_CODES * N_MODAL_CODES),
            N_TEMPORAL_CODES, N_MODAL_CODES)
        for grad, table in zip(mine, tables.values()):
            if table.grad is None:
                assert not grad.any()
            else:
                np.testing.assert_allclose(grad, table.grad[layer], rtol=1e-12,
                                           atol=1e-12)

    @pytest.mark.parametrize("ablation", ["no_temporal", "no_modal", "no_both"])
    def test_cleared_codes_score_like_zeroed_tables(self, ablation):
        """Oracle for ablations: on a padded ragged batch, graphs with the
        ablation's codes cleared score bit for bit like the unablated
        graphs under a copy of the store whose matching bias tables are
        zero, and every other parameter gets the same gradient."""
        model, full = mixed_structure_setup(init_scale=0.5)
        _, ablated = mixed_structure_setup(init_scale=0.5, ablation=ablation)
        zeroed = TmegModel(model.config, model.vocab, store=init_params(
            model.config, seed=0, init_scale=0.5))
        tables = {"no_temporal": ["bias_t"], "no_modal": ["bias_m"],
                  "no_both": ["bias_t", "bias_m"]}[ablation]
        for name in tables:
            zeroed.store[name].value[:] = 0.0
        graphs = [g for p in full for g in p.graphs]
        assert not prepare_batch(graphs, model.vocab, model.config).node_mask.all()
        np.testing.assert_array_equal(
            model.score_graphs([g for p in ablated for g in p.graphs]).data,
            zeroed.score_graphs(graphs).data)

        cfg = RunConfig(model=model.config, n_candidates=3, seed=0)
        grads = []
        for m, prepared in ((model, ablated), (zeroed, full)):
            grad_eval(_batch_loss(m, prepared, cfg, np.random.default_rng(2)),
                      m.store)
            grads.append({name: p.gradient.copy()
                          for name, p in m.store.params.items()})
        got, want = grads
        for name, g in want.items():
            if name not in ("bias_t", "bias_m"):
                assert_rel_close(got[name], g, what=name)

    def test_ablated_repeats_share_one_graph(self):
        """Ablation clears each distinct graph once: instances that repeat
        a candidate still share one graph object, so evaluation still
        scores each distinct graph once."""
        corpus = generate_synthetic_corpus(SyntheticConfig(num_docs=4, d_v=4, seed=2))
        instances = make_instances(corpus, ["cloze", "coherence", "ordering"], 4, 2)
        full = [g for p in prepare_instances(corpus, instances, 7.0, 0.5)
                for g in p.graphs]
        for ablation, cleared in (("no_temporal", {"phi_t"}),
                                  ("no_modal", {"phi_m"}),
                                  ("no_both", {"phi_t", "phi_m"})):
            graphs = [g for p in prepare_instances(corpus, instances, 7.0, 0.5,
                                                   ablation) for g in p.graphs]
            n_distinct = len({id(g.codes) for g in graphs})
            assert n_distinct == len({id(g) for g in graphs}) == len({id(g) for g in full})
            assert n_distinct < len(graphs)
            for name in ("phi_t", "phi_m"):
                for g, ref in zip(graphs, full):
                    np.testing.assert_array_equal(
                        getattr(g, name),
                        0 if name in cleared else getattr(ref, name))

    def test_ablation_clears_one_kind_of_the_pair_codes(self):
        """Each ablation's pair codes decode to its kind cleared to NONE
        and the other kind unchanged, as int8: on prepared graphs, and on
        codes holding every (temporal, modal) pair."""
        corpus = generate_synthetic_corpus(SyntheticConfig(num_docs=4, d_v=4, seed=2))
        instances = make_instances(corpus, ["cloze", "coherence", "ordering"], 4, 2)
        graphs = [g for p in prepare_instances(corpus, instances, 7.0, 0.5)
                  for g in p.graphs]
        every_pair = np.arange(N_TEMPORAL_CODES * N_MODAL_CODES, dtype=np.int8)
        graphs.append(dataclasses.replace(graphs[0], codes=every_pair.reshape(
            N_TEMPORAL_CODES, N_MODAL_CODES)))
        for ablation, cleared in (("no_temporal", {"phi_t"}),
                                  ("no_modal", {"phi_m"}),
                                  ("no_both", {"phi_t", "phi_m"})):
            for g in graphs:
                cut = ablate_graph(g, ablation)
                assert cut.codes.dtype == np.int8
                for name in ("phi_t", "phi_m"):
                    want = getattr(g, name)
                    np.testing.assert_array_equal(
                        getattr(cut, name), 0 * want if name in cleared else want)

    def test_out_of_range_modal_code_rejected(self):
        phi_t = np.zeros((3, 3), dtype=np.int64)
        phi_m = np.full((3, 3), N_MODAL_CODES)
        with pytest.raises(IndexError):
            edge_codes(phi_t, phi_m)

    @pytest.mark.parametrize("bad", [-1, N_TEMPORAL_CODES, 52])
    def test_out_of_range_temporal_code_rejected(self, bad):
        """The codes are int8: a temporal code of 52 with modal code 0
        would wrap around to the valid pair code 4."""
        phi_t = np.zeros((3, 3), dtype=np.int64)
        phi_t[1, 2] = bad
        with pytest.raises(IndexError, match="edge code"):
            edge_codes(phi_t, np.zeros((3, 3), dtype=np.int64))

    def test_codes_are_int8(self):
        phi_t = np.array([[0, N_TEMPORAL_CODES - 1]])
        phi_m = np.array([[0, N_MODAL_CODES - 1]])
        codes = edge_codes(phi_t, phi_m)
        assert codes.dtype == np.int8
        assert codes.tolist() == [[0, N_TEMPORAL_CODES * N_MODAL_CODES - 1]]


class TestEncoderShapes:

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
    def test_scatter_without_padding_equals_masked_fill(self, dtype):
        parts = [np.arange(6.0).reshape(3, 2), np.arange(6.0, 10.0).reshape(2, 2)]
        full, ragged = np.ones((5,), dtype=bool), np.array([True, True, False, True, True, True])
        got = _scatter(full.reshape(1, 5), parts, dtype=dtype)
        assert got.dtype == dtype and got.shape == (1, 5, 2)
        np.testing.assert_array_equal(got, np.concatenate(parts)[None].astype(dtype))
        np.testing.assert_array_equal(_scatter(ragged, parts, fill=-1, dtype=dtype)[ragged],
                                      got[0])

    def make_batch(self, model, corpus, n_candidates=3):
        instances = make_instances(corpus, ["cloze"], n_candidates, 0)
        prepared = prepare_instances(corpus, instances[:1], 7.0, 0.5)
        return prepare_batch(prepared[0].graphs, model.vocab, model.config)

    def test_encoder_output_shape(self):
        model, corpus = build_model()
        batch = self.make_batch(model, corpus)
        out = model.run_encoder_batch(batch)
        assert out.shape == (3, batch.n_nodes, model.config.d_model)

    def test_single_graph_matches_batched(self):
        model, corpus = build_model()
        instances = make_instances(corpus, ["cloze"], 3, 0)
        prepared = prepare_instances(corpus, instances[:1], 7.0, 0.5)
        batched = model.score_graphs(prepared[0].graphs)
        singles = [float(model.score_graphs([g]).data[0])
                   for g in prepared[0].graphs]
        np.testing.assert_allclose(batched.data, singles, rtol=1e-10)

    def test_padded_mixed_structure_batch_matches_one_at_a_time(self):
        """Oracle for padding: a batch of graphs of different shapes scores
        and differentiates exactly like scoring each graph alone."""
        model, prepared = mixed_structure_setup()
        graphs = [g for p in prepared for g in p.graphs]
        batch = prepare_batch(graphs, model.vocab, model.config)
        layouts = {tuple(m) for m in batch.node_mask}
        assert len(layouts) > 1 and not batch.node_mask.all()
        assert len(set(batch.n_text_cls)) > 1 and len(set(batch.n_vis_cls)) > 1

        padded = model.score_graphs(graphs)
        singles = [model.score_graphs([g]) for g in graphs]
        np.testing.assert_allclose(padded.data, [s.data[0] for s in singles],
                                   rtol=0, atol=1e-10)

        weights = np.random.default_rng(0).normal(size=len(graphs))
        grad_eval((padded * weights).sum(), model.store)
        batched = {n: p.gradient.copy() for n, p in model.store.params.items()}
        total = singles[0] * weights[0]
        for s, w in zip(singles[1:], weights[1:]):
            total = total + s * w
        grad_eval(total.sum(), model.store)
        for name, p in model.store.params.items():
            np.testing.assert_allclose(batched[name], p.gradient,
                                       rtol=1e-9, atol=1e-12, err_msg=name)

    def test_padded_batch_gradients_pass_finite_differences(self):
        model, prepared = mixed_structure_setup(init_scale=0.5)
        cfg = RunConfig(model=model.config, n_candidates=3, seed=0)

        def loss_fn():
            return _batch_loss(model, prepared, cfg, np.random.default_rng(0))

        err = finite_difference_check(loss_fn, model.store, seed=0,
                                      max_coords_per_param=4)
        assert err < 1e-4

    def test_fusion_stack_permutation_equivariance(self):
        """Relabeling nodes permutes outputs; structure is all that matters."""
        rng = np.random.default_rng(2)
        model, _ = build_model()
        for name in ("bias_t", "bias_m"):
            model.store[name].value[:] = rng.normal(
                size=model.store[name].value.shape)
        n = 7
        h = rng.normal(size=(1, n, model.config.d_model))
        codes = edge_codes(*random_phi(rng, n))
        perm = rng.permutation(n)
        out = model.fusion_stack(Tensor(h), codes[None]).data[0]
        out_p = model.fusion_stack(
            Tensor(h[:, perm]), codes[np.ix_(perm, perm)][None]).data[0]
        np.testing.assert_allclose(out_p, out[perm], atol=1e-10)

    @pytest.mark.parametrize("shape", ["uniform", "ragged"])
    def test_array_batching_equals_node_walking(self, shape):
        """Every GraphBatch field and dtype equals the node-walking
        reference, over mixed chunks of all three tasks, with arrays sliced
        from a group's union graph or derived from a graph's own nodes."""
        kw = (dict(steps_min=7, steps_max=7, tokens_per_step_min=3,
                   tokens_per_step_max=3, objects_per_image_min=3,
                   objects_per_image_max=3, images_per_step=1)
              if shape == "uniform" else {})
        corpus = generate_synthetic_corpus(
            SyntheticConfig(num_docs=4, d_v=4, seed=3, **kw))
        model = TmegModel(small_config(), build_vocab(corpus), seed=0)
        vocab = dict(list(model.vocab.items())[:-3])   # some tokens unknown
        instances = make_instances(corpus, ["cloze", "coherence", "ordering"], 4, 3)
        graphs = [g for p in prepare_instances(corpus, instances, 7.0, 0.5)
                  for g in p.graphs]
        chunks = [graphs[:4], graphs[-4:]] + [graphs[k:k + 24]
                                              for k in range(0, len(graphs), 24)]
        chunks.append([dataclasses.replace(g, arrays=node_arrays(g.nodes))
                       for g in chunks[-1]])
        for chunk in chunks:
            assert_same_batch(prepare_batch(chunk, vocab, model.config),
                              node_walking_prepare_batch(chunk, vocab, model.config))

    def test_unknown_token_maps_to_unk_row(self):
        model, corpus = build_model()
        instances = make_instances(corpus, ["cloze"], 3, 0)
        # node tables are built with the graphs, so the corpus changes first
        for step in corpus.documents[0].steps:
            step.tokens = ["never-seen-token"] * len(step.tokens)
        prepared = prepare_instances(corpus, instances[:1], 7.0, 0.5)
        graphs = prepared[0].graphs
        batch = prepare_batch(graphs, model.vocab, model.config)
        token_rows = batch.token_ids[0]
        kinds = [n.kind for n in graphs[0].nodes if n.modality == "text"]
        for row, kind in zip(token_rows, kinds):
            if kind == "token":
                assert row == model.vocab["<unk>"]


class TestScorer:

    def test_assemble_pair_layout(self):
        model, _ = build_model()
        rng = np.random.default_rng(0)
        ht = rng.normal(size=(2, 3, model.config.d_model))
        hv = rng.normal(size=(2, 4, model.config.d_model))
        seq = model.assemble_pair(Tensor(ht), Tensor(hv))
        assert seq.shape == (2, 1 + 3 + 1 + 4, model.config.scorer_dim)
        np.testing.assert_array_equal(seq.data[:, 1:4], ht)
        np.testing.assert_array_equal(seq.data[:, 5:], hv)
        np.testing.assert_array_equal(seq.data[0, 0], seq.data[1, 0])

    def test_projection_applied_when_scorer_wider(self):
        model_corpus = small_corpus()
        cfg = small_config(scorer_d=32, scorer_heads=2)
        model = TmegModel(cfg, build_vocab(model_corpus), seed=0)
        ht = Tensor(np.zeros((1, 2, cfg.d_model)))
        hv = Tensor(np.zeros((1, 2, cfg.d_model)))
        seq = model.assemble_pair(ht, hv)
        assert seq.shape[-1] == 32

    def test_zero_readout_scores_zero(self):
        model, corpus = build_model()
        model.store["scorer/out_w2"].value[:] = 0.0
        instances = make_instances(corpus, ["cloze"], 3, 0)
        prepared = prepare_instances(corpus, instances[:1], 7.0, 0.5)
        scores = model.score_graphs(prepared[0].graphs)
        np.testing.assert_array_equal(scores.data, np.zeros(3))


def full_row_score_batch(model, batch):
    """`score_batch` with every stack's last layer run over all rows and
    the rows that are read gathered after it: the reference for the
    row-pruned last layers."""
    h = model.run_encoder_batch(batch)
    graphs = np.arange(batch.size)[:, None]
    ht, hv = h[graphs, batch.text_cls_idx], h[graphs, batch.vis_cls_idx]
    seq = model.assemble_pair(ht, hv)
    for l in range(model.config.scorer_layers):
        seq = model._transformer_layer(seq, f"sc{l}", model.config.scorer_heads,
                                       key_bias=batch.scorer_key_bias())
    hidden = linear(seq[:, 0], model.p("scorer/out_w1"),
                    model.p("scorer/out_b1")).tanh()
    return linear(hidden, model.p("scorer/out_w2"))[:, 0], ht, hv


class TestLastLayerRows:
    """Each stack's last layer computes only the rows read next; the
    results must match running it over every row."""

    def uniform_setup(self, ablation):
        model, corpus = build_model(seed=1, init_scale=0.5)
        instances = make_instances(corpus, ["cloze"], 3, 0)
        return model, prepare_instances(corpus, instances[:4], 7.0, 0.5,
                                        ablation)

    # the parameters name which codes the ablation clears (see ABLATION)
    @pytest.mark.parametrize("clear_t,clear_m", [
        (False, False), (True, False), (False, True), (True, True)])
    @pytest.mark.parametrize("shape", ["uniform", "ragged"])
    def test_matches_full_rows(self, shape, clear_t, clear_m):
        ablation = ABLATION[clear_t, clear_m]
        if shape == "uniform":
            model, prepared = self.uniform_setup(ablation)
        else:
            model, prepared = mixed_structure_setup(0.5, ablation)
        graphs = [g for p in prepared for g in p.graphs]
        batch = prepare_batch(graphs, model.vocab, model.config)
        assert batch.node_mask.all() == (shape == "uniform")
        got = model.score_batch(batch)
        want = full_row_score_batch(model, batch)
        for name, a, b in zip(("scores", "ht", "hv"), got, want):
            assert a.shape == b.shape, name
            np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-12,
                                       err_msg=name)

        cfg = RunConfig(model=model.config, n_candidates=3, seed=0)
        results = []
        for reference in (False, True):
            if reference:
                model.score_batch = lambda b: full_row_score_batch(model, b)
            loss = _batch_loss(model, prepared, cfg, np.random.default_rng(2))
            grad_eval(loss, model.store)
            results.append((loss.data, {name: p.gradient.copy() for name, p
                                        in model.store.params.items()}))
        (got_loss, got_grads), (want_loss, want_grads) = results
        assert_rel_close(got_loss, want_loss)
        for name, g in want_grads.items():
            assert_rel_close(got_grads[name], g, rtol=1e-10, what=name)


class TestLosses:

    def test_uniform_coherence_is_log_k_plus_one(self):
        d = 8
        v = np.ones((3, d))
        negs = np.ones((8, d))
        loss = coherence_loss(Tensor(v), Tensor(v), Tensor(negs), tau=0.07)
        assert float(loss.data) == pytest.approx(math.log(9.0), abs=1e-9)

    def test_uniform_coherence_exclusive_variant(self):
        d = 4
        v = np.ones((2, d))
        negs = np.ones((5, d))
        loss = coherence_loss(Tensor(v), Tensor(v), Tensor(negs), tau=0.5,
                              inclusive=False)
        assert float(loss.data) == pytest.approx(math.log(5.0), abs=1e-9)

    def test_coherence_decreases_when_positive_aligned(self):
        rng = np.random.default_rng(0)
        d = 6
        ht = rng.normal(size=(2, d))
        negs = rng.normal(size=(4, d))
        aligned = coherence_loss(Tensor(ht), Tensor(ht * 2.0), Tensor(negs),
                                 tau=0.07)
        opposed = coherence_loss(Tensor(ht), Tensor(-ht), Tensor(negs),
                                 tau=0.07)
        assert float(aligned.data) < float(opposed.data)

    def test_coherence_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            coherence_loss(Tensor(np.zeros((1, 3))), Tensor(np.ones((1, 3))),
                           Tensor(np.ones((2, 3))), tau=0.07)

    def test_uniform_prediction_is_log_nc(self):
        scores = Tensor(np.zeros(4))
        assert float(prediction_loss(scores, 2).data) == pytest.approx(
            math.log(4.0), abs=1e-9)

    def test_prediction_loss_prefers_gold(self):
        scores = np.array([0.0, 3.0, 0.0])
        good = prediction_loss(Tensor(scores), 1)
        bad = prediction_loss(Tensor(scores), 0)
        assert float(good.data) < float(bad.data)

    def test_prediction_batch_matches_single(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(5, 4))
        gold = rng.integers(0, 4, size=5)
        batch = prediction_loss_batch(Tensor(scores), gold)
        singles = np.mean([
            float(prediction_loss(Tensor(s), int(g)).data)
            for s, g in zip(scores, gold)
        ])
        assert float(batch.data) == pytest.approx(singles, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_prediction_loss_repeats_the_composed_chain(self, n):
        """prediction_loss runs the `cross_entropy` node, and equals the
        composed logsumexp - gather chain bit for bit, in value and in
        gradient, on random rows."""
        rng = np.random.default_rng(n)
        for _ in range(20):
            row = rng.normal(scale=rng.uniform(0.1, 30.0), size=n)
            gold = int(rng.integers(n))
            weight = rng.normal()
            results = []
            for loss_fn in (prediction_loss,
                            lambda s, g: logsumexp(s, axis=-1) - s[g]):
                scores = Tensor(row, requires_grad=True)
                loss = loss_fn(scores * 1.0, gold)
                (loss * weight).backward()
                results.append((loss.data.tobytes(), scores.grad.tobytes()))
            assert results[0] == results[1]

    def test_prediction_gold_range_checked(self):
        with pytest.raises(ValueError):
            prediction_loss(Tensor(np.zeros(3)), 3)

    def test_total_loss_weighting(self):
        pred = Tensor(np.array(2.0))
        coh = Tensor(np.array(4.0))
        assert float(total_loss(pred, coh, 0.5).data) == pytest.approx(4.0)
        assert float(total_loss(pred, coh, 0.0).data) == pytest.approx(2.0)
        assert float(total_loss(pred, None, 0.5).data) == pytest.approx(2.0)


class TestBatchedCoherence:
    """The batched coherence loss against the per-instance formula."""

    n_rows = np.array([3, 1, 5, 2])
    n_neg = np.array([4, 2, 4, 3])

    def padded_inputs(self, seed, zero_padding):
        rng = np.random.default_rng(seed)
        ht, hv = rng.normal(size=(2, 4, 5, 6))
        negs = rng.normal(size=(4, 4, 6))
        if zero_padding:
            for x, counts in ((ht, self.n_rows), (hv, self.n_rows),
                              (negs, self.n_neg)):
                x[np.arange(x.shape[1]) >= counts[:, None]] = 0.0
        return ht, hv, negs

    @pytest.mark.parametrize("inclusive", [True, False])
    @pytest.mark.parametrize("zero_padding", [False, True])
    def test_matches_per_instance_mean(self, inclusive, zero_padding):
        """Ragged row and negative counts; zero padding rows never raise."""
        arrays = self.padded_inputs(0, zero_padding)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        got = coherence_loss(*leaves, 0.07, inclusive, self.n_rows, self.n_neg)
        got.backward()
        parts = []
        for i, (n, k) in enumerate(zip(self.n_rows, self.n_neg)):
            parts.append([Tensor(arrays[0][i, :n], requires_grad=True),
                          Tensor(arrays[1][i, :n], requires_grad=True),
                          Tensor(arrays[2][i, :k], requires_grad=True)])
        want = concat([reference_coherence(*p, 0.07, inclusive).reshape(1)
                       for p in parts], axis=0).mean()
        want.backward()
        assert np.isfinite(got.data)
        assert_rel_close(got.data, want.data)
        for j, (leaf, counts) in enumerate(zip(
                leaves, (self.n_rows, self.n_rows, self.n_neg))):
            for i, n in enumerate(counts):
                assert_rel_close(leaf.grad[i, :n], parts[i][j].grad,
                                 what=f"input {j}, instance {i}")
                assert (leaf.grad[i, n:] == 0.0).all()

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_zero_norm_real_row_raises(self, which):
        arrays = self.padded_inputs(1, zero_padding=True)
        arrays[which][3, 1] = 0.0   # a real row or negative of instance 3
        with pytest.raises(ValueError, match="zero-norm"):
            coherence_loss(*[Tensor(a) for a in arrays], 0.07, True,
                           self.n_rows, self.n_neg)

    @pytest.mark.parametrize("case", ["ragged", "row-less instance",
                                      "one instance", "exclusive"])
    def test_batch_loss_matches_per_instance_loop(self, case):
        """Same negatives drawn, same loss and parameter gradients."""
        model, prepared = mixed_structure_setup(init_scale=0.5)
        assert len({p.aligned_rows.size for p in prepared}) > 1
        # more negatives than any pool holds, so negative counts are ragged
        model_cfg = dataclasses.replace(
            model.config, k_negatives=64, coherence_inclusive=case != "exclusive")
        if case == "row-less instance":
            prepared[1] = dataclasses.replace(
                prepared[1], aligned_rows=prepared[1].aligned_rows[:0])
        elif case == "one instance":
            prepared = prepared[:1]
        cfg = RunConfig(model=model_cfg, n_candidates=3, seed=0)
        results = []
        for fn in (_batch_loss, reference_batch_loss):
            loss = fn(model, prepared, cfg, np.random.default_rng(3))
            grad_eval(loss, model.store)
            results.append((loss.data, {name: p.tensor.grad.copy() for name, p
                                        in model.store.params.items()}))
        (got, got_grads), (want, want_grads) = results
        assert_rel_close(got, want)
        for name, g in want_grads.items():
            assert_rel_close(got_grads[name], g, what=name)
