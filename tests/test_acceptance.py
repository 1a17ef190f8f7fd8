"""End-to-end acceptance checks.

Each test prints a single PASS line with its measured quantity once its
assertions hold. The training-based checks share cached runs so the whole
file stays within its time budget.
"""

import functools
import os
import time

import numpy as np
from scipy.stats import binom

from test_graph import oracle_matrices, random_input
from test_model import edge_bias, reference_layer

from tmeg.autodiff import Tensor
from tmeg.data import (
    BoundingBox, Corpus, NounPhrase, ObjectFeature, PmdDocument, Step,
    StepImage, SyntheticConfig, TaskInstance, build_vocab,
    generate_synthetic_corpus, mean_pool_image, sample_distractors,
)
from tmeg.graph import assemble_graph
from tmeg.harness import (
    RunConfig, ablate_graph, evaluate, make_instances, prepare_instances,
    save_model, train, _batch_loss,
)
from tmeg.model import (
    ModelConfig, TmegModel, coherence_loss, edge_codes, init_params,
    prediction_loss,
)
from tmeg.optim import finite_difference_check


def announce(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


# ----------------------------------------------------------------------
# shared corpora and cached training runs


def learnability_corpora():
    """64 train / 16 valid documents where only the gold candidate's image
    grounds into the question window.

    Every step of a document mentions the same three recurring entities and
    object boxes sit on a fixed grid, so candidate images are
    indistinguishable by content; which image belongs at the blank is
    determined by the recurring entities' grounding into their own step,
    visible to the model only through the edge-code matrices."""
    syn = SyntheticConfig(num_docs=80, steps_min=7, steps_max=7,
                          tokens_per_step_min=3, tokens_per_step_max=3,
                          entity_vocab_size=24, token_vocab_size=30,
                          objects_per_image_min=3, objects_per_image_max=3,
                          images_per_step=1, d_v=8, n_candidates=4, seed=123,
                          feature_noise_sigma=0.1, roster_size=3,
                          box_grid=True)
    corpus = generate_synthetic_corpus(syn)
    return (Corpus(corpus.d_v, corpus.documents[:64]),
            Corpus(corpus.d_v, corpus.documents[64:]))


def learnability_config(seed=0, ablation="none"):
    model = ModelConfig(d_model=32, n_heads=4, n_layers=2, ffn_multiplier=2,
                        scorer_layers=2, scorer_heads=4, tau=0.07,
                        k_negatives=8, lambda_b=0.1, token_vocab_size=64,
                        d_v=8, max_steps=16, init_scale=0.1)
    return RunConfig(model=model, tasks=["cloze"], batch_size=16,
                     learning_rate=1e-3, max_epochs=25, patience=25,
                     n_candidates=4, seed=seed, ablation=ablation)


@functools.lru_cache(maxsize=None)
def learnability_run(seed, ablation):
    train_c, valid_c = learnability_corpora()
    result = train(learnability_config(seed, ablation), train_c, valid_c)
    return result


# ----------------------------------------------------------------------
# criterion 1: gradient fidelity on a tiny instance


def tiny_instance():
    """Two steps of three tokens, two images of two objects, N_c=2."""
    d_v = 4
    rng = np.random.default_rng(0)
    boxes = [BoundingBox(0.05, 0.05, 0.45, 0.45),
             BoundingBox(0.55, 0.55, 0.95, 0.95)]
    steps, images = [], []
    for s in (1, 2):
        image_id = f"im{s}"
        objects = [ObjectFeature(feature=rng.normal(0.0, 1.0, size=d_v),
                                 box=box, confidence=0.9) for box in boxes]
        images.append(StepImage(image_id=image_id, objects=objects))
        phrase = NounPhrase(span=(0, 1), entity_id="e0",
                            grounding_boxes={image_id: boxes[0]})
        steps.append(Step(index=s, tokens=["mix", "the", "bowl"],
                          noun_phrases=[phrase], images=[images[-1]]))
    doc = PmdDocument(doc_id="tiny", domain_tag="recipe-like", steps=steps)
    corpus = Corpus(d_v, [doc])
    instance = TaskInstance(task_kind="cloze", doc_id="tiny",
                            context_steps=[1, 2],
                            candidates=[["im1", "im2"], ["im2", "im1"]],
                            gold_index=0)
    return corpus, instance


def test_criterion_1_gradient_fidelity(capsys):
    t0 = time.monotonic()
    corpus, instance = tiny_instance()
    model_cfg = ModelConfig(d_model=8, n_heads=2, n_layers=2,
                            ffn_multiplier=2, scorer_layers=1, scorer_heads=2,
                            tau=0.07, k_negatives=2, lambda_b=0.1,
                            token_vocab_size=16, d_v=4, max_steps=8)
    cfg = RunConfig(model=model_cfg, n_candidates=2, seed=0)
    # evaluated away from the stiff small-variance layer-norm regime, where
    # central differences would be dominated by truncation error
    store = init_params(model_cfg, seed=0, init_scale=0.5)
    model = TmegModel(model_cfg, build_vocab(corpus), store=store)
    prepared = prepare_instances(corpus, [instance], cfg.lambda_t, cfg.lambda_m)

    def loss_fn():
        return _batch_loss(model, prepared, cfg, np.random.default_rng(0))

    err = finite_difference_check(loss_fn, model.store, seed=0,
                                  max_coords_per_param=4)
    elapsed = time.monotonic() - t0
    assert err < 1e-4
    assert elapsed < 60.0
    announce(capsys, f"criterion 1 PASS: max relative gradient error "
                     f"{err:.2e} < 1e-4 in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# criterion 2: zero-bias transformer equivalence


def test_criterion_2_zero_bias_equivalence(capsys):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(d_model=16, n_heads=2, n_layers=1, ffn_multiplier=2,
                          token_vocab_size=8, d_v=4, max_steps=8)
        store = init_params(cfg, seed=seed, init_scale=0.3)
        store["bias_t"].value[:] = 0.0
        store["bias_m"].value[:] = 0.0
        model = TmegModel(cfg, {"<unk>": 0}, store=store)
        n = int(rng.integers(4, 10))
        h = rng.normal(size=(1, n, cfg.d_model))
        phi_t = rng.integers(0, 4, size=(1, n, n))
        phi_m = rng.integers(0, 5, size=(1, n, n))
        out = model.fusion_layer(Tensor(h), edge_codes(phi_t, phi_m),
                                 layer=0).data[0]
        ref = reference_layer(h[0], store.params, "enc0", cfg.n_heads)
        worst = max(worst, float(np.abs(out - ref).max()))
        np.testing.assert_allclose(out, ref, atol=1e-12, rtol=0)
    announce(capsys, f"criterion 2 PASS: zero-bias fusion layer matches the "
                     f"reference within 1e-12 over 100 seeds (worst {worst:.2e})")


# ----------------------------------------------------------------------
# criterion 3: ablation logit locality


def test_criterion_3_no_temporal_logit_locality(capsys):
    cfg = ModelConfig(d_model=16, n_heads=2, n_layers=2, ffn_multiplier=2,
                      token_vocab_size=8, d_v=3, max_steps=8)
    store = init_params(cfg, seed=0, init_scale=0.3)
    model = TmegModel(cfg, {"<unk>": 0}, store=store)
    rng = np.random.default_rng(11)
    for trial in range(100):
        steps, images = random_input(rng)
        graph = assemble_graph(steps, images)
        ablated = ablate_graph(graph, "no_temporal")
        # attention logits are content plus additive edge bias; the content
        # term is unaffected by clearing edge codes, so the logit change
        # equals the bias change entry for entry, for every head
        for layer in range(cfg.n_layers):
            full = edge_bias(model, layer, edge_codes(graph.phi_t, graph.phi_m))
            cut = edge_bias(model, layer, edge_codes(ablated.phi_t, ablated.phi_m))
            diff = full - cut
            assert (diff[:, graph.phi_t == 0] == 0.0).all()
    announce(capsys, "criterion 3 PASS: no_temporal leaves logits unchanged "
                     "at unlabeled entries on 100 random graphs")


# ----------------------------------------------------------------------
# criterion 4: graph oracle equivalence


def test_criterion_4_graph_oracle_equivalence(capsys):
    rng = np.random.default_rng(1234)
    for trial in range(1000):
        steps, images = random_input(rng)
        lam_t = float(rng.uniform(1.0, 8.0))
        lam_m = float(rng.uniform(0.05, 0.6))
        graph = assemble_graph(steps, images, lam_t, lam_m)
        ref_t, ref_m = oracle_matrices(graph.nodes, lam_t, lam_m)
        np.testing.assert_array_equal(graph.phi_t, ref_t)
        np.testing.assert_array_equal(graph.phi_m, ref_m)
    announce(capsys, "criterion 4 PASS: edge-code matrices equal the "
                     "brute-force labeler on 1000 random inputs")


# ----------------------------------------------------------------------
# criterion 5: analytic loss values


def test_criterion_5_analytic_loss_values(capsys):
    d = 6
    row = np.full((1, d), 0.3)
    ht = Tensor(np.repeat(row, 3, axis=0))
    hv = Tensor(np.repeat(row, 3, axis=0))
    negs = Tensor(np.repeat(row, 8, axis=0))
    coh = float(coherence_loss(ht, hv, negs, tau=0.07, inclusive=True).data)
    assert abs(coh - np.log(9.0)) < 1e-9

    pred = float(prediction_loss(Tensor(np.zeros(4)), gold=2).data)
    assert abs(pred - np.log(4.0)) < 1e-9
    announce(capsys, f"criterion 5 PASS: uniform coherence loss {coh:.6f} = "
                     f"ln(K+1), uniform prediction loss {pred:.6f} = ln(N_c)")


# ----------------------------------------------------------------------
# criteria 6 and 7: synthetic learnability and ablation trend


def test_criterion_6_synthetic_learnability(capsys):
    t0 = time.monotonic()
    train_c, valid_c = learnability_corpora()
    cfg = learnability_config(seed=0)
    result = learnability_run(0, "none")
    assert len(result.report.curves) <= 50

    train_inst = make_instances(train_c, cfg.tasks, cfg.n_candidates, cfg.seed)
    train_report = evaluate(result.model, train_inst, train_c, cfg)
    valid_acc = result.report.average_accuracy
    train_acc = train_report.average_accuracy

    untrained = TmegModel(cfg.model, build_vocab(train_c), seed=5)
    valid_inst = make_instances(valid_c, cfg.tasks, cfg.n_candidates,
                                cfg.seed + 1)
    chance_report = evaluate(untrained, valid_inst, valid_c, cfg)
    n = len(valid_inst)
    lo = binom.ppf(0.005, n, 0.25) / n
    hi = binom.ppf(0.995, n, 0.25) / n
    chance = chance_report.average_accuracy
    elapsed = time.monotonic() - t0

    assert train_acc >= 0.95
    assert valid_acc >= 0.80
    assert lo <= chance <= hi
    assert elapsed < 900.0
    announce(capsys, f"criterion 6 PASS: train {train_acc:.3f} >= 0.95, "
                     f"valid {valid_acc:.3f} >= 0.80, untrained {chance:.3f} "
                     f"in [{lo:.3f}, {hi:.3f}], {elapsed:.0f}s")


def test_criterion_7_ablation_trend(capsys):
    seeds = (0, 1, 2)
    means = {}
    for ablation in ("none", "no_temporal", "no_both"):
        accs = [learnability_run(s, ablation).report.average_accuracy
                for s in seeds]
        means[ablation] = float(np.mean(accs))
    full = means["none"]
    assert full >= means["no_temporal"]
    assert full >= means["no_both"]
    assert (full - means["no_both"]) >= 0.05
    announce(capsys, f"criterion 7 PASS: full {full:.3f} >= no_temporal "
                     f"{means['no_temporal']:.3f}, full - no_both "
                     f"{full - means['no_both']:.3f} >= 0.05")


# ----------------------------------------------------------------------
# criterion 8: distractor correctness


def test_criterion_8_distractor_correctness(capsys):
    rng = np.random.default_rng(99)
    box = BoundingBox(0.1, 0.1, 0.9, 0.9)

    def image(idx, d_v):
        objs = [ObjectFeature(feature=rng.normal(0.0, 2.0, size=d_v),
                              box=box, confidence=1.0)
                for _ in range(int(rng.integers(1, 4)))]
        return StepImage(image_id=f"p{idx}", objects=objs)

    for trial in range(1000):
        d_v = int(rng.integers(2, 6))
        pool = [image(i, d_v) for i in range(int(rng.integers(1, 9)))]
        gold = StepImage(image_id="gold", objects=[
            ObjectFeature(feature=rng.normal(0.0, 2.0, size=d_v),
                          box=box, confidence=1.0)])
        n = int(rng.integers(0, len(pool) + 1))
        got = [img.image_id for img in sample_distractors(gold, pool, n)]
        gold_feat = mean_pool_image(gold)
        ranked = sorted(
            pool,
            key=lambda im: (float(np.linalg.norm(mean_pool_image(im) - gold_feat)),
                            im.image_id))
        assert got == [img.image_id for img in ranked[:n]]
    announce(capsys, "criterion 8 PASS: sample_distractors equals brute-force "
                     "top-n on 1000 random pools")


# ----------------------------------------------------------------------
# criterion 9: byte-level determinism


def test_criterion_9_determinism(capsys, tmp_path):
    syn = SyntheticConfig(num_docs=3, steps_min=6, steps_max=6,
                          tokens_per_step_min=3, tokens_per_step_max=3,
                          entity_vocab_size=6, token_vocab_size=16,
                          objects_per_image_min=2, objects_per_image_max=2,
                          images_per_step=1, d_v=4, n_candidates=2, seed=0)
    model_cfg = ModelConfig(d_model=8, n_heads=2, n_layers=1,
                            ffn_multiplier=2, scorer_layers=1, scorer_heads=2,
                            k_negatives=2, token_vocab_size=64, d_v=4,
                            max_steps=16)
    cfg = RunConfig(model=model_cfg, tasks=["cloze"], batch_size=4,
                    learning_rate=1e-3, max_epochs=2, n_candidates=2, seed=7)
    outputs = []
    for run in range(2):
        corpus = generate_synthetic_corpus(syn)
        result = train(cfg, Corpus(corpus.d_v, corpus.documents[:2]),
                       Corpus(corpus.d_v, corpus.documents[2:]))
        path = os.path.join(tmp_path, f"run{run}.ckpt")
        save_model(path, result.model)
        with open(path, "rb") as fh:
            ckpt_bytes = fh.read()
        with open(path + ".json", "rb") as fh:
            sidecar_bytes = fh.read()
        outputs.append((result.report.to_json(deterministic=True).encode(),
                        ckpt_bytes, sidecar_bytes))
    assert outputs[0] == outputs[1]
    announce(capsys, "criterion 9 PASS: repeated training yields "
                     "byte-identical metrics JSON and checkpoints")
