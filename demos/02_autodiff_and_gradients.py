"""Walkthrough: the reverse-mode substrate and the gradient check.

Shows a hand-built computation with its analytic gradient, then runs the
finite-difference check on a real (tiny) scoring model.
"""

import numpy as np

from tmeg.autodiff import Tensor, logsumexp
from tmeg.data import SyntheticConfig, build_vocab, generate_synthetic_corpus
from tmeg.harness import RunConfig, make_instances, prepare_instances, \
    _batch_loss
from tmeg.model import ModelConfig, TmegModel, init_params
from tmeg.optim import finite_difference_check


def basics():
    print("== reverse mode on a small expression ==")
    w = Tensor(np.array([[0.5, -0.3, 0.2], [0.1, 0.8, -0.4]]),
               requires_grad=True)
    x = Tensor(np.array([[1.0, 2.0]]))
    # a layer norm over the three features, built from elementwise ops
    z = x @ w
    centered = z - z.mean(axis=-1, keepdims=True)
    h = centered / ((centered * centered).mean(axis=-1, keepdims=True)
                    + 1e-12).sqrt()
    # negative log-probability of class 0 under a softmax readout
    loss = logsumexp(h, axis=-1)[0] - h[0, 0]
    loss.backward()
    print(f"loss = {float(loss.data):.6f}")
    print("dloss/dw =")
    print(w.grad)


def model_check():
    print("\n== finite-difference check on a tiny model ==")
    syn = SyntheticConfig(num_docs=2, steps_min=5, steps_max=5,
                          tokens_per_step_min=3, tokens_per_step_max=3,
                          entity_vocab_size=4, token_vocab_size=8,
                          objects_per_image_min=2, objects_per_image_max=2,
                          images_per_step=1, d_v=4, n_candidates=2, seed=0)
    corpus = generate_synthetic_corpus(syn)
    model_cfg = ModelConfig(d_model=8, n_heads=2, n_layers=2,
                            ffn_multiplier=2, scorer_layers=1, scorer_heads=2,
                            k_negatives=2, token_vocab_size=16, d_v=4,
                            max_steps=8)
    cfg = RunConfig(model=model_cfg, n_candidates=2, seed=0)
    # evaluate away from the tiny-variance init so layer norms are smooth
    store = init_params(model_cfg, seed=0, init_scale=0.5)
    model = TmegModel(model_cfg, build_vocab(corpus), store=store)
    instances = make_instances(corpus, ["cloze"], 2, seed=0)[:2]
    prepared = prepare_instances(corpus, instances, cfg.lambda_t, cfg.lambda_m,
                                 cfg.ablation)

    def loss_fn():
        return _batch_loss(model, prepared, cfg, np.random.default_rng(0))

    err = finite_difference_check(loss_fn, model.store, seed=0,
                                  max_coords_per_param=4)
    n_params = sum(p.value.size for p in model.store.params.values())
    print(f"{n_params} parameters across {len(model.store.params)} families")
    print(f"max relative error vs central differences: {err:.2e}")


if __name__ == "__main__":
    basics()
    model_check()
