"""Walkthrough: one fused training step, its gradient and the gradient check.

Builds a tiny scoring model and batch, runs one training step's forward
(each stage one fused tape node), backpropagates it, prints the loss and
one parameter's gradient, then checks every parameter family's gradient
against central differences of the same step.
"""

import numpy as np

from tmeg.data import SyntheticConfig, build_vocab, generate_synthetic_corpus
from tmeg.harness import RunConfig, make_instances, prepare_instances, \
    _batch_loss
from tmeg.model import ModelConfig, TmegModel, init_params
from tmeg.optim import finite_difference_check, grad_eval


def tiny_step():
    """A tiny model and a loss function running one training step on two
    cloze instances."""
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

    return model, loss_fn


def main():
    model, loss_fn = tiny_step()

    print("== one fused training step ==")
    loss = loss_fn()
    grad_eval(loss, model.store)
    print(f"loss = {float(loss.data):.6f} "
          "(prediction cross-entropy + lambda_b * InfoNCE coherence)")
    bias_t = model.store["bias_t"]
    print("dloss/d bias_t[layer 0] (per head, per temporal edge code;")
    print("the NONE code, column 0, reads 0 and gets no gradient) =")
    print(bias_t.gradient[0])

    print("\n== finite-difference check of the same step ==")
    err = finite_difference_check(loss_fn, model.store, seed=0,
                                  max_coords_per_param=4)
    n_params = sum(p.value.size for p in model.store.params.values())
    print(f"{n_params} parameters across {len(model.store.params)} families")
    print(f"max relative error vs central differences: {err:.2e}")


if __name__ == "__main__":
    main()
