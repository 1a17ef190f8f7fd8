"""Walkthrough: train on a small synthetic cloze corpus and ablate the
graph's edge codes.

The corpus is built so content cannot answer the question: every step of
a document mentions the same three entities and object boxes sit on a
fixed grid, so the four candidate images look alike. Only the grounding
of the recurring entities into their own step separates gold from the
distractors, and that signal reaches the model exclusively through the
edge-code attention biases. Clearing the codes to NONE, which reads a
bias of 0, should drop accuracy to chance.
"""

from tmeg.data import Corpus, SyntheticConfig, generate_synthetic_corpus
from tmeg.harness import RunConfig, train
from tmeg.model import ModelConfig


def corpora():
    syn = SyntheticConfig(num_docs=40, steps_min=7, steps_max=7,
                          tokens_per_step_min=3, tokens_per_step_max=3,
                          entity_vocab_size=24, token_vocab_size=30,
                          objects_per_image_min=3, objects_per_image_max=3,
                          images_per_step=1, d_v=8, n_candidates=4, seed=7,
                          feature_noise_sigma=0.1, roster_size=3,
                          box_grid=True)
    corpus = generate_synthetic_corpus(syn)
    return (Corpus(corpus.d_v, corpus.documents[:32]),
            Corpus(corpus.d_v, corpus.documents[32:]))


def run(ablation):
    model = ModelConfig(d_model=32, n_heads=4, n_layers=2, ffn_multiplier=2,
                        scorer_layers=2, scorer_heads=4, k_negatives=8,
                        lambda_b=0.1, token_vocab_size=64, d_v=8,
                        max_steps=16, init_scale=0.1)
    cfg = RunConfig(model=model, tasks=["cloze"], batch_size=16,
                    learning_rate=1e-3, max_epochs=12, patience=12,
                    n_candidates=4, seed=0, ablation=ablation)
    train_c, valid_c = corpora()
    result = train(cfg, train_corpus=train_c, valid_corpus=valid_c)
    return result.report


def main():
    print("training three variants (about 20s each)...\n")
    for ablation in ("none", "no_temporal", "no_both"):
        report = run(ablation)
        last = report.curves[-1]
        print(f"{ablation:12s} valid accuracy {report.average_accuracy:.3f} "
              f"(final train loss {last['train_loss']:.3f}, "
              f"{len(report.curves)} epochs)")
    print("\nclearing both kinds of edge code removes the graph structure "
          "from attention, and\nwith it the only generalizable signal in "
          "this corpus; accuracy falls back toward chance.")


if __name__ == "__main__":
    main()
