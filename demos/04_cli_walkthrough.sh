#!/bin/sh
# End-to-end command-line walkthrough: generate a corpus, build task
# instances, train, gradient-check, evaluate, sweep the coherence weight,
# and train on one corpus to test on another. Every subcommand runs once,
# each in a fresh interpreter. Everything lands in a scratch directory.
set -e

work=$(mktemp -d)
echo "working in $work"

cat > "$work/syn.json" <<'JSON'
{"num_docs": 12, "steps_min": 6, "steps_max": 6,
 "tokens_per_step_min": 3, "tokens_per_step_max": 3,
 "entity_vocab_size": 8, "token_vocab_size": 20,
 "objects_per_image_min": 2, "objects_per_image_max": 2,
 "images_per_step": 1, "d_v": 4, "n_candidates": 2, "seed": 0}
JSON

cat > "$work/run.json" <<JSON
{"model": {"d_model": 16, "n_heads": 2, "n_layers": 1, "ffn_multiplier": 2,
           "scorer_layers": 1, "scorer_heads": 2, "k_negatives": 2,
           "token_vocab_size": 64, "d_v": 4, "max_steps": 16},
 "tasks": ["cloze"], "batch_size": 8, "learning_rate": 0.001,
 "max_epochs": 3, "n_candidates": 2, "seed": 0,
 "train_corpus": "$work/corpus.json", "valid_corpus": "$work/corpus.json"}
JSON

python3 -m tmeg.cli gen-data --config "$work/syn.json" --out "$work/corpus.json"
python3 -m tmeg.cli make-tasks --corpus "$work/corpus.json" --task cloze \
    --n-candidates 2 --out "$work/tasks.jsonl"
python3 -m tmeg.cli grad-check --config "$work/run.json"
python3 -m tmeg.cli --metrics-out "$work/train.json" train \
    --config "$work/run.json" --checkpoint-out "$work/model.ckpt"
python3 -m tmeg.cli --metrics-out "$work/eval.json" --dump-graphs eval \
    --checkpoint "$work/model.ckpt" --tasks "$work/tasks.jsonl" \
    --corpus "$work/corpus.json"
python3 -m tmeg.cli sweep-lambda --config "$work/run.json" --values 0,0.1
python3 -m tmeg.cli --seed 1 gen-data --config "$work/syn.json" \
    --out "$work/corpus_b.json"
python3 -m tmeg.cli --metrics-out "$work/transfer.json" transfer \
    --train "$work/corpus.json" --eval "$work/corpus_b.json" \
    --config "$work/run.json"

echo "artifacts:"
ls -la "$work"
