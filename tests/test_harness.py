"""Harness tests: instance preparation, training loop, ablations,
persistence, transfer, and the balance-parameter sweep.

Training runs here use deliberately tiny corpora and epoch counts; the
learning-quality checks live in the acceptance tests.
"""

import json
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from tmeg.data import Corpus, SyntheticConfig, build_vocab, generate_synthetic_corpus
from tmeg import graph as G
from tmeg.autodiff import no_grad
from tmeg.harness import (
    RunConfig, TrainError, _batch_loss, _batch_scores, _restore, _snapshot,
    evaluate, evaluate_prepared, load_model, make_instances,
    prepare_instances, save_model, score_prepared, sweep_lambda_b, train,
    transfer,
)
from tmeg.model import ModelConfig, TmegModel, init_params
from tmeg.optim import CheckpointError, ParamStore, adam_step, grad_eval


def tiny_corpus(seed=0, num_docs=3, **overrides):
    kw = dict(num_docs=num_docs, steps_min=6, steps_max=6,
              tokens_per_step_min=3, tokens_per_step_max=3,
              entity_vocab_size=6, token_vocab_size=16,
              objects_per_image_min=2, objects_per_image_max=2,
              images_per_step=1, d_v=4, n_candidates=2, seed=seed)
    kw.update(overrides)
    return generate_synthetic_corpus(SyntheticConfig(**kw))


def tiny_run_config(**overrides):
    model = ModelConfig(d_model=8, n_heads=2, n_layers=1, ffn_multiplier=2,
                        scorer_layers=1, scorer_heads=2, tau=0.07,
                        k_negatives=2, lambda_b=0.1, token_vocab_size=64,
                        d_v=4, max_steps=16)
    kw = dict(model=model, tasks=["cloze"], batch_size=4, learning_rate=1e-3,
              max_epochs=2, patience=5, n_candidates=2, seed=0)
    kw.update(overrides)
    return RunConfig(**kw)


def criterion6_step_setup():
    """A model, prepared instances and run config at the criterion-6
    learnability config, for single training steps of batch_size 16."""
    syn = SyntheticConfig(num_docs=16, steps_min=7, steps_max=7,
                          tokens_per_step_min=3, tokens_per_step_max=3,
                          entity_vocab_size=24, token_vocab_size=30,
                          objects_per_image_min=3, objects_per_image_max=3,
                          images_per_step=1, d_v=8, n_candidates=4,
                          seed=123, feature_noise_sigma=0.1,
                          roster_size=3, box_grid=True)
    corpus = generate_synthetic_corpus(syn)
    model_cfg = ModelConfig(d_model=32, n_heads=4, n_layers=2,
                            ffn_multiplier=2, scorer_layers=2,
                            scorer_heads=4, tau=0.07, k_negatives=8,
                            lambda_b=0.1, token_vocab_size=64, d_v=8,
                            max_steps=16, init_scale=0.1)
    cfg = RunConfig(model=model_cfg, tasks=["cloze"], batch_size=16,
                    learning_rate=1e-3, n_candidates=4, seed=0)
    model = TmegModel(model_cfg, build_vocab(corpus), seed=0)
    instances = make_instances(corpus, cfg.tasks, cfg.n_candidates, 0)
    prepared = prepare_instances(corpus, instances[:2 * cfg.batch_size],
                                 cfg.lambda_t, cfg.lambda_m)
    return model, prepared, cfg


class TestRunConfig:

    def test_rejects_unknown_ablation(self):
        with pytest.raises(TrainError):
            tiny_run_config(ablation="no_edges")

    def test_rejects_bad_patience_and_batch(self):
        with pytest.raises(TrainError):
            tiny_run_config(patience=0)
        with pytest.raises(TrainError):
            tiny_run_config(max_epochs=0)
        with pytest.raises(TrainError):
            tiny_run_config(batch_size=0)

    def test_round_trips_through_dict(self):
        cfg = tiny_run_config(ablation="no_modal", lambda_b=0.25)
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_no_coherence_zeroes_lambda_b(self):
        cfg = tiny_run_config(ablation="no_coherence", lambda_b=0.3)
        assert cfg.effective_lambda_b() == 0.0

    @pytest.mark.parametrize("value", [-0.5, float("nan")])
    def test_rejects_negative_or_nan_lambda_b(self, value):
        with pytest.raises(TrainError, match="lambda_b"):
            tiny_run_config(lambda_b=value)

    @pytest.mark.parametrize("field,value", [
        ("lambda_t", 0.0), ("lambda_t", -1.0), ("lambda_t", float("inf")),
        ("lambda_t", float("nan")), ("lambda_m", -0.1), ("lambda_m", 1.0),
        ("lambda_m", float("nan")), ("learning_rate", -1e-3),
        ("learning_rate", float("inf")), ("learning_rate", float("nan")),
    ])
    def test_rejects_thresholds_and_learning_rate_out_of_range(self, field,
                                                               value):
        """A NaN threshold would clear every code it gates, and a NaN or
        infinite learning rate would wreck every parameter: each bound
        fails NaN too."""
        with pytest.raises(TrainError, match=field):
            tiny_run_config(**{field: value})

    def test_accepts_the_ends_of_the_ranges(self):
        cfg = tiny_run_config(lambda_t=1e-9, lambda_m=0.0, learning_rate=0.0)
        assert (cfg.lambda_t, cfg.lambda_m, cfg.learning_rate) == (1e-9, 0.0, 0.0)


class TestMakeInstances:

    def test_deterministic_for_fixed_seed(self):
        corpus = tiny_corpus()
        a = make_instances(corpus, ["cloze"], 2, seed=7)
        b = make_instances(corpus, ["cloze"], 2, seed=7)
        assert [asdict(i) for i in a] == [asdict(i) for i in b]

    def test_seed_changes_candidates(self):
        corpus = tiny_corpus()
        a = make_instances(corpus, ["cloze"], 2, seed=7)
        b = make_instances(corpus, ["cloze"], 2, seed=8)
        assert [asdict(i) for i in a] != [asdict(i) for i in b]

    def test_document_order_does_not_leak_between_docs(self):
        # instances of a given document depend only on that document
        corpus = tiny_corpus()
        reversed_corpus = Corpus(corpus.d_v, list(reversed(corpus.documents)))
        a = make_instances(corpus, ["cloze"], 2, seed=3)
        b = make_instances(reversed_corpus, ["cloze"], 2, seed=3)
        key = lambda insts: sorted(json.dumps(asdict(i)) for i in insts)
        assert key(a) == key(b)

    def test_multiple_kinds_concatenate(self):
        corpus = tiny_corpus()
        both = make_instances(corpus, ["cloze", "coherence"], 2, seed=0)
        kinds = {i.task_kind for i in both}
        assert kinds == {"cloze", "coherence"}


class TestPrepareInstances:

    def test_unknown_document_rejected(self):
        corpus = tiny_corpus()
        inst = make_instances(corpus, ["cloze"], 2, seed=0)[0]
        other = Corpus(corpus.d_v, corpus.documents[1:])
        with pytest.raises(TrainError):
            prepare_instances(other, [inst], 7.0, 0.5)

    def test_missing_context_step_is_train_error(self):
        corpus = tiny_corpus()
        inst = make_instances(corpus, ["cloze"], 2, seed=0)[0]
        inst.context_steps = list(inst.context_steps) + [999]
        with pytest.raises(TrainError, match="999"):
            prepare_instances(corpus, [inst], 7.0, 0.5)

    def test_one_graph_per_candidate(self):
        corpus = tiny_corpus()
        instances = make_instances(corpus, ["cloze"], 2, seed=0)
        prepared = prepare_instances(corpus, instances, 7.0, 0.5)
        for p in prepared:
            assert len(p.graphs) == len(p.instance.candidates)
            assert p.aligned_rows.size == len(p.instance.candidates[0])

    def test_reaches_every_graph_function_the_benchmark_traces(self, monkeypatch):
        """`bench/run.py --trace 1` wraps these graph functions where tmeg
        looks them up and fails a run in which one never fires; its graph
        counter reads assemble_graph's `steps` and `candidate` arguments and
        the result's `n_nodes`. One prepare_instances call reaches each."""
        corpus = tiny_corpus()
        instances = make_instances(corpus, ["cloze", "ordering"], 2, seed=0)
        calls, assembled = Counter(), []

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if name == "assemble_graph":    # read as the benchmark reads it
                    assembled.append((args[0] if args else kwargs["steps"],
                                      args[1] if len(args) > 1 else kwargs["candidate"],
                                      result.n_nodes))
                return result
            return wrapper

        passes = ("build_nodes", "intra_modal_labels", "temporal_text_labels",
                  "temporal_visual_labels", "inter_modal_labels",
                  "derive_edge_based_labels")
        for name in ("assemble_graph",) + passes:
            monkeypatch.setattr(G, name, spy(name, getattr(G, name)))
        monkeypatch.setattr(G.TmegGraph, "validate", spy("validate", G.TmegGraph.validate))
        prepare_instances(corpus, instances, 7.0, 0.5)
        groups = {(i.doc_id, tuple(i.context_steps)) for i in instances}
        assert calls["assemble_graph"] == len(groups)
        assert all(calls[name] >= len(groups) for name in passes + ("validate",))
        for steps, candidate, n_nodes in assembled:
            assert {s.index for s in steps} <= {i for g in groups for i in g[1]}
            assert n_nodes == len(G.build_nodes(steps, candidate))


class TestTraining:

    def test_train_produces_curves_and_report(self):
        cfg = tiny_run_config()
        result = train(cfg, tiny_corpus(seed=0), tiny_corpus(seed=1))
        assert len(result.report.curves) == cfg.max_epochs
        assert set(result.report.per_task_accuracy) == {"cloze"}
        assert 0.0 <= result.report.average_accuracy <= 1.0
        assert 1 <= result.best_epoch <= cfg.max_epochs

    def test_train_is_deterministic(self):
        cfg = tiny_run_config()
        a = train(cfg, tiny_corpus(seed=0), tiny_corpus(seed=1))
        b = train(cfg, tiny_corpus(seed=0), tiny_corpus(seed=1))
        assert a.report.to_json() == b.report.to_json()
        for k, p in a.model.store.params.items():
            np.testing.assert_array_equal(p.value, b.model.store.params[k].value)

    def test_seed_changes_trajectory(self):
        a = train(tiny_run_config(seed=0), tiny_corpus(0), tiny_corpus(1))
        b = train(tiny_run_config(seed=1), tiny_corpus(0), tiny_corpus(1))
        assert a.report.to_json() != b.report.to_json()

    def test_early_stopping_with_zero_learning_rate(self):
        # constant validation accuracy: epoch 1 is best, patience runs out
        cfg = tiny_run_config(learning_rate=0.0, max_epochs=10, patience=2)
        result = train(cfg, tiny_corpus(seed=0), tiny_corpus(seed=1))
        assert result.best_epoch == 1
        assert len(result.report.curves) == 3

    def test_report_accuracies_equal_a_fresh_evaluation(self):
        """The report keeps the best epoch's validation accuracies instead
        of validating the restored parameters again."""
        cfg = tiny_run_config(max_epochs=3)
        valid = tiny_corpus(seed=1)
        result = train(cfg, tiny_corpus(seed=0), valid)
        instances = make_instances(valid, cfg.tasks, cfg.n_candidates, cfg.seed + 1)
        prepared = prepare_instances(valid, instances, cfg.lambda_t, cfg.lambda_m)
        acc = evaluate_prepared(result.model, prepared, cfg.batch_size)
        assert result.report.per_task_accuracy == acc
        assert result.report.average_accuracy == float(np.mean(list(acc.values())))
        assert result.report.average_accuracy == (
            result.report.curves[result.best_epoch - 1]["valid_accuracy"])

    def test_restore_copies_into_the_parameter_views(self):
        corpus = tiny_corpus()
        model = TmegModel(tiny_run_config().model, build_vocab(corpus), seed=0)
        store = model.store
        tensors = {name: p.tensor for name, p in store.params.items()}
        snap = _snapshot(store)
        before = {name: (p.value.copy(), p.m1.copy()) for name, p in store.params.items()}
        prepared = prepare_instances(corpus, make_instances(corpus, ["cloze"], 2, 0),
                                     7.0, 0.5)
        grad_eval(_batch_loss(model, prepared, tiny_run_config(),
                              np.random.default_rng(0)), store)
        adam_step(store, 0.1)
        _restore(store, snap)
        assert store.step_count == 0
        for name, p in store.params.items():
            assert p.tensor is tensors[name] and model.p(name) is p.tensor
            assert np.shares_memory(p.value, store.flat[0])
            np.testing.assert_array_equal(p.value, before[name][0])
            np.testing.assert_array_equal(p.m1, before[name][1])

    def test_one_training_step_is_a_short_tape(self):
        """A criterion-6 training step's loss reaches at most 15 non-leaf
        tape nodes: one per embedding, modality-MLP, transformer layer,
        CLS split, scorer input, readout, score reshape and loss node."""
        model, prepared, cfg = criterion6_step_setup()
        loss = _batch_loss(model, prepared[:cfg.batch_size], cfg,
                           np.random.default_rng(0))
        seen, stack, interior = {id(loss)}, [loss], 0
        while stack:
            node = stack.pop()
            interior += bool(node._parents)
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        assert interior <= 15

    def test_backward_frees_each_step_tape(self):
        """Two criterion-6 steps in a row, as the training loop runs them:
        each backward() frees its step's tape, so traced memory returns to
        its value before the step, and the second step, built while the
        first step's loss is still bound, peaks no higher than the first."""
        model, prepared, cfg = criterion6_step_setup()
        rng = np.random.default_rng(0)
        mb = 1e6
        peaks = []
        tracemalloc.start()
        try:
            for start in (0, cfg.batch_size):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                loss = _batch_loss(
                    model, prepared[start:start + cfg.batch_size], cfg, rng)
                grad_eval(loss, model.store)
                after, peak = tracemalloc.get_traced_memory()
                assert abs(after - before) < mb, (after - before) / mb
                peaks.append(peak)
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss.data)
        assert abs(peaks[1] - peaks[0]) < mb, [p / mb for p in peaks]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap settings are glibc's")
    def test_steps_reuse_the_freed_tape_pages(self):
        """Each step builds its tape in the heap pages the previous step's
        backward() freed: after two steps, a step faults in well under a
        tenth of its tape's ~6000 pages. A fresh process, so that no other
        test's allocations shape the heap."""
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from test_harness import criterion6_step_setup
            from tmeg.harness import _batch_loss
            from tmeg.optim import grad_eval
            model, prepared, cfg = criterion6_step_setup()
            rng, b = np.random.default_rng(0), cfg.batch_size
            for start in (0, b) * 2:
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                loss = _batch_loss(model, prepared[start:start + b], cfg, rng)
                grad_eval(loss, model.store)
                print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
        """)
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(G.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        faults = [int(n) for n in out.stdout.split()]
        assert len(faults) == 4 and max(faults[2:]) < 500, faults

    def test_vocab_overflow_rejected(self):
        cfg = tiny_run_config()
        cfg.model = ModelConfig(d_model=8, n_heads=2, n_layers=1,
                                token_vocab_size=2, d_v=4)
        with pytest.raises(TrainError):
            train(cfg, tiny_corpus(seed=0), tiny_corpus(seed=1))

    def test_missing_corpus_rejected(self):
        with pytest.raises(TrainError):
            train(tiny_run_config())


class TestEvaluate:

    def test_constant_scorer_predicts_lowest_index(self):
        # zero readout weights give all-equal scores, ties resolve to 0
        corpus = tiny_corpus()
        cfg = tiny_run_config()
        model = TmegModel(cfg.model, build_vocab(corpus), seed=0)
        model.store["scorer/out_w2"].value[:] = 0.0
        instances = make_instances(corpus, ["cloze"], 2, cfg.seed)
        report = evaluate(model, instances, corpus, cfg)
        expected = np.mean([i.gold_index == 0 for i in instances])
        assert report.per_task_accuracy["cloze"] == pytest.approx(expected)

    def test_distinct_graphs_scored_once_match_per_instance_batches(self):
        """Oracle for deduplicated scoring: per-instance `_batch_scores`
        within 1e-10, and the accuracies of scoring chunks of `batch_size`
        instances, whose predictions are not all one index, on a ragged
        three-task corpus."""
        corpus = generate_synthetic_corpus(SyntheticConfig(num_docs=4, d_v=4, seed=2))
        cfg = tiny_run_config(tasks=["cloze", "coherence", "ordering"],
                              n_candidates=4)
        model = TmegModel(cfg.model, build_vocab(corpus),
                          store=init_params(cfg.model, seed=0, init_scale=0.3))
        instances = make_instances(corpus, cfg.tasks, cfg.n_candidates, 2)
        prepared = prepare_instances(corpus, instances, cfg.lambda_t, cfg.lambda_m)
        graphs = [g for p in prepared for g in p.graphs]
        assert len({id(g) for g in graphs}) < len(graphs)

        with no_grad():
            single = [_batch_scores(model, [p])[0].data[0] for p in prepared]
            chunked = np.concatenate([
                _batch_scores(model, prepared[k:k + cfg.batch_size])[0].data
                for k in range(0, len(prepared), cfg.batch_size)])
        np.testing.assert_allclose(score_prepared(model, prepared, cfg.batch_size),
                                   single, rtol=0, atol=1e-10)

        want_log, by_task = [], {}
        for p, row in zip(prepared, chunked):
            inst = p.instance
            correct = int(int(np.argmax(row)) == inst.gold_index)
            by_task.setdefault(inst.task_kind, []).append(correct)
            want_log.append({"doc_id": inst.doc_id, "task_kind": inst.task_kind,
                             "predicted": int(np.argmax(row)),
                             "gold": inst.gold_index, "correct": correct})
        acc = evaluate_prepared(model, prepared, cfg.batch_size)
        assert acc == {t: float(np.mean(v)) for t, v in sorted(by_task.items())}
        assert len({entry["predicted"] for entry in want_log}) > 1

    def test_each_distinct_graph_is_scored_once(self, monkeypatch):
        """score_prepared hands every distinct graph object to score_graphs
        once: the rows it scores number the distinct graphs, not the
        candidates of all instances."""
        corpus = generate_synthetic_corpus(SyntheticConfig(num_docs=4, d_v=4, seed=2))
        cfg = tiny_run_config(tasks=["cloze", "coherence", "ordering"],
                              n_candidates=4)
        model = TmegModel(cfg.model, build_vocab(corpus), seed=0)
        instances = make_instances(corpus, cfg.tasks, cfg.n_candidates, 2)
        prepared = prepare_instances(corpus, instances, cfg.lambda_t, cfg.lambda_m)
        scored, score_graphs = [], model.score_graphs

        def spy(graphs):
            scored.extend(graphs)
            return score_graphs(graphs)

        monkeypatch.setattr(model, "score_graphs", spy)
        rows = score_prepared(model, prepared, cfg.batch_size)
        distinct = {id(g) for p in prepared for g in p.graphs}
        assert len(scored) == len({id(g) for g in scored}) == len(distinct)
        assert {id(g) for g in scored} == distinct
        assert len(distinct) < sum(len(p.graphs) for p in prepared)
        assert [len(r) for r in rows] == [len(p.graphs) for p in prepared]

    def test_metrics_json_excludes_wall_clock(self):
        corpus = tiny_corpus()
        cfg = tiny_run_config(max_epochs=1)
        result = train(cfg, corpus, tiny_corpus(seed=1))
        payload = json.loads(result.report.to_json(deterministic=True))
        assert "wall_clock_seconds" not in payload
        loose = json.loads(result.report.to_json(deterministic=False))
        assert "wall_clock_seconds" in loose


class TestPersistence:

    def test_save_load_round_trip(self, tmp_path):
        corpus = tiny_corpus()
        cfg = tiny_run_config(max_epochs=1)
        result = train(cfg, corpus, tiny_corpus(seed=1))
        path = os.path.join(tmp_path, "model.ckpt")
        save_model(path, result.model)
        loaded = load_model(path)
        instances = make_instances(corpus, ["cloze"], 2, cfg.seed)
        before = evaluate(result.model, instances, corpus, cfg)
        after = evaluate(loaded, instances, corpus, cfg)
        assert before.to_json() == after.to_json()
        for k, p in result.model.store.params.items():
            np.testing.assert_array_equal(p.value, loaded.store.params[k].value)


    def test_parameter_shapes_checked_against_config(self, tmp_path):
        corpus = tiny_corpus()
        model = TmegModel(tiny_run_config().model, build_vocab(corpus), seed=0)
        model.store = ParamStore({
            name: p.value[:, :1] if name == "bias_t" else p.value
            for name, p in model.store.params.items()})
        path = os.path.join(tmp_path, "model.ckpt")
        save_model(path, model)
        with pytest.raises(CheckpointError, match="bias_t"):
            load_model(path)

    def test_missing_parameter_rejected(self, tmp_path):
        corpus = tiny_corpus()
        model = TmegModel(tiny_run_config().model, build_vocab(corpus), seed=0)
        del model.store.params["scorer/sep"]
        path = os.path.join(tmp_path, "model.ckpt")
        save_model(path, model)
        with pytest.raises(CheckpointError, match="scorer/sep"):
            load_model(path)

    def test_malformed_sidecar_rejected(self, tmp_path):
        corpus = tiny_corpus()
        model = TmegModel(tiny_run_config().model, build_vocab(corpus), seed=0)
        path = os.path.join(tmp_path, "model.ckpt")
        save_model(path, model)
        with open(path + ".json", "w") as fh:
            fh.write('{"vocab": {}}')
        with pytest.raises(CheckpointError):
            load_model(path)

    @pytest.mark.parametrize("vocab", [
        lambda n: ["a", "b"],
        lambda n: {"a": 1, "b": n},
        lambda n: {"a": -1},
        lambda n: {"a": "1"},
        lambda n: {"a": 1.0},
        lambda n: {"a": True},
    ], ids=["list", "id-past-table", "negative-id", "string-id", "float-id",
            "bool-id"])
    def test_malformed_sidecar_vocab_rejected(self, tmp_path, vocab):
        corpus = tiny_corpus()
        model = TmegModel(tiny_run_config().model, build_vocab(corpus), seed=0)
        path = os.path.join(tmp_path, "model.ckpt")
        save_model(path, model)
        with open(path + ".json") as fh:
            sidecar = json.load(fh)
        sidecar["vocab"] = vocab(model.config.token_vocab_size)
        with open(path + ".json", "w") as fh:
            json.dump(sidecar, fh)
        with pytest.raises(CheckpointError, match="vocab"):
            load_model(path)


class TestTransferAndSweep:

    def test_transfer_reports_domain_pair(self):
        cfg = tiny_run_config(max_epochs=1)
        a = tiny_corpus(seed=0, num_docs=4)
        b = generate_synthetic_corpus(
            SyntheticConfig(num_docs=2, steps_min=6, steps_max=6,
                            tokens_per_step_min=3, tokens_per_step_max=3,
                            entity_vocab_size=6, token_vocab_size=16,
                            objects_per_image_min=2, objects_per_image_max=2,
                            images_per_step=1, d_v=4, n_candidates=2, seed=9),
            domain_tag="assembly-like")
        report = transfer(a, b, cfg)
        assert report.domain_pair == ["recipe-like", "assembly-like"]
        assert set(report.per_task_accuracy) == {"cloze"}

    def test_sweep_orders_values_and_sets_lambda(self):
        cfg = tiny_run_config(max_epochs=1)
        reports = sweep_lambda_b(cfg, [0.2, 0.0], tiny_corpus(0), tiny_corpus(1))
        lambdas = [r.config["lambda_b"] for r in reports]
        assert lambdas == [0.0, 0.2]

    def test_sweep_rejects_empty(self):
        with pytest.raises(TrainError):
            sweep_lambda_b(tiny_run_config(), [], tiny_corpus(0), tiny_corpus(1))

    @pytest.mark.parametrize("value", [-0.5, float("nan")])
    def test_sweep_rejects_negative_or_nan_value(self, value):
        with pytest.raises(TrainError, match="lambda_b"):
            sweep_lambda_b(tiny_run_config(), [value], tiny_corpus(0),
                           tiny_corpus(1))
