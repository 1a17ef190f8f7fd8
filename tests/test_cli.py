"""Command-line interface tests.

Every test drives main(argv) directly and checks exit codes plus the files
or JSON the commands leave behind.
"""

import gc
import json
import os
import struct
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tmeg
from tmeg.cli import build_parser, main
from tmeg.data import SyntheticConfig, build_vocab, load_corpus
from tmeg.harness import RunConfig, config_kwargs, save_model
from tmeg.model import ModelConfig, TmegModel


SYN_CONFIG = {
    "num_docs": 3, "steps_min": 6, "steps_max": 6,
    "tokens_per_step_min": 3, "tokens_per_step_max": 3,
    "entity_vocab_size": 6, "token_vocab_size": 16,
    "objects_per_image_min": 2, "objects_per_image_max": 2,
    "images_per_step": 1, "d_v": 4, "n_candidates": 2, "seed": 0,
}


def run_config_dict(**overrides):
    model = ModelConfig(d_model=8, n_heads=2, n_layers=1, ffn_multiplier=2,
                        scorer_layers=1, scorer_heads=2, k_negatives=2,
                        token_vocab_size=64, d_v=4, max_steps=16)
    cfg = RunConfig(model=model, tasks=["cloze"], batch_size=4,
                    learning_rate=1e-3, max_epochs=1, n_candidates=2, seed=0)
    d = cfg.to_dict()
    d.update(overrides)
    return d


@pytest.fixture
def workspace(tmp_path):
    syn_path = os.path.join(tmp_path, "syn.json")
    with open(syn_path, "w") as fh:
        json.dump(SYN_CONFIG, fh)
    corpus_path = os.path.join(tmp_path, "corpus.json")
    assert main(["gen-data", "--config", syn_path, "--out", corpus_path]) == 0
    return tmp_path, syn_path, corpus_path


def write_run_config(tmp_path, corpus_path, **overrides):
    d = run_config_dict(train_corpus=corpus_path, valid_corpus=corpus_path,
                        **overrides)
    path = os.path.join(tmp_path, "run.json")
    with open(path, "w") as fh:
        json.dump(d, fh)
    return path


class TestParser:

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_global_flags_precede_subcommand(self):
        args = build_parser().parse_args(
            ["--seed", "5", "--dump-graphs", "make-tasks", "--corpus", "c",
             "--task", "cloze", "--out", "o"])
        assert args.seed == 5 and args.dump_graphs


class TestGenData:

    def test_writes_corpus(self, workspace):
        _, _, corpus_path = workspace
        with open(corpus_path) as fh:
            payload = json.load(fh)
        assert len(payload["documents"]) == 3

    def test_seed_override_changes_output(self, workspace):
        tmp_path, syn_path, corpus_path = workspace
        other = os.path.join(tmp_path, "corpus2.json")
        assert main(["--seed", "99", "gen-data", "--config", syn_path,
                     "--out", other]) == 0
        assert open(corpus_path).read() != open(other).read()

    def test_missing_config_is_io_error(self, tmp_path):
        out = os.path.join(tmp_path, "c.json")
        assert main(["gen-data", "--config", "/no/such.json", "--out", out]) == 2


class TestMakeTasks:

    def test_writes_instances(self, workspace):
        tmp_path, _, corpus_path = workspace
        out = os.path.join(tmp_path, "tasks.jsonl")
        assert main(["make-tasks", "--corpus", corpus_path, "--task", "cloze",
                     "--n-candidates", "2", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines and all(json.loads(ln)["task_kind"] == "cloze"
                             for ln in lines)

    def test_rejects_unknown_task(self, workspace):
        tmp_path, _, corpus_path = workspace
        out = os.path.join(tmp_path, "tasks.jsonl")
        with pytest.raises(SystemExit):
            main(["make-tasks", "--corpus", corpus_path, "--task", "riddle",
                  "--out", out])

    def test_corrupt_corpus_is_data_error(self, tmp_path):
        bad = os.path.join(tmp_path, "bad.json")
        with open(bad, "w") as fh:
            json.dump({"d_v": 4, "documents": [{"doc_id": "x"}]}, fh)
        out = os.path.join(tmp_path, "tasks.jsonl")
        assert main(["make-tasks", "--corpus", bad, "--task", "cloze",
                     "--out", out]) == 3


# model-config floats out of their bounds: tau must be finite and > 0, the
# others finite and >= 0
BAD_MODEL_FLOATS = [(name, value) for name in ("init_scale", "edge_bias_init_scale")
                    for value in (-1.0, float("nan"), float("inf"))] + [
                   ("tau", float("inf")), ("lambda_b", float("inf"))]


class TestMalformedConfig:

    @pytest.mark.parametrize("command,config,named", [
        ("gen-data", dict(SYN_CONFIG, bogus_key=1), "bogus_key"),
        ("gen-data", [1, 2], "list"),
        ("train", run_config_dict(batchsize=4), "batchsize"),
        ("train", [1, 2], "list"),
        ("train", run_config_dict(model=[1]), "model"),
        ("train", run_config_dict(model={"d_model": 8, "bogus": 1}), "bogus"),
        ("grad-check", run_config_dict(batchsize=4), "batchsize"),
        ("transfer", run_config_dict(batchsize=4), "batchsize"),
        ("sweep-lambda", run_config_dict(batchsize=4), "batchsize"),
        ("train", run_config_dict(batch_size="4"), "batch_size"),
        ("train", run_config_dict(max_epochs=True), "max_epochs"),
        ("train", run_config_dict(learning_rate=False), "learning_rate"),
        ("train", run_config_dict(seed=None), "seed"),
        ("train", run_config_dict(tasks=["cloze", 1]), "tasks"),
        ("train", run_config_dict(model={"d_model": "32"}), "d_model"),
        ("train", run_config_dict(model={"tau": None}), "tau"),
        ("train", run_config_dict(model={"n_heads": 0}), "n_heads"),
        ("train", run_config_dict(model={"scorer_heads": 0}), "scorer_heads"),
        ("train", run_config_dict(model={"d_model": 0}), "d_model"),
        ("train", run_config_dict(model={"ffn_multiplier": 0}), "ffn_multiplier"),
        ("train", run_config_dict(model={"scorer_d": 0}), "scorer_d"),
        ("grad-check", run_config_dict(model={"d_model": 0}), "d_model"),
        ("grad-check", run_config_dict(model={"ffn_multiplier": 0}),
         "ffn_multiplier"),
        ("grad-check", run_config_dict(model={"scorer_d": 0}), "scorer_d"),
        ("train", run_config_dict(model={"token_vocab_size": 0}), "token_vocab_size"),
        ("train", run_config_dict(model={"d_v": 0}), "d_v"),
        ("train", run_config_dict(model={"max_steps": 0}), "max_steps"),
        ("train", run_config_dict(model={"max_positions": 0}), "max_positions"),
        ("train", run_config_dict(model={"k_negatives": 0}), "k_negatives"),
        ("grad-check", run_config_dict(model={"token_vocab_size": 0}),
         "token_vocab_size"),
        ("grad-check", run_config_dict(model={"d_v": 0}), "d_v"),
        ("grad-check", run_config_dict(model={"max_steps": 0}), "max_steps"),
        ("grad-check", run_config_dict(model={"max_positions": 0}), "max_positions"),
        ("grad-check", run_config_dict(model={"k_negatives": 0}), "k_negatives"),
        *[(command, run_config_dict(model={name: value}), name)
          for command in ("train", "grad-check")
          for name, value in BAD_MODEL_FLOATS],
        ("gen-data", dict(SYN_CONFIG, num_docs="3"), "num_docs"),
        ("gen-data", dict(SYN_CONFIG, feature_noise_sigma=True),
         "feature_noise_sigma"),
        ("gen-data", dict(SYN_CONFIG, box_grid=1), "box_grid"),
    ], ids=["gen-data-unknown-key", "gen-data-not-an-object",
            "train-unknown-key", "train-not-an-object", "train-model-not-an-object",
            "train-model-unknown-key", "grad-check-unknown-key",
            "transfer-unknown-key", "sweep-lambda-unknown-key",
            "train-str-for-int", "train-bool-for-int", "train-bool-for-float",
            "train-null-for-int", "train-int-in-str-list",
            "train-model-str-for-int", "train-model-null-for-float",
            "train-model-zero-heads", "train-model-zero-scorer-heads",
            "train-model-zero-d-model", "train-model-zero-ffn-multiplier",
            "train-model-zero-scorer-d", "grad-check-model-zero-d-model",
            "grad-check-model-zero-ffn-multiplier",
            "grad-check-model-zero-scorer-d",
            "train-model-zero-token-vocab-size",
            "train-model-zero-d-v", "train-model-zero-max-steps",
            "train-model-zero-max-positions",
            "train-model-zero-k-negatives",
            "grad-check-model-zero-token-vocab-size",
            "grad-check-model-zero-d-v",
            "grad-check-model-zero-max-steps",
            "grad-check-model-zero-max-positions",
            "grad-check-model-zero-k-negatives",
            *[f"{command}-model-{name}-{value}" for command in ("train", "grad-check")
              for name, value in BAD_MODEL_FLOATS],
            "gen-data-str-for-int", "gen-data-bool-for-float",
            "gen-data-int-for-bool"])
    def test_exits_2_naming_the_offender(self, tmp_path, capsys, command,
                                         config, named):
        path = os.path.join(tmp_path, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        extra = {"gen-data": ["--out", os.path.join(tmp_path, "out.json")],
                 "transfer": ["--train", path, "--eval", path]}
        assert main([command, "--config", path] + extra.get(command, [])) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command,overrides,named", [
        ("train", dict(n_candidates=1), "n_candidates"),
        ("grad-check", dict(n_candidates=1), "n_candidates"),
        ("transfer", dict(n_candidates=1), "n_candidates"),
        ("sweep-lambda", dict(n_candidates=1), "n_candidates"),
        ("train", dict(tasks=[]), "tasks"),
        ("grad-check", dict(tasks=[]), "tasks"),
        ("train", dict(tasks=["bogus"]), "tasks"),
        ("train", dict(tasks=["cloze", "cloze"]), "tasks"),
        ("train", dict(lambda_b=float("inf")), "lambda_b"),
        ("grad-check", dict(lambda_b=float("inf")), "lambda_b"),
    ], ids=["train-one-candidate", "grad-check-one-candidate",
            "transfer-one-candidate", "sweep-lambda-one-candidate",
            "train-no-tasks", "grad-check-no-tasks", "train-unknown-task",
            "train-repeated-task", "train-infinite-lambda-b",
            "grad-check-infinite-lambda-b"])
    def test_run_config_bounds_exit_5_naming_the_field(self, workspace, capsys, command,
                                                       overrides, named):
        """A run config outside its bounds exits with 5 before any data is
        read, under every subcommand, and the message names the field."""
        tmp_path, _, corpus_path = workspace
        path = write_run_config(tmp_path, corpus_path, **overrides)
        extra = {"transfer": ["--train", corpus_path, "--eval", corpus_path],
                 "sweep-lambda": ["--values", "0.1"]}
        assert main([command, "--config", path] + extra.get(command, [])) == 5
        assert named in capsys.readouterr().err

    def test_int_for_float_and_null_for_optional_accepted(self):
        cfg = RunConfig.from_dict(run_config_dict(
            learning_rate=1, lambda_b=None,
            model={"tau": 1, "scorer_d": None, "lambda_b": 0}))
        assert cfg.learning_rate == 1 and cfg.lambda_b is None
        assert cfg.model.tau == 1 and cfg.model.scorer_d is None
        syn = config_kwargs(SyntheticConfig, dict(
            SYN_CONFIG, feature_noise_sigma=1, roster_size=None), "synthetic")
        assert SyntheticConfig(**syn).roster_size is None


class TestTrainEval:

    def test_train_then_eval(self, workspace):
        tmp_path, _, corpus_path = workspace
        run_path = write_run_config(tmp_path, corpus_path)
        ckpt = os.path.join(tmp_path, "model.ckpt")
        metrics = os.path.join(tmp_path, "train.json")
        assert main(["--metrics-out", metrics, "train", "--config", run_path,
                     "--checkpoint-out", ckpt]) == 0
        report = json.loads(open(metrics).read())
        assert report["per_task_accuracy"].keys() == {"cloze"}
        assert os.path.exists(ckpt) and os.path.exists(ckpt + ".json")

        tasks = os.path.join(tmp_path, "tasks.jsonl")
        assert main(["make-tasks", "--corpus", corpus_path, "--task", "cloze",
                     "--n-candidates", "2", "--out", tasks]) == 0
        eval_metrics = os.path.join(tmp_path, "eval.json")
        assert main(["--metrics-out", eval_metrics, "eval",
                     "--checkpoint", ckpt, "--tasks", tasks,
                     "--corpus", corpus_path]) == 0
        payload = json.loads(open(eval_metrics).read())
        assert 0.0 <= payload["average_accuracy"] <= 1.0

    def test_train_and_eval_load_no_scipy(self, workspace):
        """numpy is the only runtime dependency: a fresh process that trains
        and evaluates through main() never imports scipy."""
        tmp_path, _, corpus_path = workspace
        script = textwrap.dedent("""
            import json, sys
            from tmeg.cli import main
            run, ckpt, corpus, tasks = sys.argv[1:]
            codes = [
                main(["train", "--config", run, "--checkpoint-out", ckpt]),
                main(["make-tasks", "--corpus", corpus, "--task", "cloze",
                      "--n-candidates", "2", "--out", tasks]),
                main(["eval", "--checkpoint", ckpt, "--tasks", tasks,
                      "--corpus", corpus])]
            print(json.dumps([codes, sorted(
                m for m in sys.modules if m.split(".")[0] == "scipy")]))
        """)
        argv = [write_run_config(tmp_path, corpus_path),
                os.path.join(tmp_path, "model.ckpt"), corpus_path,
                os.path.join(tmp_path, "tasks.jsonl")]
        src = os.path.dirname(os.path.dirname(os.path.abspath(tmeg.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                             capture_output=True, text=True, check=True)
        codes, scipy_modules = json.loads(out.stdout.splitlines()[-1])
        assert codes == [0, 0, 0]
        assert scipy_modules == []

    def test_numpy_is_the_only_third_party_import(self, tmp_path):
        """A fresh process that imports every tmeg module and runs
        grad-check loads no top-level module outside the standard library
        but numpy and tmeg. Not counted: what the interpreter held before
        (site's .pth hooks) and modules without a spec (the in-memory
        runtime modules that Cython registers for numpy's extensions)."""
        script = textwrap.dedent("""
            import sys
            before = set(sys.modules)
            import importlib, json, pkgutil
            import tmeg
            for module in pkgutil.iter_modules(tmeg.__path__):
                importlib.import_module(f"tmeg.{module.name}")
            from tmeg.cli import main
            code = main(["--metrics-out", sys.argv[2], "grad-check", "--config", sys.argv[1]])
            loaded = {name.partition(".")[0] for name, module in list(sys.modules.items())
                      if name not in before and getattr(module, "__spec__", None)}
            print(json.dumps([code, sorted(loaded - set(sys.stdlib_module_names))]))
        """)
        run = os.path.join(tmp_path, "run.json")
        with open(run, "w") as fh:
            json.dump(run_config_dict(), fh)
        src = os.path.dirname(os.path.dirname(os.path.abspath(tmeg.__file__)))
        out = subprocess.run([sys.executable, "-c", script, run,
                              os.path.join(tmp_path, "metrics.json")],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        code, third_party = json.loads(out.stdout.splitlines()[-1])
        assert code == 0
        assert third_party == ["numpy", "tmeg"]

    def test_eval_dump_graphs_writes_sidecar(self, workspace):
        tmp_path, _, corpus_path = workspace
        run_path = write_run_config(tmp_path, corpus_path)
        ckpt = os.path.join(tmp_path, "model.ckpt")
        assert main(["train", "--config", run_path,
                     "--checkpoint-out", ckpt]) == 0
        tasks = os.path.join(tmp_path, "tasks.jsonl")
        assert main(["make-tasks", "--corpus", corpus_path, "--task", "cloze",
                     "--n-candidates", "2", "--out", tasks]) == 0
        metrics = os.path.join(tmp_path, "eval.json")
        assert main(["--metrics-out", metrics, "--dump-graphs", "eval",
                     "--checkpoint", ckpt, "--tasks", tasks,
                     "--corpus", corpus_path]) == 0
        dumps = json.load(open(metrics + ".graphs.json"))
        assert dumps and {"nodes", "phi_t_rle", "phi_m_rle"} <= dumps[0].keys()

    def test_eval_dump_graphs_shows_the_ablation(self, workspace):
        """Under --ablation no_temporal the dump shows the graphs that were
        scored: every phi_t is a single run of NONE."""
        tmp_path, _, corpus_path = workspace
        run_path = write_run_config(tmp_path, corpus_path)
        ckpt = os.path.join(tmp_path, "model.ckpt")
        assert main(["train", "--config", run_path,
                     "--checkpoint-out", ckpt]) == 0
        tasks = os.path.join(tmp_path, "tasks.jsonl")
        assert main(["make-tasks", "--corpus", corpus_path, "--task", "cloze",
                     "--n-candidates", "2", "--out", tasks]) == 0
        metrics = os.path.join(tmp_path, "eval.json")
        assert main(["--metrics-out", metrics, "--dump-graphs", "eval",
                     "--checkpoint", ckpt, "--tasks", tasks,
                     "--corpus", corpus_path, "--ablation", "no_temporal"]) == 0
        dumps = json.load(open(metrics + ".graphs.json"))
        assert dumps
        for dump in dumps:
            n = len(dump["nodes"])
            assert dump["phi_t_rle"] == [[0, n * n]]
            assert any(code != 0 for code, _ in dump["phi_m_rle"])

    def test_eval_missing_checkpoint_is_checkpoint_error(self, workspace):
        tmp_path, _, corpus_path = workspace
        tasks = os.path.join(tmp_path, "tasks.jsonl")
        assert main(["make-tasks", "--corpus", corpus_path, "--task", "cloze",
                     "--n-candidates", "2", "--out", tasks]) == 0
        missing = os.path.join(tmp_path, "nope.ckpt")
        code = main(["eval", "--checkpoint", missing, "--tasks", tasks,
                     "--corpus", corpus_path])
        assert code in (2, 4)  # sidecar read fails before checkpoint parsing

    def test_eval_unknown_ablation_exits_2_before_reading_files(self, tmp_path):
        missing = os.path.join(tmp_path, "missing")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", missing, "--tasks", missing,
                  "--corpus", missing, "--ablation", "bogus"])
        assert exc.value.code == 2

    def test_train_bad_ablation_is_train_error(self, workspace):
        tmp_path, _, corpus_path = workspace
        run_path = write_run_config(tmp_path, corpus_path, ablation="bogus")
        assert main(["train", "--config", run_path]) == 5

    def test_train_nan_threshold_is_train_error(self, workspace, capsys):
        """JSON NaN parses; as lambda_m it would clear every inter-modal
        code, so the run stops before training."""
        tmp_path, _, corpus_path = workspace
        run_path = write_run_config(tmp_path, corpus_path, lambda_m=float("nan"))
        assert "NaN" in open(run_path).read()
        ckpt = os.path.join(tmp_path, "model.ckpt")
        assert main(["train", "--config", run_path, "--checkpoint-out", ckpt]) == 5
        assert "lambda_m" in capsys.readouterr().err
        assert not os.path.exists(ckpt)


class TestGradCheck:

    def test_grad_check_passes(self, workspace, capsys):
        tmp_path, _, corpus_path = workspace
        run_path = write_run_config(tmp_path, corpus_path)
        assert main(["grad-check", "--config", run_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] and payload["max_relative_error"] < 1e-4


class TestTransferSweep:

    def test_transfer_smoke(self, workspace, capsys):
        tmp_path, syn_path, corpus_path = workspace
        other = os.path.join(tmp_path, "other.json")
        assert main(["--seed", "42", "gen-data", "--config", syn_path,
                     "--out", other, "--domain-tag", "assembly-like"]) == 0
        run_path = write_run_config(tmp_path, corpus_path)
        assert main(["transfer", "--train", corpus_path, "--eval", other,
                     "--config", run_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["domain_pair"] == ["recipe-like", "assembly-like"]

    def test_sweep_emits_one_report_per_value(self, workspace, capsys):
        tmp_path, _, corpus_path = workspace
        run_path = write_run_config(tmp_path, corpus_path)
        assert main(["sweep-lambda", "--config", run_path,
                     "--values", "0,0.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["config"]["lambda_b"] for r in payload] == [0.0, 0.1]

    @pytest.mark.parametrize("values", ["0.1,-0.5", "nan"])
    def test_sweep_negative_or_nan_value_exits_5(self, workspace, capsys,
                                                  values):
        tmp_path, _, corpus_path = workspace
        run_path = write_run_config(tmp_path, corpus_path)
        assert main(["sweep-lambda", "--config", run_path,
                     "--values", values]) == 5
        assert "lambda_b" in capsys.readouterr().err

    @pytest.mark.parametrize("missing,message", [
        ("train_corpus", "no training corpus given"),
        ("valid_corpus", "no validation corpus given"),
    ])
    def test_sweep_without_corpus_exits_5(self, workspace, capsys, missing,
                                          message):
        tmp_path, _, corpus_path = workspace
        d = run_config_dict(**{"train_corpus": corpus_path,
                               "valid_corpus": corpus_path, missing: None})
        run_path = os.path.join(tmp_path, "run.json")
        with open(run_path, "w") as fh:
            json.dump(d, fh)
        assert main(["sweep-lambda", "--config", run_path]) == 5
        assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def eval_files(tmp_path_factory):
    """A saved untrained checkpoint plus the corpus and tasks to eval it on."""
    tmp_path = tmp_path_factory.mktemp("ckpt")
    syn_path = os.path.join(tmp_path, "syn.json")
    with open(syn_path, "w") as fh:
        json.dump(SYN_CONFIG, fh)
    corpus_path = os.path.join(tmp_path, "corpus.json")
    assert main(["gen-data", "--config", syn_path, "--out", corpus_path]) == 0
    tasks = os.path.join(tmp_path, "tasks.jsonl")
    assert main(["make-tasks", "--corpus", corpus_path, "--task", "cloze",
                 "--n-candidates", "2", "--out", tasks]) == 0
    model_cfg = ModelConfig(**run_config_dict()["model"])
    ckpt = os.path.join(tmp_path, "model.ckpt")
    save_model(ckpt, TmegModel(model_cfg, build_vocab(load_corpus(corpus_path))))
    with open(ckpt, "rb") as fh:
        ckpt_bytes = fh.read()
    return tmp_path, corpus_path, tasks, ckpt, ckpt_bytes


def eval_argv(ckpt, tasks, corpus_path):
    return ["eval", "--checkpoint", ckpt, "--tasks", tasks,
            "--corpus", corpus_path]


class TestCorruptCheckpoint:

    def test_intact_checkpoint_evaluates(self, eval_files):
        _, corpus_path, tasks, ckpt, _ = eval_files
        assert main(eval_argv(ckpt, tasks, corpus_path)) == 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated_checkpoint_exits_4(self, eval_files, data):
        tmp_path, corpus_path, tasks, ckpt, ckpt_bytes = eval_files
        cut = data.draw(st.integers(0, len(ckpt_bytes) - 1), label="offset")
        bad = os.path.join(tmp_path, "cut.ckpt")
        with open(bad, "wb") as fh:
            fh.write(ckpt_bytes[:cut])
        with open(ckpt + ".json", "rb") as src, open(bad + ".json", "wb") as dst:
            dst.write(src.read())
        assert main(eval_argv(bad, tasks, corpus_path)) == 4

    def test_trailing_bytes_exit_4(self, eval_files):
        tmp_path, corpus_path, tasks, ckpt, ckpt_bytes = eval_files
        bad = os.path.join(tmp_path, "long.ckpt")
        with open(bad, "wb") as fh:
            fh.write(ckpt_bytes + b"\0")
        with open(ckpt + ".json", "rb") as src, open(bad + ".json", "wb") as dst:
            dst.write(src.read())
        assert main(eval_argv(bad, tasks, corpus_path)) == 4

    @pytest.mark.parametrize("heads", ["n_heads", "scorer_heads", "d_model",
                                       "ffn_multiplier", "scorer_d"])
    def test_zero_heads_in_sidecar_exit_4(self, eval_files, heads, capsys):
        """A sidecar model config with no heads or a zero width exits 4,
        naming the field."""
        tmp_path, corpus_path, tasks, ckpt, ckpt_bytes = eval_files
        bad = os.path.join(tmp_path, "zero_heads.ckpt")
        with open(bad, "wb") as fh:
            fh.write(ckpt_bytes)
        with open(ckpt + ".json") as fh:
            sidecar = json.load(fh)
        sidecar["model_config"][heads] = 0
        with open(bad + ".json", "w") as fh:
            json.dump(sidecar, fh)
        assert main(eval_argv(bad, tasks, corpus_path)) == 4
        assert heads in capsys.readouterr().err


    def test_repeated_parameter_record_exits_4(self, eval_files, capsys):
        tmp_path, corpus_path, tasks, ckpt, ckpt_bytes = eval_files
        first, second = (struct.pack("<I", len(name)) + name.encode()
                         for name in ("scorer/cls", "scorer/sep"))
        assert ckpt_bytes.count(second) == 1
        bad = os.path.join(tmp_path, "repeated.ckpt")
        with open(bad, "wb") as fh:
            fh.write(ckpt_bytes.replace(second, first))
        with open(ckpt + ".json", "rb") as src, open(bad + ".json", "wb") as dst:
            dst.write(src.read())
        assert main(eval_argv(bad, tasks, corpus_path)) == 4
        assert "repeated parameter record scorer/cls" in capsys.readouterr().err

    def test_repeated_moment_record_exits_4(self, eval_files, capsys):
        """m1/scorer/sep renamed m1/scorer/cls: scorer/sep's first moment
        would be missing and scorer/cls's read twice."""
        tmp_path, corpus_path, tasks, ckpt, ckpt_bytes = eval_files
        first, second = (struct.pack("<I", len(name)) + name.encode()
                         for name in ("m1/scorer/cls", "m1/scorer/sep"))
        assert ckpt_bytes.count(second) == 1
        bad = os.path.join(tmp_path, "repeated_moment.ckpt")
        with open(bad, "wb") as fh:
            fh.write(ckpt_bytes.replace(second, first))
        with open(ckpt + ".json", "rb") as src, open(bad + ".json", "wb") as dst:
            dst.write(src.read())
        assert main(eval_argv(bad, tasks, corpus_path)) == 4
        assert "repeated moment record m1/scorer/cls" in capsys.readouterr().err


@pytest.mark.parametrize("target,code,message", [
    ("corpus", 3, "not UTF-8"), ("tasks", 3, "not UTF-8"),
    ("sidecar", 4, "bad sidecar")])
def test_file_that_is_not_utf8_exits_with_its_data_code(eval_files, capsys,
                                                        target, code, message):
    """A corpus or task file that is not UTF-8 is malformed data (3), a
    sidecar that is not UTF-8 a malformed checkpoint (4)."""
    tmp_path, corpus_path, tasks, ckpt, ckpt_bytes = eval_files
    paths = {"corpus": corpus_path, "tasks": tasks, "ckpt": ckpt}
    if target == "sidecar":
        paths["ckpt"] = os.path.join(tmp_path, "latin1.ckpt")
        with open(paths["ckpt"], "wb") as fh:
            fh.write(ckpt_bytes)
        source, bad = ckpt + ".json", paths["ckpt"] + ".json"
    else:
        source = paths[target]
        bad = paths[target] = os.path.join(tmp_path, "latin1-" + target)
    with open(source, "rb") as fh:
        raw = fh.read()
    with open(bad, "wb") as fh:     # one byte that never starts UTF-8
        fh.write(raw[:20] + b"\xff" + raw[20:])
    assert main(eval_argv(paths["ckpt"], paths["tasks"], paths["corpus"])) == code
    assert message in capsys.readouterr().err


def test_grounding_boxes_array_in_corpus_exits_3(eval_files, capsys):
    tmp_path, corpus_path, tasks, ckpt, _ = eval_files
    with open(corpus_path) as fh:
        payload = json.load(fh)
    phrase = payload["documents"][0]["steps"][0]["noun_phrases"][0]
    phrase["grounding_boxes"] = list(phrase["grounding_boxes"].values())
    bad = os.path.join(tmp_path, "boxes_array.json")
    with open(bad, "w") as fh:
        json.dump(payload, fh)
    assert main(eval_argv(ckpt, tasks, bad)) == 3
    assert "grounding_boxes must be a JSON object" in capsys.readouterr().err


class TestMalformedTasks:

    @pytest.mark.parametrize("mutate", [
        lambda d: [1, 2],
        lambda d: dict(d, context_steps=None),
        lambda d: dict(d, context_steps=3),
        lambda d: dict(d, candidates=None),
        lambda d: dict(d, candidates=[]),
        lambda d: dict(d, candidates=d["candidates"][:1] + [[]]),
        lambda d: dict(d, candidates=d["candidates"][:1] + [None]),
        lambda d: dict(d, gold_index=9),
        lambda d: dict(d, gold_index=-1),
        lambda d: dict(d, task_kind=7),
        lambda d: dict(d, task_kind="riddle"),
        lambda d: dict(d, doc_id=[d["doc_id"]]),
        lambda d: dict(d, doc_id=None),
        # integers that would convert to a valid value are still rejected
        lambda d: dict(d, gold_index=d["gold_index"] + 0.7),
        lambda d: dict(d, gold_index=float(d["gold_index"])),
        lambda d: dict(d, gold_index=str(d["gold_index"])),
        lambda d: dict(d, gold_index=bool(d["gold_index"])),
        lambda d: dict(d, context_steps=[i + 0.5 for i in d["context_steps"]]),
        lambda d: dict(d, context_steps=[float(i) for i in d["context_steps"]]),
        lambda d: dict(d, context_steps=[str(i) for i in d["context_steps"]]),
        # refs are never converted to strings; a context is distinct steps
        lambda d: dict(d, candidates=[[True, False]] * len(d["candidates"])),
        lambda d: dict(d, candidates=[[1.5]] * len(d["candidates"])),
        lambda d: dict(d, context_steps=[]),
        lambda d: dict(d, context_steps=[1, 1, 2, 3]),
    ], ids=["not-an-object", "null-context", "int-context", "null-candidates",
            "no-candidates", "empty-candidate", "null-candidate", "gold-too-large",
            "gold-negative", "int-task-kind", "unknown-task-kind", "list-doc-id",
            "null-doc-id", "fractional-gold", "float-gold", "string-gold",
            "bool-gold", "fractional-context", "float-context", "string-context",
            "bool-refs", "number-refs", "empty-context", "repeated-context"])
    def test_malformed_task_line_exits_3(self, eval_files, mutate):
        tmp_path, corpus_path, tasks, ckpt, _ = eval_files
        with open(tasks) as fh:
            lines = fh.read().splitlines()
        bad = os.path.join(tmp_path, "bad_tasks.jsonl")
        with open(bad, "w") as fh:
            fh.write("\n".join(lines[:1] + [json.dumps(mutate(json.loads(lines[0])))]))
        assert main(eval_argv(ckpt, bad, corpus_path)) == 3


@pytest.mark.parametrize("enabled", [True, False])
def test_eval_restores_the_collector(eval_files, enabled):
    """eval pauses the cyclic garbage collector while it runs and leaves it
    as it found it, also when the request fails."""
    tmp_path, corpus_path, tasks, ckpt, _ = eval_files
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(eval_argv(ckpt, tasks, corpus_path)) == 0
        assert gc.isenabled() is enabled
        assert main(eval_argv(ckpt, tasks, os.path.join(tmp_path, "missing.json"))) == 2
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def write_tasks(tmp_path, name, lines):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        fh.write("\n".join(json.dumps(d) for d in lines))
    return path


def test_candidate_with_more_images_than_max_steps_exits_2(eval_files, capsys):
    """A visual node's step is its candidate position, so a candidate of
    17 images exceeds max_steps 16 like a 17th text step would."""
    tmp_path, corpus_path, tasks, ckpt, _ = eval_files
    with open(tasks) as fh:
        first = json.loads(fh.readline())
    ids = [im["image_id"] for doc in json.load(open(corpus_path))["documents"]
           for step in doc["steps"] for im in step["images"]]
    assert len(ids) > 17
    bad = write_tasks(tmp_path, "long_tasks.jsonl",
                      [dict(first, candidates=[ids[:17], ids[1:18]], gold_index=0)])
    assert main(eval_argv(ckpt, bad, corpus_path)) == 2
    assert "max_steps" in capsys.readouterr().err


@pytest.mark.parametrize("mutate,message", [
    (lambda d: dict(d, doc_id="no-such-doc"),
     "instance references unknown doc no-such-doc"),
    (lambda d: dict(d, context_steps=d["context_steps"] + [99]),
     "context steps [99] not in the document"),
    (lambda d: dict(d, candidates=[["no-such-image"]] + d["candidates"][1:]),
     "unresolved image ref 'no-such-image'"),
], ids=["unknown-doc", "missing-context-step", "missing-image"])
def test_task_line_the_corpus_cannot_resolve_exits_5(eval_files, capsys,
                                                     mutate, message):
    """A well-formed task line that names a document, context step or
    candidate image the corpus lacks exits 5: neither file is malformed on
    its own (that would be 3), the pair cannot be run."""
    tmp_path, corpus_path, tasks, ckpt, _ = eval_files
    with open(tasks) as fh:
        first = json.loads(fh.readline())
    bad = write_tasks(tmp_path, "dangling_tasks.jsonl", [mutate(first)])
    assert main(eval_argv(ckpt, bad, corpus_path)) == 5
    assert message in capsys.readouterr().err


def test_dump_graphs_numbers_each_instances_candidates(eval_files):
    """--dump-graphs writes candidate_index 0..N_c-1 for each dumped
    instance, also for two instances that share their candidates."""
    tmp_path, corpus_path, tasks, ckpt, _ = eval_files
    with open(tasks) as fh:
        lines = [json.loads(line) for line in fh]
    shared = write_tasks(tmp_path, "shared_tasks.jsonl", [lines[0]] + lines)
    metrics = os.path.join(tmp_path, "shared.json")
    assert main(["--metrics-out", metrics, "--dump-graphs"]
                + eval_argv(ckpt, shared, corpus_path)) == 0
    dumps = json.load(open(metrics + ".graphs.json"))
    n_c = [len(d["candidates"]) for d in ([lines[0]] + lines)[:4]]
    assert [d["candidate_index"] for d in dumps] == [i for n in n_c for i in range(n)]
    assert dumps[:n_c[0]] == dumps[n_c[0]:2 * n_c[0]]


def test_empty_entity_id_in_corpus_exits_3(eval_files):
    tmp_path, corpus_path, tasks, ckpt, _ = eval_files
    with open(corpus_path) as fh:
        payload = json.load(fh)
    step = payload["documents"][0]["steps"][0]
    step["noun_phrases"][0]["entity_id"] = ""
    bad = os.path.join(tmp_path, "empty_entity.json")
    with open(bad, "w") as fh:
        json.dump(payload, fh)
    assert main(eval_argv(ckpt, tasks, bad)) == 3
