"""Document model, synthetic generation, and task-instance tests."""

import io
import json

import numpy as np
import pytest

from tmeg.data import (
    BoundingBox, Corpus, CorpusError, NounPhrase, ObjectFeature, PmdDocument,
    Step, StepImage, SyntheticConfig, build_task_instances, build_vocab,
    corpus_from_dict, corpus_to_dict, generate_synthetic_corpus, load_corpus,
    load_task_instances, mean_pool_image, sample_distractors, save_corpus,
    save_task_instances, validate_corpus,
)
from tmeg.harness import make_instances


def tiny_config(**overrides):
    kw = dict(num_docs=3, steps_min=5, steps_max=6, tokens_per_step_min=4,
              tokens_per_step_max=5, entity_vocab_size=8, token_vocab_size=20,
              objects_per_image_min=1, objects_per_image_max=3,
              images_per_step=2, d_v=4, n_candidates=3, seed=11)
    kw.update(overrides)
    return SyntheticConfig(**kw)


class TestBoundingBox:

    def test_valid_box(self):
        BoundingBox(0.1, 0.2, 0.3, 0.4).validate("here")

    @pytest.mark.parametrize("coords", [
        (0.3, 0.2, 0.1, 0.4),   # x1 > x2
        (0.1, 0.4, 0.3, 0.4),   # zero height
        (-0.1, 0.2, 0.3, 0.4),  # negative
        (0.1, 0.2, 1.3, 0.4),   # beyond unit square
    ])
    def test_invalid_boxes(self, coords):
        with pytest.raises(CorpusError):
            BoundingBox(*coords).validate("here")

    def test_list_round_trip(self):
        box = BoundingBox(0.1, 0.2, 0.3, 0.4)
        assert BoundingBox.from_list(box.as_list(), "rt") == box

    def test_area(self):
        assert BoundingBox(0.0, 0.0, 0.5, 0.2).area() == pytest.approx(0.1)


class TestValidation:

    def test_generated_corpus_validates(self):
        validate_corpus(generate_synthetic_corpus(tiny_config()))

    def test_noncontiguous_steps_rejected(self):
        doc = PmdDocument("d", "t", steps=[
            Step(index=2, tokens=["a"], noun_phrases=[], images=[]),
        ])
        with pytest.raises(CorpusError, match="contiguous"):
            validate_corpus(Corpus(4, [doc]))

    def test_overlapping_spans_rejected(self):
        step = Step(index=1, tokens=["a", "b", "c"], noun_phrases=[
            NounPhrase((0, 2), "e0"), NounPhrase((1, 3), "e1"),
        ], images=[])
        with pytest.raises(CorpusError, match="overlapping"):
            validate_corpus(Corpus(4, [PmdDocument("d", "t", [step])]))

    def test_span_out_of_range_rejected(self):
        step = Step(index=1, tokens=["a"], noun_phrases=[
            NounPhrase((0, 2), "e0"),
        ], images=[])
        with pytest.raises(CorpusError, match="span"):
            validate_corpus(Corpus(4, [PmdDocument("d", "t", [step])]))

    def test_object_cap_enforced(self):
        box = BoundingBox(0.1, 0.1, 0.2, 0.2)
        objs = [ObjectFeature(np.zeros(4), box, 1.0) for _ in range(37)]
        step = Step(index=1, tokens=["a"], noun_phrases=[],
                    images=[StepImage("i0", objs)])
        with pytest.raises(CorpusError, match="object count"):
            validate_corpus(Corpus(4, [PmdDocument("d", "t", [step])]))

    def test_feature_dim_mismatch_rejected(self):
        box = BoundingBox(0.1, 0.1, 0.2, 0.2)
        step = Step(index=1, tokens=["a"], noun_phrases=[],
                    images=[StepImage("i0", [ObjectFeature(np.zeros(3), box, 1.0)])])
        with pytest.raises(CorpusError, match="dimension"):
            validate_corpus(Corpus(4, [PmdDocument("d", "t", [step])]))

    def test_duplicate_ids_rejected(self):
        corpus = generate_synthetic_corpus(tiny_config())
        corpus.documents.append(corpus.documents[0])
        with pytest.raises(CorpusError, match="duplicate"):
            validate_corpus(corpus)


class TestCorpusIO:

    def test_json_round_trip(self, tmp_path):
        corpus = generate_synthetic_corpus(tiny_config())
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert corpus_to_dict(loaded) == corpus_to_dict(corpus)

    def test_save_is_byte_deterministic(self, tmp_path):
        corpus = generate_synthetic_corpus(tiny_config())
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_corpus(corpus, p1)
        save_corpus(corpus, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_bytes_equal_pure_python_encoder(self, tmp_path):
        corpus = generate_synthetic_corpus(SyntheticConfig(num_docs=4, seed=2))
        path = tmp_path / "corpus.json"
        save_corpus(corpus, path)
        want = io.StringIO()
        json.dump(corpus_to_dict(corpus), want, sort_keys=True,
                  separators=(",", ":"))
        assert path.read_bytes() == want.getvalue().encode("utf-8")

    def test_empty_entity_id_rejected_on_load(self, tmp_path):
        payload = corpus_to_dict(generate_synthetic_corpus(tiny_config()))
        payload["documents"][0]["steps"][0]["noun_phrases"][0]["entity_id"] = ""
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusError, match="empty entity_id"):
            load_corpus(path)

    @pytest.mark.parametrize("span", [[0], [0, 1, 2]])
    def test_span_not_two_integers_rejected(self, span):
        payload = corpus_to_dict(generate_synthetic_corpus(tiny_config()))
        step = payload["documents"][0]["steps"][1]
        step["noun_phrases"][0]["span"] = span
        where = f"doc {payload['documents'][0]['doc_id']} step {step['index']}"
        with pytest.raises(CorpusError, match=f"{where}: noun-phrase span"):
            corpus_from_dict(payload)

    # (a boolean d_v would convert to 1, not to the corpus's d_v)
    @pytest.mark.parametrize("field,kind", [
        (field, kind) for field in ("span", "index", "d_v")
        for kind in ("fractional", "float", "string", "bool")
        if (field, kind) != ("d_v", "bool")])
    def test_non_integer_numbers_rejected(self, field, kind):
        """Integer fields take JSON integers only: a float, a string or a
        boolean is rejected, not truncated or parsed. Each value here
        would convert to the original integer."""
        payload = corpus_to_dict(generate_synthetic_corpus(tiny_config()))
        step = payload["documents"][0]["steps"][0]
        phrase = step["noun_phrases"][0]
        assert (phrase["span"], step["index"]) == ([0, 1], 1)
        convert = {"fractional": lambda v: v + 0.9, "float": float,
                   "string": str, "bool": bool}[kind]
        if field == "span":
            phrase["span"] = [convert(v) for v in phrase["span"]]
        elif field == "index":
            step["index"] = convert(step["index"])
        else:
            payload["d_v"] = convert(payload["d_v"])
        with pytest.raises(CorpusError, match="integer"):
            corpus_from_dict(payload)

    # each value would load without error if converted or parsed
    @pytest.mark.parametrize("field,value", [
        ("feature", "1.44"), ("feature", True), ("feature", float("nan")),
        ("feature", float("inf")), ("confidence", "0.7"),
        ("confidence", False), ("box", "0.1"), ("box", False),
        ("grounding_box", "0.1"), ("token", 5), ("doc_id", 7),
        ("image_id", 7), ("entity_id", 7), ("domain_tag", 1),
        ("documents", {}), ("steps", {}), ("tokens", "abc"),
        ("noun_phrases", {}), ("images", {}), ("objects", {}),
        ("grounding_boxes", [[0.1, 0.1, 0.2, 0.2]]),
    ], ids=["feature-string", "feature-bool", "feature-nan", "feature-inf",
            "confidence-string", "confidence-bool", "box-string", "box-bool",
            "grounding-box-string", "token-number", "doc_id-number",
            "image_id-number", "entity_id-number", "domain_tag-number",
            "documents-object", "steps-object", "tokens-string",
            "noun_phrases-object", "images-object", "objects-object",
            "grounding_boxes-array"])
    def test_json_types_are_strict(self, tmp_path, field, value):
        """Numbers must be finite JSON numbers, never booleans or strings;
        ids, tokens and tags must be strings; lists must be JSON arrays and
        grounding boxes a JSON object. Loaded through a JSON file, as `tmeg`
        reads it; each mistyped value raises CorpusError, and one of the
        wrong shape names its field."""
        payload = corpus_to_dict(generate_synthetic_corpus(tiny_config()))
        doc = payload["documents"][0]
        step = doc["steps"][0]
        phrase = step["noun_phrases"][0]
        image = step["images"][0]
        obj = image["objects"][0]
        if field in ("feature", "box"):
            obj[field][1] = value
        elif field == "confidence":
            obj["confidence"] = value
        elif field == "grounding_box":
            next(iter(phrase["grounding_boxes"].values()))[0] = value
        elif field == "token":
            step["tokens"][0] = value
        elif field == "entity_id":
            phrase["entity_id"] = value
        elif field == "image_id":
            image["image_id"] = value
        elif field == "documents":
            payload[field] = value
        elif field in ("tokens", "noun_phrases", "images"):
            step[field] = value
        elif field == "objects":
            image[field] = value
        elif field == "grounding_boxes":
            phrase[field] = value
        else:
            doc[field] = value
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(payload))
        shaped = ("documents", "steps", "tokens", "noun_phrases", "images",
                  "objects", "grounding_boxes")
        with pytest.raises(CorpusError, match=(
                f"{field} must be a JSON" if field in shaped else None)):
            load_corpus(path)

    @pytest.mark.parametrize("field", ["box", "grounding_box"])
    @pytest.mark.parametrize("coords", [[0.5, 0.1, 0.2, 0.3], [0.1, 0.1, float("nan"), 0.3],
                                        [0.1, 0.1, 1.5, 0.3]], ids=["inverted", "nan", "past-1"])
    def test_out_of_range_boxes_rejected_at_load(self, tmp_path, field, coords):
        """A box of 4 numbers is built as read; `validate_corpus` then
        rejects one outside the unit square, naming where it is."""
        payload = corpus_to_dict(generate_synthetic_corpus(tiny_config()))
        step = payload["documents"][0]["steps"][0]
        if field == "box":
            step["images"][0]["objects"][0]["box"] = coords
        else:
            phrase = step["noun_phrases"][0]
            phrase["grounding_boxes"][next(iter(phrase["grounding_boxes"]))] = coords
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusError, match=r"doc \S+ step 1 .*invalid bounding box"):
            load_corpus(path)

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d_v": 4, "documents": [')
        with pytest.raises(CorpusError, match="line"):
            load_corpus(path)

    def test_missing_field_reported(self):
        with pytest.raises(CorpusError, match="malformed"):
            corpus_from_dict({"documents": []})

    def test_task_instance_round_trip(self, tmp_path):
        corpus = generate_synthetic_corpus(tiny_config())
        instances = make_instances(corpus, ["cloze"], 3, seed=0)
        path = tmp_path / "tasks.jsonl"
        save_task_instances(instances, path)
        loaded = load_task_instances(path)
        assert [i.__dict__ for i in loaded] == [i.__dict__ for i in instances]

    def test_bad_task_line_reports_line_number(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_text('{"task_kind": "cloze"}\n')
        with pytest.raises(CorpusError, match=":1:"):
            load_task_instances(path)

    @pytest.mark.parametrize("field,value,match", [
        ("candidates", [[True, False], [True, True]], "JSON strings"),
        ("candidates", [[1.5], [2.5]], "JSON strings"),
        ("context_steps", [], "non-empty and distinct"),
        ("context_steps", [1, 1, 2, 3], "non-empty and distinct"),
    ], ids=["bool-refs", "number-refs", "empty-context", "repeated-context"])
    def test_task_line_strict_refs_and_context(self, tmp_path, field, value, match):
        """Image refs are JSON strings, never converted; the context is a
        non-empty list of distinct steps. The error names the bad line."""
        corpus = generate_synthetic_corpus(tiny_config())
        path = tmp_path / "tasks.jsonl"
        save_task_instances(make_instances(corpus, ["cloze"], 2, seed=0)[:2], path)
        lines = path.read_text().splitlines()
        line = json.loads(lines[1])
        line[field] = value
        path.write_text("\n".join([lines[0], json.dumps(line)]) + "\n")
        with pytest.raises(CorpusError, match=f":2: .*{match}"):
            load_task_instances(path)


class TestSyntheticGeneration:

    def test_deterministic_for_seed(self):
        a = generate_synthetic_corpus(tiny_config())
        b = generate_synthetic_corpus(tiny_config())
        assert corpus_to_dict(a) == corpus_to_dict(b)

    def test_seed_changes_content(self):
        a = generate_synthetic_corpus(tiny_config())
        b = generate_synthetic_corpus(tiny_config(seed=12))
        assert corpus_to_dict(a) != corpus_to_dict(b)

    def test_document_independence(self):
        """Adding documents does not disturb earlier ones."""
        small = generate_synthetic_corpus(tiny_config(num_docs=2))
        large = generate_synthetic_corpus(tiny_config(num_docs=3))
        assert (corpus_to_dict(small)["documents"]
                == corpus_to_dict(large)["documents"][:2])

    def test_entities_recur_across_steps(self):
        corpus = generate_synthetic_corpus(tiny_config())
        for doc in corpus.documents:
            steps_of = {}
            for step in doc.steps:
                for phrase in step.noun_phrases:
                    steps_of.setdefault(phrase.entity_id, set()).add(step.index)
            recurring = [e for e, s in steps_of.items() if len(s) >= 2]
            assert len(recurring) >= len(steps_of) // 2

    def test_same_entity_objects_are_near_cross_entity_far(self):
        """The temporal threshold must separate the two distance modes."""
        cfg = tiny_config(num_docs=6, d_v=8)
        corpus = generate_synthetic_corpus(cfg)
        same, cross = [], []
        for doc in corpus.documents:
            by_entity = {}
            for step in doc.steps:
                ents = [p.entity_id for p in step.noun_phrases]
                for img in step.images:
                    for e, obj in zip(ents, img.objects):
                        by_entity.setdefault(e, []).append(obj.feature)
            ents = list(by_entity)
            for i, e in enumerate(ents):
                feats = by_entity[e]
                for a in range(len(feats)):
                    for b in range(a + 1, len(feats)):
                        same.append(np.linalg.norm(feats[a] - feats[b]))
                for e2 in ents[i + 1:]:
                    cross.append(np.linalg.norm(feats[0] - by_entity[e2][0]))
        assert np.max(same) < 7.0 < np.percentile(cross, 10)

    def test_grounding_boxes_overlap_object_boxes(self):
        from tmeg.graph import iou
        corpus = generate_synthetic_corpus(tiny_config())
        checked = 0
        for doc in corpus.documents:
            for step in doc.steps:
                ents = [p.entity_id for p in step.noun_phrases]
                for img in step.images:
                    boxes = {e: o.box for e, o in zip(ents, img.objects)}
                    for phrase in step.noun_phrases:
                        gbox = phrase.grounding_boxes.get(img.image_id)
                        if gbox is not None and phrase.entity_id in boxes:
                            assert iou(gbox, boxes[phrase.entity_id]) > 0.5
                            checked += 1
        assert checked > 10

    def test_entity_phases_are_disjoint(self):
        cfg = tiny_config(steps_min=7, steps_max=7, entity_vocab_size=16,
                          entity_phase_steps=4)
        corpus = generate_synthetic_corpus(cfg)
        for doc in corpus.documents:
            early, late = set(), set()
            for step in doc.steps:
                ents = {p.entity_id for p in step.noun_phrases}
                (early if step.index <= 4 else late).update(ents)
            assert early and late and early.isdisjoint(late)

    def test_roster_size_override_pins_entity_set(self):
        cfg = tiny_config(roster_size=3)
        corpus = generate_synthetic_corpus(cfg)
        for doc in corpus.documents:
            per_step = [frozenset(p.entity_id for p in s.noun_phrases)
                        for s in doc.steps]
            assert len(set(per_step)) == 1

    def test_box_grid_reuses_slot_boxes(self):
        cfg = tiny_config(box_grid=True, objects_per_image_min=2,
                          objects_per_image_max=2)
        corpus = generate_synthetic_corpus(cfg)
        layouts = set()
        for doc in corpus.documents:
            for img in doc.all_images():
                layouts.add(tuple(tuple(o.box.as_list()) for o in img.objects))
        # every 2-object image shares the same deterministic layout
        assert len(layouts) == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(CorpusError):
            tiny_config(steps_min=0).validate()
        with pytest.raises(CorpusError):
            tiny_config(steps_min=6, steps_max=5).validate()
        with pytest.raises(CorpusError):
            tiny_config(feature_noise_sigma=-1.0).validate()


class TestVocab:

    def test_unknown_token_reserved(self):
        corpus = generate_synthetic_corpus(tiny_config())
        vocab = build_vocab(corpus)
        assert vocab["<unk>"] == 0
        assert len(set(vocab.values())) == len(vocab)

    def test_vocab_is_sorted_and_complete(self):
        corpus = generate_synthetic_corpus(tiny_config())
        vocab = build_vocab(corpus)
        seen = {tok for doc in corpus.documents
                for step in doc.steps for tok in step.tokens}
        assert seen <= set(vocab)
        ordered = [t for t in vocab if t != "<unk>"]
        assert ordered == sorted(ordered)


def make_pool(rng, n, d_v=4, prefix="p"):
    box = BoundingBox(0.1, 0.1, 0.3, 0.3)
    return [
        StepImage(f"{prefix}{k:03d}", [
            ObjectFeature(rng.normal(0.0, 2.0, size=d_v), box, 1.0)
            for _ in range(int(rng.integers(1, 4)))
        ])
        for k in range(n)
    ]


class TestDistractors:

    def test_matches_brute_force_on_1000_pools(self):
        rng = np.random.default_rng(9)
        for trial in range(1000):
            pool = make_pool(rng, int(rng.integers(3, 9)))
            gold = make_pool(rng, 1, prefix="g")[0]
            n = int(rng.integers(1, len(pool) + 1))
            picked = sample_distractors(gold, pool, n)
            gf = np.mean([o.feature for o in gold.objects], axis=0)
            ranked = sorted(
                pool,
                key=lambda im: (float(np.linalg.norm(
                    np.mean([o.feature for o in im.objects], axis=0) - gf)),
                    im.image_id))
            assert [im.image_id for im in picked] == \
                [im.image_id for im in ranked[:n]]

    def test_gold_in_pool_rejected(self):
        rng = np.random.default_rng(1)
        pool = make_pool(rng, 3)
        with pytest.raises(CorpusError, match="exclude"):
            sample_distractors(pool[0], pool, 1)

    def test_pool_too_small_rejected(self):
        rng = np.random.default_rng(2)
        pool = make_pool(rng, 2)
        gold = make_pool(rng, 1, prefix="g")[0]
        with pytest.raises(CorpusError, match="smaller"):
            sample_distractors(gold, pool, 3)

    def test_mean_pool_empty_image_rejected(self):
        with pytest.raises(CorpusError):
            mean_pool_image(StepImage("empty", []))


class TestTaskInstances:

    @pytest.fixture()
    def doc(self):
        return generate_synthetic_corpus(tiny_config()).documents[0]

    def test_cloze_one_instance_per_blank(self, doc):
        rng = np.random.default_rng(0)
        instances = build_task_instances(doc, "cloze", 3, rng)
        assert len(instances) == 4
        for inst in instances:
            assert inst.task_kind == "cloze"
            assert len(inst.candidates) == 3
            assert 0 <= inst.gold_index < 3
            lengths = {len(c) for c in inst.candidates}
            assert lengths == {4}

    def test_cloze_candidates_differ_in_one_position(self, doc):
        rng = np.random.default_rng(0)
        for inst in build_task_instances(doc, "cloze", 3, rng):
            gold = inst.candidates[inst.gold_index]
            for ci, cand in enumerate(inst.candidates):
                if ci == inst.gold_index:
                    continue
                diffs = [k for k in range(4) if cand[k] != gold[k]]
                assert len(diffs) == 1

    def test_coherence_single_instance(self, doc):
        rng = np.random.default_rng(0)
        instances = build_task_instances(doc, "coherence", 4, rng)
        assert len(instances) == 1
        inst = instances[0]
        assert len({tuple(c) for c in inst.candidates}) == 4

    def test_ordering_permutations(self, doc):
        rng = np.random.default_rng(0)
        inst = build_task_instances(doc, "ordering", 4, rng)[0]
        gold = inst.candidates[inst.gold_index]
        for cand in inst.candidates:
            assert sorted(cand) == sorted(gold)
        assert len({tuple(c) for c in inst.candidates}) == 4

    def test_ordering_rejects_impossible_candidate_count(self):
        doc = generate_synthetic_corpus(
            tiny_config(steps_min=5, steps_max=5)).documents[0]
        # 4 window images allow 23 non-identity permutations at most
        with pytest.raises(CorpusError, match="permutations"):
            build_task_instances(doc, "ordering", 25, np.random.default_rng(0))

    def test_unknown_kind_rejected(self, doc):
        with pytest.raises(CorpusError, match="unknown task kind"):
            build_task_instances(doc, "riddle", 4, np.random.default_rng(0))

    def test_gold_position_varies(self, doc):
        rng = np.random.default_rng(0)
        positions = set()
        for trial in range(20):
            for inst in build_task_instances(doc, "cloze", 3, rng):
                positions.add(inst.gold_index)
        assert len(positions) > 1

    def test_make_instances_deterministic(self):
        corpus = generate_synthetic_corpus(tiny_config())
        a = make_instances(corpus, ["cloze", "ordering"], 3, seed=4)
        b = make_instances(corpus, ["cloze", "ordering"], 3, seed=4)
        assert [i.__dict__ for i in a] == [i.__dict__ for i in b]
