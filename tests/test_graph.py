"""Graph construction tests.

The labeler is checked against an independent brute-force oracle that
recomputes both code matrices from the raw annotations with plain nested
loops and first-write-wins semantics.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import tmeg
from tmeg.data import (
    BoundingBox, NounPhrase, ObjectFeature, Step, StepImage, SyntheticConfig,
    generate_synthetic_corpus,
)
from tmeg.graph import (
    DEFAULT_LAMBDA_M, DEFAULT_LAMBDA_T, N_MODAL_CODES, ModalCode, TemporalCode,
    assemble_candidate_graphs, assemble_graph, build_nodes, check_code_stack,
    dump_graph, euclidean, iou, node_arrays,
)
from tmeg.harness import make_instances, prepare_instances


# ----------------------------------------------------------------------
# independent oracle


def oracle_matrices(nodes, lambda_t, lambda_m):
    """Brute-force reference labeler working on the node list alone.

    Writes are first-wins per matrix, applied in the fixed pass order:
    intra-modal, temporal node-based, inter-modal node-based, edge-based.
    """
    n = len(nodes)
    phi_t = np.zeros((n, n), dtype=np.int64)
    phi_m = np.zeros((n, n), dtype=np.int64)

    def put(mat, i, j, code):
        if i != j and mat[i, j] == 0:
            mat[i, j] = code
            mat[j, i] = code

    # intra-modal: same unit, plus CLS to every node of its modality
    for i in range(n):
        for j in range(i + 1, n):
            a, b = nodes[i], nodes[j]
            same_unit = a.unit_id == b.unit_id
            cls_link = (a.modality == b.modality
                        and (a.kind == "cls" or b.kind == "cls"))
            if same_unit or cls_link:
                code = (ModalCode.INTRA_TEXT if a.modality == "text"
                        else ModalCode.INTRA_VIS)
                put(phi_m, i, j, code)

    # temporal node-based, text: same entity in different steps
    for i in range(n):
        for j in range(n):
            a, b = nodes[i], nodes[j]
            if (a.kind == "token" and b.kind == "token"
                    and a.entity_id and a.entity_id == b.entity_id
                    and a.step_index != b.step_index):
                put(phi_t, i, j, TemporalCode.TEXT_NODE)

    # temporal node-based, visual: near features across images
    for i in range(n):
        for j in range(n):
            a, b = nodes[i], nodes[j]
            if (a.kind == "object" and b.kind == "object"
                    and a.unit_id != b.unit_id
                    and euclidean(a.obj.feature, b.obj.feature) < lambda_t):
                put(phi_t, i, j, TemporalCode.VIS_NODE)

    # inter-modal node-based: grounding box overlaps object box
    grounded = set()
    for i in range(n):
        a = nodes[i]
        if a.kind != "token" or a.phrase is None:
            continue
        for j in range(n):
            b = nodes[j]
            if b.kind != "object":
                continue
            gbox = a.phrase.grounding_boxes.get(b.unit_id)
            if gbox is not None and iou(gbox, b.obj.box) > lambda_m:
                put(phi_m, i, j, ModalCode.INTER_NODE)
                grounded.add((i, j))

    # temporal edge-based: entity pairs co-mentioned in two or more steps
    mentions = {}
    for i, node in enumerate(nodes):
        if node.kind == "token" and node.entity_id:
            mentions.setdefault(node.entity_id, []).append(i)
    for ea in mentions:
        for eb in mentions:
            if ea >= eb:
                continue
            steps_a = {nodes[i].step_index for i in mentions[ea]}
            steps_b = {nodes[i].step_index for i in mentions[eb]}
            shared = steps_a & steps_b
            if len(shared) < 2:
                continue
            for i in mentions[ea]:
                for j in mentions[eb]:
                    ti, tj = nodes[i].step_index, nodes[j].step_index
                    if ti in shared and tj in shared and ti != tj:
                        put(phi_t, i, j, TemporalCode.EDGE)

    # inter-modal edge-based: entities co-grounded in the same image
    for i1, j1 in grounded:
        for i2, j2 in grounded:
            a1, a2 = nodes[i1], nodes[i2]
            if (a1.step_index == a2.step_index
                    and nodes[j1].unit_id == nodes[j2].unit_id
                    and a1.entity_id != a2.entity_id):
                for i in mentions.get(a1.entity_id, []):
                    if nodes[i].step_index == a1.step_index:
                        put(phi_m, i, j2, ModalCode.INTER_EDGE)
    return phi_t, phi_m


# ----------------------------------------------------------------------
# random annotated inputs


def random_box(rng):
    x1, y1 = rng.uniform(0.0, 0.6, size=2)
    w, h = rng.uniform(0.1, 0.39, size=2)
    return BoundingBox(float(x1), float(y1), float(x1 + w), float(y1 + h))


def random_input(rng, d_v=3, max_nodes=12):
    """Random (steps, images) pair with at most max_nodes graph nodes."""
    while True:
        n_steps = int(rng.integers(1, 3))
        n_images = int(rng.integers(1, 3))
        image_ids = [f"im{k}" for k in range(n_images)]
        images = []
        for iid in image_ids:
            objects = [
                ObjectFeature(feature=rng.normal(0.0, 2.0, size=d_v),
                              box=random_box(rng),
                              confidence=float(rng.uniform(0.0, 1.0)))
                for _ in range(int(rng.integers(1, 3)))
            ]
            images.append(StepImage(image_id=iid, objects=objects))
        steps = []
        for t in range(1, n_steps + 1):
            n_tok = int(rng.integers(1, 4))
            tokens = [f"w{int(rng.integers(5))}" for _ in range(n_tok)]
            phrases = []
            for pos in range(n_tok):
                if rng.random() < 0.6:
                    gboxes = {
                        iid: random_box(rng)
                        for iid in image_ids if rng.random() < 0.7
                    }
                    phrases.append(NounPhrase(
                        span=(pos, pos + 1),
                        entity_id=f"e{int(rng.integers(3))}",
                        grounding_boxes=gboxes))
            steps.append(Step(index=t, tokens=tokens,
                              noun_phrases=phrases, images=[]))
        n_nodes = sum(len(s.tokens) + 2 for s in steps)
        n_nodes += sum(1 + len(im.objects) for im in images)
        if n_nodes <= max_nodes:
            return steps, images


class TestOracleEquivalence:

    def test_thousand_random_inputs(self):
        rng = np.random.default_rng(42)
        for trial in range(1000):
            steps, images = random_input(rng)
            lam_t = float(rng.uniform(1.0, 8.0))
            lam_m = float(rng.uniform(0.05, 0.6))
            graph = assemble_graph(steps, images, lam_t, lam_m)
            ref_t, ref_m = oracle_matrices(graph.nodes, lam_t, lam_m)
            np.testing.assert_array_equal(graph.phi_t, ref_t)
            np.testing.assert_array_equal(graph.phi_m, ref_m)

    def test_default_thresholds_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            steps, images = random_input(rng)
            graph = assemble_graph(steps, images)
            ref_t, ref_m = oracle_matrices(graph.nodes, DEFAULT_LAMBDA_T,
                                           DEFAULT_LAMBDA_M)
            np.testing.assert_array_equal(graph.phi_t, ref_t)
            np.testing.assert_array_equal(graph.phi_m, ref_m)


def wide_input(rng, d_v=3, max_nodes=40):
    """Random (steps, image pool) with 3-5 steps, multi-token phrase spans
    over three entities (so entity pairs share three or more steps), and
    grounding boxes that often copy an object's box, so one object is often
    grounded by two entities of a step at once."""
    while True:
        images = [
            StepImage(f"im{k}", [
                ObjectFeature(feature=rng.normal(0.0, 2.0, size=d_v),
                              box=random_box(rng),
                              confidence=float(rng.uniform(0.0, 1.0)))
                for _ in range(int(rng.integers(1, 4)))])
            for k in range(int(rng.integers(1, 5)))
        ]
        steps = []
        for t in range(1, int(rng.integers(3, 6)) + 1):
            n_tok = int(rng.integers(2, 7))
            phrases, pos = [], 0
            while pos < n_tok:
                width = int(rng.integers(1, 4))
                if rng.random() < 0.6:
                    gboxes = {}
                    for im in images:
                        if rng.random() < 0.7:
                            obj = im.objects[int(rng.integers(len(im.objects)))]
                            gboxes[im.image_id] = (obj.box if rng.random() < 0.6
                                                   else random_box(rng))
                    phrases.append(NounPhrase(
                        span=(pos, min(pos + width, n_tok)),
                        entity_id=f"e{int(rng.integers(3))}",
                        grounding_boxes=gboxes))
                pos += width
            steps.append(Step(index=t, tokens=[f"w{int(rng.integers(5))}"
                                               for _ in range(n_tok)],
                              noun_phrases=phrases, images=[]))
        n_text = sum(len(s.tokens) + 2 for s in steps)
        if n_text + sum(1 + len(im.objects) for im in images) <= max_nodes:
            return steps, images


def double_grounded(graph) -> bool:
    """Does some object have INTER_NODE links from two entities of one step?"""
    nodes = graph.nodes
    for j, obj in enumerate(nodes):
        if obj.kind == "object":
            linked = {(nodes[i].step_index, nodes[i].entity_id)
                      for i in np.flatnonzero(graph.phi_m[:, j] == ModalCode.INTER_NODE)}
            if len(linked) > len({step for step, _ in linked}):
                return True
    return False


def assert_same_graph(graph, ref):
    assert dump_graph(graph) == dump_graph(ref)
    np.testing.assert_array_equal(graph.phi_t, ref.phi_t)
    np.testing.assert_array_equal(graph.phi_m, ref.phi_m)


class TestWideOracle:

    def test_wide_inputs_and_candidate_groups_match_oracle(self):
        """assemble_graph on wider inputs, and assemble_candidate_graphs over
        overlapping candidates (one repeating an image), equal the oracle."""
        rng = np.random.default_rng(2024)
        n_double = 0
        for trial in range(250):
            steps, images = wide_input(rng)
            lam_t = float(rng.uniform(1.0, 8.0))
            lam_m = float(rng.uniform(0.05, 0.6))
            graph = assemble_graph(steps, images, lam_t, lam_m)
            ref_t, ref_m = oracle_matrices(graph.nodes, lam_t, lam_m)
            np.testing.assert_array_equal(graph.phi_t, ref_t)
            np.testing.assert_array_equal(graph.phi_m, ref_m)
            n_double += double_grounded(graph)

            candidates = [
                [images[k] for k in rng.choice(len(images), size=int(rng.integers(
                    1, len(images) + 1)), replace=False)]
                for _ in range(int(rng.integers(2, 5)))]
            candidates.append([images[0], images[-1], images[0]])
            group = assemble_candidate_graphs(steps, candidates, lam_t, lam_m)
            assert len(group) == len(candidates)
            for cand, g in zip(candidates, group):
                assert_same_graph(g, assemble_graph(steps, cand, lam_t, lam_m))
                ref_t, ref_m = oracle_matrices(g.nodes, lam_t, lam_m)
                np.testing.assert_array_equal(g.phi_t, ref_t)
                np.testing.assert_array_equal(g.phi_m, ref_m)
        # the generator reaches the case a per-step "any entity" test gets wrong
        assert n_double >= 25

    def test_prepared_corpus_graphs_match_oracle(self):
        corpus = generate_synthetic_corpus(SyntheticConfig(num_docs=4, seed=1))
        instances = make_instances(corpus, ["cloze", "coherence", "ordering"], 4, seed=1)
        prepared = prepare_instances(corpus, instances, DEFAULT_LAMBDA_T,
                                     DEFAULT_LAMBDA_M)
        images = corpus.image_index()
        docs = {d.doc_id: d for d in corpus.documents}
        n_graphs = 0
        for p in prepared:
            steps = [s for i in p.instance.context_steps
                     for s in docs[p.instance.doc_id].steps if s.index == i]
            for cand, g in zip(p.instance.candidates, p.graphs):
                ref_t, ref_m = oracle_matrices(g.nodes, DEFAULT_LAMBDA_T,
                                               DEFAULT_LAMBDA_M)
                np.testing.assert_array_equal(g.phi_t, ref_t)
                np.testing.assert_array_equal(g.phi_m, ref_m)
                assert_same_graph(g, assemble_graph(steps, [images[r] for r in cand]))
                n_graphs += 1
        assert n_graphs == 96

    @pytest.mark.parametrize("shape", ["uniform", "default"])
    def test_prepared_graphs_equal_one_assembly_per_candidate(self, shape):
        """On 80-document corpora with all three tasks, every prepared
        graph equals assembling its candidate alone: node dump, code
        matrices with their dtypes, and node arrays. Instances that repeat
        a candidate hold one graph object."""
        kw = (dict(steps_min=7, steps_max=7, tokens_per_step_min=3,
                   tokens_per_step_max=3, entity_vocab_size=24,
                   token_vocab_size=30, objects_per_image_min=3,
                   objects_per_image_max=3, images_per_step=1,
                   feature_noise_sigma=0.1, roster_size=3, box_grid=True)
              if shape == "uniform" else {})
        for seed in (1, 2):
            corpus = generate_synthetic_corpus(
                SyntheticConfig(num_docs=80, seed=seed, **kw))
            instances = make_instances(corpus, ["cloze", "coherence", "ordering"],
                                       4, seed)
            prepared = prepare_instances(corpus, instances, DEFAULT_LAMBDA_T,
                                         DEFAULT_LAMBDA_M)
            images = corpus.image_index()
            docs = {d.doc_id: {s.index: s for s in d.steps} for d in corpus.documents}
            alone = {}
            for p in prepared:
                steps = [docs[p.instance.doc_id][i] for i in p.instance.context_steps]
                for cand, g in zip(p.instance.candidates, p.graphs):
                    key = (p.instance.doc_id, tuple(p.instance.context_steps), tuple(cand))
                    if key in alone:    # a repeat: the first instance's graph itself
                        assert g is alone[key][0]
                        continue
                    ref = assemble_graph(steps, [images[r] for r in cand])
                    alone[key] = g, ref
                    assert dump_graph(g) == dump_graph(ref)
                    for got, want in ((g.phi_t, ref.phi_t), (g.phi_m, ref.phi_m)):
                        assert got.dtype == want.dtype == np.int8
                        np.testing.assert_array_equal(got, want)
            for g, ref in alone.values():
                want = node_arrays(ref.nodes)
                assert g.arrays.n_text == want.n_text
                for name in ("kind", "step", "token", "features", "boxes"):
                    got = getattr(g.arrays, name)
                    assert got.dtype == getattr(want, name).dtype, name
                    np.testing.assert_array_equal(got, getattr(want, name))
            assert len(alone) < sum(len(p.graphs) for p in prepared)

    def test_images_sharing_an_id_rejected(self):
        box = BoundingBox(0.1, 0.1, 0.4, 0.4)
        step = Step(index=1, tokens=["a"], noun_phrases=[], images=[])
        a = StepImage("im", [ObjectFeature(np.zeros(2), box, 1.0)])
        b = StepImage("im", [ObjectFeature(np.ones(2), box, 1.0)])
        with pytest.raises(ValueError):
            assemble_candidate_graphs([step], [[a], [b]])

    def test_empty_entity_id_rejected(self):
        """The labeler reads "" as no entity while the oracle reads it as
        one more entity, so graphs refuse it (corpus loading does too)."""
        box, far = BoundingBox(0.1, 0.1, 0.4, 0.4), BoundingBox(0.6, 0.6, 0.9, 0.9)
        image = StepImage("im", [ObjectFeature(np.zeros(2), box, 1.0),
                                 ObjectFeature(np.ones(2), far, 1.0)])
        step = Step(index=1, tokens=["a", "b"], images=[], noun_phrases=[
            NounPhrase((0, 1), "e0", {"im": box}),
            NounPhrase((1, 2), "", {"im": far})])
        with pytest.raises(ValueError, match="empty entity_id"):
            build_nodes([step], [image])
        with pytest.raises(ValueError, match="empty entity_id"):
            assemble_graph([step], [image])


# ----------------------------------------------------------------------
# geometry


class TestGeometry:

    def test_iou_disjoint_is_zero(self):
        a = BoundingBox(0.0, 0.0, 0.2, 0.2)
        b = BoundingBox(0.5, 0.5, 0.9, 0.9)
        assert iou(a, b) == 0.0

    def test_iou_identical_is_one(self):
        a = BoundingBox(0.1, 0.2, 0.5, 0.8)
        assert iou(a, a) == pytest.approx(1.0)

    def test_iou_known_value(self):
        # two unit-normalized squares overlapping in a quarter
        a = BoundingBox(0.0, 0.0, 0.4, 0.4)
        b = BoundingBox(0.2, 0.2, 0.6, 0.6)
        inter = 0.2 * 0.2
        union = 0.16 + 0.16 - inter
        assert iou(a, b) == pytest.approx(inter / union)

    def test_iou_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == pytest.approx(iou(b, a))
            assert 0.0 <= iou(a, b) <= 1.0

    def test_euclidean_matches_numpy(self):
        rng = np.random.default_rng(1)
        u, v = rng.normal(size=5), rng.normal(size=5)
        assert euclidean(u, v) == pytest.approx(np.linalg.norm(u - v))

    def test_euclidean_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            euclidean(np.zeros(3), np.zeros(4))


# ----------------------------------------------------------------------
# structural invariants


def small_inputs():
    """Two steps and two images (imgA, imgB) for the small fixture."""
    box = BoundingBox(0.1, 0.1, 0.4, 0.4)
    far_box = BoundingBox(0.6, 0.6, 0.9, 0.9)
    f0 = np.array([0.0, 0.0])
    f1 = np.array([10.0, 0.0])
    img_a = StepImage("imgA", [ObjectFeature(f0, box, 0.9),
                               ObjectFeature(f1, far_box, 0.8)])
    img_b = StepImage("imgB", [ObjectFeature(f0 + 0.5, box, 0.9)])
    steps = [
        Step(index=1, tokens=["mix", "ent0", "ent1"],
             noun_phrases=[
                 NounPhrase((1, 2), "e0", {"imgA": box}),
                 NounPhrase((2, 3), "e1", {"imgA": far_box}),
             ], images=[]),
        Step(index=2, tokens=["bake", "ent0", "ent1"],
             noun_phrases=[
                 NounPhrase((1, 2), "e0", {"imgB": box}),
                 NounPhrase((2, 3), "e1", {}),
             ], images=[]),
    ]
    return steps, [img_a, img_b]


def small_fixture(lambda_t=DEFAULT_LAMBDA_T, lambda_m=DEFAULT_LAMBDA_M):
    steps, images = small_inputs()
    return assemble_graph(steps, images, lambda_t, lambda_m)


class TestGraphInvariants:

    def test_validate_passes(self):
        small_fixture().validate()

    def test_node_layout(self):
        g = small_fixture()
        kinds = [n.kind for n in g.nodes]
        assert kinds == ["cls", "token", "token", "token", "sep",
                         "cls", "token", "token", "token", "sep",
                         "cls", "object", "object", "cls", "object"]
        assert [n.modality for n in g.nodes[:10]] == ["text"] * 10
        assert [n.modality for n in g.nodes[10:]] == ["visual"] * 5

    def test_symmetry_and_zero_diagonal(self):
        g = small_fixture()
        np.testing.assert_array_equal(g.phi_t, g.phi_t.T)
        np.testing.assert_array_equal(g.phi_m, g.phi_m.T)
        assert (np.diag(g.phi_t) == 0).all()
        assert (np.diag(g.phi_m) == 0).all()

    def test_temporal_text_link_present(self):
        g = small_fixture()
        # ent0 tokens are global indices 2 (step 1) and 7 (step 2)
        assert g.phi_t[2, 7] == TemporalCode.TEXT_NODE
        assert g.phi_t[3, 8] == TemporalCode.TEXT_NODE

    def test_temporal_edge_based_link_present(self):
        g = small_fixture()
        # e0 and e1 share steps 1 and 2, so cross pairs across steps get EDGE
        assert g.phi_t[2, 8] == TemporalCode.EDGE
        assert g.phi_t[3, 7] == TemporalCode.EDGE

    def test_temporal_visual_threshold_strict(self):
        g = small_fixture(lambda_t=7.0)
        # features [0,0] and [0.5,0.5] are close, [10,0] is far
        assert g.phi_t[11, 14] == TemporalCode.VIS_NODE
        assert g.phi_t[12, 14] == TemporalCode.NONE
        dist = euclidean([0.0, 0.0], [0.5, 0.5])
        at_threshold = small_fixture(lambda_t=dist)
        assert at_threshold.phi_t[11, 14] == TemporalCode.NONE

    def test_inter_modal_grounding(self):
        g = small_fixture()
        # ent0 in step 1 grounds onto imgA's first object
        assert g.phi_m[2, 11] == ModalCode.INTER_NODE
        assert g.phi_m[3, 12] == ModalCode.INTER_NODE
        # co-grounded pair in imgA yields the derived cross link
        assert g.phi_m[2, 12] == ModalCode.INTER_EDGE
        assert g.phi_m[3, 11] == ModalCode.INTER_EDGE

    def test_intra_modal_blocks(self):
        g = small_fixture()
        assert g.phi_m[0, 4] == ModalCode.INTRA_TEXT
        assert g.phi_m[1, 3] == ModalCode.INTRA_TEXT
        assert g.phi_m[10, 12] == ModalCode.INTRA_VIS
        # text CLS links to text nodes of other steps as well
        assert g.phi_m[0, 6] == ModalCode.INTRA_TEXT
        # plain token pairs across steps stay unlabeled
        assert g.phi_m[1, 6] == ModalCode.NONE

    def test_lambda_t_must_be_positive(self):
        box = BoundingBox(0.1, 0.1, 0.2, 0.2)
        img = StepImage("i", [ObjectFeature(np.zeros(2), box, 1.0)])
        step = Step(index=1, tokens=["a"], noun_phrases=[], images=[])
        with pytest.raises(ValueError):
            assemble_graph([step], [img], lambda_t=0.0)

    def test_build_nodes_requires_steps(self):
        with pytest.raises(ValueError):
            build_nodes([], [])


def set_temporal(codes, at, code):
    """Set the temporal code at `at` of a pair-code matrix, keeping its
    modal code."""
    codes[at] = code * N_MODAL_CODES + codes[at] % N_MODAL_CODES


class TestValidate:

    @pytest.mark.parametrize("corrupt", [
        lambda g: setattr(g, "codes", g.codes[:-1, :-1]),
        lambda g: setattr(g, "codes", np.zeros((2, 2), dtype=np.int8)),
        lambda g: set_temporal(g.codes, (0, 1), TemporalCode.EDGE),
        lambda g: g.codes.__setitem__((2, 2), ModalCode.INTRA_TEXT),
        lambda g: g.codes.__setitem__((0, 0), 99),      # t 19, m 4
        lambda g: g.codes.__setitem__((slice(None), slice(None)), -1),
    ], ids=["short-phi_t", "phi_m-2x2", "asymmetric", "diagonal",
            "out-of-range", "negative"])
    def test_rejects_corrupt_matrices(self, corrupt):
        g = small_fixture()
        g.codes = g.codes.copy()
        corrupt(g)
        with pytest.raises(ValueError):
            g.validate()

    def test_single_graph_error_names_no_candidate(self):
        g = small_fixture()
        g.codes = g.codes.copy()
        set_temporal(g.codes, (0, 1), TemporalCode.EDGE)
        with pytest.raises(ValueError, match="^phi_t not symmetric$"):
            g.validate()

    def test_checks_survive_python_optimize_flag(self):
        """`python -O` strips asserts; validation must not rely on them."""
        script = textwrap.dedent("""
            import numpy as np
            from tmeg.graph import Node, TmegGraph, node_arrays
            nodes = [Node(i, "text", "token", 1, "s1", i) for i in range(3)]
            g = TmegGraph([], [], np.zeros((2, 2), np.int8), node_arrays(nodes))
            try:
                g.validate()
            except ValueError:
                print("rejected")
            else:
                print("accepted")
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(tmeg.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "rejected"


def small_group():
    """The small fixture's steps and a ragged K = 3 candidate group; the
    last candidate repeats an image."""
    steps, (img_a, img_b) = small_inputs()
    return steps, [[img_b], [img_a, img_b], [img_a, img_b, img_a]]


def code_stacks(graphs):
    """Each graph's code matrices in one NONE-padded (K, L, L) stack."""
    size = max(g.n_nodes for g in graphs)
    stacks = np.zeros((2, len(graphs), size, size), dtype=np.int8)
    for k, g in enumerate(graphs):
        stacks[:, k, :g.n_nodes, :g.n_nodes] = g.phi_t, g.phi_m
    return stacks, [g.n_nodes for g in graphs]


class TestCandidateStack:

    def test_ragged_group_with_a_repeated_image_equals_each_alone(self):
        steps, candidates = small_group()
        group = assemble_candidate_graphs(steps, candidates)
        assert len({g.n_nodes for g in group}) == 3
        for cand, g in zip(candidates, group):
            assert_same_graph(g, assemble_graph(steps, cand))
            ref_t, ref_m = oracle_matrices(g.nodes, DEFAULT_LAMBDA_T, DEFAULT_LAMBDA_M)
            np.testing.assert_array_equal(g.phi_t, ref_t)
            np.testing.assert_array_equal(g.phi_m, ref_m)
        # the copies of the repeated image are INTRA_VIS to each other
        units = [n.unit_id for n in group[2].nodes]
        first, again = units.index("imgA"), len(units) - 1 - units[::-1].index("imgA")
        assert group[2].phi_m[first, again] == ModalCode.INTRA_VIS

    def test_nodes_built_on_demand_equal_build_nodes(self):
        steps, candidates = small_group()
        group = assemble_candidate_graphs(steps, candidates)
        assert all("nodes" not in vars(g) for g in group)    # nothing built yet
        for cand, g in zip(candidates, group):
            want = build_nodes(steps, cand)
            assert [vars(n) for n in g.nodes] == [vars(n) for n in want]
            assert g.nodes is g.nodes and g.n_nodes == len(want)

    @pytest.mark.parametrize("corrupt,match", [
        (lambda t, m: t.__setitem__((1, 0, 1), (t[1, 1, 0] + 1) % 4), "phi_t not symmetric"),
        (lambda t, m: m.__setitem__((1, 2, 2), ModalCode.INTRA_TEXT), "phi_m has a non-NONE diag"),
        (lambda t, m: t.__setitem__((1, slice(0, 2), slice(0, 2)), [[0, 99], [99, 0]]),
         "phi_t has codes outside"),
        (lambda t, m: m.__setitem__((1, slice(0, 2), slice(0, 2)), [[0, -1], [-1, 0]]),
         "phi_m has codes outside"),
    ], ids=["asymmetric", "diagonal", "out-of-range", "negative"])
    def test_check_names_the_corrupt_candidate(self, corrupt, match):
        steps, candidates = small_group()
        (phi_t, phi_m), sizes = code_stacks(assemble_candidate_graphs(steps, candidates))
        check_code_stack(phi_t, phi_m, sizes)
        corrupt(phi_t, phi_m)
        with pytest.raises(ValueError, match=f"candidate 1: {match}"):
            check_code_stack(phi_t, phi_m, sizes)

    def test_check_survives_python_optimize_flag(self):
        script = textwrap.dedent("""
            import numpy as np
            from tmeg.graph import check_code_stack
            for k, (i, j, code) in enumerate([(0, 1, 1), (2, 2, 1), (0, 1, 9), (0, 1, -1)]):
                phi = np.zeros((2, 3, 4, 4), np.int8)
                phi[:, 1, i, j] = code
                if k > 1:
                    phi[:, 1, j, i] = code
                try:
                    check_code_stack(phi[0], phi[1], [4, 4, 2])
                except ValueError as exc:
                    print(exc)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(tmeg.__file__)))
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             env=dict(os.environ, PYTHONPATH=src), text=True, check=True)
        assert out.stdout.splitlines() == [
            "candidate 1: phi_t not symmetric",
            "candidate 1: phi_t has a non-NONE diagonal entry",
            "candidate 1: phi_t has codes outside [0, 4)",
            "candidate 1: phi_t has codes outside [0, 4)"]


class TestPairCodes:

    @pytest.fixture(scope="class")
    def prepared(self):
        corpus = generate_synthetic_corpus(SyntheticConfig(seed=3))
        instances = make_instances(corpus, ["cloze", "coherence", "ordering"], 4, seed=3)
        return prepare_instances(corpus, instances, DEFAULT_LAMBDA_T, DEFAULT_LAMBDA_M)

    def test_each_graph_holds_one_int8_code_matrix(self, prepared):
        for g in (g for p in prepared for g in p.graphs):
            assert g.codes.dtype == np.int8
            assert g.codes.shape == (g.n_nodes, g.n_nodes)

    def test_code_buffers_hold_one_byte_per_stacked_pair(self, prepared):
        """Each (document, context) group's K distinct candidates share
        one (K, L, L) int8 buffer of pair codes, L their largest node
        count, and nothing else holds a code matrix."""
        groups: dict[tuple, dict] = {}
        for p in prepared:
            key = (p.instance.doc_id, tuple(p.instance.context_steps))
            groups.setdefault(key, {}).update((id(g), g) for g in p.graphs)
        buffers = {}
        for g in (g for group in groups.values() for g in group.values()):
            base = g.codes
            while base.base is not None:
                base = base.base
            buffers[id(base)] = base.nbytes
        bound = sum(len(group) * max(g.n_nodes for g in group.values()) ** 2
                    for group in groups.values())
        assert len(buffers) == len(groups)
        assert sum(buffers.values()) <= bound


class TestDumpGraph:

    def test_rle_round_trip(self):
        g = small_fixture()
        dump = dump_graph(g)
        assert dump["n_nodes"] == g.n_nodes
        flat = []
        for value, count in dump["phi_t_rle"]:
            flat.extend([value] * count)
        np.testing.assert_array_equal(
            np.array(flat).reshape(g.phi_t.shape), g.phi_t)

    def test_dump_is_json_ready(self):
        import json
        json.dumps(dump_graph(small_fixture()))
