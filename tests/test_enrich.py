import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import enrich_reference
from rarelm import enrich, neural
from rarelm.enrich import EnrichConfig
from rarelm.rescore import Hypothesis, NBestList
from rarelm.textcorpus import Vocabulary


def model_with(words, d_s=3, d_h=4, seed=0):
    return neural.init_model(Vocabulary(words), d_s, d_h, seed)


def plan_for(counts, scope, nbest=None, **cfg):
    """plan_enrichment over a vocabulary holding every scope word."""
    return enrich.plan_enrichment(counts, scope, Vocabulary(sorted(scope)),
                                  EnrichConfig(**cfg), nbest)


def test_partition_by_threshold():
    plan = plan_for({"x": 12, "y": 3}, {"x", "y"}, threshold=10)
    assert plan.candidates == {"y": [("x", 1.0)]}


def test_partition_threshold_zero():
    assert len(plan_for({"x": 12, "y": 0}, {"x", "y"}, threshold=0)) == 0


def test_partition_missing_count_is_rare():
    plan = plan_for({"x": 12}, {"x", "z"}, threshold=10)
    assert "z" in plan.candidates


def nbest_with(words_lists):
    return [NBestList("u0", [Hypothesis(i + 1, -1.0, w)
                             for i, w in enumerate(words_lists)])]


def test_restrict_to_nbest():
    plan = plan_for({"x": 12}, {"a", "b", "x"}, nbest_with([["a", "q"]]),
                    mode="fromNbest")
    assert plan.candidates == {"a": [("x", 1.0)]}


def test_restrict_to_nbest_empty():
    plan = plan_for({"x": 12}, {"a", "x"}, nbest_with([["q", "z"]]), mode="fromNbest")
    assert len(plan) == 0


def test_restrict_never_adds_frequent():
    plan = plan_for({"x": 12}, {"a", "x"}, nbest_with([["a", "x"]]), mode="fromNbest")
    assert plan.candidates == {"a": [("x", 1.0)]}


def test_restrict_to_nbest_takes_words_of_every_hypothesis():
    plan = plan_for({"x": 12}, {"a", "b", "c", "x"},
                    nbest_with([["a"], ["q"]]) + nbest_with([["b", "a"]]),
                    mode="fromNbest")
    assert set(plan.candidates) == {"a", "b"}


def test_select_candidates_clamped_and_shared():
    plan = enrich.select_candidates({"f1", "f2", "f3"}, {"r1", "r2"},
                                    EnrichConfig(k=5, seed=0), {})
    assert set(plan.candidates) == {"r1", "r2"}
    assert plan.candidates["r1"] == plan.candidates["r2"]
    assert len(plan.candidates["r1"]) == 3


def test_select_candidates_equal_weights():
    plan = enrich.select_candidates({"f1", "f2"}, {"r"}, EnrichConfig(k=2, seed=1), {})
    assert all(w == 1.0 for _, w in plan.candidates["r"])


def test_select_candidates_deterministic():
    pool = {"f%d" % i for i in range(10)}
    p1 = enrich.select_candidates(pool, {"r"}, EnrichConfig(k=3, seed=42), {})
    p2 = enrich.select_candidates(pool, {"r"}, EnrichConfig(k=3, seed=42), {})
    assert p1.candidates == p2.candidates


def test_select_candidates_frequency_weighting():
    plan = enrich.select_candidates({"f1", "f2"}, {"r"},
                                    EnrichConfig(k=2, seed=0, weighting="frequency"),
                                    {"f1": 30, "f2": 10})
    weights = dict(plan.candidates["r"])
    assert abs(sum(weights.values()) / len(weights) - 1.0) < 1e-12
    assert weights["f1"] == 3 * weights["f2"]


def test_select_candidates_no_frequent():
    with pytest.raises(ValueError, match="no candidates available"):
        enrich.select_candidates(set(), {"r"}, EnrichConfig(k=3, seed=0), {})


def test_select_candidates_per_word_sampling():
    pool = {"f%d" % i for i in range(10)}
    rare = {"r3", "r1", "r2"}
    plan = enrich.select_candidates(pool, rare, EnrichConfig(k=3, seed=5, shared=False), {})
    rng = np.random.default_rng(5)
    expected = {r: [(c, 1.0) for c in rng.choice(sorted(pool), size=3, replace=False)]
                for r in sorted(rare)}
    assert plan.candidates == expected
    assert len({tuple(cands) for cands in plan.candidates.values()}) > 1


@pytest.mark.parametrize("field,value,message", [
    ("k", 0, "k must be >= 1"),
    ("weighting", "cosine", "unknown weighting"),
    ("mode", "someStreets", "mode must be"),
    ("threshold", -1, "threshold must be >= 0"),
], ids=["k", "weighting", "mode", "threshold"])
def test_enrich_config_rejects(field, value, message):
    with pytest.raises(ValueError, match=message):
        EnrichConfig(**{field: value})


def test_plan_enrichment_empty_cases():
    vocab = Vocabulary(["f", "r"])
    counts = {"f": 20, "r": 2}
    plan = enrich.plan_enrichment(counts, {"f", "r"}, vocab, EnrichConfig(threshold=0))
    assert len(plan) == 0
    plan = enrich.plan_enrichment(counts, {"nowhere_street"}, vocab, EnrichConfig())
    assert len(plan) == 0
    plan = enrich.plan_enrichment(counts, {"f", "r", "gone"}, vocab, EnrichConfig(k=3))
    assert plan.candidates == {"r": [("f", 1.0)]}
    with pytest.raises(enrich.NoCandidates, match="no candidates available"):
        enrich.plan_enrichment(counts, {"f", "r"}, vocab, EnrichConfig(threshold=50))


def test_enrich_single_candidate_midpoint():
    m = model_with(["r", "c"])
    plan = enrich.EnrichmentPlan({"r": [("c", 1.0)]})
    out, _ = enrich.enrich_embeddings(m, plan)
    r, c = m.vocab.id("r"), m.vocab.id("c")
    assert np.allclose(out.S[:, r], (m.S[:, r] + m.S[:, c]) / 2.0)
    assert np.allclose(out.U[:, r], (m.U[:, r] + m.U[:, c]) / 2.0)


def test_enrich_two_candidate_centroid():
    m = model_with(["r", "c1", "c2"], d_s=2)
    r = m.vocab.id("r")
    m.S[:, r] = [0.0, 0.0]
    m.S[:, m.vocab.id("c1")] = [1.0, 0.0]
    m.S[:, m.vocab.id("c2")] = [0.0, 1.0]
    plan = enrich.EnrichmentPlan({"r": [("c1", 1.0), ("c2", 1.0)]})
    out, _ = enrich.enrich_embeddings(m, plan)
    assert np.allclose(out.S[:, r], [1.0 / 3.0, 1.0 / 3.0])


def test_enrich_untouched_parameters_identical():
    m = model_with(["r", "c", "other"])
    plan = enrich.EnrichmentPlan({"r": [("c", 1.0)]})
    out, report = enrich.enrich_embeddings(m, plan)
    assert np.array_equal(out.W, m.W) and np.array_equal(out.b, m.b)
    other = m.vocab.id("other")
    assert np.array_equal(out.S[:, other], m.S[:, other])
    assert np.array_equal(out.U[:, other], m.U[:, other])
    assert report.untouched_checksum_before == report.untouched_checksum_after


def test_enrich_snapshot_semantics():
    # candidate that is itself planned must contribute its original vector
    m = model_with(["a", "b", "f"], d_s=2)
    a, b, f = (m.vocab.id(w) for w in "abf")
    m.S[:, a] = [1.0, 0.0]
    m.S[:, b] = [0.0, 1.0]
    m.S[:, f] = [2.0, 2.0]
    plan = enrich.EnrichmentPlan({"a": [("f", 1.0)], "b": [("f", 1.0)]})
    out, _ = enrich.enrich_embeddings(m, plan)
    assert np.allclose(out.S[:, a], [1.5, 1.0])
    assert np.allclose(out.S[:, b], [1.0, 1.5])


def test_enrich_out_of_vocab_all_or_nothing():
    m = model_with(["r", "c"])
    S0 = m.S.copy()
    plan = enrich.EnrichmentPlan({"r": [("c", 1.0)], "ghost": [("c", 1.0)]})
    with pytest.raises(ValueError, match="not in vocabulary"):
        enrich.enrich_embeddings(m, plan)
    assert np.array_equal(m.S, S0)


def test_enrich_rejects_self_candidate():
    m = model_with(["r"])
    plan = enrich.EnrichmentPlan({"r": [("r", 1.0)]})
    with pytest.raises(ValueError, match="own candidate"):
        enrich.enrich_embeddings(m, plan)


def test_empty_plan_is_identity():
    m = model_with(["r"])
    out, report = enrich.enrich_embeddings(m, enrich.EnrichmentPlan({}))
    assert np.array_equal(out.S, m.S) and np.array_equal(out.U, m.U)
    assert report.modified == 0


def test_eq4_exactness_random_models():
    rng = np.random.default_rng(6)
    for _ in range(20):
        nwords = int(rng.integers(3, 8))
        words = ["w%d" % i for i in range(nwords)]
        m = model_with(words, d_s=int(rng.integers(1, 5)),
                       d_h=int(rng.integers(1, 5)), seed=int(rng.integers(1000)))
        rare = list(rng.choice(words, size=min(2, nwords - 1), replace=False))
        cands = [w for w in words if w not in rare]
        plan = {}
        for r in rare:
            ks = rng.integers(1, len(cands) + 1)
            sample = list(rng.choice(cands, size=ks, replace=False))
            plan[r] = [(c, float(rng.uniform(0.1, 3.0))) for c in sample]
        out, _ = enrich.enrich_embeddings(m, enrich.EnrichmentPlan(plan))
        for r, cs in plan.items():
            ri = m.vocab.id(r)
            expect = m.S[:, ri].copy()
            for c, w in cs:
                expect = expect + w * m.S[:, m.vocab.id(c)]
            expect /= len(cs) + 1.0
            assert np.max(np.abs(out.S[:, ri] - expect)) < 1e-6


def test_equal_weight_output_in_convex_hull():
    rng = np.random.default_rng(1)
    m = model_with(["r", "c1", "c2"], d_s=2)
    plan = enrich.EnrichmentPlan({"r": [("c1", 1.0), ("c2", 1.0)]})
    out, _ = enrich.enrich_embeddings(m, plan)
    pts = np.stack([m.S[:, m.vocab.id(w)] for w in ("r", "c1", "c2")])
    target = out.S[:, m.vocab.id("r")]
    # solve for barycentric coordinates
    A = np.vstack([pts.T, np.ones(3)])
    coef, *_ = np.linalg.lstsq(A, np.append(target, 1.0), rcond=None)
    assert np.all(coef > -1e-9) and abs(coef.sum() - 1.0) < 1e-9


def test_byte_difference_confined_to_planned_columns(tmp_path):
    m = model_with(["r", "c", "z"])
    plan = enrich.EnrichmentPlan({"r": [("c", 1.0)]})
    out, _ = enrich.enrich_embeddings(m, plan)
    p1, p2 = tmp_path / "before.rlm", tmp_path / "after.rlm"
    neural.save_model(m, p1)
    neural.save_model(out, p2)
    r = m.vocab.id("r")
    loaded_a, loaded_b = neural.load_model(p1), neural.load_model(p2)
    diff_cols_S = {j for j in range(m.vocab_size)
                   if not np.array_equal(loaded_a.S[:, j], loaded_b.S[:, j])}
    diff_cols_U = {j for j in range(m.vocab_size)
                   if not np.array_equal(loaded_a.U[:, j], loaded_b.U[:, j])}
    assert diff_cols_S <= {r} and diff_cols_U <= {r}
    assert np.array_equal(loaded_a.W, loaded_b.W)
    assert np.array_equal(loaded_a.b, loaded_b.b)


def test_plan_file_bytes(tmp_path):
    plan = enrich.EnrichmentPlan({"r2": [("c1", 1.0)],
                                  "r1": [("c1", 1.0), ("c2", 2.5)]})
    path = tmp_path / "plan.tsv"
    plan.to_file(path)
    assert path.read_bytes() == b"r1\tc1:1,c2:2.5\nr2\tc1:1\n"


# Property tests against the per-word oracle in enrich_reference.


def random_model(n_words, d_s, d_h, seed):
    """A model with normal(0, 1) weights over n_words words."""
    m = model_with(["w%d" % i for i in range(n_words)], d_s, d_h, seed)
    rng = np.random.default_rng(seed)
    for arr in (m.S, m.W, m.b, m.U):
        arr[...] = rng.normal(0.0, 1.0, arr.shape)
    return m


# d_s and d_h reach past CHECKSUM_ROWS so the digest hashes several blocks
models = st.builds(random_model, st.integers(2, 12), st.integers(1, 70),
                   st.integers(1, 140), st.integers(0, 2 ** 16))
weights = st.one_of(st.floats(1e-3, 1e3), st.integers(1, 5))


@st.composite
def plans(draw, m):
    """Ragged plans whose candidates may themselves be planned."""
    words = m.vocab.id_to_word[3:]
    rare = draw(st.lists(st.sampled_from(words), unique=True, max_size=len(words)))
    cands = {}
    for r in rare:
        others = [w for w in words if w != r]
        cands[r] = draw(st.lists(st.tuples(st.sampled_from(others), weights),
                                 min_size=1, max_size=6))
    return enrich.EnrichmentPlan(cands)


@settings(max_examples=60, deadline=None)
@given(m=models, data=st.data())
def test_enrich_matches_reference(m, data):
    plan = data.draw(plans(m))
    S, U, per_word = enrich_reference.enrich(m, plan)
    out, report = enrich.enrich_embeddings(m, plan)
    assert np.array_equal(out.S, S) and np.array_equal(out.U, U)
    assert np.array_equal(out.W, m.W) and np.array_equal(out.b, m.b)
    assert report.per_word == per_word
    cols = {m.vocab.id(r) for r in plan.candidates}
    assert report.modified == len(cols)
    digest = enrich_reference.untouched_checksum(m, cols)
    assert report.untouched_checksum_before == digest
    assert report.untouched_checksum_after == digest


@settings(max_examples=60, deadline=None)
@given(m=models, data=st.data())
def test_untouched_checksum_matches_reference(m, data):
    skip = data.draw(st.sets(st.integers(0, m.vocab_size - 1)))
    assert (enrich._untouched_checksum(m, skip)
            == enrich_reference.untouched_checksum(m, skip))
    # the sweeps pass an empty tuple
    assert (enrich._untouched_checksum(m, ())
            == enrich_reference.untouched_checksum(m, ()))
