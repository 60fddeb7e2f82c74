import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import enrich_reference
from rarelm import enrich, neural
from rarelm.enrich import EnrichConfig
from rarelm.rescore import Hypothesis, NBest, NBestList
from rarelm.textcorpus import Vocabulary


def model_with(words, d_s=3, d_h=4, seed=0):
    return neural.init_model(Vocabulary(words), d_s, d_h, seed)


def plan_for(counts, scope, nbest=None, **cfg):
    """plan_enrichment over a vocabulary holding every scope word, and the
    columns of the NBestList records `nbest`, if given."""
    return enrich.plan_enrichment(counts, scope, Vocabulary(sorted(scope)),
                                  EnrichConfig(**cfg),
                                  None if nbest is None else NBest.from_lists(nbest))


def enrich_file(src, dst, plan):
    """enrich_checkpoint of the checkpoint at path src."""
    with open(src, "rb") as f:
        return enrich.enrich_checkpoint(f, neural._read_header(f), dst, plan)


def enriched(m, plan):
    """A copy of m as enriched_in_place yields it for plan; m is restored."""
    with enrich.enriched_in_place(m, plan) as out:
        return out.copy()


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
    plan = enrich.plan_enrichment(counts, {"f", "r"}, vocab, EnrichConfig(threshold=50))
    assert len(plan) == 0


def test_enrich_single_candidate_midpoint():
    m = model_with(["r", "c"])
    plan = enrich.EnrichmentPlan({"r": [("c", 1.0)]})
    out = enriched(m, plan)
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
    out = enriched(m, plan)
    assert np.allclose(out.S[:, r], [1.0 / 3.0, 1.0 / 3.0])


def test_enrich_untouched_parameters_identical():
    m = model_with(["r", "c", "other"])
    plan = enrich.EnrichmentPlan({"r": [("c", 1.0)]})
    out = enriched(m, plan)
    assert np.array_equal(out.W, m.W) and np.array_equal(out.b, m.b)
    other = m.vocab.id("other")
    assert np.array_equal(out.S[:, other], m.S[:, other])
    assert np.array_equal(out.U[:, other], m.U[:, other])
    assert enrich_reference.same_except_columns(m, out, [m.vocab.id("r")])
    assert not enrich_reference.same_except_columns(m, out, ())


def test_enrich_snapshot_semantics():
    # candidate that is itself planned must contribute its original vector
    m = model_with(["a", "b", "f"], d_s=2)
    a, b, f = (m.vocab.id(w) for w in "abf")
    m.S[:, a] = [1.0, 0.0]
    m.S[:, b] = [0.0, 1.0]
    m.S[:, f] = [2.0, 2.0]
    plan = enrich.EnrichmentPlan({"a": [("f", 1.0)], "b": [("f", 1.0)]})
    out = enriched(m, plan)
    assert np.allclose(out.S[:, a], [1.5, 1.0])
    assert np.allclose(out.S[:, b], [1.0, 1.5])


def test_enrich_out_of_vocab_all_or_nothing():
    m = model_with(["r", "c"])
    S0 = m.S.copy()
    plan = enrich.EnrichmentPlan({"r": [("c", 1.0)], "ghost": [("c", 1.0)]})
    with pytest.raises(ValueError, match="not in vocabulary"):
        enriched(m, plan)
    assert np.array_equal(m.S, S0)


@pytest.mark.parametrize("w", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_enrich_rejects_non_finite_weight(w):
    m = model_with(["r", "c"])
    plan = enrich.EnrichmentPlan({"r": [("c", w)]})
    with pytest.raises(ValueError, match="non-finite weight for candidate 'c'"):
        enriched(m, plan)


def test_enrich_rejects_self_candidate():
    m = model_with(["r"])
    plan = enrich.EnrichmentPlan({"r": [("r", 1.0)]})
    with pytest.raises(ValueError, match="own candidate"):
        enriched(m, plan)


def test_empty_plan_is_identity(tmp_path):
    m = model_with(["r"])
    out = enriched(m, enrich.EnrichmentPlan({}))
    assert np.array_equal(out.S, m.S) and np.array_equal(out.U, m.U)
    src, dst = tmp_path / "src.rlm", tmp_path / "dst.rlm"
    neural.save_model(m, src)
    report = enrich_file(src, dst, enrich.EnrichmentPlan({}))
    assert dst.read_bytes() == src.read_bytes()
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
        out = enriched(m, enrich.EnrichmentPlan(plan))
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
    out = enriched(m, plan)
    pts = np.stack([m.S[:, m.vocab.id(w)] for w in ("r", "c1", "c2")])
    target = out.S[:, m.vocab.id("r")]
    # solve for barycentric coordinates
    A = np.vstack([pts.T, np.ones(3)])
    coef, *_ = np.linalg.lstsq(A, np.append(target, 1.0), rcond=None)
    assert np.all(coef > -1e-9) and abs(coef.sum() - 1.0) < 1e-9


def test_byte_difference_confined_to_planned_columns(tmp_path):
    m = model_with(["r", "c", "z"])
    plan = enrich.EnrichmentPlan({"r": [("c", 1.0)]})
    out = enriched(m, plan)
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


# d_s and d_h reach past BATCH_ROWS so a checkpoint holds several blocks
# of S and U
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


def eq4_float64(m, plan):
    """A copy of m holding the planned columns _eq4_rows computes, and the
    report of those columns: the float64 values that enriched_in_place and
    enrich_checkpoint both round to float32."""
    cols, groups = enrich._check_plan(plan, m.vocab)
    columns = [*enrich._eq4_rows(m.S, cols, groups), *enrich._eq4_rows(m.U, cols, groups)]
    out = m.copy()
    out.S[:, cols], out.U[:, cols] = columns[1], columns[3]
    return out, enrich._report(plan, columns)


@settings(max_examples=60, deadline=None)
@given(m=models, data=st.data())
def test_enrich_matches_reference(m, data):
    plan = data.draw(plans(m))
    S, U, per_word = enrich_reference.enrich(m, plan)
    before = m.copy()
    out, report = eq4_float64(m, plan)
    assert np.array_equal(out.S, S) and np.array_equal(out.U, U)
    assert np.array_equal(out.W, m.W) and np.array_equal(out.b, m.b)
    assert report.per_word == per_word
    cols = {m.vocab.id(r) for r in plan.candidates}
    assert report.modified == len(cols)
    assert enrich_reference.same_except_columns(m, out, cols)
    assert enrich_reference.same_except_columns(m, before, ())


@settings(max_examples=60, deadline=None)
@given(m=models, data=st.data())
def test_enriched_in_place_matches_reference(m, data):
    # sweep scores the oracle's columns rounded through float32, as enrich
    # writes them, beside every other bit of m, which is m again on exit
    plan = data.draw(plans(m))
    S, U, _ = enrich_reference.enrich(m, plan)
    before = m.copy()
    cols = [m.vocab.id(r) for r in plan.candidates]
    with enrich.enriched_in_place(m, plan) as out:
        assert out is m
        for X, want in ((out.S, S), (out.U, U)):
            assert X[:, cols].tobytes() == want[:, cols].astype(np.float32).astype(
                np.float64).tobytes()
        assert enrich_reference.same_except_columns(before, out, cols)
    assert enrich_reference.same_except_columns(before, m, ())


def paper_width_case():
    # the paper's d_s and d_h; ten planned words with 1 to 6 candidates,
    # and the planned w1 is the candidate of w0
    m = random_model(50, 300, 1000, 7)
    rng = np.random.default_rng(7)
    words = m.vocab.id_to_word[3:]
    cands = {}
    for i, r in enumerate(words[:10]):
        sample = rng.choice([w for w in words if w != r], size=i % 6 + 1, replace=False)
        cands[r] = [(str(c), float(rng.uniform(0.1, 3.0))) for c in sample]
    cands["w0"] = [("w1", 1.5)]
    return m, enrich.EnrichmentPlan(cands)


def bits(per_word):
    return {w: {k: v.hex() if isinstance(v, float) else v for k, v in e.items()}
            for w, e in per_word.items()}


def test_enrich_matches_reference_at_paper_width():
    m, plan = paper_width_case()
    S, U, per_word = enrich_reference.enrich(m, plan)
    out, report = eq4_float64(m, plan)
    assert out.S.tobytes() == S.tobytes() and out.U.tobytes() == U.tobytes()
    assert bits(report.per_word) == bits(per_word)


def assert_streamed_matches_in_memory(m, plan, d):
    """enrich_checkpoint writes the bytes save_model gives for the loaded
    checkpoint holding the oracle's columns, and reports the oracle's norms."""
    src, want, got = d / "src.rlm", d / "want.rlm", d / "got.rlm"
    neural.save_model(m, src)
    loaded = neural.load_model(src)
    loaded.S, loaded.U, per_word = enrich_reference.enrich(loaded, plan)
    neural.save_model(loaded, want)
    streamed = enrich_file(src, got, plan)
    assert got.read_bytes() == want.read_bytes()
    assert streamed.modified == len(per_word)
    assert bits(streamed.per_word) == bits(per_word)


@settings(max_examples=60, deadline=None)
@given(m=models, data=st.data())
def test_enrich_checkpoint_matches_in_memory(tmp_path_factory, m, data):
    # plans may be empty, weights non-integral and candidates planned;
    # small blocks put every matrix across several
    plan = data.draw(plans(m))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neural, "BATCH_ROWS", data.draw(st.integers(1, 64)))
        assert_streamed_matches_in_memory(m, plan, tmp_path_factory.mktemp("ckpt"))


def test_enrich_checkpoint_matches_in_memory_at_paper_width(tmp_path):
    assert_streamed_matches_in_memory(*paper_width_case(), tmp_path)


@settings(max_examples=60, deadline=None)
@given(m=models, data=st.data())
def test_same_except_columns_finds_one_flipped_bit(m, data):
    skip = data.draw(st.sets(st.integers(0, m.vocab_size - 1)))
    other = m.copy()
    assert enrich_reference.same_except_columns(m, other, skip)
    assert enrich_reference.same_except_columns(m, other, ())  # the whole model
    # one flipped bit anywhere; on a zeroed element bit 63 turns 0.0 into -0.0
    name = data.draw(st.sampled_from("SWbU"))
    flat = getattr(other, name).reshape(-1)
    i = data.draw(st.integers(0, flat.size - 1))
    if data.draw(st.booleans()):
        getattr(m, name).reshape(-1)[i] = flat[i] = 0.0
    flat.view(np.uint64)[i] ^= np.uint64(1) << np.uint64(data.draw(st.integers(0, 63)))
    same = enrich_reference.same_except_columns(m, other, skip)
    assert same == (name in "SU" and i % m.vocab_size in skip)
    assert enrich_reference.same_except_columns(other, m, skip) == same


NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]


@pytest.mark.parametrize("name", "SWbU")
@pytest.mark.parametrize("x,y,same", [(0.0, -0.0, False), (np.nan, NAN_PAYLOAD, False),
                                      (np.nan, np.nan, True)],
                         ids=["signed-zero", "nan-payload", "same-nan"])
def test_same_except_columns_compares_bits(name, x, y, same):
    m = model_with(["r", "c"])
    getattr(m, name).reshape(-1)[-1] = x
    other = m.copy()
    getattr(other, name).reshape(-1)[-1] = y
    assert enrich_reference.same_except_columns(m, other, ()) == same
