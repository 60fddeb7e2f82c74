import gc
import itertools
import math
import os
import random
import re
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarelm import neural, ngram, rescore, textcorpus
from rarelm.rescore import Hypothesis, NBest, NBestList, RescoreConfig
from corpus_reference import pack
from rarelm.textcorpus import Vocabulary, build_vocab, encode, encode_many

import nbest_reference
from nbest_reference import lm_scores_of, ranked, rescored


def setup_models():
    rng = random.Random(0)
    corpus = [[rng.choice(["a", "b", "c", "d"]) for _ in range(rng.randint(2, 6))]
              for _ in range(30)]
    vocab = build_vocab(w for s in corpus for w in s)
    enc = [encode(s, vocab) for s in corpus]
    nlm = neural.init_model(vocab, 4, 6, seed=3)
    kn = ngram.train_kn(*pack(enc), 2, vocab)
    return nlm, kn, vocab


def test_mu_zero_equals_neural():
    nlm, kn, vocab = setup_models()
    words = ["a", "b", "c"]
    got = lm_scores_of(nlm, kn, [words], 0.0)[0]
    want = sum(neural.position_logprobs(nlm, *pack([encode(words, vocab)])).tolist())
    assert abs(got - want) < 1e-12


def test_mu_one_equals_kn():
    nlm, kn, vocab = setup_models()
    words = ["a", "b"]
    got = lm_scores_of(nlm, kn, [words], 1.0)[0]
    want = sum(map(math.log10, kn.prob_many(*pack([encode(words, vocab)]))))
    assert abs(got - want) < 1e-12


def test_mixture_direct_arithmetic():
    # mu = 0.3 blend verified against directly multiplied per-word mixes
    nlm, kn, vocab = setup_models()
    words = ["a", "b"]
    ids = encode(words, vocab)
    mu = 0.3
    h = c = np.zeros((1, nlm.d_h))
    expect = 0.0
    for t in range(len(ids) - 1):
        h, c = neural.gate_step(nlm, [ids[t]], h, c)
        p_n = math.exp(neural.target_logprobs(nlm, h, [0], [ids[t + 1]])[0])
        p_k = kn.prob(ids[t + 1], tuple(ids[max(0, t - kn.order + 2):t + 1]))
        expect += math.log10(0.7 * p_n + mu * p_k)
    got = lm_scores_of(nlm, kn, [words], mu)[0]
    assert abs(got - expect) < 1e-12


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("kn_words", ["same", "reordered", "smaller"])
def test_lm_scores_bits_of_scalar_formula(mu, kn_words):
    # the whole-group join, elementwise mix and column sums give each
    # hypothesis the bits of the per-position formula summed left to right
    nlm, _, vocab = setup_models()
    rng = random.Random(4)
    corpus = [[rng.choice(["a", "b", "c", "d"]) for _ in range(rng.randint(2, 6))]
              for _ in range(30)]
    words = {"same": ["a", "b", "c", "d"], "reordered": ["d", "b", "a", "c"],
             "smaller": ["a", "c"]}[kn_words]
    kvocab = Vocabulary(words)
    kn = ngram.train_kn(*pack([encode(s, kvocab) for s in corpus]), 3, kvocab)
    lists = [[rng.choice(["a", "b", "c", "d", "oov"]) for _ in range(rng.randint(0, 7))]
             for _ in range(60)]
    got = lm_scores_of(nlm, kn, lists, mu)
    seqs = [encode(ws, vocab) for ws in lists]
    flat, lens = pack(seqs)
    lps = np.split(neural.position_logprobs(nlm, flat, lens), np.cumsum(lens - 1)[:-1])
    want = []
    for ids, lp in zip(seqs, lps):
        kids = [kn.vocab.id(vocab.word(i)) for i in ids]
        acc = 0.0
        for t, p in enumerate(lp.tolist(), 1):
            if mu == 0.0:  # no KN term at all
                acc += p
                continue
            q = kn.prob(kids[t], tuple(kids[max(0, t - kn.order + 1):t]))
            acc += math.log10((1.0 - mu) * 10.0 ** p + mu * q)
        want.append(acc)
    assert got == want


def test_rescoring_makes_no_scalar_kn_query(monkeypatch):
    nlm, kn, vocab = setup_models()
    lists = [NBestList("u%d" % i, [Hypothesis(1, -1.0, ["a", "b", "oov"]),
                                   Hypothesis(2, -1.5, ["a", "c"])]) for i in range(3)]

    def spy(*args):
        raise AssertionError("NGramModel.prob called")

    monkeypatch.setattr(ngram.NGramModel, "prob", spy)
    rescored(lists, nlm, kn, RescoreConfig(interp_weight=0.3))
    neural.lm_scores(None, kn, *pack([encode(["a", "b", "oov"], vocab)]))


def test_mu_without_kn_rejected():
    nlm, _, _ = setup_models()
    with pytest.raises(ValueError):
        lm_scores_of(nlm, None, [["a"]], 0.3)


def test_scoring_stateless_across_hypotheses():
    nlm, kn, _ = setup_models()
    first = lm_scores_of(nlm, kn, [["a", "b", "c"]], 0.3)[0]
    lm_scores_of(nlm, kn, [["d", "d", "d"]], 0.3)
    again = lm_scores_of(nlm, kn, [["a", "b", "c"]], 0.3)[0]
    assert first == again


def test_rescore_lambda_zero_returns_acoustic_best():
    nlm, _, _ = setup_models()
    nb = NBestList("u", [Hypothesis(1, -5.0, ["a"]),
                         Hypothesis(2, -3.0, ["b"]),
                         Hypothesis(3, -4.0, ["c"])])
    out = rescored([nb], nlm, None, RescoreConfig(lm_weight=0.0))[0]
    assert out.hypotheses[0].rank == 2


def test_rescore_lambda_zero_tie_breaks_by_rank():
    nlm, _, _ = setup_models()
    nb = NBestList("u", [Hypothesis(1, -3.0, ["a"]),
                         Hypothesis(2, -3.0, ["b"])])
    out = rescored([nb], nlm, None, RescoreConfig(lm_weight=0.0))[0]
    assert out.hypotheses[0].rank == 1


def test_rescore_huge_lambda_lm_dominates():
    nlm, _, _ = setup_models()
    nb = NBestList("u", [Hypothesis(1, 100.0, ["a", "a", "a", "a", "a"]),
                         Hypothesis(2, -100.0, ["a"])])
    cfg = RescoreConfig(lm_weight=1e9)
    out = rescored([nb], nlm, None, cfg)[0]
    lm1 = lm_scores_of(nlm, None, [["a", "a", "a", "a", "a"]], 0.0)[0]
    lm2 = lm_scores_of(nlm, None, [["a"]], 0.0)[0]
    best = 1 if lm1 > lm2 else 2
    assert out.hypotheses[0].rank == best


def test_rescore_matches_bruteforce_enumeration():
    nlm, kn, _ = setup_models()
    hyps = [Hypothesis(1, -2.0, ["a", "b"]),
            Hypothesis(2, -1.5, ["c"]),
            Hypothesis(3, -2.5, ["a", "d", "b"])]
    cfg = RescoreConfig(lm_weight=0.8, interp_weight=0.3, word_penalty=-0.1)
    out = rescored([NBestList("u", hyps)], nlm, kn, cfg)[0]
    totals = {}
    for h in hyps:
        lm = lm_scores_of(nlm, kn, [h.words], 0.3)[0]
        totals[h.rank] = h.am_score + 0.8 * lm + -0.1 * len(h.words)
    want = sorted(hyps, key=lambda h: (-totals[h.rank], h.rank))
    assert [h.rank for h in out.hypotheses] == [h.rank for h in want]


def test_rescore_permutation_invariance():
    nlm, _, _ = setup_models()
    hyps = [Hypothesis(1, -2.0, ["a", "b"]),
            Hypothesis(2, -1.5, ["c"]),
            Hypothesis(3, -2.5, ["d"])]
    cfg = RescoreConfig(lm_weight=1.0)
    base = rescored([NBestList("u", hyps)], nlm, None, cfg)[0]
    for perm in itertools.permutations(hyps):
        out = rescored([NBestList("u", list(perm))], nlm, None, cfg)[0]
        assert [h.rank for h in out.hypotheses] == [h.rank for h in base.hypotheses]


def test_rescore_monotone_in_lm_weight():
    nlm, _, _ = setup_models()
    hyps = [Hypothesis(1, -1.0, ["a", "b", "c"]),
            Hypothesis(2, -1.2, ["a"])]
    lms = {h.rank: lm_scores_of(nlm, None, [h.words], 0.0)[0]
           for h in hyps}
    hi_lm = max(lms, key=lms.get)
    prev_pos = None
    for lam in (0.0, 0.5, 1.0, 2.0, 5.0):
        out = rescored([NBestList("u", hyps)], nlm, None,
                                    RescoreConfig(lm_weight=lam))[0]
        pos = [h.rank for h in out.hypotheses].index(hi_lm)
        if prev_pos is not None:
            assert pos <= prev_pos
        prev_pos = pos


@pytest.mark.parametrize("settings,message", [
    (dict(lm_weight=math.nan), "lm_weight must be finite and >= 0"),
    (dict(lm_weight=math.inf), "lm_weight must be finite and >= 0"),
    (dict(lm_weight=-1.0), "lm_weight must be finite and >= 0"),
    (dict(word_penalty=math.nan), "word_penalty must be finite"),
    (dict(word_penalty=-math.inf), "word_penalty must be finite"),
    (dict(interp_weight=math.nan), r"interp_weight must be in \[0, 1\]"),
], ids=["lm-nan", "lm-inf", "lm-negative", "penalty-nan", "penalty-inf", "mu-nan"])
def test_rescore_config_rejects(settings, message):
    with pytest.raises(ValueError, match=message):
        RescoreConfig(**settings)


def test_rescore_empty_list():
    nlm, _, _ = setup_models()
    with pytest.raises(ValueError):
        rescored([NBestList("u", [])], nlm, None, RescoreConfig())


def test_nothing_to_rescore():
    nlm, kn, _ = setup_models()
    assert lm_scores_of(nlm, None, []) == []
    assert lm_scores_of(nlm, kn, [], 0.3) == []
    order, totals = rescore.rescore_lists(NBest.from_lists([]), nlm, None, RescoreConfig())
    assert order.size == totals.size == 0


def test_ranked_hypotheses_share_input_word_lists():
    # ranking copies no words: it gives an order of the input's hypotheses
    # and their totals, and the input's flat word list stays as it was
    nlm, _, _ = setup_models()
    nbest = NBest.from_lists([
        NBestList("u1", [Hypothesis(1, -3.0, ["a", "b"]), Hypothesis(2, -0.5, ["c"])]),
        NBestList("u2", [Hypothesis(1, -1.0, [])])])
    words = nbest.words
    held = list(words)
    order, totals = rescore.rescore_lists(nbest, nlm, None, RescoreConfig())
    assert nbest.words is words and words == held
    assert order.dtype == np.int64 and totals.dtype == np.float64
    assert order.tolist() == [1, 0, 2]
    out = ranked(nbest, order, totals)
    assert [[h.words for h in nb.hypotheses] for nb in out] == [[["c"], ["a", "b"]], [[]]]
    assert out[0].hypotheses[1].words[0] is words[0]


def test_rescore_empty_list_fails_before_scoring(monkeypatch):
    # with one hypothesis per slice, scoring as the lists are read would
    # score u1 and u2 before it reached the empty u3
    nlm, _, _ = setup_models()

    def spy(*args):
        raise AssertionError("position_logprobs called")

    monkeypatch.setattr(neural, "GROUP_ROWS", 1)
    monkeypatch.setattr(neural, "position_logprobs", spy)
    lists = [NBestList("u1", [Hypothesis(1, -1.0, ["a", "b"])]),
             NBestList("u2", [Hypothesis(1, -2.0, ["c"])]),
             NBestList("u3", [])]
    with pytest.raises(ValueError, match="empty n-best list for u3"):
        rescored(lists, nlm, None, RescoreConfig())


def test_nbest_file_roundtrip(tmp_path):
    lists = [NBestList("u1", [Hypothesis(1, -1.5, ["a", "b"]),
                              Hypothesis(2, -2.25, ["a"])]),
             NBestList("u2", [Hypothesis(1, -0.5, ["c"])])]
    path = tmp_path / "nbest.tsv"
    rescore.write_nbest(NBest.from_lists(lists), path)
    first = path.read_bytes()
    again = rescore.read_nbest(path)
    rescore.write_nbest(again, path)
    assert path.read_bytes() == first


def test_nbest_missing_field():
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".tsv", delete=False) as f:
        f.write("u1\t1\t-1.0 a b\n")
        path = f.name
    try:
        with pytest.raises(rescore.NBestFormatError, match=":1:"):
            rescore.read_nbest(path)
    finally:
        os.unlink(path)


def test_nbest_nan_score_rejected(tmp_path):
    path = tmp_path / "n.tsv"
    path.write_text("u1\t1\tNaN\ta b\n")
    with pytest.raises(rescore.NBestFormatError, match="non-finite"):
        rescore.read_nbest(path)


def test_nbest_non_contiguous_ranks(tmp_path):
    path = tmp_path / "n.tsv"
    path.write_text("u1\t1\t-1\ta\nu1\t3\t-2\tb\n")
    with pytest.raises(rescore.NBestFormatError, match="rank"):
        rescore.read_nbest(path)


def test_onebest_write_read(tmp_path):
    nbest = NBest.from_lists([NBestList("u1", [Hypothesis(1, -1.0, ["c"]),
                                               Hypothesis(2, -2.0, ["a", "b"])]),
                              NBestList("u2", [Hypothesis(1, -1.0, [])])])
    path = tmp_path / "1best.tsv"
    rescore.write_onebest(nbest, np.array([1, 0, 2]), path)
    assert rescore.read_onebest(path) == {"u1": ["a", "b"], "u2": []}


def test_nbest_non_contiguous_utterance(tmp_path):
    path = tmp_path / "n.tsv"
    path.write_text("u1\t1\t-1\ta\nu2\t1\t-1\tb\nu1\t2\t-2\tc\n")
    with pytest.raises(rescore.NBestFormatError, match=r":3: utterance u1 is not contiguous"):
        rescore.read_nbest(path)


@pytest.mark.parametrize("data,want", [
    (b"u1\t1\t-1\ta b\n\nu2\t1\t-2\tc\n\n\n", [("u1", [["a", "b"]]), ("u2", [["c"]])]),
    (b"u1\t1\t-1\ta\n \t\n", ":2: expected 4 tab-separated fields, got 2"),
    (b"u1\t1\t-1\ta\n  \n", ":2: expected 4 tab-separated fields, got 1"),
    (b"u1\t1\t-1\ta b\r\nu1\t2\t-2\tc\r\n", [("u1", [["a", "b"], ["c"]])]),
    (b"u1\t1\t-1\t\n", [("u1", [[]])]),
    (b"u1\t1\t-1\ta\nu1\t2\t-2\tb c", [("u1", [["a"], ["b", "c"]])]),
], ids=["blank-lines", "whitespace-tab-line", "whitespace-line", "crlf", "empty-words",
        "no-final-newline"])
def test_nbest_reader_edge_cases(tmp_path, data, want):
    path = tmp_path / "n.tsv"
    path.write_bytes(data)
    if isinstance(want, str):
        with pytest.raises(rescore.NBestFormatError, match=re.escape(want)):
            rescore.read_nbest(path)
        return
    got = rescore.read_nbest(path)
    assert [(nb.utt_id, [h.words for h in nb.hypotheses]) for nb in got] == want


def test_nbest_reader_holds_one_str_per_distinct_word(tmp_path):
    path = tmp_path / "n.tsv"
    path.write_text("u1\t1\t-1\tabc def\nu1\t2\t-2\tdef abc\nu2\t1\t-1\tabc\n")
    nbest = rescore.read_nbest(path)
    (a, b), (c,) = [nb.hypotheses for nb in nbest]
    assert a.words == ["abc", "def"] and b.words == ["def", "abc"] and c.words == ["abc"]
    assert a.words[0] is b.words[1] is c.words[0]
    assert a.words[1] is b.words[0]
    # the hypotheses hold their words back to back in one flat list
    assert nbest.words == ["abc", "def", "def", "abc", "abc"]
    assert nbest.lens.tolist() == [2, 2, 1]
    assert nbest.words[0] is nbest.words[3] is nbest.words[4] is a.words[0]
    assert nbest.words[1] is nbest.words[2] is a.words[1]


def write_2000_hypotheses(path):
    """250 lists of 8 hypotheses of 8 words over 60 distinct words."""
    rng = random.Random(0)
    words = ["street%02d" % i for i in range(60)]
    with open(path, "w", encoding="utf-8") as f:
        for u in range(250):
            for r in range(1, 9):
                f.write("utt%04d\t%d\t%.6f\t%s\n"
                        % (u, r, -100 * rng.random(), " ".join(rng.choices(words, k=8))))


def test_nbest_reader_memory_per_hypothesis(tmp_path):
    """What read_nbest holds grows with the hypotheses, not with a str per
    token: the columns measure about 107 B per 8-word hypothesis."""
    path = tmp_path / "n.tsv"
    write_2000_hypotheses(path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        nbest = rescore.read_nbest(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert nbest.am.size == 2000
    assert held / 2000 <= 160


def test_nbest_reader_adds_no_object_per_hypothesis(tmp_path):
    # the cyclic GC walks every tracked object it holds; columns hold a
    # handful, where a record per hypothesis held thousands
    path = tmp_path / "n.tsv"
    write_2000_hypotheses(path)
    before = len(gc.get_objects())
    nbest = rescore.read_nbest(path)
    assert len(gc.get_objects()) - before < 50
    assert nbest.am.size == 2000


def test_rescore_non_finite_total_rejected():
    nlm, _, _ = setup_models()
    nlm.U[:] = float("nan")
    with pytest.raises(ValueError, match="non-finite total score for u rank 1"):
        rescored([NBestList("u", [Hypothesis(1, -1.0, ["a"])])], nlm, None, RescoreConfig())


TOKENS = ["a", "b", "c", "d", "oov"]


@st.composite
def nbest_files(draw):
    """The bytes of an n-best file: valid lists, then a few edits that may
    fault a line or add an edge case the reader must pass over."""
    lines = []
    for u in range(draw(st.integers(0, 4))):
        for r in range(1, draw(st.integers(1, 4)) + 1):
            am = draw(st.one_of(st.sampled_from([0.0, -0.0, -1.5]),
                                st.floats(-50, 50, allow_nan=False)))
            text = draw(st.sampled_from([" ", "  ", "\x0c"])).join(
                draw(st.lists(st.sampled_from(TOKENS), max_size=4)))
            lines.append("u%d\t%d\t%r\t%s" % (u, r, am, text))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["fields", "rank", "am", "utt", "drop", "blank",
                                     "copy", "text"]))
        if kind == "blank":
            lines.insert(i, draw(st.sampled_from(["", " ", "  ", " \t", "\t"])))
            continue
        if i == len(lines):
            continue
        parts = lines[i].split("\t")
        if kind == "drop":
            del lines[i]
            continue
        if kind == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
            continue
        if kind == "fields":
            parts = parts[:-1] if draw(st.booleans()) else parts + ["x"]
        elif kind == "rank" and len(parts) > 1:
            parts[1] = draw(st.sampled_from(["0", "2", "99", "x", "", "1.5", " 1", "+1"]))
        elif kind == "am" and len(parts) > 2:
            parts[2] = draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "x", "",
                                             "0x1p3", " -2.5 ", "1_0"]))
        elif kind == "utt":
            parts[0] = "u%d" % draw(st.integers(0, 4))
        elif kind == "text" and len(parts) > 3:
            parts[3] = draw(st.sampled_from(["", " ", " a ", "b\x0bc"]))
        lines[i] = "\t".join(parts)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))
    if lines and draw(st.booleans()):
        text = text[:-len(ends[-1])]  # no final newline
    return text.encode("utf-8")


@pytest.fixture(scope="module")
def models():
    nlm, kn, _ = setup_models()
    return nlm, kn


def lists_by_hex(lists):
    """The lists of records with each float as its hex."""
    return [(nb.utt_id, [tuple(x.hex() if isinstance(x, float) else x for x in h)
                         for h in nb.hypotheses]) for nb in lists]


@settings(max_examples=300, deadline=None)
@given(data=nbest_files(), block=st.sampled_from([1, 2, 3, 5, textcorpus.BLOCK_LINES]))
def test_nbest_reader_and_ranking_match_oracle(models, data, block):
    # any block size gives the per-line reader's lists, or its exact
    # message for the same line; the lists then rank as the per-list sort
    # ranks them, with the same total bits
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "n.tsv")
        with open(path, "wb") as f:
            f.write(data)
        try:
            want = nbest_reference.ref_read_nbest(path)
        except rescore.NBestFormatError as e:
            with mock.patch.object(textcorpus, "BLOCK_LINES", block), \
                    pytest.raises(rescore.NBestFormatError) as got:
                rescore.read_nbest(path)
            assert str(got.value) == str(e)
            return
        with mock.patch.object(textcorpus, "BLOCK_LINES", block):
            nbest = rescore.read_nbest(path)
    assert lists_by_hex(nbest) == lists_by_hex(want)
    nlm, kn = models
    for mu in (0.0, 0.3):
        cfg = RescoreConfig(lm_weight=0.8, interp_weight=mu, word_penalty=-0.1)
        lms = neural.lm_scores(nlm, kn, *encode_many(nbest.words, nbest.lens, nlm.vocab),
                               mu).tolist()
        got = ranked(nbest, *rescore.rescore_lists(nbest, nlm, kn, cfg))
        assert lists_by_hex(got) == lists_by_hex(nbest_reference.ref_rank(want, lms, cfg))
