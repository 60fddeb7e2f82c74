import itertools
import math
import random

import numpy as np
import pytest

from rarelm import neural, ngram, rescore
from rarelm.rescore import Hypothesis, NBestList, RescoreConfig
from rarelm.textcorpus import Vocabulary, build_vocab, encode, pack


def setup_models():
    rng = random.Random(0)
    corpus = [[rng.choice(["a", "b", "c", "d"]) for _ in range(rng.randint(2, 6))]
              for _ in range(30)]
    vocab = build_vocab(corpus)
    enc = [encode(s, vocab) for s in corpus]
    nlm = neural.init_model(vocab, 4, 6, seed=3)
    kn = ngram.train_kn(enc, 2, vocab)
    return nlm, kn, vocab


def test_mu_zero_equals_neural():
    nlm, kn, vocab = setup_models()
    words = ["a", "b", "c"]
    got = rescore.lm_scores(nlm, kn, [words], 0.0)[0]
    want = sum(neural.position_logprobs(nlm, *pack([encode(words, vocab)])).tolist())
    assert abs(got - want) < 1e-12


def test_mu_one_equals_kn():
    nlm, kn, vocab = setup_models()
    words = ["a", "b"]
    got = rescore.lm_scores(nlm, kn, [words], 1.0)[0]
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
        lp, h, c = neural.forward_step(nlm, [ids[t]], h, c)
        p_n = math.exp(lp[0, ids[t + 1]])
        p_k = kn.prob(ids[t + 1], tuple(ids[max(0, t - kn.order + 2):t + 1]))
        expect += math.log10(0.7 * p_n + mu * p_k)
    got = rescore.lm_scores(nlm, kn, [words], mu)[0]
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
    kn = ngram.train_kn([encode(s, kvocab) for s in corpus], 3, kvocab)
    lists = [[rng.choice(["a", "b", "c", "d", "oov"]) for _ in range(rng.randint(0, 7))]
             for _ in range(60)]
    got = rescore.lm_scores(nlm, kn, lists, mu)
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
    rescore.rescore_lists(lists, nlm, kn, RescoreConfig(interp_weight=0.3))
    ngram.kn_perplexity(kn, [encode(["a", "b", "oov"], vocab)])


def test_mu_without_kn_rejected():
    nlm, _, _ = setup_models()
    with pytest.raises(ValueError):
        rescore.lm_scores(nlm, None, [["a"]], 0.3)


def test_scoring_stateless_across_hypotheses():
    nlm, kn, _ = setup_models()
    first = rescore.lm_scores(nlm, kn, [["a", "b", "c"]], 0.3)[0]
    rescore.lm_scores(nlm, kn, [["d", "d", "d"]], 0.3)
    again = rescore.lm_scores(nlm, kn, [["a", "b", "c"]], 0.3)[0]
    assert first == again


def test_rescore_lambda_zero_returns_acoustic_best():
    nlm, _, _ = setup_models()
    nb = NBestList("u", [Hypothesis(1, -5.0, ["a"]),
                         Hypothesis(2, -3.0, ["b"]),
                         Hypothesis(3, -4.0, ["c"])])
    out = rescore.rescore_lists([nb], nlm, None, RescoreConfig(lm_weight=0.0))[0]
    assert out.hypotheses[0].rank == 2


def test_rescore_lambda_zero_tie_breaks_by_rank():
    nlm, _, _ = setup_models()
    nb = NBestList("u", [Hypothesis(1, -3.0, ["a"]),
                         Hypothesis(2, -3.0, ["b"])])
    out = rescore.rescore_lists([nb], nlm, None, RescoreConfig(lm_weight=0.0))[0]
    assert out.hypotheses[0].rank == 1


def test_rescore_huge_lambda_lm_dominates():
    nlm, _, _ = setup_models()
    nb = NBestList("u", [Hypothesis(1, 100.0, ["a", "a", "a", "a", "a"]),
                         Hypothesis(2, -100.0, ["a"])])
    cfg = RescoreConfig(lm_weight=1e9)
    out = rescore.rescore_lists([nb], nlm, None, cfg)[0]
    lm1 = rescore.lm_scores(nlm, None, [["a", "a", "a", "a", "a"]], 0.0)[0]
    lm2 = rescore.lm_scores(nlm, None, [["a"]], 0.0)[0]
    best = 1 if lm1 > lm2 else 2
    assert out.hypotheses[0].rank == best


def test_rescore_matches_bruteforce_enumeration():
    nlm, kn, _ = setup_models()
    hyps = [Hypothesis(1, -2.0, ["a", "b"]),
            Hypothesis(2, -1.5, ["c"]),
            Hypothesis(3, -2.5, ["a", "d", "b"])]
    cfg = RescoreConfig(lm_weight=0.8, interp_weight=0.3, word_penalty=-0.1)
    out = rescore.rescore_lists([NBestList("u", hyps)], nlm, kn, cfg)[0]
    totals = {}
    for h in hyps:
        lm = rescore.lm_scores(nlm, kn, [h.words], 0.3)[0]
        totals[h.rank] = h.am_score + 0.8 * lm + -0.1 * len(h.words)
    want = sorted(hyps, key=lambda h: (-totals[h.rank], h.rank))
    assert [h.rank for h in out.hypotheses] == [h.rank for h in want]


def test_rescore_permutation_invariance():
    nlm, _, _ = setup_models()
    hyps = [Hypothesis(1, -2.0, ["a", "b"]),
            Hypothesis(2, -1.5, ["c"]),
            Hypothesis(3, -2.5, ["d"])]
    cfg = RescoreConfig(lm_weight=1.0)
    base = rescore.rescore_lists([NBestList("u", hyps)], nlm, None, cfg)[0]
    for perm in itertools.permutations(hyps):
        out = rescore.rescore_lists([NBestList("u", list(perm))], nlm, None, cfg)[0]
        assert [h.rank for h in out.hypotheses] == [h.rank for h in base.hypotheses]


def test_rescore_monotone_in_lm_weight():
    nlm, _, _ = setup_models()
    hyps = [Hypothesis(1, -1.0, ["a", "b", "c"]),
            Hypothesis(2, -1.2, ["a"])]
    lms = {h.rank: rescore.lm_scores(nlm, None, [h.words], 0.0)[0]
           for h in hyps}
    hi_lm = max(lms, key=lms.get)
    prev_pos = None
    for lam in (0.0, 0.5, 1.0, 2.0, 5.0):
        out = rescore.rescore_lists([NBestList("u", hyps)], nlm, None,
                                    RescoreConfig(lm_weight=lam))[0]
        pos = [h.rank for h in out.hypotheses].index(hi_lm)
        if prev_pos is not None:
            assert pos <= prev_pos
        prev_pos = pos


def test_rescore_empty_list():
    nlm, _, _ = setup_models()
    with pytest.raises(ValueError):
        rescore.rescore_lists([NBestList("u", [])], nlm, None, RescoreConfig())


def test_nbest_file_roundtrip(tmp_path):
    lists = [NBestList("u1", [Hypothesis(1, -1.5, ["a", "b"]),
                              Hypothesis(2, -2.25, ["a"])]),
             NBestList("u2", [Hypothesis(1, -0.5, ["c"])])]
    path = tmp_path / "nbest.tsv"
    rescore.write_nbest(lists, path)
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
    lists = [NBestList("u1", [Hypothesis(1, -1.0, ["a", "b"])])]
    path = tmp_path / "1best.tsv"
    rescore.write_onebest(lists, path)
    assert rescore.read_onebest(path) == {"u1": ["a", "b"]}


def test_nbest_non_contiguous_utterance(tmp_path):
    path = tmp_path / "n.tsv"
    path.write_text("u1\t1\t-1\ta\nu2\t1\t-1\tb\nu1\t2\t-2\tc\n")
    with pytest.raises(rescore.NBestFormatError, match=r":3: utterance u1 is not contiguous"):
        rescore.read_nbest(path)


def test_rescore_non_finite_total_rejected():
    nlm, _, _ = setup_models()
    nlm.U[:] = float("nan")
    with pytest.raises(ValueError, match="non-finite total score for u rank 1"):
        rescore.rescore_lists([NBestList("u", [Hypothesis(1, -1.0, ["a"])])], nlm, None,
                              RescoreConfig())
