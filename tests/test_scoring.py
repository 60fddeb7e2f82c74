"""The batched scoring core against the per-token oracle in nn_reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nn_reference
from rarelm import neural, ngram, rescore
from rarelm.rescore import Hypothesis, NBestList, RescoreConfig
from rarelm.textcorpus import BOS_ID, EOS_ID, Vocabulary, encode, pack

TOL = 1e-12
WORDS = ["a", "b", "c", "d", "e"]


def random_model(n_words, d_s, d_h, seed, scale):
    """A model with normal(0, scale) weights over the first n_words of WORDS."""
    m = neural.init_model(Vocabulary(WORDS[:n_words]), d_s, d_h, seed)
    rng = np.random.default_rng(seed)
    for arr in (m.S, m.W, m.b, m.U):
        arr[...] = rng.normal(0.0, scale, arr.shape)
    return m


def per_sequence(flat, seqs):
    """A flat per-position array sliced into one array of len - 1
    positions per sequence."""
    return np.split(flat, np.cumsum([len(s) - 1 for s in seqs])[:-1])


models = st.builds(random_model, st.integers(1, 5), st.integers(1, 4),
                   st.integers(1, 5), st.integers(0, 2 ** 16),
                   st.sampled_from([0.05, 0.5, 2.0]))


@settings(max_examples=40, deadline=None)
@given(m=models, data=st.data())
def test_core_matches_oracle(m, data):
    # ragged lengths from empty and one-token sentences up, and batches
    # past the row cap
    n = data.draw(st.integers(1, 2 * neural.BATCH_ROWS + 5))
    word = st.integers(2, m.vocab_size - 1)  # unk and real words
    seqs = [[BOS_ID] + data.draw(st.lists(word, max_size=9)) + [EOS_ID]
            for _ in range(n)]
    flat = neural.position_logprobs(m, *pack(seqs))
    assert flat.size == sum(len(s) - 1 for s in seqs)
    got = per_sequence(flat, seqs)
    assert [len(lp) for lp in got] == [len(s) - 1 for s in seqs]
    for ids, lp in zip(seqs, got):
        assert abs(sum(lp.tolist()) - nn_reference.sentence_logprob(m, ids)) < TOL


@settings(max_examples=25, deadline=None)
@given(m=models, data=st.data())
def test_core_matches_oracle_under_heavy_sharing(m, data):
    # at most three words, with duplicates and sequences that are prefixes
    # of one another, so that most positions share their prefix
    word = st.integers(2, min(m.vocab_size - 1, 4))
    stems = data.draw(st.lists(st.lists(word, max_size=8), min_size=1, max_size=4))
    seqs = []
    for _ in range(data.draw(st.integers(2 * neural.BATCH_ROWS + 1, 3 * neural.BATCH_ROWS))):
        stem = data.draw(st.sampled_from(stems))
        cut = data.draw(st.integers(0, len(stem)))
        seqs.append([BOS_ID] + stem[:cut] + data.draw(st.sampled_from([[EOS_ID], []])))
    got = per_sequence(neural.position_logprobs(m, *pack(seqs)), seqs)
    for ids, lp in zip(seqs, got):
        want = [math.log10(p) for p in nn_reference.position_probs(m, ids)]
        assert len(lp) == len(want)
        assert all(abs(a - b) < TOL for a, b in zip(lp.tolist(), want))


def test_each_distinct_prefix_steps_once(monkeypatch):
    # the spy names each stepped prefix by its parent prefix's state and
    # its input word; distinct prefixes of this model have distinct states
    m = random_model(3, 2, 3, 0, 0.5)
    prefix_of = {np.zeros(m.d_h).tobytes(): ()}
    calls = []
    step = neural.forward_step

    def spy(m, words, h, c):
        logp, nh, nc = step(m, words, h, c)
        stepped = [prefix_of[r.tobytes()] + (w,) for r, w in zip(h, words.tolist())]
        prefix_of.update(zip((r.tobytes() for r in nh), stepped))
        calls.append(stepped)
        return logp, nh, nc

    monkeypatch.setattr(neural, "forward_step", spy)
    monkeypatch.setattr(neural, "GROUP_ROWS", 250)
    rng = np.random.default_rng(0)
    seqs = [[BOS_ID] + rng.integers(2, 6, size=rng.integers(0, 6)).tolist() + [EOS_ID]
            for _ in range(600)]
    neural.position_logprobs(m, *pack(seqs))
    # chunks of GROUP_ROWS sequences in input order, each walked from
    # position 0, whose only prefix is <s>
    chunks = []
    for stepped in calls:
        t = len(stepped[0]) - 1
        assert all(len(p) == t + 1 for p in stepped)
        if t == 0:
            chunks.append({})
        chunks[-1].setdefault(t, []).extend(stepped)
    assert len(chunks) == 3
    for k, chunk in enumerate(chunks):
        group = seqs[250 * k:250 * (k + 1)]
        want = {t: sorted({tuple(s[:t + 1]) for s in group if len(s) - 1 > t})
                for t in range(max(map(len, group)) - 1)}
        assert {t: sorted(ps) for t, ps in chunk.items()} == want
    # the deeper positions have more than BATCH_ROWS distinct prefixes
    assert max(map(len, calls)) == neural.BATCH_ROWS


@pytest.mark.parametrize("bad", ["negative", "vocab_size"])
@pytest.mark.parametrize("where", ["input", "target"])
def test_out_of_range_id_raises(bad, where):
    m = random_model(2, 2, 3, 0, 0.5)
    bad = -1 if bad == "negative" else m.vocab_size
    short = [BOS_ID, bad, EOS_ID] if where == "input" else [BOS_ID, 3, bad]
    # beside longer sequences, so the short one would be padded in a batch
    with pytest.raises(IndexError):
        neural.position_logprobs(m, *pack([[BOS_ID, 3, 4, 3, EOS_ID]] * 3 + [short]))


def test_both_models_share_the_flat_layout():
    # one value per scored position, len - 1 per sequence and none for
    # sequences of 0 or 1 tokens, in input order, from either model
    m = random_model(3, 2, 3, 0, 0.5)
    kn = kn_for(m.vocab)
    seqs = [[], [BOS_ID], [BOS_ID, 3, 4, EOS_ID], [BOS_ID, EOS_ID], [], [BOS_ID, 5]]
    ids, lens = pack(seqs)
    lp = neural.position_logprobs(m, ids, lens)
    q = kn.prob_many(ids, lens)
    assert lp.size == q.size == 5
    framed = [s for s in seqs if len(s) > 1]
    assert lp.tolist() == neural.position_logprobs(m, *pack(framed)).tolist()
    assert q.tolist() == kn.prob_many(*pack(framed)).tolist()
    assert neural.position_logprobs(m, *pack([])).size == 0


def kn_for(vocab):
    rng = np.random.default_rng(0)
    words = vocab.id_to_word[3:]
    corpus = [[words[j] for j in rng.integers(len(words), size=rng.integers(1, 6))]
              for _ in range(30)]
    return ngram.train_kn([encode(s, vocab) for s in corpus], 3, vocab)


@settings(max_examples=25, deadline=None)
@given(m=models, mu=st.sampled_from([0.0, 0.3, 1.0]),
       hyps=st.lists(st.lists(st.sampled_from(WORDS + ["oov1", "oov2"]), max_size=7),
                     min_size=1, max_size=20))
def test_lm_scores_match_oracle_with_oov_and_kn(m, mu, hyps):
    kn = kn_for(m.vocab)
    got = rescore.lm_scores(m, kn, hyps, mu)
    for words, lm in zip(hyps, got):
        want = nn_reference.mixed_logprob(m, kn, encode(words, m.vocab), mu)
        assert abs(lm - want) < TOL


@settings(max_examples=25, deadline=None)
@given(m=models, mu=st.sampled_from([0.3, 1.0]),
       kn_words=st.lists(st.sampled_from(WORDS), min_size=1, max_size=4, unique=True),
       hyps=st.lists(st.lists(st.sampled_from(WORDS + ["oov1"]), max_size=7),
                     min_size=1, max_size=20))
def test_lm_scores_map_ids_to_another_kn_vocab(m, mu, kn_words, hyps):
    # KN has its own, smaller vocabulary in its own order; words it lacks
    # are its unk
    kn = kn_for(Vocabulary(kn_words))
    got = rescore.lm_scores(m, kn, hyps, mu)
    for words, lm in zip(hyps, got):
        ids = encode(words, m.vocab)
        kn_ids = [kn.vocab.id(m.vocab.word(i)) for i in ids]
        assert abs(lm - nn_reference.mixed_logprob(m, kn, ids, mu, kn_ids)) < TOL


@settings(max_examples=15, deadline=None)
@given(m=models, sizes=st.lists(st.integers(1, neural.BATCH_ROWS + 10),
                                min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 16))
def test_rescore_lists_across_groups(m, sizes, seed):
    # lists are grouped up to the row cap; one list may exceed it alone
    rng = np.random.default_rng(seed)
    words = m.vocab.id_to_word[3:] + ["oov"]
    lists = [NBestList("u%d" % u, [
        Hypothesis(r + 1, float(-r - rng.random()),
                   [words[j] for j in rng.integers(len(words), size=rng.integers(0, 6))])
        for r in range(size)]) for u, size in enumerate(sizes)]
    cfg = RescoreConfig(lm_weight=0.7, word_penalty=0.2)
    out = rescore.rescore_lists(lists, m, None, cfg)
    assert [nb.utt_id for nb in out] == [nb.utt_id for nb in lists]
    for nb, rr in zip(lists, out):
        assert sorted(h.rank for h in rr.hypotheses) == [h.rank for h in nb.hypotheses]
        keys = [(-h.total_score, h.rank) for h in rr.hypotheses]
        assert keys == sorted(keys)
        for h in rr.hypotheses:
            lm = nn_reference.sentence_logprob(m, encode(h.words, m.vocab))
            want = h.am_score + 0.7 * lm + 0.2 * len(h.words)
            assert abs(h.total_score - want) < TOL


def test_rescore_lists_in_small_groups(monkeypatch):
    # groups of at most 3 hypotheses; the list of 5 makes a group on its own
    calls = []
    score = rescore.position_logprobs

    def spy(nlm, ids, lens):
        calls.append(lens.size)
        return score(nlm, ids, lens)

    monkeypatch.setattr(neural, "GROUP_ROWS", 3)
    monkeypatch.setattr(rescore, "position_logprobs", spy)
    m = random_model(3, 2, 3, 1, 0.5)
    rng = np.random.default_rng(1)
    words = m.vocab.id_to_word[3:] + ["oov"]
    lists = [NBestList("u%d" % u, [
        Hypothesis(r + 1, float(-r - rng.random()),
                   [words[j] for j in rng.integers(len(words), size=rng.integers(0, 6))])
        for r in range(size)]) for u, size in enumerate([1, 2, 5, 3, 1, 1, 1, 4])]
    out = rescore.rescore_lists(lists, m, None, RescoreConfig(lm_weight=0.7))
    assert calls == [3, 5, 3, 3, 4]
    assert [nb.utt_id for nb in out] == [nb.utt_id for nb in lists]
    for nb, rr in zip(lists, out):
        assert sorted(h.rank for h in rr.hypotheses) == [h.rank for h in nb.hypotheses]
        keys = [(-h.total_score, h.rank) for h in rr.hypotheses]
        assert keys == sorted(keys)
        for h in rr.hypotheses:
            lm = nn_reference.sentence_logprob(m, encode(h.words, m.vocab))
            assert abs(h.total_score - (h.am_score + 0.7 * lm)) < TOL


def test_steps_stay_within_row_cap(monkeypatch):
    # the core steps through the module's forward_step, never wider than the cap
    widths = []
    step = neural.forward_step

    def spy(m, words, h, c):
        widths.append(len(words))
        return step(m, words, h, c)

    monkeypatch.setattr(neural, "forward_step", spy)
    m = random_model(3, 2, 3, 0, 0.5)
    lists = [NBestList("u%d" % u, [Hypothesis(r + 1, -r, ["a", "b"][:r % 3])
                                   for r in range(5)]) for u in range(40)]
    rescore.rescore_lists(lists, m, None, RescoreConfig())
    # 192 distinct sentences: four words each over unk, a, b and c
    neural.nn_perplexity(m, [[BOS_ID] + [2 + (k >> 2 * j) % 4 for j in range(4)]
                             + [EOS_ID] for k in range(3 * neural.BATCH_ROWS)])
    assert widths and max(widths) == neural.BATCH_ROWS


def oracle_onebest(nbest, m, kn, mu):
    chosen = {}
    for nb in nbest:
        totals = [(-(h.am_score + nn_reference.mixed_logprob(
                      m, kn, encode(h.words, m.vocab), mu)), h.rank, h.words)
                  for h in nb.hypotheses]
        chosen[nb.utt_id] = min(totals)[2]
    return chosen


def test_synthetic_bundle_onebest_matches_oracle(synthetic_pipeline):
    pipe = synthetic_pipeline
    m, vocab, nbest = pipe["model"], pipe["vocab"], pipe["data"].nbest
    kn = ngram.train_kn([encode(s, vocab) for s in pipe["data"].train], 4, vocab)
    for mu in (0.0, 0.3):
        out = rescore.rescore_lists(nbest, m, kn, RescoreConfig(interp_weight=mu))
        got = {nb.utt_id: nb.hypotheses[0].words for nb in out}
        assert got == oracle_onebest(nbest, m, kn, mu)


def test_kn_joined_by_word_not_id(synthetic_pipeline, tmp_path):
    # a KN model whose word ids run in reverse order rescores byte-identically
    pipe = synthetic_pipeline
    m, vocab, data = pipe["model"], pipe["vocab"], pipe["data"]
    paths = []
    for v in (vocab, Vocabulary(vocab.id_to_word[:2:-1], vocab.counts)):
        kn = ngram.train_kn([encode(s, v) for s in data.train], 4, v)
        out = rescore.rescore_lists(data.nbest, m, kn, RescoreConfig(interp_weight=0.3))
        paths.append(tmp_path / ("rescored%d.tsv" % len(paths)))
        rescore.write_rescored(out, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
