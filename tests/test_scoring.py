"""The batched scoring core against the per-token oracle in nn_reference."""

import numpy as np
from hypothesis import given, settings, strategies as st

import nn_reference
from rarelm import neural, ngram, rescore
from rarelm.rescore import Hypothesis, NBestList, RescoreConfig
from rarelm.textcorpus import BOS_ID, EOS_ID, Vocabulary, encode

TOL = 1e-12
WORDS = ["a", "b", "c", "d", "e"]


def random_model(n_words, d_s, d_h, seed, scale):
    """A model with normal(0, scale) weights over the first n_words of WORDS."""
    m = neural.init_model(Vocabulary(WORDS[:n_words]), d_s, d_h, seed)
    rng = np.random.default_rng(seed)
    for arr in (m.S, m.W, m.b, m.U):
        arr[...] = rng.normal(0.0, scale, arr.shape)
    return m


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
    got = neural.position_logprobs(m, seqs)
    assert [len(lp) for lp in got] == [len(s) - 1 for s in seqs]
    for ids, lp in zip(seqs, got):
        assert abs(sum(lp.tolist()) - nn_reference.sentence_logprob(m, ids)) < TOL


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


def test_steps_stay_within_row_cap(monkeypatch):
    # the core steps through the module's forward_step, never wider than the cap
    widths = []
    step = neural.forward_step

    def spy(m, words, state):
        widths.append(len(words))
        return step(m, words, state)

    monkeypatch.setattr(neural, "forward_step", spy)
    m = random_model(3, 2, 3, 0, 0.5)
    lists = [NBestList("u%d" % u, [Hypothesis(r + 1, -r, ["a", "b"][:r % 3])
                                   for r in range(5)]) for u in range(40)]
    rescore.rescore_lists(lists, m, None, RescoreConfig())
    neural.nn_perplexity(m, [[BOS_ID, 3, EOS_ID]] * (3 * neural.BATCH_ROWS))
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
