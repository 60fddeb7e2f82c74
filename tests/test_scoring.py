"""The batched scoring core against the per-token oracle in nn_reference."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import blas_threads
import nn_reference
from nbest_reference import lm_scores_of, rescored
from rarelm import metrics, neural, ngram, rescore
from rarelm.rescore import Hypothesis, NBestList, RescoreConfig
from corpus_reference import pack
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
    n = data.draw(st.integers(1, 2 * neural.STEP_ROWS_MAX + 5))
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
    for _ in range(data.draw(st.integers(2 * neural.STEP_ROWS_MAX + 1,
                                         3 * neural.STEP_ROWS_MAX))):
        stem = data.draw(st.sampled_from(stems))
        cut = data.draw(st.integers(0, len(stem)))
        seqs.append([BOS_ID] + stem[:cut] + data.draw(st.sampled_from([[EOS_ID], []])))
    got = per_sequence(neural.position_logprobs(m, *pack(seqs)), seqs)
    for ids, lp in zip(seqs, got):
        want = [math.log10(p) for p in nn_reference.position_probs(m, ids)]
        assert len(lp) == len(want)
        assert all(abs(a - b) < TOL for a, b in zip(lp.tolist(), want))


def spy_on_steps(monkeypatch, m):
    """Patch gate_step to record, per call, the prefixes it steps. The
    spy names each stepped prefix by its parent prefix's state and its
    input word; distinct prefixes of these models have distinct states."""
    prefix_of = {np.zeros(m.d_h).tobytes(): ()}
    calls = []
    step = neural.gate_step

    def spy(m, words, h, c):
        nh, nc = step(m, words, h, c)
        stepped = [prefix_of[r.tobytes()] + (w,) for r, w in zip(h, words.tolist())]
        prefix_of.update(zip((r.tobytes() for r in nh), stepped))
        calls.append(stepped)
        return nh, nc

    monkeypatch.setattr(neural, "gate_step", spy)
    return calls


def spy_on_passes(monkeypatch):
    """Patch target_logprobs to record the rows of each pass over U."""
    widths = []
    project = neural.target_logprobs

    def spy(m, h, rows, targets, buf=None):
        widths.append(h.shape[0])
        return project(m, h, rows, targets, buf)

    monkeypatch.setattr(neural, "target_logprobs", spy)
    return widths


def walks(calls):
    """The recorded calls as walks of a group from position 0, whose only
    prefix is <s>: per walk, the sorted prefixes stepped at each position."""
    out = []
    for stepped in calls:
        t = len(stepped[0]) - 1
        assert all(len(p) == t + 1 for p in stepped)
        if t == 0:
            out.append({})
        out[-1].setdefault(t, []).extend(stepped)
    return [{t: sorted(ps) for t, ps in walk.items()} for walk in out]


def live_prefixes(group):
    """Per position t, the sorted distinct prefixes ids[:t+1] of the
    sequences of group that score a position after them."""
    return {t: sorted({tuple(s[:t + 1]) for s in group if len(s) - 1 > t})
            for t in range(max(map(len, group)) - 1)}


def test_each_distinct_prefix_steps_once(monkeypatch):
    # in prefix order, as prefix_slices yields them
    m = random_model(3, 2, 3, 0, 0.5)
    calls = spy_on_steps(monkeypatch, m)
    rng = np.random.default_rng(0)
    seqs = sorted([BOS_ID] + rng.integers(2, 6, size=rng.integers(0, 6)).tolist() + [EOS_ID]
                  for _ in range(600))
    neural.position_logprobs(m, *pack(seqs))
    # one walk over the whole call
    assert walks(calls) == [live_prefixes(seqs)]
    # the deeper positions have more than STEP_ROWS_MAX distinct prefixes
    assert max(map(len, calls)) == neural.STEP_ROWS_MAX


def test_position_logprobs_walks_its_whole_input_as_one_tree(monkeypatch):
    # GROUP_ROWS cuts only prefix_slices: a direct call walks all of its
    # sequences, here more than GROUP_ROWS in prefix order, as one tree, so
    # a prefix shared across a GROUP_ROWS cut still steps once, and every
    # value keeps its bits
    m = random_model(3, 2, 3, 0, 0.5)
    carriers = [[3, 4, 5], [5, 4, 3]]
    seqs = sorted([BOS_ID] + carriers[k % 2] + [3 + k % 3] * (k % 4 + 1) + [EOS_ID]
                  for k in range(24))
    want = neural.position_logprobs(m, *pack(seqs))
    monkeypatch.setattr(neural, "GROUP_ROWS", 4)
    calls = spy_on_steps(monkeypatch, m)
    got = neural.position_logprobs(m, *pack(seqs))
    assert walks(calls) == [live_prefixes(seqs)]
    in_groups = sum(len(ps) for a in range(0, 24, 4)
                    for ps in live_prefixes(seqs[a:a + 4]).values())
    assert sum(map(len, calls)) < in_groups
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("step_rows", [64, 5])
@pytest.mark.parametrize("group_rows", [250, 2048])
def test_projection_passes_are_full_but_the_last(monkeypatch, step_rows, group_rows):
    # the new prefix rows of every position share one queue, so one call
    # in prefix order makes ceil(P / STEP_ROWS_MAX) passes over U for the
    # P distinct live prefixes of the whole call, all but the last
    # STEP_ROWS_MAX wide, whatever GROUP_ROWS is
    m = random_model(3, 2, 3, 0, 0.5)
    monkeypatch.setattr(neural, "GROUP_ROWS", group_rows)
    monkeypatch.setattr(neural, "STEP_ROWS_MAX", step_rows)
    widths = spy_on_passes(monkeypatch)
    rng = np.random.default_rng(0)
    seqs = sorted([BOS_ID] + rng.integers(2, 6, size=rng.integers(0, 6)).tolist() + [EOS_ID]
                  for _ in range(600))
    neural.position_logprobs(m, *pack(seqs))
    P = sum(len(ps) for ps in live_prefixes(seqs).values())
    assert len(widths) == -(-P // step_rows)
    assert widths[:-1] == [step_rows] * (len(widths) - 1)
    assert sum(widths) == P and max(widths) <= neural.STEP_ROWS_MAX


@settings(max_examples=60, deadline=None)
@given(m=models, data=st.data())
def test_any_order_gives_each_sequence_the_same_bits(m, data):
    # equal prefixes that are not adjacent step apart, with the bits they
    # get when prefix order makes them one run
    seqs = [[BOS_ID] + [2 + i % (m.vocab_size - 2) for i in s] + [EOS_ID]
            for s in data.draw(related_seqs())]
    assume(seqs)
    ranked = sorted(range(len(seqs)), key=seqs.__getitem__)
    order = data.draw(st.permutations(range(len(seqs))))
    in_prefix_order, moved = [seqs[i] for i in ranked], [seqs[i] for i in order]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(neural, "STEP_ROWS_MAX", data.draw(st.integers(1, 64)))
        want = per_sequence(neural.position_logprobs(m, *pack(in_prefix_order)),
                            in_prefix_order)
        got = per_sequence(neural.position_logprobs(m, *pack(moved)), moved)
    bits = dict(zip(ranked, (lp.tobytes() for lp in want)))
    assert [lp.tobytes() for lp in got] == [bits[i] for i in order]


def test_sorted_slices_share_prefixes_across_lists(monkeypatch):
    # two carrier phrases alternate from list to list, so every slice of 4
    # hypotheses in file order holds both; the slices of the sorted
    # hypotheses step each distinct live prefix of their slice once, fewer
    # in all, and every total keeps the bits it has scored alone
    m = random_model(3, 2, 3, 0, 0.5)
    kn = kn_for(m.vocab)
    carriers = [["a", "b", "c"], ["c", "b", "a"]]
    hyps = [[carriers[u % 2] + end for end in (["a"], ["oov", "b"], ["a"])]
            for u in range(6)]  # each list repeats a hypothesis
    hyps[3].append([])
    lists = [NBestList("u%d" % u, [Hypothesis(r + 1, -0.25 * r - 0.1 * u, words)
                                   for r, words in enumerate(ws)])
             for u, ws in enumerate(hyps)]
    cfg = RescoreConfig(lm_weight=0.7, interp_weight=0.3, word_penalty=0.2)
    alone = [[rescored([NBestList(nb.utt_id, [h])], m, kn, cfg)[0]
              .hypotheses[0].total_score.hex() for h in nb.hypotheses] for nb in lists]
    monkeypatch.setattr(neural, "GROUP_ROWS", 4)
    calls = spy_on_steps(monkeypatch, m)
    out = rescored(lists, m, kn, cfg)
    seqs = [encode(h.words, m.vocab) for nb in lists for h in nb.hypotheses]
    ranked = sorted(seqs)
    assert walks(calls) == [live_prefixes(ranked[a:a + 4]) for a in range(0, len(seqs), 4)]
    in_file_order = sum(len(ps) for a in range(0, len(seqs), 4)
                        for ps in live_prefixes(seqs[a:a + 4]).values())
    assert sum(map(len, calls)) < in_file_order
    for nb, rr, want in zip(lists, out, alone):
        assert [h.total_score.hex() for h in sorted(rr.hypotheses, key=lambda h: h.rank)] \
            == want


def test_perplexity_scores_in_prefix_order(monkeypatch):
    # ppl --model takes the sorted slices of lm_scores: fewer prefixes
    # step than in slices of file order, and the sentence sums are added
    # in file order, with the bits of the file-order perplexity; added in
    # sorted order, these sums have other bits
    m = random_model(3, 2, 3, 0, 0.5)
    carriers = [[3, 4, 5], [5, 4, 3]]
    seqs = [[BOS_ID] + carriers[k % 2] + [3 + k % 3] * (k % 4 + 1) + [EOS_ID]
            for k in range(24)]
    monkeypatch.setattr(neural, "GROUP_ROWS", 4)
    ids, lens = pack(seqs)
    sums = metrics.left_sums(neural.position_logprobs(m, ids, lens), lens)
    want = metrics.perplexity(sums, lens)
    ranked = sorted(range(len(seqs)), key=seqs.__getitem__)
    assert metrics.perplexity(sums[ranked], lens[ranked]).hex() != want.hex()
    calls = spy_on_steps(monkeypatch, m)
    assert metrics.perplexity(neural.lm_scores(m, None, ids, lens), lens).hex() == want.hex()
    ranked = sorted(seqs)
    assert walks(calls) == [live_prefixes(ranked[a:a + 4]) for a in range(0, 24, 4)]
    in_file_order = sum(len(ps) for a in range(0, 24, 4)
                        for ps in live_prefixes(seqs[a:a + 4]).values())
    assert sum(map(len, calls)) < in_file_order


@st.composite
def related_seqs(draw):
    """Id sequences over a small alphabet, with duplicates, prefixes of one
    another and empty sequences among them."""
    seqs = draw(st.lists(st.lists(st.integers(0, 3), max_size=6), max_size=12))
    for s in list(seqs):
        seqs.insert(draw(st.integers(0, len(seqs))), s[:draw(st.integers(0, len(s)))])
    return seqs


@settings(max_examples=300, deadline=None)
@given(seqs=related_seqs(), group_rows=st.sampled_from([1, 3, 2048]))
def test_prefix_slices_take_the_sorted_lists_order(seqs, group_rows):
    # the order is the order of sorting the id lists, ties in input
    # order, and each slice is the packed run of its sequences
    want = sorted(range(len(seqs)), key=seqs.__getitem__)
    with mock.patch.object(neural, "GROUP_ROWS", group_rows):
        slices = list(neural.prefix_slices(*pack(seqs)))
    assert [i for idx, _, _ in slices for i in idx.tolist()] == want
    for idx, ids, lens in slices:
        assert len(idx) <= group_rows
        assert [ids.tolist(), lens.tolist()] == [a.tolist() for a in pack(
            seqs[i] for i in idx)]


def test_prefix_slices_memory_grows_with_ids():
    # one long sentence among short ones must not pad the rest to its length
    rng = np.random.default_rng(0)
    short = [rng.integers(0, 142, size=12).tolist() for _ in range(5000)]

    def peak(seqs):
        ids, lens = pack(seqs)
        tracemalloc.start()
        try:
            list(neural.prefix_slices(ids, lens))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(short + [rng.integers(0, 142, size=402).tolist()]) < 2 * peak(short)


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
    return ngram.train_kn(*pack([encode(s, vocab) for s in corpus]), 3, vocab)


@settings(max_examples=25, deadline=None)
@given(m=models, mu=st.sampled_from([0.0, 0.3, 1.0]),
       hyps=st.lists(st.lists(st.sampled_from(WORDS + ["oov1", "oov2"]), max_size=7),
                     min_size=1, max_size=20))
def test_lm_scores_match_oracle_with_oov_and_kn(m, mu, hyps):
    kn = kn_for(m.vocab)
    got = lm_scores_of(m, kn, hyps, mu)
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
    got = lm_scores_of(m, kn, hyps, mu)
    for words, lm in zip(hyps, got):
        ids = encode(words, m.vocab)
        kn_ids = [kn.vocab.id(m.vocab.word(i)) for i in ids]
        assert abs(lm - nn_reference.mixed_logprob(m, kn, ids, mu, kn_ids)) < TOL


@settings(max_examples=15, deadline=None)
@given(m=models, sizes=st.lists(st.integers(1, neural.STEP_ROWS_MAX + 10),
                                min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 16))
def test_rescore_lists_across_groups(m, sizes, seed):
    # all hypotheses are scored together, so one batch of steps can hold
    # several lists and a list over STEP_ROWS_MAX spans batches
    rng = np.random.default_rng(seed)
    words = m.vocab.id_to_word[3:] + ["oov"]
    lists = [NBestList("u%d" % u, [
        Hypothesis(r + 1, float(-r - rng.random()),
                   [words[j] for j in rng.integers(len(words), size=rng.integers(0, 6))])
        for r in range(size)]) for u, size in enumerate(sizes)]
    cfg = RescoreConfig(lm_weight=0.7, word_penalty=0.2)
    out = rescored(lists, m, None, cfg)
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
    # hypotheses go 3 at a time in sorted order of their ids, whatever the
    # list boundaries
    calls, seen = [], []
    score = neural.position_logprobs

    def spy(nlm, ids, lens):
        calls.append(lens.size)
        seen.extend(ids.tolist())
        return score(nlm, ids, lens)

    monkeypatch.setattr(neural, "GROUP_ROWS", 3)
    monkeypatch.setattr(neural, "position_logprobs", spy)
    m = random_model(3, 2, 3, 1, 0.5)
    rng = np.random.default_rng(1)
    words = m.vocab.id_to_word[3:] + ["oov"]
    lists = [NBestList("u%d" % u, [
        Hypothesis(r + 1, float(-r - rng.random()),
                   [words[j] for j in rng.integers(len(words), size=rng.integers(0, 6))])
        for r in range(size)]) for u, size in enumerate([1, 2, 5, 3, 1, 1, 1, 4])]
    out = rescored(lists, m, None, RescoreConfig(lm_weight=0.7))
    assert calls == [3, 3, 3, 3, 3, 3]
    assert seen == [i for ids in sorted(encode(h.words, m.vocab)
                                        for nb in lists for h in nb.hypotheses)
                    for i in ids]
    assert [nb.utt_id for nb in out] == [nb.utt_id for nb in lists]
    for nb, rr in zip(lists, out):
        assert sorted(h.rank for h in rr.hypotheses) == [h.rank for h in nb.hypotheses]
        keys = [(-h.total_score, h.rank) for h in rr.hypotheses]
        assert keys == sorted(keys)
        for h in rr.hypotheses:
            lm = nn_reference.sentence_logprob(m, encode(h.words, m.vocab))
            assert abs(h.total_score - (h.am_score + 0.7 * lm)) < TOL


def test_steps_stay_within_row_cap(monkeypatch):
    # the core steps through the module's gate_step, never wider than the cap
    widths = []
    step = neural.gate_step

    def spy(m, words, h, c):
        widths.append(len(words))
        return step(m, words, h, c)

    monkeypatch.setattr(neural, "gate_step", spy)
    m = random_model(3, 2, 3, 0, 0.5)
    lists = [NBestList("u%d" % u, [Hypothesis(r + 1, -r, ["a", "b"][:r % 3])
                                   for r in range(5)]) for u in range(40)]
    rescored(lists, m, None, RescoreConfig())
    # 192 distinct sentences: four words each over unk, a, b and c
    neural.lm_scores(m, None, *pack([[BOS_ID] + [2 + (k >> 2 * j) % 4 for j in range(4)]
                                     + [EOS_ID] for k in range(3 * neural.STEP_ROWS_MAX)]))
    assert widths and max(widths) == neural.STEP_ROWS_MAX


def layout_model(nv, d_s, d_h):
    """A model whose weights are scaled so that pre-activations and logits
    are of order 1."""
    m = neural.init_model(Vocabulary(["w%d" % i for i in range(nv - 3)]), d_s, d_h, 0)
    rng = np.random.default_rng(0)
    for arr, scale in ((m.S, 1.0), (m.W, (d_s + d_h) ** -0.5), (m.b, 1.0),
                       (m.U, 3.0 * d_h ** -0.5)):
        arr[...] = rng.normal(0.0, scale, arr.shape)
    return m


# the desk walkthrough's |V|, d_s and d_h, and a wider shape
@pytest.mark.parametrize("nv,d_s,d_h,examples,max_hyps",
                         [(142, 32, 64, 30, 150), (5000, 300, 1000, 4, 12)],
                         ids=["desk", "wide"])
def test_scores_do_not_depend_on_layout(nv, d_s, d_h, examples, max_hyps):
    # every score has the bits it gets alone, whatever the hypotheses
    # scored beside it, their order, their split into lm_scores calls,
    # GROUP_ROWS and STEP_ROWS_MAX
    m = layout_model(nv, d_s, d_h)
    words = m.vocab.id_to_word[3:13] + ["oov"]

    @settings(max_examples=examples, deadline=None)
    @given(data=st.data())
    def check(data):
        stems = data.draw(st.lists(st.lists(st.sampled_from(words), max_size=6),
                                   min_size=1, max_size=4))
        hyps = []
        for _ in range(data.draw(st.integers(1, max_hyps))):
            stem = data.draw(st.sampled_from(stems))
            hyps.append(stem[:data.draw(st.integers(0, len(stem)))]
                        + data.draw(st.lists(st.sampled_from(words), max_size=2)))
        alone = [lm_scores_of(m, None, [h])[0].hex() for h in hyps]
        order = data.draw(st.permutations(range(len(hyps))))
        cuts = sorted(data.draw(st.sets(st.integers(1, len(hyps)), max_size=4))
                      - {len(hyps)})
        got = [None] * len(hyps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neural, "GROUP_ROWS", data.draw(st.integers(1, len(hyps))))
            # at most 64: with two BLAS threads, a desk step of 111 to 142
            # rows gets other bits than a narrower one
            mp.setattr(neural, "STEP_ROWS_MAX", data.draw(st.integers(1, 64)))
            for part in np.split(np.array(order), cuts):
                scores = lm_scores_of(m, None, [hyps[i] for i in part])
                for i, score in zip(part, scores):
                    got[i] = score.hex()
        assert got == alone

    check()


def layout_scores():
    """Per shape of test_scores_do_not_depend_on_layout, the hex scores of
    40 hypotheses scored together and each alone; scored together, they
    make passes over U of 64 rows."""
    out = {}
    for shape in ((142, 32, 64), (5000, 300, 1000)):
        m = layout_model(*shape)
        rng = np.random.default_rng(1)
        words = m.vocab.id_to_word[3:13] + ["oov"]
        hyps = [[words[j] for j in rng.integers(len(words), size=rng.integers(0, 6))]
                for _ in range(40)]
        out[str(shape)] = ([x.hex() for x in lm_scores_of(m, None, hyps)],
                           [lm_scores_of(m, None, [h])[0].hex() for h in hyps])
    return out


def test_scores_do_not_depend_on_layout_with_one_or_two_blas_threads():
    # with OPENBLAS_NUM_THREADS=1 and =2, each set before numpy loads in its
    # own process, every score has the bits it gets alone. Across the two
    # settings the desk scores agree; the wide ones need not, since
    # OpenBLAS's threaded gemm cuts an inner dimension of 600 to 1300 into
    # other blocks than one thread does
    one, two = blas_threads.one_and_two(layout_scores)
    for scores in (one, two):
        assert all(together == alone for together, alone in scores.values())
    assert one["(142, 32, 64)"] == two["(142, 32, 64)"]


def training_and_scoring_states():
    """Per shape of test_scores_do_not_depend_on_layout and batch width B,
    the number of final h and of final c entries whose bits differ between
    loss_and_grads without dropout and a chain of gate_step calls, over the
    same 12 steps from the same random nonzero state. Batches under 8 rows
    take _matmul_rows's padding in both."""
    out = {}
    for shape, widths in (((142, 32, 64), (1, 2, 3, 4, 5, 6, 7, 16, 64)),
                          ((5000, 300, 1000), (1, 16, 64))):
        m = layout_model(*shape)
        rng = np.random.default_rng(2)
        for B in widths:
            inputs, targets = rng.integers(m.vocab_size, size=(2, B, 12))
            h0, c0 = rng.uniform(-1.0, 1.0, (2, B, m.d_h))
            *_, h, c = neural.loss_and_grads(m, inputs, targets, h0, c0)
            sh, sc = h0, c0
            for t in range(12):
                sh, sc = neural.gate_step(m, inputs[:, t], sh, sc)
            out["%s B=%d" % (shape, B)] = [
                int((x.view(np.uint64) != y.view(np.uint64)).sum())
                for x, y in ((h, sh), (c, sc))]
    return out


def test_scoring_steps_are_training_steps_with_one_or_two_blas_threads():
    # scoring runs the function the gradients are for: gate_step's chain
    # ends in the bits of training's final state, at desk and wide shapes,
    # under either thread count
    for differ in blas_threads.one_and_two(training_and_scoring_states):
        assert differ == dict.fromkeys(differ, [0, 0])


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
    kn = ngram.train_kn(*pack([encode(s, vocab) for s in pipe["data"].train]), 4, vocab)
    for mu in (0.0, 0.3):
        order, _ = rescore.rescore_lists(nbest, m, kn, RescoreConfig(interp_weight=mu))
        got = dict(zip(nbest.utt_ids, nbest.word_lists(nbest.best(order))))
        assert got == oracle_onebest(nbest, m, kn, mu)


def test_kn_joined_by_word_not_id(synthetic_pipeline, tmp_path):
    # a KN model whose word ids run in reverse order rescores byte-identically
    pipe = synthetic_pipeline
    m, vocab, data = pipe["model"], pipe["vocab"], pipe["data"]
    paths = []
    for v in (vocab, Vocabulary(vocab.id_to_word[:2:-1], vocab.counts)):
        kn = ngram.train_kn(*pack([encode(s, v) for s in data.train]), 4, v)
        ranking = rescore.rescore_lists(data.nbest, m, kn, RescoreConfig(interp_weight=0.3))
        paths.append(tmp_path / ("rescored%d.tsv" % len(paths)))
        rescore.write_rescored(data.nbest, *ranking, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
