import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wer_reference
from rarelm import metrics
from rarelm.metrics import DEL, INS, MATCH, SUB


def brute_force_distance(a, b):
    if not a:
        return len(b)
    if not b:
        return len(a)
    head = 0 if a[0] == b[0] else 1
    return min(brute_force_distance(a[1:], b[1:]) + head,
               brute_force_distance(a[1:], b) + 1,
               brute_force_distance(a, b[1:]) + 1)


def test_align_identity():
    ops = metrics.align(["a", "b"], ["a", "b"])
    assert all(tag == MATCH for tag, _, _ in ops)
    assert sum(tag != MATCH for tag, _, _ in ops) == 0


def test_align_single_deletion():
    ops = metrics.align(["a", "b"], ["a"])
    assert sum(tag != MATCH for tag, _, _ in ops) == 1
    assert [tag for tag, _, _ in ops] == [MATCH, DEL]


def test_align_projections():
    rng = random.Random(3)
    alpha = list("abcd")
    for _ in range(100):
        ref = [rng.choice(alpha) for _ in range(rng.randint(0, 6))]
        hyp = [rng.choice(alpha) for _ in range(rng.randint(0, 6))]
        ops = metrics.align(ref, hyp)
        assert [r for _, r, _ in ops if r != metrics.GAP] == ref
        assert [h for _, _, h in ops if h != metrics.GAP] == hyp


def test_align_cost_equals_bruteforce():
    rng = random.Random(8)
    alpha = list("abc")
    for _ in range(100):
        ref = [rng.choice(alpha) for _ in range(rng.randint(0, 6))]
        hyp = [rng.choice(alpha) for _ in range(rng.randint(0, 6))]
        ops = metrics.align(ref, hyp)
        assert sum(tag != MATCH for tag, _, _ in ops) == brute_force_distance(ref, hyp)


short_seqs = st.lists(st.sampled_from("abc"), max_size=6)


@settings(max_examples=200, deadline=None)
@given(ref=short_seqs, hyp=short_seqs)
def test_align_is_optimal(ref, hyp):
    ops = metrics.align(ref, hyp)
    assert sum(tag != MATCH for tag, _, _ in ops) == brute_force_distance(ref, hyp)


@st.composite
def suffix_pairs(draw):
    """(ref, hyp) over a small alphabet: equal, or two heads (either may be
    empty) ending in one shared suffix (which may be empty)."""
    word = st.sampled_from(draw(st.sampled_from(["a", "ab", "abc"])))
    suffix = draw(st.lists(word, max_size=5))
    ref = draw(st.lists(word, max_size=6)) + suffix
    if draw(st.booleans()):
        return ref, list(ref)
    return ref, draw(st.lists(word, max_size=6)) + suffix


@settings(max_examples=500, deadline=None)
@given(pair=suffix_pairs())
def test_align_ops_equal_full_matrix_oracle(pair):
    ref, hyp = pair
    assert metrics.align(ref, hyp) == wer_reference.align(ref, hyp)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(suffix_pairs(), max_size=6), dropped=st.sets(st.integers(0, 5)),
       tracked=st.sets(st.sampled_from("abcx")))
def test_corpus_scores_equal_full_matrix_oracle(pairs, dropped, tracked):
    refs = {"u%d" % i: ref for i, (ref, _) in enumerate(pairs)}
    hyps = {"u%d" % i: hyp for i, (_, hyp) in enumerate(pairs) if i not in dropped}
    wer, acc = metrics.corpus_scores(refs, hyps, tracked)
    assert (wer.substitutions, wer.insertions, wer.deletions, wer.ref_word_count,
            acc.occurrences, acc.correct) == wer_reference.corpus_scores(refs, hyps, tracked)


def test_corpus_wer_perfect():
    refs = {"u1": ["a", "b"], "u2": ["c"]}
    assert metrics.corpus_scores(refs, refs)[0].wer == 0.0


def test_corpus_wer_single_sub():
    refs = {"u": ["a", "b", "c", "d"]}
    hyps = {"u": ["a", "x", "c", "d"]}
    r = metrics.corpus_scores(refs, hyps)[0]
    assert r.substitutions == 1 and r.wer == 0.25


def test_corpus_wer_additivity():
    refs = {"u1": ["a", "b"], "u2": ["c", "d", "e"]}
    hyps = {"u1": ["a"], "u2": ["c", "x", "e"]}
    total = metrics.corpus_scores(refs, hyps)[0]
    parts = [metrics.corpus_scores({u: refs[u]}, {u: hyps[u]})[0] for u in refs]
    assert total.errors == sum(p.errors for p in parts)
    assert total.ref_word_count == sum(p.ref_word_count for p in parts)


def test_corpus_wer_order_invariance():
    rng = random.Random(0)
    refs = {"u%d" % i: [rng.choice("abc") for _ in range(4)] for i in range(10)}
    hyps = {u: [rng.choice("abc") for _ in range(4)] for u in refs}
    a = metrics.corpus_scores(refs, hyps)[0]
    shuffled = dict(reversed(list(hyps.items())))
    b = metrics.corpus_scores(refs, shuffled)[0]
    assert (a.substitutions, a.insertions, a.deletions) == \
        (b.substitutions, b.insertions, b.deletions)


def test_reference_without_hypothesis_is_all_deletions():
    refs = {"u1": ["a", "b"], "u2": ["c", "d", "e"]}
    wer, acc = metrics.corpus_scores(refs, {"u1": ["a", "b"]}, {"b", "d"})
    assert (wer.ref_word_count, wer.deletions, wer.errors) == (5, 3, 3)
    assert (acc.occurrences, acc.correct) == (2, 1)


def test_corpus_wer_missing_reference():
    with pytest.raises(ValueError, match="u2"):
        metrics.corpus_scores({"u1": ["a"]}, {"u2": ["a"]})[0]


def test_rare_accuracy_all_matched():
    refs = {"u": ["boon_lay", "road"]}
    hyps = {"u": ["boon_lay", "road"]}
    r = metrics.corpus_scores(refs, hyps, {"boon_lay"})[1]
    assert r.occurrences == 1 and r.accuracy == 1.0


def test_rare_accuracy_substituted_occurrence():
    refs = {"u": ["at", "boon_lay", "place"]}
    hyps = {"u": ["at", "bully", "plays"]}
    r = metrics.corpus_scores(refs, hyps, {"boon_lay"})[1]
    assert r.occurrences == 1 and r.correct == 0


def test_rare_accuracy_zero_occurrences_flagged():
    refs = {"u": ["a", "b"]}
    r = metrics.corpus_scores(refs, refs, {"never"})[1]
    assert not r.defined
    assert r.occurrences == 0
    with pytest.raises(ValueError):
        r.accuracy


def test_rare_correct_bounded_by_matches():
    rng = random.Random(4)
    for _ in range(20):
        refs = {"u": [rng.choice("abxy") for _ in range(6)]}
        hyps = {"u": [rng.choice("abxy") for _ in range(6)]}
        wer, acc = metrics.corpus_scores(refs, hyps, {"a", "b"})
        matches = wer.ref_word_count - wer.substitutions - wer.deletions
        assert acc.correct <= matches


# one list of per-position values per sequence, with the sequence length
# that scores that many positions: 0 or 1 tokens score none
sequences = st.lists(st.lists(st.floats(-1e6, 1e6), max_size=20).flatmap(
    lambda v: st.tuples(st.just(v), st.sampled_from([0, 1] if not v else [len(v) + 1]))),
    max_size=8)


@settings(max_examples=200, deadline=None)
@given(seqs=sequences)
def test_left_sums_bits_of_sum(seqs):
    values = np.array([x for v, _ in seqs for x in v], dtype=np.float64)
    lens = np.array([n for _, n in seqs], dtype=np.int64)
    got = metrics.left_sums(values, lens).tolist()
    assert [x.hex() for x in got] == [float(sum(v)).hex() for v, _ in seqs]


def test_format_wer_report_has_tsv_block():
    r = metrics.WerReport(1, 0, 1, 10)
    out = metrics.format_wer_report(r)
    assert "wer\t0.200000" in out
