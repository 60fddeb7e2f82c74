import random

import pytest
from hypothesis import given, settings, strategies as st

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
    assert metrics.alignment_cost(ops) == 0


def test_align_single_deletion():
    ops = metrics.align(["a", "b"], ["a"])
    assert metrics.alignment_cost(ops) == 1
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
        assert metrics.alignment_cost(metrics.align(ref, hyp)) == \
            brute_force_distance(ref, hyp)


short_seqs = st.lists(st.sampled_from("abc"), max_size=6)


@settings(max_examples=200, deadline=None)
@given(ref=short_seqs, hyp=short_seqs)
def test_align_is_optimal(ref, hyp):
    assert metrics.alignment_cost(metrics.align(ref, hyp)) == \
        brute_force_distance(ref, hyp)


def test_corpus_wer_perfect():
    refs = {"u1": ["a", "b"], "u2": ["c"]}
    assert metrics.corpus_wer(refs, refs).wer == 0.0


def test_corpus_wer_single_sub():
    refs = {"u": ["a", "b", "c", "d"]}
    hyps = {"u": ["a", "x", "c", "d"]}
    r = metrics.corpus_wer(refs, hyps)
    assert r.substitutions == 1 and r.wer == 0.25


def test_corpus_wer_additivity():
    refs = {"u1": ["a", "b"], "u2": ["c", "d", "e"]}
    hyps = {"u1": ["a"], "u2": ["c", "x", "e"]}
    total = metrics.corpus_wer(refs, hyps)
    parts = [metrics.sentence_wer_counts(refs[u], hyps[u]) for u in refs]
    assert total.errors == sum(p.errors for p in parts)
    assert total.ref_word_count == sum(p.ref_word_count for p in parts)


def test_corpus_wer_order_invariance():
    rng = random.Random(0)
    refs = {"u%d" % i: [rng.choice("abc") for _ in range(4)] for i in range(10)}
    hyps = {u: [rng.choice("abc") for _ in range(4)] for u in refs}
    a = metrics.corpus_wer(refs, hyps)
    shuffled = dict(reversed(list(hyps.items())))
    b = metrics.corpus_wer(refs, shuffled)
    assert (a.substitutions, a.insertions, a.deletions) == \
        (b.substitutions, b.insertions, b.deletions)


def test_corpus_wer_missing_reference():
    with pytest.raises(KeyError, match="u2"):
        metrics.corpus_wer({"u1": ["a"]}, {"u2": ["a"]})


def test_rare_accuracy_all_matched():
    refs = {"u": ["boon_lay", "road"]}
    hyps = {"u": ["boon_lay", "road"]}
    r = metrics.rare_word_accuracy(refs, hyps, {"boon_lay"})
    assert r.occurrences == 1 and r.accuracy == 1.0


def test_rare_accuracy_substituted_occurrence():
    refs = {"u": ["at", "boon_lay", "place"]}
    hyps = {"u": ["at", "bully", "plays"]}
    r = metrics.rare_word_accuracy(refs, hyps, {"boon_lay"})
    assert r.occurrences == 1 and r.correct == 0


def test_rare_accuracy_zero_occurrences_flagged():
    refs = {"u": ["a", "b"]}
    r = metrics.rare_word_accuracy(refs, refs, {"never"})
    assert not r.defined
    assert r.occurrences == 0
    with pytest.raises(ValueError):
        r.accuracy


def test_rare_correct_bounded_by_matches():
    rng = random.Random(4)
    for _ in range(20):
        refs = {"u": [rng.choice("abxy") for _ in range(6)]}
        hyps = {"u": [rng.choice("abxy") for _ in range(6)]}
        wer = metrics.corpus_wer(refs, hyps)
        matches = wer.ref_word_count - wer.substitutions - wer.deletions
        acc = metrics.rare_word_accuracy(refs, hyps, {"a", "b"})
        assert acc.correct <= matches


def test_format_wer_report_has_tsv_block():
    r = metrics.WerReport(1, 0, 1, 10)
    out = metrics.format_wer_report(r)
    assert "wer\t0.200000" in out
