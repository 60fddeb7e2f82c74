import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rarelm import ngram
from rarelm.textcorpus import BOS_ID, EOS_ID, UNK_ID, Vocabulary, build_vocab, encode, pack

from kn_reference import ref_prob, ref_sentence_logprob


def make_model(corpus, order, **kw):
    vocab = build_vocab(corpus)
    enc = [encode(s, vocab) for s in corpus]
    return ngram.train_kn(enc, order, vocab, **kw), vocab, enc


def random_corpus(rng, max_words=6, max_sents=6, max_len=9):
    words = ["w%d" % i for i in range(rng.randint(2, max_words))]
    return [[rng.choice(words) for _ in range(rng.randint(1, max_len))]
            for _ in range(rng.randint(1, max_sents))]


def test_bigram_normalization():
    m, vocab, _ = make_model([["a", "b"], ["a", "c"]], 2)
    h = (vocab.id("a"),)
    assert abs(sum(m.prob(w, h) for w in range(len(vocab))) - 1.0) < 1e-6


def test_unigram_matches_oracle():
    m, vocab, enc = make_model([["a", "a", "b"]], 1)
    for w in range(len(vocab)):
        po = ref_prob(enc, w, (), 1, len(vocab))
        assert abs(m.prob(w, ()) - po) < 1e-9


def test_single_sentence_corpus():
    m, vocab, _ = make_model([["a"]], 2)
    assert m.prob(vocab.id("a"), (BOS_ID,)) > m.prob(UNK_ID, (BOS_ID,))


def test_normalization_random_histories():
    rng = random.Random(11)
    m, vocab, _ = make_model(random_corpus(rng), 4)
    nv = len(vocab)
    for _ in range(100):
        h = tuple(rng.randrange(nv) for _ in range(rng.randint(0, 3)))
        assert abs(sum(m.prob(w, h) for w in range(nv)) - 1.0) < 1e-6


@settings(max_examples=40, deadline=None)
@given(corpus=st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]),
                                min_size=1, max_size=7), min_size=1, max_size=8),
       order=st.integers(1, 4), prune_min_count=st.sampled_from([0, 2, 3]),
       data=st.data())
def test_normalization_property(corpus, order, prune_min_count, data):
    # every stored history and random ones, seen or not, longer than the
    # order or not
    m, vocab, _ = make_model(corpus, order, prune_min_count=prune_min_count)
    nv = len(vocab)
    ids = st.integers(0, nv - 1)
    histories = [h for bows in m.bows.values() for h in bows]
    histories += [tuple(data.draw(st.lists(ids, max_size=order))) for _ in range(10)]
    for h in histories:
        assert abs(sum(m.prob(w, h) for w in range(nv)) - 1.0) < 1e-9


def test_unseen_history_matches_oracle():
    rng = random.Random(5)
    corpus = random_corpus(rng)
    m, vocab, enc = make_model(corpus, 3)
    nv = len(vocab)
    h = (nv - 1, nv - 1)  # almost surely unseen as a history
    for w in range(nv):
        assert abs(m.prob(w, h) - ref_prob(enc, w, h, 3, nv)) < 1e-9


def test_unk_prob_positive():
    m, vocab, _ = make_model([["a", "b", "a"]], 3)
    assert m.prob(UNK_ID, (vocab.id("a"),)) > 0.0


def test_all_words_positive_under_random_histories():
    rng = random.Random(2)
    m, vocab, _ = make_model(random_corpus(rng), 4)
    nv = len(vocab)
    for _ in range(20):
        h = tuple(rng.randrange(nv) for _ in range(rng.randint(0, 3)))
        assert all(m.prob(w, h) > 0.0 for w in range(nv))


def test_oracle_equivalence_small_corpora():
    rng = random.Random(123)
    for _ in range(5):
        corpus = random_corpus(rng)
        for order in (1, 2, 3, 4):
            m, vocab, enc = make_model(corpus, order)
            nv = len(vocab)
            for _ in range(25):
                h = tuple(rng.randrange(nv) for _ in range(rng.randint(0, order - 1))) \
                    if order > 1 else ()
                w = rng.randrange(nv)
                assert abs(m.prob(w, h) - ref_prob(enc, w, h, order, nv)) < 1e-9


def test_sentence_logprob_bos_eos_only():
    m, vocab, _ = make_model([["a", "b"]], 2)
    lp = sum(map(math.log10, m.prob_many(*pack([[BOS_ID, EOS_ID]]))))
    assert abs(lp - math.log10(m.prob(EOS_ID, (BOS_ID,)))) < 1e-12


def test_uniform_model_perplexity():
    # hand-built model: uniform over |V| = 4
    vocab = Vocabulary(["a"])
    m = ngram.NGramModel(1, vocab)
    for w in range(4):
        m.probs[1][(w,)] = 0.25
    ppl = ngram.kn_perplexity(m, [[BOS_ID, 3, 3, 1]])
    assert abs(ppl - 4.0) < 1e-9
    seqs = [[BOS_ID, 3, 3, 1], [BOS_ID, 1]]
    assert per_sequence(m, seqs) == scalar_position_probs(m, seqs)


def test_sentence_logprob_matches_oracle():
    rng = random.Random(9)
    corpus = random_corpus(rng)
    m, vocab, enc = make_model(corpus, 4)
    ids = enc[0]
    assert abs(sum(map(math.log10, m.prob_many(*pack([ids]))))
               - ref_sentence_logprob(enc, ids, 4, len(vocab))) < 1e-9


def per_sequence(m, seqs):
    """prob_many over seqs packed back to back, sliced back into lists of
    max(len - 1, 0) positions."""
    ids, lens = pack(seqs)
    flat = m.prob_many(ids, lens)
    return [ps.tolist() for ps in np.split(flat, np.cumsum(np.maximum(lens - 1, 0))[:-1])]


def scalar_position_probs(m, seqs):
    return [[m.prob(ids[t], tuple(ids[max(0, t - m.order + 1):t]))
             for t in range(1, len(ids))] for ids in seqs]


@settings(max_examples=60, deadline=None)
@given(corpus=st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]),
                                min_size=1, max_size=7), min_size=1, max_size=8),
       order=st.integers(1, 5), prune_min_count=st.sampled_from([0, 2]),
       via_arpa=st.booleans(),
       text=st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "oov"]), max_size=7),
                     min_size=1, max_size=8))
# pruning keeps "a b c d" but neither "a b c" nor any bigram "a x", so the
# history "a b c" has a prefix that is neither an entry nor a history
@example(corpus=[["a", "b", "c", "d"]] * 2, order=4, prune_min_count=2,
         via_arpa=False, text=[["a", "b", "c", "d"]])
@example(corpus=[["a", "b", "c", "d"]] * 2, order=4, prune_min_count=2,
         via_arpa=True, text=[["a", "b", "c", "d"]])
def test_position_probs_property(corpus, order, prune_min_count, via_arpa, text):
    # the batched lookup gives each position the bits of prob, for trained,
    # pruned and re-imported models alike
    m, vocab, enc = make_model(corpus, order, prune_min_count=prune_min_count)
    if via_arpa:
        m = ngram.import_arpa(ngram.export_arpa(m))
    seqs = [encode(s, m.vocab) for s in text]
    # unframed sequences too: no history reaches into the previous one
    unframed = [ids[1:-1] for ids in seqs]
    assert per_sequence(m, seqs + unframed) == scalar_position_probs(m, seqs + unframed)
    want = scalar_position_probs(m, seqs)
    nwords = sum(map(len, want))
    assert ngram.kn_perplexity(m, seqs) == \
        10.0 ** (-sum(sum(map(math.log10, ps)) for ps in want) / nwords)
    if prune_min_count or via_arpa:
        return
    # the oracle takes the model's discounts, which fall back to 0.75
    # where the estimate is degenerate
    ds = {k: (d.d1, d.d2, d.d3plus) for k, d in m.discounts.items()}
    ref = 10.0 ** (-sum(ref_sentence_logprob(enc, ids, order, len(vocab), ds)
                        for ids in seqs) / nwords)
    assert abs(ngram.kn_perplexity(m, seqs) - ref) < 1e-9


def test_position_probs_key_range():
    # |V|**5 > 2**63: keys packed as raw base-|V| numbers would overflow at
    # order 5, so this pins the rank-chained keys
    rng = random.Random(3)
    words = ["w%d" % i for i in range(7000)]
    rng.shuffle(words)
    corpus = [words[i:i + 10] for i in range(0, len(words), 10)]
    corpus += [rng.sample(words[:100], 10) for _ in range(100)]
    m, vocab, _ = make_model(corpus, 5)
    assert len(vocab) ** 5 >= 2 ** 63
    text = corpus[:50] + [[rng.choice(words) for _ in range(8)] for _ in range(50)]
    text += [s[:4] + ["oov"] + s[4:] for s in corpus[50:100]]
    seqs = [encode(s, vocab) for s in text]
    assert per_sequence(m, seqs) == scalar_position_probs(m, seqs)


def test_position_probs_names_missing_unigram():
    m, vocab, _ = make_model([["a", "b"]], 2)
    del m.probs[1][(UNK_ID,)]
    with pytest.raises(ValueError, match="word '<unk>' missing"):
        m.prob_many(*pack([encode(["a", "zzz"], vocab)]))


def test_perplexity_empty_corpus():
    m, _, _ = make_model([["a"]], 2)
    with pytest.raises(ValueError):
        ngram.kn_perplexity(m, [])
    # sentences, but no position to score
    with pytest.raises(ValueError, match="empty corpus"):
        ngram.kn_perplexity(m, [[BOS_ID], []])


def test_train_empty_corpus():
    vocab = Vocabulary(["a"])
    with pytest.raises(ValueError, match="empty corpus"):
        ngram.train_kn([], 2, vocab)


def test_discount_fallback_on_degenerate_counts():
    # tiny corpus cannot populate all counts-of-counts classes
    m, _, _ = make_model([["a", "b"]], 2)
    assert m.warnings
    assert m.discounts[2].d1 == 0.75


def test_discount_fallback_on_zero_estimate():
    # these bigram counts-of-counts make the Chen-Goodman d2 exactly 0, which
    # would leave the history "c" (seen twice before </s> only) no back-off mass
    corpus = [["d"], ["a", "d"], ["b", "d"], ["b", "d"]] + [["d", "d", "a", "c"]] * 3
    m, vocab, _ = make_model(corpus, 2)
    assert m.discounts[2].d2 > 0.0
    assert any("non-positive" in w for w in m.warnings)
    assert all(b > 0.0 for b in m.bows[1].values())
    c = vocab.id("c")
    assert all(m.prob(w, (c,)) > 0.0 for w in range(len(vocab)))
    m2 = ngram.import_arpa(ngram.export_arpa(m))
    assert set(m2.vocab.id_to_word) == set(vocab.id_to_word)


def test_arpa_roundtrip():
    rng = random.Random(21)
    m, vocab, _ = make_model(random_corpus(rng), 3)
    text = ngram.export_arpa(m)
    m2 = ngram.import_arpa(text)
    for k in range(1, 4):
        assert set(m.probs[k]) == set(m2.probs[k])
        for g, p in m.probs[k].items():
            assert abs(math.log10(p) - math.log10(m2.probs[k][g])) < 1e-6
    for k in (1, 2):
        for g, b in m.bows[k].items():
            assert abs(math.log10(b) - math.log10(m2.bows[k][g])) < 1e-6


def test_arpa_roundtrip_probs_queryable():
    rng = random.Random(22)
    corpus = random_corpus(rng)
    m, vocab, _ = make_model(corpus, 4)
    m2 = ngram.import_arpa(ngram.export_arpa(m))
    nv = len(vocab)
    for _ in range(50):
        h = tuple(rng.randrange(nv) for _ in range(rng.randint(0, 3)))
        w = rng.randrange(nv)
        assert abs(m.prob(w, h) - m2.prob(w, h)) < 1e-6


@settings(max_examples=40, deadline=None)
@given(corpus=st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]),
                                min_size=1, max_size=7), min_size=1, max_size=8),
       order=st.integers(1, 4), prune_min_count=st.sampled_from([0, 2]),
       data=st.data())
def test_arpa_roundtrip_prob_property(corpus, order, prune_min_count, data):
    m, vocab, _ = make_model(corpus, order, prune_min_count=prune_min_count)
    m2 = ngram.import_arpa(ngram.export_arpa(m))
    # import_arpa assigns its own ids, so queries go through the words;
    # ARPA keeps 10 significant digits of each log10 value
    words = vocab.id_to_word
    assert sorted(m2.vocab.id_to_word) == sorted(words)
    to2 = [m2.vocab.id(w) for w in words]
    ids = st.integers(0, len(words) - 1)
    for _ in range(20):
        h = data.draw(st.lists(ids, max_size=order - 1))
        w = data.draw(ids)
        got = m2.prob(to2[w], tuple(to2[v] for v in h))
        assert abs(math.log10(got) - math.log10(m.prob(w, tuple(h)))) < 1e-8


def test_arpa_keeps_backoff_of_pruned_history():
    # the bigram "d c" is pruned, but "d c b" is kept, so the bow of "d c"
    # must survive export even though "d c" has no entry of its own
    corpus = [["a", "d"], ["a", "b", "d", "c", "b", "d"], ["b", "d", "c", "b", "d"]]
    m, vocab, enc = make_model(corpus, 3, prune_min_count=2)
    hist = (vocab.id("d"), vocab.id("c"))
    assert hist in m.bows[2] and hist not in m.probs[2]
    m2 = ngram.import_arpa(ngram.export_arpa(m))
    h2 = tuple(m2.vocab.id(vocab.word(i)) for i in hist)
    for w in vocab.id_to_word:
        assert abs(math.log10(m2.prob(m2.vocab.id(w), h2))
                   - math.log10(m.prob(vocab.id(w), hist))) < 1e-8
    enc2 = [[m2.vocab.id(vocab.word(i)) for i in s] for s in enc]
    assert abs(ngram.kn_perplexity(m2, enc2) - ngram.kn_perplexity(m, enc)) < 1e-8


def test_arpa_count_mismatch():
    m, _, _ = make_model([["a", "b", "a"]], 2)
    text = ngram.export_arpa(m)
    lines = text.split("\n")
    idx = next(i for i, l in enumerate(lines) if l.startswith("ngram 2="))
    lines[idx] = "ngram 2=999"
    with pytest.raises(ngram.ArpaParseError, match="2-grams"):
        ngram.import_arpa("\n".join(lines))


@pytest.mark.parametrize("field", [0, 2], ids=["prob", "backoff"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "400", "-400", "x"])
def test_arpa_rejects_bad_values(field, value):
    # 10 ** value must be a positive, finite float
    m, _, _ = make_model([["a", "b", "a"]], 2)
    lines = ngram.export_arpa(m).split("\n")
    idx = next(i for i, l in enumerate(lines) if l.count("\t") == 2)
    parts = lines[idx].split("\t")
    parts[field] = value
    lines[idx] = "\t".join(parts)
    with pytest.raises(ngram.ArpaParseError, match="line %d: bad " % (idx + 1)):
        ngram.import_arpa("\n".join(lines))


def test_arpa_missing_end():
    m, _, _ = make_model([["a", "b"]], 2)
    text = ngram.export_arpa(m).replace("\\end\\", "")
    with pytest.raises(ngram.ArpaParseError, match="end"):
        ngram.import_arpa(text)


def test_handwritten_unigram_arpa():
    text = "\n".join([
        "\\data\\",
        "ngram 1=3",
        "",
        "\\1-grams:",
        "-0.3010299957\ta",
        "-0.6020599913\tb",
        "-0.6020599913\tc",
        "",
        "\\end\\",
    ])
    m = ngram.import_arpa(text)
    assert m.order == 1
    a = m.vocab.id("a")
    assert abs(m.probs[1][(a,)] - 0.5) < 1e-9
