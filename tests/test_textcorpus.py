import random

import numpy as np
import pytest

from rarelm import textcorpus as tc


def test_tokenize_basic():
    assert tc.tokenize("Boon Lay Place") == ["boon", "lay", "place"]


def test_tokenize_empty():
    assert tc.tokenize("") == []


def test_tokenize_whitespace_collapse():
    assert tc.tokenize("a  b\tc") == ["a", "b", "c"]


def test_join_phrases_simple():
    p = tc.PhraseList([["boon", "lay"]])
    assert tc.join_phrases(["boon", "lay", "place"], p) == ["boon_lay", "place"]


def test_join_phrases_longest_match_fallback():
    p = tc.PhraseList([["boon", "lay"], ["boon", "lay", "place"]])
    assert tc.join_phrases(["boon", "lay"], p) == ["boon_lay"]
    assert tc.join_phrases(["boon", "lay", "place"], p) == ["boon_lay_place"]


def test_join_phrases_empty_list_identity():
    p = tc.PhraseList()
    assert tc.join_phrases(["ang", "mo", "kio"], p) == ["ang", "mo", "kio"]


def test_join_phrases_idempotent():
    rng = random.Random(4)
    words = ["a", "b", "c", "d", "e"]
    p = tc.PhraseList([["a", "b"], ["c", "d", "e"], ["b", "c"]])
    for _ in range(50):
        sent = [rng.choice(words) for _ in range(rng.randint(0, 12))]
        once = tc.join_phrases(sent, p)
        assert tc.join_phrases(once, p) == once


def test_phrase_list_rejects_single_token():
    with pytest.raises(ValueError):
        tc.PhraseList([["only"]])


def test_build_vocab_counts():
    v = tc.build_vocab([["a", "a", "b"]])
    assert v.id_to_word[:3] == ["<s>", "</s>", "<unk>"]
    assert v.counts["a"] == 2 and v.counts["b"] == 1
    assert set(v.id_to_word) == {"<s>", "</s>", "<unk>", "a", "b"}


def test_build_vocab_min_count():
    v = tc.build_vocab([["a", "a", "b"]], min_count=2)
    assert "b" not in v
    assert "a" in v


def test_build_vocab_tie_break_lexicographic():
    v = tc.build_vocab([["y", "x"], ["x", "y"], ["x", "y"]], max_size=4)
    assert "x" in v and "y" not in v


def test_build_vocab_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        tc.build_vocab([])


def test_encode_empty_sentence():
    v = tc.build_vocab([["a"]])
    assert tc.encode([], v) == [tc.BOS_ID, tc.EOS_ID]


def test_encode_known_and_unk():
    v = tc.build_vocab([["a"]])
    assert tc.encode(["a"], v) == [0, v.id("a"), 1]
    assert tc.encode(["zzz"], v) == [0, 2, 1]


def test_pack_empty_and_short_sequences():
    ids, lens = tc.pack([])
    assert ids.dtype == lens.dtype == np.int64
    assert ids.size == 0 and lens.size == 0
    ids, lens = tc.pack([[], [5], [0, 7, 1], []])
    assert ids.dtype == lens.dtype == np.int64
    assert ids.tolist() == [5, 0, 7, 1]
    assert lens.tolist() == [0, 1, 3, 0]


def test_encode_decode_roundtrip():
    rng = random.Random(7)
    corpus = [[rng.choice("abcde") for _ in range(rng.randint(1, 8))]
              for _ in range(20)]
    v = tc.build_vocab(corpus)
    for sent in corpus:
        assert tc.encode(sent, v) == [tc.BOS_ID, *(v.word_to_id[w] for w in sent),
                                      tc.EOS_ID]


def test_vocab_ids_bijection():
    v = tc.build_vocab([["a", "b", "c", "a"]])
    assert sorted(v.word_to_id.values()) == list(range(len(v)))
    for w, i in v.word_to_id.items():
        assert v.word(i) == w


def test_word_counts():
    assert tc.word_counts([["a", "a", "b"]]) == {"a": 2, "b": 1}
    assert tc.word_counts([]) == {}
    assert tc.word_counts([["boon_lay", "boon_lay"]]) == {"boon_lay": 2}


def test_vocab_counts_match_word_counts():
    corpus = [["a", "b", "a"], ["c", "a"]]
    counts = tc.word_counts(corpus)
    v = tc.build_vocab(corpus)
    for w in counts:
        assert v.counts[w] == counts[w]


def test_vocab_file_roundtrip(tmp_path):
    v = tc.build_vocab([["a", "b", "a"]])
    path = tmp_path / "vocab.txt"
    v.to_file(path)
    v2 = tc.Vocabulary.from_file(path)
    assert v2.id_to_word == v.id_to_word
    assert v2.counts == v.counts
