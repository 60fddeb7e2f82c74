import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarelm import ngram, rescore, textcorpus as tc


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
    v = tc.build_vocab(["a", "a", "b"])
    assert v.id_to_word[:3] == ["<s>", "</s>", "<unk>"]
    assert v.counts["a"] == 2 and v.counts["b"] == 1
    assert set(v.id_to_word) == {"<s>", "</s>", "<unk>", "a", "b"}


def test_build_vocab_min_count():
    v = tc.build_vocab(["a", "a", "b"], min_count=2)
    assert "b" not in v
    assert "a" in v


def test_build_vocab_tie_break_lexicographic():
    v = tc.build_vocab(["y", "x", "x", "y", "x", "y"], max_size=4)
    assert "x" in v and "y" not in v


def test_build_vocab_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        tc.build_vocab([])


@pytest.mark.parametrize("limits,message", [
    ({"min_count": 0}, "min_count must be >= 1"),
    ({"min_count": -2}, "min_count must be >= 1"),
    ({"max_size": 3}, "max_size must be > 3"),
    ({"max_size": -5}, "max_size must be > 3"),
], ids=["min-count-0", "min-count-negative", "max-size-3", "max-size-negative"])
def test_build_vocab_rejects_limits_that_keep_no_word(limits, message):
    # max_size 3 or less leaves room for the specials only
    with pytest.raises(ValueError, match=message):
        tc.build_vocab(["a", "b"], **limits)
    assert tc.build_vocab(["a", "b", "b"], max_size=4).id_to_word[3:] == ["b"]


def test_encode_empty_sentence():
    v = tc.build_vocab(["a"])
    assert tc.encode([], v) == [tc.BOS_ID, tc.EOS_ID]


def test_encode_known_and_unk():
    v = tc.build_vocab(["a"])
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


@settings(max_examples=200, deadline=None)
@given(word_lists=st.lists(st.lists(st.sampled_from(
    ["a", "b", "oov", "<s>", "</s>", "<unk>", ""]), max_size=6), max_size=8))
def test_encode_many_equals_packed_encode(word_lists):
    # OOV words, empty sentences and the special tokens used as words
    v = tc.build_vocab(["a", "b"])
    got = tc.encode_many([w for words in word_lists for w in words],
                         [len(words) for words in word_lists], v)
    want = tc.pack([tc.encode(words, v) for words in word_lists])
    assert got[0].dtype == got[1].dtype == np.int64
    assert [a.tolist() for a in got] == [a.tolist() for a in want]


def test_encode_decode_roundtrip():
    rng = random.Random(7)
    corpus = [[rng.choice("abcde") for _ in range(rng.randint(1, 8))]
              for _ in range(20)]
    v = tc.build_vocab(w for sent in corpus for w in sent)
    for sent in corpus:
        assert tc.encode(sent, v) == [tc.BOS_ID, *(v.word_to_id[w] for w in sent),
                                      tc.EOS_ID]


def test_vocab_ids_bijection():
    v = tc.build_vocab(["a", "b", "c", "a"])
    assert sorted(v.word_to_id.values()) == list(range(len(v)))
    for w, i in v.word_to_id.items():
        assert v.word(i) == w


def test_word_counts():
    # build_vocab counts the flat word column of a corpus
    assert tc.build_vocab(["a", "a", "b"]).counts == {
        "<s>": 0, "</s>": 0, "<unk>": 0, "a": 2, "b": 1}
    with pytest.raises(ValueError, match="empty corpus"):
        tc.build_vocab(iter([]))
    assert tc.build_vocab(["boon_lay", "boon_lay"]).counts["boon_lay"] == 2


def loop_vocabulary(words, counts=None):
    """(id_to_word, word_to_id, counts) as the per-word loop Vocabulary
    used to build them."""
    counts = counts or {}
    id_to_word = list(tc.SPECIALS)
    word_to_id = {w: i for i, w in enumerate(tc.SPECIALS)}
    for w in words:
        if w in word_to_id:
            continue
        word_to_id[w] = len(id_to_word)
        id_to_word.append(w)
    return id_to_word, word_to_id, {w: int(counts.get(w, 0)) for w in id_to_word}


VOCAB_WORDS = st.sampled_from(["a", "b", "ab", "", " "] + list(tc.SPECIALS))


@settings(max_examples=200, deadline=None)
@given(words=st.lists(VOCAB_WORDS, max_size=12),
       counts=st.none() | st.dictionaries(VOCAB_WORDS, st.integers(0, 9) | st.booleans()))
def test_vocabulary_equals_the_per_word_loop(words, counts):
    # repeats and specials keep their first id; words are read once
    v = tc.Vocabulary(iter(words), counts)
    id_to_word, word_to_id, want_counts = loop_vocabulary(words, counts)
    assert v.id_to_word == id_to_word
    assert list(v.word_to_id.items()) == list(word_to_id.items())
    assert list(v.counts.items()) == list(want_counts.items())
    assert set(map(type, v.counts.values())) <= {int}


def test_vocab_counts_match_word_counts():
    words = ["a", "b", "a", "c", "a"]
    counts = Counter(words)
    v = tc.build_vocab(words)
    for w in counts:
        assert v.counts[w] == counts[w]


def test_read_word_counts_rejects_a_negative_count(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text("a\t0\nb\t-4\n")
    with pytest.raises(ValueError) as e:
        tc.read_word_counts(path)
    assert str(e.value) == "%s:2: count -4 is negative" % path


def test_vocab_file_roundtrip(tmp_path):
    v = tc.build_vocab(["a", "b", "a"])
    path = tmp_path / "vocab.txt"
    v.to_file(path)
    v2 = tc.Vocabulary.from_file(path)
    assert v2.id_to_word == v.id_to_word
    assert v2.counts == v.counts


def test_read_blocks_reads_valid_input_once_per_block(tmp_path, monkeypatch):
    # each reader takes one call per block of the patched size on valid
    # input: a patch that stopped taking effect, or a re-read of a valid
    # block, changes the calls
    monkeypatch.setattr(tc, "BLOCK_LINES", 64)
    path = tmp_path / "n.tsv"
    path.write_text("".join("u%d\t%d\t-1.5\ta b\n" % (u, r)
                            for u in range(250) for r in range(1, 5)))
    calls = []
    read = rescore._Reader.read
    monkeypatch.setattr(rescore._Reader, "read", lambda self, block, at:
                        calls.append(at) or read(self, block, at))
    assert len(rescore.read_nbest(path)) == 250
    assert calls == list(range(0, 1000, 64))  # 16 calls

    rng = random.Random(0)
    words = ["w%d" % i for i in range(150)]
    sents = [[rng.choice(words) for _ in range(5)] for _ in range(100)]
    vocab = tc.build_vocab(words)
    text = ngram.export_arpa(ngram.train_kn(
        *tc.encode_many([w for s in sents for w in s], [5] * 100, vocab), 2, vocab))
    lines = text.split("\n")
    marks = [i for i, line in enumerate(lines) if line.startswith("\\")][1:]
    want = [(k, at) for k, (i, j) in enumerate(zip(marks, marks[1:]), 1)
            for at in range(i + 1, j, 64)]
    assert len(want) > 5  # both sections span several blocks
    calls = []
    entries = ngram._read_entries
    monkeypatch.setattr(ngram, "_read_entries", lambda block, at, k, *rest:
                        calls.append((k, at)) or entries(block, at, k, *rest))
    m = ngram.import_arpa(text)
    assert [c for c in calls if c[0] is not None] == want
    assert len(m.probs[1]) == len(vocab)


@pytest.mark.parametrize("bad,reason", [(b"\xff", "invalid start byte"),
                                        (b"\xc3(", "invalid continuation byte"),
                                        (b"\xed\xa0\x80", "invalid continuation byte")],
                         ids=["start", "continuation", "surrogate"])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_open_text_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, bad, reason,
                                                               newline):
    # the byte lies past the first 8 KiB the decoder takes at once, and a
    # line counts as text mode splits it, \r and \r\n included
    path = tmp_path / "x.txt"
    good = "".join("línea %d%s" % (i, newline) for i in range(3000)).encode()
    path.write_bytes(good + b"tail " + bad + newline.encode() + b"after\n")
    with pytest.raises(ValueError) as e:
        with tc.open_text(path) as f:
            list(f)
    assert str(e.value) == "%s:3001: 'utf-8' codec can't decode byte 0x%02x: %s" % (
        path, bad[0], reason)
    assert len(good) > 8192
