"""Corpus ingestion: tokenization, multiword-name joining, vocabulary building
and packing id sequences back to back."""

import itertools
from collections import Counter
from typing import Iterable, Iterator, Optional

import numpy as np

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
BOS_ID = 0
EOS_ID = 1
UNK_ID = 2

SPECIALS = (BOS, EOS, UNK)


def tokenize(line: str) -> list[str]:
    """Lowercase and whitespace-split a line into tokens."""
    return line.lower().split()


class PhraseList:
    """Multiword names to be joined into single underscore-linked tokens.

    Phrases are stored as token tuples of length >= 2, deduplicated.
    """

    def __init__(self, phrases: Iterable[Iterable[str]] = ()):
        seen = set()
        self.phrases: list[tuple[str, ...]] = []
        for p in phrases:
            t = tuple(p)
            if len(t) < 2:
                raise ValueError("phrase must have at least 2 tokens: %r" % (t,))
            if t not in seen:
                seen.add(t)
                self.phrases.append(t)
        # first token -> phrases sorted longest-first, for greedy matching
        self._by_head: dict[str, list[tuple[str, ...]]] = {}
        for t in self.phrases:
            self._by_head.setdefault(t[0], []).append(t)
        for head in self._by_head:
            self._by_head[head].sort(key=len, reverse=True)

    @classmethod
    def from_file(cls, path) -> "PhraseList":
        phrases = []
        with open(path, encoding="utf-8") as f:
            for line in f:
                toks = tokenize(line)
                if toks:
                    phrases.append(toks)
        return cls(phrases)


def join_phrases(tokens: list[str], phrases: PhraseList) -> list[str]:
    """Greedy left-to-right longest-match replacement of phrases by joined tokens.

    Matches do not overlap; a single pass over the sentence.
    """
    out = []
    i = 0
    n = len(tokens)
    while i < n:
        cands = phrases._by_head.get(tokens[i])
        matched = None
        if cands:
            for cand in cands:  # longest first
                if tuple(tokens[i:i + len(cand)]) == cand:
                    matched = cand
                    break
        if matched is not None:
            out.append("_".join(matched))
            i += len(matched)
        else:
            out.append(tokens[i])
            i += 1
    return out


class Vocabulary:
    """Bidirectional word<->id map with counts; specials pinned to ids 0, 1, 2."""

    def __init__(self, words: Iterable[str], counts: Optional[dict] = None):
        counts = counts or {}
        self.id_to_word: list[str] = list(SPECIALS)
        self.word_to_id: dict[str, int] = {w: i for i, w in enumerate(SPECIALS)}
        for w in words:
            if w in self.word_to_id:
                continue
            self.word_to_id[w] = len(self.id_to_word)
            self.id_to_word.append(w)
        self.counts: dict[str, int] = {w: int(counts.get(w, 0)) for w in self.id_to_word}

    def __len__(self):
        return len(self.id_to_word)

    def __contains__(self, word: str) -> bool:
        return word in self.word_to_id

    def id(self, word: str) -> int:
        return self.word_to_id.get(word, UNK_ID)

    def word(self, idx: int) -> str:
        return self.id_to_word[idx]

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for w in self.id_to_word:
                f.write("%s\t%d\n" % (w, self.counts.get(w, 0)))

    @classmethod
    def from_file(cls, path) -> "Vocabulary":
        pairs = read_word_counts(path)
        words = [w for w, _ in pairs]
        if words[:3] != list(SPECIALS):
            raise ValueError("vocabulary file must start with %s" % (SPECIALS,))
        return cls(words[3:], dict(pairs))


def read_tab_pairs(path, form: str) -> Iterator[tuple[int, str, str]]:
    """Yield (line number, key, value) for each non-blank `key<TAB>value`
    line; any other line fails as `path:line: expected '<form>'`."""
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError("%s:%d: expected '%s'" % (path, lineno, form))
            yield lineno, parts[0], parts[1]


def read_word_counts(path) -> list[tuple[str, int]]:
    """The (word, count) pairs of a `word<TAB>count` file, in file order."""
    pairs = []
    for lineno, word, count in read_tab_pairs(path, "word<TAB>count"):
        try:
            pairs.append((word, int(count)))
        except ValueError:
            raise ValueError("%s:%d: count %r is not an integer"
                             % (path, lineno, count))
    return pairs


def word_counts(corpus: Iterable[list[str]]) -> Counter:
    """Exact token counts over a sentence stream."""
    counts = Counter()
    for sent in corpus:
        counts.update(sent)
    return counts


def build_vocab(corpus: Iterable[list[str]], min_count: int = 1,
                max_size: Optional[int] = None) -> Vocabulary:
    """Build a vocabulary from a (phrase-joined) sentence stream.

    Words with count >= min_count are kept, truncated to max_size by
    descending count with lexicographic tie-break. min_count defaults to 1
    so rare words stay in the vocabulary.
    """
    counts = word_counts(corpus)
    if not counts:
        raise ValueError("empty corpus")
    kept = [w for w, c in counts.items() if c >= min_count]
    kept.sort(key=lambda w: (-counts[w], w))
    if max_size is not None:
        kept = kept[:max(0, max_size - len(SPECIALS))]
    return Vocabulary(kept, counts)


def encode(tokens: list[str], vocab: Vocabulary) -> list[int]:
    """Map a sentence to ids framed with bos/eos; OOV tokens map to unk."""
    return [BOS_ID, *map(vocab.word_to_id.get, tokens, itertools.repeat(UNK_ID)), EOS_ID]


def pack(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Id sequences laid back to back: (ids, lens), both int64."""
    seqs = list(seqs)
    lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    ids = np.fromiter(itertools.chain.from_iterable(seqs), dtype=np.int64,
                      count=int(lens.sum()))
    return ids, lens


def read_corpus(path) -> Iterator[list[str]]:
    """Stream tokenized sentences from a UTF-8 one-sentence-per-line file."""
    with open(path, encoding="utf-8") as f:
        for line in f:
            yield tokenize(line)
