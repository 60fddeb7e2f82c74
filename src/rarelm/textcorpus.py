"""Corpus ingestion: tokenization, multiword-name joining, vocabulary building,
encoding sentences back to back, open_text, the one opener of every text
input, read_blocks, the block reading of the n-best and ARPA readers, and
write_file, the one writer of every output, text or checkpoint."""

import errno
import itertools
import os
import re
from collections import Counter
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional

import numpy as np

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
BOS_ID = 0
EOS_ID = 1
UNK_ID = 2

SPECIALS = (BOS, EOS, UNK)
# the most lines read_blocks hands a reader (import_arpa, read_nbest) in
# one call, which bounds the reader's intermediates
BLOCK_LINES = 256


def tokenize(line: str) -> list[str]:
    """Lowercase and whitespace-split a line into tokens."""
    return line.lower().split()


class PhraseList:
    """Multiword names to be joined into single underscore-linked tokens.

    Phrases are stored as token tuples of length >= 2, deduplicated.
    """

    def __init__(self, phrases: Iterable[Iterable[str]] = ()):
        self.phrases: list[tuple[str, ...]] = list(dict.fromkeys(map(tuple, phrases)))
        short = [t for t in self.phrases if len(t) < 2]
        if short:
            raise ValueError("phrase must have at least 2 tokens: %r" % (short[0],))
        # first token -> its phrases longest-first, for greedy matching
        self._by_head: dict[str, list[tuple[str, ...]]] = {}
        for t in sorted(self.phrases, key=len, reverse=True):
            self._by_head.setdefault(t[0], []).append(t)

    @classmethod
    def from_file(cls, path) -> "PhraseList":
        with open_text(path) as f:
            return cls(filter(None, map(tokenize, f)))


def join_phrases(tokens: list[str], phrases: PhraseList) -> list[str]:
    """Greedy left-to-right longest-match replacement of phrases by joined tokens.

    Matches do not overlap; a single pass over the sentence.
    """
    out, i = [], 0
    while i < len(tokens):
        match = (tokens[i],)
        for cand in phrases._by_head.get(tokens[i], ()):  # longest first
            if tuple(tokens[i:i + len(cand)]) == cand:
                match = cand
                break
        out.append("_".join(match))
        i += len(match)
    return out


class Vocabulary:
    """Bidirectional word<->id map with counts; specials pinned to ids 0, 1, 2."""

    def __init__(self, words: Iterable[str], counts: Optional[dict] = None):
        counts = counts or {}
        self.id_to_word: list[str] = [*SPECIALS, *words]
        self.word_to_id: dict[str, int] = dict(zip(self.id_to_word, itertools.count()))
        if len(self.word_to_id) < len(self.id_to_word):
            # a repeated word keeps its first id
            self.id_to_word = list(dict.fromkeys(self.id_to_word))
            self.word_to_id = dict(zip(self.id_to_word, itertools.count()))
        self.counts: dict[str, int] = dict(zip(self.id_to_word, map(
            int, map(counts.get, self.id_to_word, itertools.repeat(0)))))

    def __len__(self):
        return len(self.id_to_word)

    def __contains__(self, word: str) -> bool:
        return word in self.word_to_id

    def id(self, word: str) -> int:
        return self.word_to_id.get(word, UNK_ID)

    def word(self, idx: int) -> str:
        return self.id_to_word[idx]

    def to_file(self, path) -> None:
        write_file(path, (("%s\t%d\n" % (w, self.counts.get(w, 0))).encode()
                          for w in self.id_to_word))

    @classmethod
    def from_file(cls, path) -> "Vocabulary":
        counts = read_word_counts(path)
        words = list(counts)
        if words[:3] != list(SPECIALS):
            raise ValueError("vocabulary file must start with %s" % (SPECIALS,))
        return cls(words[3:], counts)


def read_tab_pairs(path, form: str, key: str) -> Iterator[tuple[int, str, str]]:
    """Yield (line number, key, value) for each non-blank `key<TAB>value`
    line; any other line fails as `path:line: expected '<form>'`, and a key
    seen on an earlier line as `path:line: repeated <key> '<k>'`."""
    seen = set()
    with open_text(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError("%s:%d: expected '%s'" % (path, lineno, form))
            if parts[0] in seen:
                raise ValueError("%s:%d: repeated %s %r" % (path, lineno, key, parts[0]))
            seen.add(parts[0])
            yield lineno, parts[0], parts[1]


def read_word_counts(path) -> dict[str, int]:
    """word -> count from a `word<TAB>count` file, in file order; each word
    may appear once, with a non-negative count."""
    counts = {}
    for lineno, word, count in read_tab_pairs(path, "word<TAB>count", "word"):
        try:
            counts[word] = int(count)
        except ValueError:
            raise ValueError("%s:%d: count %r is not an integer"
                             % (path, lineno, count))
        if counts[word] < 0:
            raise ValueError("%s:%d: count %d is negative" % (path, lineno, counts[word]))
    return counts


def check_vocab_limits(min_count: int, max_size: Optional[int]) -> None:
    """Raise the ValueError build_vocab raises for these limits."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if max_size is not None and max_size <= len(SPECIALS):
        raise ValueError("max_size must be > %d, the number of special tokens" % len(SPECIALS))


def build_vocab(words: Iterable[str], min_count: int = 1,
                max_size: Optional[int] = None) -> Vocabulary:
    """Build a vocabulary from the (phrase-joined) words of a corpus.

    Words with count >= min_count are kept, truncated to max_size by
    descending count with lexicographic tie-break. min_count defaults to 1
    so rare words stay in the vocabulary.
    """
    check_vocab_limits(min_count, max_size)
    counts = Counter(words)
    if not counts:
        raise ValueError("empty corpus")
    kept = [w for w, c in counts.items() if c >= min_count]
    kept.sort(key=lambda w: (-counts[w], w))
    if max_size is not None:
        kept = kept[:max_size - len(SPECIALS)]
    return Vocabulary(kept, counts)


def encode(tokens: list[str], vocab: Vocabulary) -> list[int]:
    """Map a sentence to ids framed with bos/eos; OOV tokens map to unk."""
    return [BOS_ID, *map(vocab.word_to_id.get, tokens, itertools.repeat(UNK_ID)), EOS_ID]


def encode_many(words, lens, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """Sentences laid back to back (`words` holds them all, lens[i] words
    for sentence i) as int64 (ids, lens): encode(s, vocab) of each, back
    to back, and their lengths. One pass over the words, with no id list
    per sentence; the words' ids are read as the narrowest integer type
    that holds every id."""
    lens = np.asarray(lens, dtype=np.int64) + 2
    last = np.cumsum(lens) - 1
    ids = np.empty(int(lens.sum()), dtype=np.int64)
    word = np.ones(ids.size, dtype=bool)
    word[last - lens + 1] = word[last] = False
    ids[last - lens + 1] = BOS_ID
    ids[last] = EOS_ID
    ids[word] = np.fromiter(map(vocab.word_to_id.get, words, itertools.repeat(UNK_ID)),
                            dtype=np.min_scalar_type(len(vocab)),
                            count=ids.size - 2 * lens.size)
    return ids, lens


def read_corpus(path) -> Iterator[list[str]]:
    """Stream tokenized sentences from a UTF-8 one-sentence-per-line file."""
    with open_text(path) as f:
        for line in f:
            yield tokenize(line)


@contextmanager
def open_text(path):
    """path open for reading as UTF-8 text. A byte that is not UTF-8 fails
    when the block reads it, as `path:line: 'utf-8' codec can't decode byte
    0x..: <reason>` for the line that holds it, as the lines of the file
    open in text mode number it."""
    with open(path, encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError as e:
            # the escaped lines hold each byte that is not UTF-8 as a lone
            # surrogate, which UTF-8 text cannot hold
            with open(path, encoding="utf-8", errors="surrogateescape") as lines:
                lineno = next((n for n, line in enumerate(lines, 1)
                               if re.search("[\udc80-\udcff]", line)), 0)
            raise ValueError("%s:%d: 'utf-8' codec can't decode byte 0x%02x: %s"
                             % (path, lineno, e.object[e.start], e.reason)) from None


def read_blocks(read, lines, first=0) -> int:
    """Call read(block, at) on each run of up to BLOCK_LINES of `lines`,
    `block` holding the lines from index `at` (`first` for the first
    block), and return the sum of what read returns.

    When read raises ValueError on a block of more than one line, the
    block is read again one line at a time, so the error raised is the
    first faulty line's, as a reader taking one line at a time gives it;
    read need only name a block's first line. For that, read must leave
    its state as it was when it raises, with one allowance: it may give
    the block's new words their next ids in order of first appearance, as
    the ARPA reader does, since reading the lines one at a time gives
    them the same ids.
    """
    lines = iter(lines)
    total = 0
    for at in itertools.count(first, BLOCK_LINES):
        block = list(itertools.islice(lines, BLOCK_LINES))
        if not block:
            return total
        try:
            total += read(block, at)
            continue
        except ValueError:
            if len(block) == 1:
                raise
        for t, line in enumerate(block, at):
            total += read([line], t)


def write_file(path, chunks) -> None:
    """Write the byte chunks (text encoded as UTF-8) to a new file beside
    path's real path, which that file replaces only once whole, so a
    symlink keeps its target. A directory there fails first; on any
    failure the new file is removed and path keeps its bytes. A path that
    is neither a regular file nor missing, a device or FIFO such as
    /dev/null or /dev/stdout, cannot be replaced, and is written in place.
    An error opening, writing or replacing the file names path as given;
    one that chunks raises, as from an input it reads, is its own. Plain
    open() gives the file the mode the umask gives any new file."""
    real = os.path.realpath(path)
    if os.path.isdir(real):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    whole = not _in_place(path)
    tmp = "%s.%d.tmp" % (real, os.getpid()) if whole else path
    try:
        f = open(tmp, "wb")
    except OSError as e:
        raise OSError(e.errno, e.strerror, os.fspath(path)) from None
    try:
        with f:
            for chunk in chunks:
                _naming(path, f.write, chunk)
            _naming(path, f.flush)
        if whole:
            _naming(path, os.replace, tmp, real)
    except BaseException:
        if whole:
            os.unlink(tmp)
        raise


def _in_place(path) -> bool:
    """Whether write_file writes path in place: it exists, and is neither
    a regular file nor a directory."""
    return os.path.exists(path) and not (os.path.isfile(path) or os.path.isdir(path))


def _naming(path, fn, *args):
    """fn(*args), an OSError it raises naming path as given."""
    try:
        return fn(*args)
    except OSError as e:
        raise OSError(e.errno, e.strerror, os.fspath(path)) from None


class _Unwritten(Exception):
    """What stops write_file for check_writable."""


def check_writable(path) -> None:
    """Raise what write_file(path, ...) raises before its first chunk, by
    stopping it there, which leaves no file behind. A path written in
    place is not opened, as opening a FIFO waits for its reader and
    closing it ends the reader's input; it must be writable."""
    if _in_place(path):
        if not os.access(path, os.W_OK):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))
        return

    def chunks():
        raise _Unwritten
        yield

    try:
        write_file(path, chunks())
    except _Unwritten:
        pass
