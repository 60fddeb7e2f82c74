"""N-best hypothesis rescoring with a neural LM, optionally interpolated
with a Kneser-Ney n-gram model in the probability domain."""

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .neural import NeuralLM, lm_scores
from .textcorpus import encode_many, open_text, read_blocks, read_tab_pairs, write_file


class Hypothesis(NamedTuple):
    """A view of one hypothesis of an NBest."""
    rank: int
    am_score: float
    words: list


class NBestList(NamedTuple):
    """A view of one list of an NBest."""
    utt_id: str
    hypotheses: list


class NBest:
    """N-best lists held as columns, with no object per hypothesis.

    List i holds hypotheses offsets[i]:offsets[i + 1], in file order.
    Hypothesis j has rank ranks[j], acoustic score am[j] and lens[j]
    words; the words of every hypothesis lie back to back in the one
    flat list `words`. Iterating yields an NBestList view of each list,
    built on demand.

    That is about 105 B per 8-word hypothesis (1.7 MB for 16,000), where a
    record and a word list per hypothesis took 258 B (4.1 MB). Reading
    adds 3 objects for the cyclic garbage collector to walk, where records
    added about 36,000, so collections do not slow down as lists grow.
    """
    __slots__ = ("utt_ids", "offsets", "ranks", "am", "words", "lens")

    def __init__(self, utt_ids, offsets, ranks, am, words, lens):
        self.utt_ids = utt_ids   # list[str], one per list
        self.offsets = offsets   # int64, one more than the lists
        self.ranks = ranks       # int64, one per hypothesis
        self.am = am             # float64, one per hypothesis
        self.words = words       # list[str], every hypothesis's words
        self.lens = lens         # int64, words per hypothesis

    @classmethod
    def from_lists(cls, lists) -> "NBest":
        """The columns of (utt_id, hypotheses) pairs, each hypothesis a
        (rank, am_score, words, ...) sequence, as NBestList and Hypothesis
        views are."""
        utt_ids, sizes, ranks, am, words, lens = [], [0], [], [], [], []
        for utt, hyps in lists:
            utt_ids.append(utt)
            sizes.append(len(hyps))
            for h in hyps:
                ranks.append(h[0])
                am.append(h[1])
                words += h[2]
                lens.append(len(h[2]))
        return cls(utt_ids, np.cumsum(sizes, dtype=np.int64),
                   np.array(ranks, dtype=np.int64), np.array(am, dtype=np.float64),
                   words, np.array(lens, dtype=np.int64))

    def __len__(self):
        return len(self.utt_ids)

    def __iter__(self) -> Iterator[NBestList]:
        hyps = map(Hypothesis, self.ranks.tolist(), self.am.tolist(), self.word_lists())
        for utt, n in zip(self.utt_ids, np.diff(self.offsets).tolist()):
            yield NBestList(utt, list(itertools.islice(hyps, n)))

    def word_lists(self, idx=slice(None)) -> Iterator[list]:
        """The word list of each hypothesis of `idx`, all in file order by
        default: a slice of `words` each."""
        ends = np.cumsum(self.lens)
        starts = ends - self.lens
        return map(self.words.__getitem__,
                   map(slice, starts[idx].tolist(), ends[idx].tolist()))

    def best(self, order) -> np.ndarray:
        """The hypothesis each list puts first in `order`, as
        rescore_lists ranks."""
        return order[self.offsets[:-1]]


@dataclass(frozen=True)
class RescoreConfig:
    lm_weight: float = 1.0          # lambda
    interp_weight: float = 0.0      # mu, probability mass on the KN model
    word_penalty: float = 0.0       # gamma, per-word insertion bonus

    def __post_init__(self):
        if not (0.0 <= self.interp_weight <= 1.0):
            raise ValueError("interp_weight must be in [0, 1]")
        if not (math.isfinite(self.lm_weight) and self.lm_weight >= 0):
            raise ValueError("lm_weight must be finite and >= 0")
        if not math.isfinite(self.word_penalty):
            raise ValueError("word_penalty must be finite")


def rescore_lists(nbest: NBest, nlm: NeuralLM, kn,
                  cfg: RescoreConfig) -> tuple[np.ndarray, np.ndarray]:
    """Rank n-best lists by am + lambda*lm_log10prob + gamma*|words|.

    Returns (order, totals). totals holds each hypothesis's total score,
    in file order. order holds the hypotheses list by list, each list
    best first, ties broken by rank (lower wins): one stable lexsort over
    (list, -total, rank). An empty list fails before any scoring. All
    hypotheses are encoded in one pass and go through one
    neural.lm_scores call, which scores them in prefix order, across list
    boundaries; OOV words map to unk. Ranking copies no words.
    """
    sizes = np.diff(nbest.offsets)
    if not sizes.all():
        raise ValueError("empty n-best list for %s" % nbest.utt_ids[int(sizes.argmin())])
    lm = lm_scores(nlm, kn, *encode_many(nbest.words, nbest.lens, nlm.vocab),
                   cfg.interp_weight)
    # the operations of am + lambda * lm + gamma * n on Python floats, in order
    totals = nbest.am + cfg.lm_weight * lm + cfg.word_penalty * nbest.lens
    finite = np.isfinite(totals)
    if not finite.all():
        j = int(finite.argmin())
        utt = nbest.utt_ids[int(np.searchsorted(nbest.offsets, j, side="right")) - 1]
        raise ValueError("non-finite total score for %s rank %d" % (utt, nbest.ranks[j]))
    lists = np.repeat(np.arange(sizes.size), sizes)
    return np.lexsort((nbest.ranks, -totals, lists)), totals


class NBestFormatError(ValueError):
    pass


class _Reader:
    """The columns read_nbest fills, and the state it carries from one
    block of lines to the next."""

    def __init__(self, path):
        self.path = path
        self.utt_ids = []
        self.seen = set()
        self.sizes = []         # hypotheses per list
        self.am = []            # one float64 array per block
        self.lens = []          # one int64 array per block
        self.words = []
        self.same = {}.setdefault

    def read(self, block: list[str], first: int) -> int:
        """Parse `block`, the lines of the file from index `first`, one
        step over the whole block at a time; returns the number of
        hypotheses. A failed step changes no column and names the block's
        first line, as read_blocks asks."""
        lines = list(filter(None, map(str.rstrip, block, itertools.repeat("\n"))))
        if not lines:
            return 0

        def fail(msg, *args):
            raise NBestFormatError("%s:%d: %s" % (self.path, first + 1, msg % args))

        fields = list(map(str.split, lines, itertools.repeat("\t")))
        nf = list(map(len, fields))
        if nf.count(4) != len(nf):
            fail("expected 4 tab-separated fields, got %d", nf[0])
        utts, rank_s, am_s, texts = zip(*fields)
        try:
            ranks = list(map(int, rank_s))
            am = np.fromiter(map(float, am_s), dtype=np.float64, count=len(lines))
        except ValueError:
            fail("bad rank or score")
        if not np.isfinite(am).all():
            fail("non-finite am_score")
        # the lists of the block start at `starts`; the first may go on
        # with the file's last list
        starts = [0, *itertools.compress(itertools.count(1), map(operator.ne, utts[1:],
                                                                   utts[:-1]))]
        cont = bool(self.utt_ids) and utts[0] == self.utt_ids[-1]
        new = {}  # the utterances the block opens, in order
        for t in starts[cont:]:
            if utts[t] in self.seen or utts[t] in new:
                fail("utterance %s is not contiguous", utts[t])
            new[utts[t]] = t
        runs = np.diff(starts + [len(lines)])
        expected = np.arange(1, len(lines) + 1) - np.repeat(starts, runs)
        if cont:
            expected[:runs[0]] += self.sizes[-1]
        expected = expected.tolist()
        if ranks != expected:
            fail("rank %d, expected %d", ranks[0], expected[0])
        toks = list(map(str.split, texts))
        flat = list(itertools.chain.from_iterable(toks))
        # the columns change last, once every step has passed
        self.words += map(self.same, flat, flat)
        self.lens.append(np.fromiter(map(len, toks), dtype=np.int64, count=len(toks)))
        self.am.append(am)
        if cont:
            self.sizes[-1] += int(runs[0])
        self.sizes += runs[cont:].tolist()
        self.utt_ids += new
        self.seen.update(new)
        return len(lines)

    def columns(self) -> NBest:
        sizes = np.array(self.sizes, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        return NBest(self.utt_ids, offsets,
                     np.arange(1, offsets[-1] + 1) - np.repeat(offsets[:-1], sizes),
                     np.concatenate([np.empty(0), *self.am]), self.words,
                     np.concatenate([np.empty(0, dtype=np.int64), *self.lens]))


def read_nbest(path) -> NBest:
    """Parse `utt_id<TAB>rank<TAB>am_score<TAB>words...` lines into columns.

    Utterances must be contiguous with ranks ascending from 1. The lines
    are read by textcorpus.read_blocks, each block column by column. Each
    distinct word of the file is one str object, shared by every
    hypothesis that holds it.
    """
    reader = _Reader(path)
    with open_text(path) as f:
        read_blocks(reader.read, f)
    return reader.columns()


def write_nbest(nbest: NBest, path) -> None:
    """Write lists back in the 4-field input format."""
    lines = map("%s\t%d\t%.10g\t%s\n".__mod__,
                zip(_utt_column(nbest), nbest.ranks.tolist(), nbest.am.tolist(),
                    map(" ".join, nbest.word_lists())))
    write_file(path, map(str.encode, lines))


def write_rescored(nbest: NBest, order, totals, path) -> None:
    """Write the lists in the ranking (order, totals) of rescore_lists,
    each hypothesis numbered by its place in its list, with the extra
    total_score column, line by line straight from the columns."""
    sizes = np.diff(nbest.offsets)
    places = np.arange(1, order.size + 1) - np.repeat(nbest.offsets[:-1], sizes)
    lines = map("%s\t%d\t%.10g\t%.10g\t%s\n".__mod__,
                zip(_utt_column(nbest), places.tolist(), nbest.am[order].tolist(),
                    totals[order].tolist(), map(" ".join, nbest.word_lists(order))))
    write_file(path, map(str.encode, lines))


def write_onebest(nbest: NBest, order, path) -> None:
    """Write the transcript each list puts first in `order`: `utt_id<TAB>words`."""
    lines = map("%s\t%s\n".__mod__,
                zip(nbest.utt_ids, map(" ".join, nbest.word_lists(nbest.best(order)))))
    write_file(path, map(str.encode, lines))


def _utt_column(nbest: NBest) -> Iterator[str]:
    """The utterance id of each hypothesis, in file order."""
    return itertools.chain.from_iterable(
        map(itertools.repeat, nbest.utt_ids, np.diff(nbest.offsets).tolist()))


def read_onebest(path) -> dict:
    """Read `utt_id<TAB>transcript` lines into utt -> token list; each
    utterance may appear once."""
    return {utt: text.split()
            for _, utt, text in read_tab_pairs(path, "utt<TAB>text", "utterance")}
