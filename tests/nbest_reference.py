"""Oracle for `rescore.read_nbest` and the ranking of `rescore.rescore_lists`:
one line and one list at a time.

`ref_read_nbest` is the per-line reader the package used before it read
an n-best file into columns a block of lines at a time, and `ref_rank`
the per-list sort it ranked with. The reader gives NBestList and
Hypothesis records, as iterating an NBest does; `ref_rank` gives lists of
Scored records, as `ranked` does for a ranking of the columns.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from rarelm import neural, rescore
from rarelm.rescore import Hypothesis, NBest, NBestFormatError, NBestList
from rarelm.textcorpus import encode_many


class Scored(NamedTuple):
    """A ranked hypothesis with its total score."""
    rank: int
    am_score: float
    words: list
    total_score: float


def ref_read_nbest(path) -> list[NBestList]:
    lists = []
    seen = set()
    current = None
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise NBestFormatError(
                    "%s:%d: expected 4 tab-separated fields, got %d"
                    % (path, lineno, len(parts)))
            utt, rank_s, am_s, text = parts
            try:
                rank = int(rank_s)
                am = float(am_s)
            except ValueError:
                raise NBestFormatError("%s:%d: bad rank or score" % (path, lineno))
            if not math.isfinite(am):
                raise NBestFormatError("%s:%d: non-finite am_score" % (path, lineno))
            if current is None or current.utt_id != utt:
                if utt in seen:
                    raise NBestFormatError(
                        "%s:%d: utterance %s is not contiguous" % (path, lineno, utt))
                seen.add(utt)
                current = NBestList(utt, [])
                lists.append(current)
            expected = len(current.hypotheses) + 1
            if rank != expected:
                raise NBestFormatError(
                    "%s:%d: rank %d, expected %d" % (path, lineno, rank, expected))
            current.hypotheses.append(Hypothesis(rank, am, text.split()))
    return lists


def ref_rank(lists, lms, cfg) -> list[NBestList]:
    """Each list sorted by (-total, rank), totals from the lm scores `lms`
    of the hypotheses in file order."""
    lms = iter(lms)
    out = []
    for nb in lists:
        scored = []
        for h in nb.hypotheses:
            total = h.am_score + cfg.lm_weight * next(lms) + cfg.word_penalty * len(h.words)
            scored.append(Scored(h.rank, h.am_score, h.words, total))
        scored.sort(key=lambda h: (-h.total_score, h.rank))
        out.append(NBestList(nb.utt_id, scored))
    return out


def ranked(nbest: NBest, order, totals) -> list[NBestList]:
    """The ranking (order, totals) of rescore_lists as records, each list
    best first, each hypothesis with its total."""
    hyps = map(Scored, nbest.ranks[order].tolist(), nbest.am[order].tolist(),
               nbest.word_lists(order), totals[order].tolist())
    return [NBestList(utt, list(itertools.islice(hyps, n)))
            for utt, n in zip(nbest.utt_ids, np.diff(nbest.offsets).tolist())]


def rescored(lists, nlm, kn, cfg) -> list[NBestList]:
    """rescore_lists over the columns of NBestList records, as records."""
    nbest = NBest.from_lists(lists)
    return ranked(nbest, *rescore.rescore_lists(nbest, nlm, kn, cfg))


def lm_scores_of(nlm, kn, word_lists, mu=0.0) -> list[float]:
    """neural.lm_scores of hypotheses given as word lists, encoded in
    nlm's vocabulary as rescore_lists encodes them."""
    words = list(itertools.chain.from_iterable(word_lists))
    ids, lens = encode_many(words, list(map(len, word_lists)), nlm.vocab)
    return neural.lm_scores(nlm, kn, ids, lens, mu).tolist()
