"""N-best hypothesis rescoring with a neural LM, optionally interpolated
with a Kneser-Ney n-gram model in the probability domain."""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import left_sums
from .neural import NeuralLM, position_logprobs, prefix_slices
from .textcorpus import encode_many, read_tab_pairs


@dataclass(slots=True)
class Hypothesis:
    rank: int
    am_score: float
    words: list[str]
    total_score: float = 0.0


@dataclass(slots=True)
class NBestList:
    utt_id: str
    hypotheses: list[Hypothesis] = field(default_factory=list)


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


def lm_scores(nlm: NeuralLM, kn, word_lists, interp_weight: float = 0.0) -> list[float]:
    """log10 probability of each hypothesis under (1-mu)*P_nlm + mu*P_kn.

    The mix is linear in the probability domain per position. State is
    reset for every hypothesis; OOV words map to unk. The hypotheses are
    encoded into one packed array and taken in neural.prefix_slices,
    so that hypotheses sharing a prefix, from any list, mostly fall in
    one slice and step it once. Both models answer every position of a
    slice as one flat array in its packed layout. The two models are
    joined by word: one take through a map from each neural-vocab id to
    the KN id of the same word, or to KN's unk, gives the KN ids of every
    position. The mix is elementwise; each hypothesis sums its positions
    left to right, so every score has the bits of
    sum(math.log10((1-mu) * 10.0**p + mu * q)) over its positions,
    whatever its slice. Scores come back in input order.
    """
    if interp_weight > 0.0 and kn is None:
        raise ValueError("interp_weight > 0 requires an n-gram model")
    mu = interp_weight
    if mu > 0.0:
        to_kn = np.fromiter(map(kn.vocab.id, nlm.vocab.id_to_word), dtype=np.int64,
                            count=len(nlm.vocab))
    scores = np.empty(len(word_lists))
    # slices, not one pass: they bound the memory of the KN join and the mix
    for idx, ids, lens in prefix_slices(*encode_many(word_lists, nlm.vocab)):
        lp = position_logprobs(nlm, ids, lens)
        if mu > 0.0:
            q = kn.prob_many(np.take(to_kn, ids), lens)
            # numpy's power and log10 can differ from math's in the last bit
            p = np.fromiter(map(math.pow, itertools.repeat(10.0), lp.tolist()),
                            dtype=np.float64, count=lp.size)
            mix = ((1.0 - mu) * p + mu * q).tolist()
            lp = np.fromiter(map(math.log10, mix), dtype=np.float64, count=len(mix))
        scores[idx] = left_sums(lp, lens)
    return scores.tolist()


def rescore_lists(lists, nlm: NeuralLM, kn, cfg: RescoreConfig) -> list[NBestList]:
    """Re-rank n-best lists by am + lambda*lm_log10prob + gamma*|words|.

    Ties are broken by original rank (lower wins); each returned list has
    its chosen top hypothesis at element 0. An empty list fails before any
    scoring. All hypotheses go through one lm_scores call, which scores
    them in prefix order, across list boundaries, and returns their
    scores in file order. The returned hypotheses share their word lists
    with the input's.
    """
    for nb in lists:
        if not nb.hypotheses:
            raise ValueError("empty n-best list for %s" % nb.utt_id)
    lms = iter(lm_scores(nlm, kn, [h.words for nb in lists for h in nb.hypotheses],
                         cfg.interp_weight))
    out = []
    for nb in lists:
        scored = []
        for hyp in nb.hypotheses:
            total = hyp.am_score + cfg.lm_weight * next(lms) \
                + cfg.word_penalty * len(hyp.words)
            if not math.isfinite(total):
                raise ValueError("non-finite total score for %s rank %d"
                                 % (nb.utt_id, hyp.rank))
            scored.append(Hypothesis(hyp.rank, hyp.am_score, hyp.words, total))
        scored.sort(key=lambda h: (-h.total_score, h.rank))
        out.append(NBestList(nb.utt_id, scored))
    return out


class NBestFormatError(ValueError):
    pass


def read_nbest(path) -> list[NBestList]:
    """Parse `utt_id<TAB>rank<TAB>am_score<TAB>words...` lines into lists.

    Utterances must be contiguous with ranks ascending from 1. Each
    hypothesis gets its own word list, but each distinct word of the file
    is one str object, shared by every list that holds it.
    """
    lists = []
    seen = set()
    current = None
    same = {}.setdefault
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
                current = NBestList(utt)
                lists.append(current)
            expected = len(current.hypotheses) + 1
            if rank != expected:
                raise NBestFormatError(
                    "%s:%d: rank %d, expected %d" % (path, lineno, rank, expected))
            toks = text.split()
            current.hypotheses.append(Hypothesis(rank, am, list(map(same, toks, toks))))
    return lists


def _fmt(x: float) -> str:
    return "%.10g" % x


def write_nbest(lists, path) -> None:
    """Write lists back in the 4-field input format."""
    with open(path, "w", encoding="utf-8") as f:
        for nb in lists:
            for h in nb.hypotheses:
                f.write("%s\t%d\t%s\t%s\n"
                        % (nb.utt_id, h.rank, _fmt(h.am_score), " ".join(h.words)))


def write_rescored(lists, path) -> None:
    """Write rescored lists with the extra total_score column."""
    with open(path, "w", encoding="utf-8") as f:
        for nb in lists:
            for pos, h in enumerate(nb.hypotheses, 1):
                f.write("%s\t%d\t%s\t%s\t%s\n"
                        % (nb.utt_id, pos, _fmt(h.am_score), _fmt(h.total_score),
                           " ".join(h.words)))


def write_onebest(lists, path) -> None:
    """Write the chosen transcript per utterance: `utt_id<TAB>words`."""
    with open(path, "w", encoding="utf-8") as f:
        for nb in lists:
            f.write("%s\t%s\n" % (nb.utt_id, " ".join(nb.hypotheses[0].words)))


def read_onebest(path) -> dict:
    """Read `utt_id<TAB>transcript` lines into utt -> token list; each
    utterance may appear once."""
    return {utt: text.split()
            for _, utt, text in read_tab_pairs(path, "utt<TAB>text", "utterance")}
