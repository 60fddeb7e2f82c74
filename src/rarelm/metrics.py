"""WER via Levenshtein alignment, rare-word recognition accuracy, and the
left-to-right sums and perplexity of per-position log-probabilities."""

import itertools
from dataclasses import dataclass

import numpy as np

MATCH, SUB, INS, DEL = "match", "sub", "ins", "del"
GAP = "-"


@dataclass
class WerReport:
    substitutions: int = 0
    insertions: int = 0
    deletions: int = 0
    ref_word_count: int = 0

    @property
    def errors(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def wer(self) -> float:
        if self.ref_word_count == 0:
            return 0.0
        return self.errors / self.ref_word_count


@dataclass
class RareAccuracyReport:
    tracked: set
    occurrences: int = 0
    correct: int = 0

    @property
    def defined(self) -> bool:
        return self.occurrences > 0

    @property
    def accuracy(self) -> float:
        if not self.defined:
            raise ValueError("accuracy undefined: tracked words never occur")
        return self.correct / self.occurrences


def align(ref: list[str], hyp: list[str]) -> list[tuple]:
    """Minimal-cost alignment with unit costs.

    Returns (tag, ref_token_or_-, hyp_token_or_-) ops. Backtrace ties are
    resolved preferring match > sub > del > ins, making output deterministic.

    The common suffix of ref and hyp is matched before the DP, which fills
    only the rest: d(Xa, Ya) = d(X, Y), and the backtrace from (Xa, Ya)
    takes the match first, so the ops are those of the full matrix. An
    utterance equal to its reference fills no cells.
    """
    n, m = len(ref), len(hyp)
    while n and m and ref[n - 1] == hyp[m - 1]:
        n, m = n - 1, m - 1
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        d[i][0] = i
    for j in range(1, m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        ri = ref[i - 1]
        row, prev = d[i], d[i - 1]
        for j in range(1, m + 1):
            sub = prev[j - 1] + (0 if ri == hyp[j - 1] else 1)
            row[j] = min(sub, prev[j] + 1, row[j - 1] + 1)
    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and d[i][j] == d[i - 1][j - 1]:
            ops.append((MATCH, ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and d[i][j] == d[i - 1][j - 1] + 1:
            ops.append((SUB, ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and d[i][j] == d[i - 1][j] + 1:
            ops.append((DEL, ref[i - 1], GAP))
            i -= 1
        else:
            ops.append((INS, GAP, hyp[j - 1]))
            j -= 1
    ops.reverse()
    ops.extend(zip(itertools.repeat(MATCH), ref[n:], hyp[m:]))
    return ops


def corpus_scores(refs: dict, hyps: dict, tracked=()) -> tuple[WerReport, RareAccuracyReport]:
    """WER totals and tracked-word accuracy from one alignment per utterance.

    Every hyp utt_id must have a reference; a reference without a
    hypothesis is aligned against an empty one, so its words count as
    deletions. Each tracked-word reference occurrence counts as correct
    iff its alignment op is an exact match. Zero occurrences gives a
    flagged (undefined-accuracy) report, not an error.
    """
    orphans = sorted(hyps.keys() - refs.keys())
    if orphans:
        raise ValueError("no reference for utterance %s" % orphans[0])
    wer = WerReport()
    acc = RareAccuracyReport(tracked=set(tracked))
    for utt in sorted(refs):
        wer.ref_word_count += len(refs[utt])
        for tag, rtok, _ in align(refs[utt], hyps.get(utt, [])):
            if tag == SUB:
                wer.substitutions += 1
            elif tag == INS:
                wer.insertions += 1
            elif tag == DEL:
                wer.deletions += 1
            if rtok in acc.tracked:
                acc.occurrences += 1
                if tag == MATCH:
                    acc.correct += 1
    return wer, acc


def left_sums(values, lens):
    """Sum of each sequence's max(lens - 1, 0) consecutive values, one per
    scored position, added strictly left to right as sum() does; np.sum
    adds pairwise, with other bits. np.add.at adds in index order."""
    counts = np.maximum(lens - 1, 0)
    acc = np.zeros(counts.size)
    np.add.at(acc, np.repeat(np.arange(counts.size), counts), values)
    return acc


def perplexity(sums, lens) -> float:
    """10 ** -(mean log10 probability per scored position), from each
    sequence's sum, added in order, over its max(lens - 1, 0) positions.
    A perplexity too large for a float raises ValueError naming the mean."""
    positions = int(np.maximum(lens - 1, 0).sum())
    if positions == 0:
        raise ValueError("empty corpus")
    mean = sum(sums.tolist()) / positions
    try:
        return 10.0 ** -mean
    except OverflowError:
        raise ValueError("perplexity overflows: mean log10 probability per position "
                         "is %.6g" % mean) from None


def format_wer_report(r: WerReport) -> str:
    lines = [
        "%-14s %d" % ("ref_words", r.ref_word_count),
        "%-14s %d" % ("substitutions", r.substitutions),
        "%-14s %d" % ("insertions", r.insertions),
        "%-14s %d" % ("deletions", r.deletions),
        "%-14s %.4f" % ("wer", r.wer),
        "",
        "ref_words\t%d" % r.ref_word_count,
        "substitutions\t%d" % r.substitutions,
        "insertions\t%d" % r.insertions,
        "deletions\t%d" % r.deletions,
        "wer\t%.6f" % r.wer,
    ]
    return "\n".join(lines) + "\n"
