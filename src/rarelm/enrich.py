"""Rare-word embedding enrichment of a pre-trained neural LM.

The rare rows of the input and output embedding matrices are replaced by
the weighted centroid of the original row and its frequent candidates:

    s_hat = (s_r + sum_c m_c * s_c) / (|C_r| + 1)

All other parameters (LSTM weights, biases, non-planned columns) are left
bit-identical.
"""

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .neural import NeuralLM


@dataclass
class FrequencyPartition:
    """Split of a word scope into frequent (count >= threshold) and rare."""
    threshold: int
    scope: set
    frequent: set
    rare: set


def partition_by_frequency(counts: dict, scope, threshold: int) -> FrequencyPartition:
    """Words in scope with count below the threshold are rare; missing
    counts are treated as zero."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    scope = set(scope)
    frequent = {w for w in scope if counts.get(w, 0) >= threshold}
    return FrequencyPartition(threshold, scope, frequent, scope - frequent)


def nbest_word_types(nbest_lists) -> set:
    """All word types occurring in any hypothesis of the given lists."""
    words = set()
    for nb in nbest_lists:
        for hyp in nb.hypotheses:
            words.update(hyp.words)
    return words


def restrict_to_nbest(p: FrequencyPartition, nbest_lists) -> FrequencyPartition:
    """Intersect the rare set with the words seen in the n-best lists."""
    mentioned = nbest_word_types(nbest_lists)
    return FrequencyPartition(p.threshold, p.scope, set(p.frequent),
                              p.rare & mentioned)


@dataclass
class EnrichmentPlan:
    """Per rare word: list of (candidate, weight) pairs."""
    candidates: dict  # word -> list[(word, float)]

    def __len__(self):
        return len(self.candidates)

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rare in sorted(self.candidates):
                pairs = ",".join("%s:%.10g" % (c, w) for c, w in self.candidates[rare])
                f.write("%s\t%s\n" % (rare, pairs))

    @classmethod
    def from_file(cls, path) -> "EnrichmentPlan":
        cands = {}
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    rare, rest = line.split("\t")
                    pairs = [(c, float(w)) for c, w in
                             (p.rsplit(":", 1) for p in rest.split(","))]
                except ValueError:
                    raise ValueError("%s:%d: malformed plan line" % (path, lineno))
                cands[rare] = pairs
        return cls(cands)


def select_candidates(p: FrequencyPartition, k: int, seed: int,
                      weighting: str = "equal", counts: dict = None,
                      shared: bool = True) -> EnrichmentPlan:
    """Draw candidate words from the frequent set.

    By default one sample of min(k, |frequent|) words is drawn once and
    shared by every rare word. shared=False draws an independent sample per
    rare word instead. Weights are 1 for 'equal', or counts normalized to
    mean 1 for 'frequency'.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not p.frequent:
        raise ValueError("no candidates available")
    if weighting not in ("equal", "frequency"):
        raise ValueError("unknown weighting %r" % weighting)
    if weighting == "frequency" and counts is None:
        raise ValueError("frequency weighting requires counts")
    rng = np.random.default_rng(seed)
    pool = sorted(p.frequent)
    n = min(k, len(pool))

    def weigh(sample):
        if weighting == "equal":
            return [(c, 1.0) for c in sample]
        raw = [max(counts.get(c, 0), 1) for c in sample]
        mean = sum(raw) / len(raw)
        return [(c, r / mean) for c, r in zip(sample, raw)]

    plan = {}
    if shared:
        sample = list(rng.choice(pool, size=n, replace=False))
        weighted = weigh(sample)
        for rare in sorted(p.rare):
            plan[rare] = list(weighted)
    else:
        for rare in sorted(p.rare):
            sample = list(rng.choice(pool, size=n, replace=False))
            plan[rare] = weigh(sample)
    return EnrichmentPlan(plan)


@dataclass
class EnrichmentReport:
    modified: int
    per_word: dict = field(default_factory=dict)  # word -> norms/candidates
    untouched_checksum_before: str = ""
    untouched_checksum_after: str = ""


CHECKSUM_ROWS = 64  # rows hashed per block; bounds the copy at any |V|


def _untouched_checksum(m: NeuralLM, skip_cols) -> str:
    """sha256 over W, b and the S and U columns whose ids are not in
    skip_cols, each as C-order float64 bytes. S and U are hashed a block
    of rows at a time, which gives the same bytes in the same order as
    hashing the whole kept-column matrix."""
    keep = np.ones(m.vocab_size, dtype=bool)
    keep[np.fromiter(skip_cols, dtype=np.intp)] = False
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(m.W))
    h.update(np.ascontiguousarray(m.b))
    for X in (m.S, m.U):
        for i in range(0, X.shape[0], CHECKSUM_ROWS):
            h.update(np.compress(keep, X[i:i + CHECKSUM_ROWS], axis=1))
    return h.hexdigest()


def _column_norms(A) -> list[float]:
    """Euclidean norm of each column of A, as np.linalg.norm gives it:
    sqrt(dot(x, x)) on a contiguous copy of the column. One transposed
    copy of A makes every column a contiguous row."""
    return [math.sqrt(x.dot(x)) for x in A.T.copy()]


def enrich_embeddings(m: NeuralLM, plan: EnrichmentPlan) -> tuple[NeuralLM, EnrichmentReport]:
    """Apply the centroid update to the planned columns of S and U.

    Candidate vectors are read from the unmodified input, so the result
    does not depend on update order even if a candidate is itself planned.
    Validates the whole plan before touching anything.
    """
    vocab = m.vocab
    for rare, cands in plan.candidates.items():
        if rare not in vocab:
            raise ValueError("planned word %r not in vocabulary" % rare)
        if not cands:
            raise ValueError("empty candidate list for %r" % rare)
        for c, w in cands:
            if c not in vocab:
                raise ValueError("candidate %r not in vocabulary" % c)
            if c == rare:
                raise ValueError("word %r listed as its own candidate" % rare)
            if w <= 0:
                raise ValueError("non-positive weight for candidate %r" % c)

    out = m.copy()
    rares = list(plan.candidates)
    cols = np.array([vocab.id(r) for r in rares], dtype=np.intp)
    ncand = np.array([len(plan.candidates[r]) for r in rares], dtype=np.intp)
    slots = int(ncand.max()) if rares else 0
    # candidate j of each planned word; rows without a j-th candidate stay 0
    cand = np.zeros((len(rares), slots), dtype=np.intp)
    weight = np.zeros((len(rares), slots))
    for i, r in enumerate(rares):
        for j, (c, w) in enumerate(plan.candidates[r]):
            cand[i, j] = vocab.id(c)
            weight[i, j] = w
    before = _untouched_checksum(m, cols)
    # Eq. 4 column-wise, one candidate slot at a time: every element gets
    # the same additions in the same order as a per-word loop would do.
    norms = []  # S before, S after, U before, U after: one norm per word
    for X0, X in ((m.S, out.S), (m.U, out.U)):
        acc = X0[:, cols]
        norms.append(_column_norms(acc))
        for j in range(slots):
            rows = np.flatnonzero(ncand > j)
            acc[:, rows] += weight[rows, j] * X0[:, cand[rows, j]]
        acc /= ncand + 1.0
        X[:, cols] = acc
        norms.append(_column_norms(acc))
    report = EnrichmentReport(modified=len(cols))
    for rare, (sb, sa, ub, ua) in zip(rares, zip(*norms)):
        report.per_word[rare] = {
            "s_norm_before": sb,
            "s_norm_after": sa,
            "u_norm_before": ub,
            "u_norm_after": ua,
            "candidates": list(plan.candidates[rare]),
        }
    report.untouched_checksum_before = before
    report.untouched_checksum_after = _untouched_checksum(out, cols)
    if report.untouched_checksum_before != report.untouched_checksum_after:
        raise RuntimeError("enrichment changed parameters outside the planned columns")
    return out, report
