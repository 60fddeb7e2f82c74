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
from typing import Optional

import numpy as np

from .neural import NeuralLM
from .textcorpus import Vocabulary

MODES = ("allStreets", "fromNbest")
WEIGHTINGS = ("equal", "frequency")


@dataclass(frozen=True)
class EnrichConfig:
    """The settings of one enrichment, one field per `rarelm enrich` flag.

    threshold splits the scope into frequent (count >= threshold) and rare
    words; k candidates are drawn with seed and weighted by weighting;
    mode fromNbest enriches only the rare words the n-best lists mention;
    shared draws one candidate sample for every rare word.
    """
    threshold: int = 10
    k: int = 5
    seed: int = 0
    weighting: str = "equal"
    mode: str = "allStreets"
    shared: bool = True

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError("threshold must be >= 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.weighting not in WEIGHTINGS:
            raise ValueError("unknown weighting %r" % self.weighting)
        if self.mode not in MODES:
            raise ValueError("mode must be allStreets or fromNbest")


class NoCandidates(ValueError):
    """Rare words need enriching but the frequent set is empty."""


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


def select_candidates(frequent: set, rare: set, cfg: EnrichConfig,
                      counts: dict) -> EnrichmentPlan:
    """Draw candidate words for every rare word from the frequent set.

    With cfg.shared one sample of min(k, |frequent|) words is drawn once
    and shared by every rare word; otherwise each rare word, in sorted
    order, gets its own sample. Weights are 1 for 'equal', or counts
    normalized to mean 1 for 'frequency'.
    """
    if not frequent:
        raise NoCandidates("no candidates available")
    rng = np.random.default_rng(cfg.seed)
    pool = sorted(frequent)
    n = min(cfg.k, len(pool))

    def weigh(sample):
        if cfg.weighting == "equal":
            return [(c, 1.0) for c in sample]
        raw = [max(counts.get(c, 0), 1) for c in sample]
        mean = sum(raw) / len(raw)
        return [(c, r / mean) for c, r in zip(sample, raw)]

    plan = {}
    if cfg.shared:
        weighted = weigh(list(rng.choice(pool, size=n, replace=False)))
        for word in sorted(rare):
            plan[word] = list(weighted)
    else:
        for word in sorted(rare):
            plan[word] = weigh(list(rng.choice(pool, size=n, replace=False)))
    return EnrichmentPlan(plan)


def plan_enrichment(counts: dict, scope, vocab: Vocabulary, cfg: EnrichConfig,
                    nbest: Optional[list] = None) -> EnrichmentPlan:
    """The enrichment plan of one configuration.

    The in-vocabulary scope words split at cfg.threshold into frequent
    (count >= threshold; a missing count is 0) and rare words. In
    fromNbest mode (nbest is needed then) only the rare words some
    hypothesis mentions stay rare. The plan is empty when no word is
    rare; otherwise NoCandidates is raised when no word is frequent.
    """
    words = set(scope) & vocab.word_to_id.keys()
    frequent = {w for w in words if counts.get(w, 0) >= cfg.threshold}
    rare = words - frequent
    if cfg.mode == "fromNbest":
        rare &= {w for nb in nbest for hyp in nb.hypotheses for w in hyp.words}
    if not rare:
        return EnrichmentPlan({})
    return select_candidates(frequent, rare, cfg, counts)


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
