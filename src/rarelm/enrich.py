"""Rare-word embedding enrichment of a pre-trained neural LM.

The rare rows of the input and output embedding matrices are replaced by
the weighted centroid of the original row and its frequent candidates:

    s_hat = (s_r + sum_c m_c * s_c) / (|C_r| + 1)

All other parameters (LSTM weights, biases, non-planned columns) are left
bit-identical.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import neural
from .neural import NeuralLM
from .textcorpus import Vocabulary, write_file

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


@dataclass
class EnrichmentPlan:
    """Per rare word: list of (candidate, weight) pairs."""
    candidates: dict  # word -> list[(word, float)]

    def __len__(self):
        return len(self.candidates)

    def to_file(self, path) -> None:
        lines = ("%s\t%s\n" % (r, ",".join("%s:%.10g" % (c, w) for c, w in self.candidates[r]))
                 for r in sorted(self.candidates))
        write_file(path, map(str.encode, lines))


def select_candidates(frequent: set, rare: set, cfg: EnrichConfig,
                      counts: dict) -> EnrichmentPlan:
    """Draw candidate words for every rare word from the frequent set.

    With cfg.shared one sample of min(k, |frequent|) words is drawn once
    and shared by every rare word; otherwise each rare word, in sorted
    order, gets its own sample. Weights are 1 for 'equal', or counts
    normalized to mean 1 for 'frequency'.
    """
    if not frequent:
        raise ValueError("no candidates available")
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
                    nbest=None) -> EnrichmentPlan:
    """The enrichment plan of one configuration.

    The in-vocabulary scope words split at cfg.threshold into frequent
    (count >= threshold; a missing count is 0) and rare words. In
    fromNbest mode (nbest, a rescore.NBest, is needed then) only the
    rare words some hypothesis mentions stay rare. The plan is empty
    when no word is rare or none is frequent.
    """
    words = set(scope) & vocab.word_to_id.keys()
    frequent = {w for w in words if counts.get(w, 0) >= cfg.threshold}
    rare = words - frequent
    if cfg.mode == "fromNbest":
        rare.intersection_update(nbest.words)
    if not (rare and frequent):
        return EnrichmentPlan({})
    return select_candidates(frequent, rare, cfg, counts)


@dataclass
class EnrichmentReport:
    modified: int
    per_word: dict = field(default_factory=dict)  # word -> norms/candidates


def _check_plan(plan: EnrichmentPlan, vocab: Vocabulary) -> tuple:
    """Validate the whole plan against vocab; returns the planned ids in
    plan order, and per candidate count n the plan positions of its words
    with their candidate ids and weights as (n, words) arrays."""
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
            if not math.isfinite(w):
                raise ValueError("non-finite weight for candidate %r" % c)
            if w <= 0:
                raise ValueError("non-positive weight for candidate %r" % c)
    lists = list(plan.candidates.values())
    groups = []
    for n in sorted(set(map(len, lists))):
        at = [k for k, cands in enumerate(lists) if len(cands) == n]
        groups.append((at, np.array([[vocab.id(c) for c, _ in lists[k]] for k in at]).T,
                       np.array([[w for _, w in lists[k]] for k in at], dtype=np.float64).T))
    return np.array([vocab.id(r) for r in plan.candidates], dtype=np.intp), groups


def _eq4_rows(X, cols, groups) -> tuple:
    """Eq. 4 over X, a block of rows of S or U: its planned columns cols,
    and their new float64 values, each the planned word's value, then
    + w * c per candidate in plan order, then / (|C_r| + 1.0)."""
    old, new = X[:, cols], np.empty((len(X), len(cols)))
    for at, cands, weights in groups:
        acc = old[:, at].astype(np.float64)
        for c, w in zip(cands, weights):
            acc += w * X[:, c]
        new[:, at] = acc / (len(cands) + 1.0)
    return old, new


def _report(plan: EnrichmentPlan, columns) -> EnrichmentReport:
    """The report of plan, with the norms of columns: the planned columns
    of S before and after Eq. 4, then of U."""
    report = EnrichmentReport(modified=len(plan))
    keys = ["%s_norm_%s" % (m, when) for m in "su" for when in ("before", "after")]
    for k, (rare, cands) in enumerate(plan.candidates.items()):
        entry = report.per_word[rare] = {"candidates": list(cands)}
        for key, X in zip(keys, columns):
            entry[key] = float(np.linalg.norm(X[:, k].astype(np.float64)))
    return report


@contextmanager
def enriched_in_place(m: NeuralLM, plan: EnrichmentPlan):
    """Yield m with Eq. 4 applied to the planned columns of its own S and
    U, rounded through float32 as enrich_checkpoint writes them; the old
    columns are written back on any exit. Validates the plan first."""
    cols, groups = _check_plan(plan, m.vocab)
    (old_s, new_s), (old_u, new_u) = (_eq4_rows(X, cols, groups) for X in (m.S, m.U))
    try:
        m.S[:, cols], m.U[:, cols] = new_s.astype(np.float32), new_u.astype(np.float32)
        yield m
    finally:
        m.S[:, cols], m.U[:, cols] = old_s, old_u


def enrich_checkpoint(f, header, dst, plan: EnrichmentPlan) -> EnrichmentReport:
    """Write to dst (which may be the file f reads) the bytes save_model
    writes for load_model(src) once Eq. 4 edits its planned columns, with
    no model built. f is the checkpoint src open for binary reading at its
    payload, and header what neural._read_header returned for it.

    One pass copies src block by block, with the planned columns of each
    block of S or U replaced by Eq. 4 over the block's own rows. The copies
    share one buffer: a copy per block took 7 MB more peak memory at |V|=20k.
    """
    vocab, d_s, d_h = header
    cols, groups = _check_plan(plan, vocab)
    # per matrix, its planned columns as read and as Eq. 4 makes them
    columns = {name: (np.empty((d, cols.size), dtype="<f4"), np.empty((d, cols.size)))
               for name, d in (("S", d_s), ("U", d_h))}
    spare = np.empty((neural.BATCH_ROWS, len(vocab)), dtype="<f4")

    def edited():
        # each written block differs from its source only in the planned columns
        for name, i, block in neural._payload_blocks(f, d_s, d_h, len(vocab)):
            if name in columns:
                before, after = (X[i:i + len(block)] for X in columns[name])
                before[:], after[:] = _eq4_rows(block, cols, groups)
                out = spare[:len(block)]
                out[...] = block
                out[:, cols] = after
                differ = out.view(np.uint32) != block.view(np.uint32)
                differ[:, cols] = False
                if differ.any():
                    raise RuntimeError("enrichment changed parameters "
                                       "outside the planned columns")
                block = out
            yield block

    neural._write_checkpoint(dst, vocab, d_s, d_h, edited())
    return _report(plan, columns["S"] + columns["U"])
