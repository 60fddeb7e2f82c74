"""Rare-word embedding enrichment of a pre-trained neural LM.

The rare rows of the input and output embedding matrices are replaced by
the weighted centroid of the original row and its frequent candidates:

    s_hat = (s_r + sum_c m_c * s_c) / (|C_r| + 1)

All other parameters (LSTM weights, biases, non-planned columns) are left
bit-identical.
"""

import hashlib
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


def _untouched_checksum(m: NeuralLM, skip_cols) -> str:
    keep = np.array([j for j in range(m.vocab_size) if j not in skip_cols],
                    dtype=np.int64)
    h = hashlib.sha256()
    h.update(m.W.tobytes())
    h.update(m.b.tobytes())
    h.update(np.ascontiguousarray(m.S[:, keep]).tobytes())
    h.update(np.ascontiguousarray(m.U[:, keep]).tobytes())
    return h.hexdigest()


def enrich_embeddings(m: NeuralLM, plan: EnrichmentPlan) -> tuple[NeuralLM, EnrichmentReport]:
    """Apply the centroid update to the planned columns of S and U.

    Candidate vectors are snapshotted up front, so the result does not
    depend on update order even if a candidate is itself planned. Validates
    the whole plan before touching anything.
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
    cols = {vocab.id(r) for r in plan.candidates}
    before = _untouched_checksum(m, cols)
    S0, U0 = m.S, m.U  # snapshots (out holds copies)
    report = EnrichmentReport(modified=len(cols))
    for rare, cands in plan.candidates.items():
        r = vocab.id(rare)
        denom = len(cands) + 1.0
        s_new = S0[:, r].copy()
        u_new = U0[:, r].copy()
        for c, w in cands:
            ci = vocab.id(c)
            s_new += w * S0[:, ci]
            u_new += w * U0[:, ci]
        out.S[:, r] = s_new / denom
        out.U[:, r] = u_new / denom
        report.per_word[rare] = {
            "s_norm_before": float(np.linalg.norm(S0[:, r])),
            "s_norm_after": float(np.linalg.norm(out.S[:, r])),
            "u_norm_before": float(np.linalg.norm(U0[:, r])),
            "u_norm_after": float(np.linalg.norm(out.U[:, r])),
            "candidates": list(cands),
        }
    report.untouched_checksum_before = before
    report.untouched_checksum_after = _untouched_checksum(out, cols)
    if report.untouched_checksum_before != report.untouched_checksum_after:
        raise RuntimeError("enrichment changed parameters outside the planned columns")
    return out, report


def cosine_weights(partition: FrequencyPartition, vectors: dict, k: int,
                   seed: int = 0) -> EnrichmentPlan:
    """Experimental: weigh candidates by cosine similarity to the rare word
    using an external word -> vector table. Words without a vector are
    skipped. Not used on the main pipeline.
    """
    rng = np.random.default_rng(seed)
    pool = sorted(w for w in partition.frequent if w in vectors)
    if not pool:
        raise ValueError("no candidates available")
    plan = {}
    for rare in sorted(partition.rare):
        if rare not in vectors:
            continue
        v = np.asarray(vectors[rare], dtype=float)
        sims = []
        for c in pool:
            u = np.asarray(vectors[c], dtype=float)
            denom = np.linalg.norm(v) * np.linalg.norm(u)
            if denom == 0:
                continue
            s = float(v @ u / denom)
            if s > 0:
                sims.append((s, c))
        sims.sort(reverse=True)
        top = sims[:k]
        if top:
            plan[rare] = [(c, s) for s, c in top]
    return EnrichmentPlan(plan)


def load_word_vectors(path) -> dict:
    """Read a `word v1 v2 ...` text embedding file."""
    vecs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            parts = line.split()
            if len(parts) < 2:
                continue
            vecs[parts[0]] = [float(x) for x in parts[1:]]
    return vecs
