"""Rare-word embedding enrichment of a pre-trained neural LM.

The rare rows of the input and output embedding matrices are replaced by
the weighted centroid of the original row and its frequent candidates:

    s_hat = (s_r + sum_c m_c * s_c) / (|C_r| + 1)

All other parameters (LSTM weights, biases, non-planned columns) are left
bit-identical.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import neural
from .neural import NeuralLM, same_except_columns
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
    plan order, and the sorted ids of every planned or candidate word."""
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
    cols = [vocab.id(r) for r in plan.candidates]
    used = set(cols).union(vocab.id(c) for cands in plan.candidates.values() for c, _ in cands)
    return np.array(cols, dtype=np.intp), np.array(sorted(used), dtype=np.intp)


def _eq4(plan: EnrichmentPlan, vocab: Vocabulary, used, XT, name: str,
         report: EnrichmentReport) -> np.ndarray:
    """Eq. 4 over one matrix, one planned word at a time in plan order,
    from XT[k], the column of word id used[k] as a float64 row. Returns the
    new columns as rows; the norms, of the contiguous acc as np.linalg.norm
    takes them, go into report.per_word."""
    at = {int(v): k for k, v in enumerate(used)}
    out = np.empty((len(plan), XT.shape[1]))
    for acc_out, (rare, cands) in zip(out, plan.candidates.items()):
        acc = XT[at[vocab.id(rare)]].copy()
        entry = report.per_word.setdefault(rare, {"candidates": list(cands)})
        entry[name + "_norm_before"] = math.sqrt(acc.dot(acc))
        for c, w in cands:
            acc += w * XT[at[vocab.id(c)]]
        acc /= len(cands) + 1.0
        acc_out[:] = acc
        entry[name + "_norm_after"] = math.sqrt(acc.dot(acc))
    return out


def enrich_embeddings(m: NeuralLM, plan: EnrichmentPlan) -> tuple[NeuralLM, EnrichmentReport]:
    """Apply Eq. 4 to the planned columns of a copy of m's S and U.

    Candidate vectors are read from the unmodified input, so the result
    does not depend on update order even if a candidate is itself planned.
    Validates the whole plan before touching anything.
    """
    cols, used = _check_plan(plan, m.vocab)
    out = m.copy()
    report = EnrichmentReport(modified=len(cols))
    read = []  # the columns of S and U as Eq. 4 read them
    for name, X0, X in (("s", m.S, out.S), ("u", m.U, out.U)):
        read.append(X0.T[used])
        X[:, cols] = _eq4(plan, m.vocab, used, read[-1], name, report).T
    # the output differs from the input only in the planned columns, and
    # the input still holds what Eq. 4 read (a copy that shares the
    # input's arrays fails here)
    if not (same_except_columns(m, out, cols)
            and all(np.array_equal(r.view(np.uint64), X0.T[used].view(np.uint64))
                    for r, X0 in zip(read, (m.S, m.U)))):
        raise RuntimeError("enrichment changed parameters outside the planned columns")
    return out, report


def enrich_checkpoint(f, header, dst, plan: EnrichmentPlan) -> EnrichmentReport:
    """Write to dst (which may be the file f reads) the bytes save_model
    writes for enrich_embeddings(load_model(src), plan), without building
    a model. f is the checkpoint src open for binary reading at its
    payload, and header what neural._read_header returned for it.

    Pass 1 reads and checks src block by block and gathers the S and U
    columns Eq. 4 reads; pass 2 copies src with the planned columns
    replaced, block by block.
    """
    vocab, d_s, d_h = header
    cols, used = _check_plan(plan, vocab)
    start = f.tell()
    read = {"S": np.empty((d_s, used.size), dtype="<f4"),
            "U": np.empty((d_h, used.size), dtype="<f4")}
    for name, i, block in neural._payload_blocks(f, d_s, d_h, len(vocab)):
        if name in read:
            read[name][i:i + len(block)] = block[:, used]
    report = EnrichmentReport(modified=len(cols))
    new = {name: _eq4(plan, vocab, used, np.ascontiguousarray(X.T, dtype=np.float64),
                      name.lower(), report).T.astype("<f4")
           for name, X in read.items()}
    f.seek(start)

    def edited():
        # src still holds what pass 1 read, and each written block
        # differs from its source only in the planned columns
        for name, i, block in neural._payload_blocks(f, d_s, d_h, len(vocab)):
            if name in new:
                out = block.copy()
                out[:, cols] = new[name][i:i + len(block)]
                differ = out.view(np.uint32) != block.view(np.uint32)
                differ[:, cols] = False
                if differ.any() or not np.array_equal(
                        block[:, used].view(np.uint32),
                        read[name][i:i + len(block)].view(np.uint32)):
                    raise RuntimeError("enrichment changed parameters "
                                       "outside the planned columns")
                block = out
            yield block

    neural._write_checkpoint(dst, vocab, d_s, d_h, edited())
    return report
