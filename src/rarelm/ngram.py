"""Interpolated modified Kneser-Ney n-gram language model with ARPA I/O.

Counts are collected from bos/eos-framed id sequences. For the highest
order, raw window counts are used; lower orders use continuation counts
(number of distinct left extensions), except n-grams starting with bos,
which can never be left-extended and keep their raw sentence-initial
counts. Probabilities are interpolated:

    P(w|h) = (c(h,w) - D(c)) / S(h) + gamma(h) * P(w|h')

with three count-dependent discounts D1/D2/D3+ per order and a uniform
1/|V| base distribution below the unigram level, so every in-vocabulary
word has positive probability under every history.

`NGramModel.prob` answers one query from the `probs`/`bows` dicts.
`NGramModel.prob_many` answers every position of many sequences at once
from per-order tables of sorted int64 keys, in the manner of KenLM's
sorted arrays. It derives the tables from the dicts on its first call,
so the dicts must not change after that.
"""

import itertools
import math
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .textcorpus import BOS_ID, SPECIALS, Vocabulary, read_blocks


@dataclass
class KNDiscounts:
    """Absolute discounts applied to counts 1, 2 and >=3 at one order."""
    d1: float
    d2: float
    d3plus: float

    def for_count(self, c: int) -> float:
        if c >= 3:
            return self.d3plus
        if c == 2:
            return self.d2
        if c == 1:
            return self.d1
        return 0.0


def estimate_discounts(counts: Iterable[int]) -> tuple[KNDiscounts, Optional[str]]:
    """Chen-Goodman discount estimates from counts-of-counts.

    Returns the discounts and a warning string when the counts-of-counts
    are degenerate and the 0.75 fallback was used.
    """
    cc = Counter()
    for c in counts:
        if 1 <= c <= 4:
            cc[c] += 1
    n1, n2, n3, n4 = cc[1], cc[2], cc[3], cc[4]
    if n1 == 0 or n2 == 0 or n3 == 0 or n4 == 0:
        return KNDiscounts(0.75, 0.75, 0.75), (
            "degenerate counts-of-counts (n1..n4 = %d,%d,%d,%d); using D=0.75"
            % (n1, n2, n3, n4))
    y = n1 / (n1 + 2.0 * n2)
    d1 = 1.0 - 2.0 * y * n2 / n1
    d2 = 2.0 - 3.0 * y * n3 / n2
    d3p = 3.0 - 4.0 * y * n4 / n3
    # a zero discount leaves a history no back-off mass, so every word
    # unseen after it would get probability zero
    if min(d1, d2, d3p) <= 0.0:
        return KNDiscounts(0.75, 0.75, 0.75), (
            "non-positive estimated discount (%.4f,%.4f,%.4f); using D=0.75"
            % (d1, d2, d3p))
    return KNDiscounts(d1, d2, d3p), None


class NGramModel:
    """Back-off representation of an interpolated KN model.

    probs[k] maps k-gram id tuples to linear probabilities (already
    including the interpolation mass); bows[k] maps k-gram histories,
    each a key of probs[k] too, to their back-off weights. Queries use
    the standard longest-match recursion, so stored values reproduce the
    interpolated definition exactly. The first `prob_many` call derives
    its key tables from probs and bows and keeps them; fill the dicts in
    before that call and leave them unchanged after it.
    """

    def __init__(self, order: int, vocab: Vocabulary):
        self.order = order
        self.vocab = vocab
        self.probs: dict[int, dict[tuple, float]] = {k: {} for k in range(1, order + 1)}
        self.bows: dict[int, dict[tuple, float]] = {k: {} for k in range(1, order)}
        self.discounts: dict[int, KNDiscounts] = {}
        self.warnings: list[str] = []
        self._tables = None  # built by the first prob_many call

    def prob(self, word: int, history: tuple) -> float:
        """P(word | history); histories longer than order-1 are truncated."""
        h = tuple(history[-(self.order - 1):]) if self.order > 1 else ()
        mult = 1.0
        while True:
            k = len(h) + 1
            p = self.probs[k].get(h + (word,))
            if p is not None:
                return mult * p
            if k == 1:
                raise KeyError("word id %d missing from unigram table" % word)
            mult *= self.bows[k - 1].get(h, 1.0)
            h = h[1:]

    def prob_many(self, ids, lens) -> np.ndarray:
        """P(ids[t] | ids[:t]) at every position t >= 1 of each sequence,
        bit-identical to `prob`; flat, in input order. Every position is
        answered in one batched lookup over per-order sorted key tables.

        `ids` holds the id sequences back to back and `lens` their
        lengths; histories never reach into the previous sequence. Raises
        ValueError naming the word when a target word has no unigram.
        """
        if self._tables is None:
            self._tables = _build_tables(self)
        base, keys, has, prob, bow = self._tables
        ids = np.asarray(ids, dtype=np.int64)
        lens = np.asarray(lens, dtype=np.int64)
        n = ids.size
        # an id no table holds becomes base - 1, the last word of no key
        words = np.where((ids >= 0) & (ids < base - 1), ids, base - 1)
        # rows[k][s], s <= n - k: row of the k-gram ids[s:s+k] in the
        # order-k table, or the table's last row, which stands for an absent
        # k-gram; the empty gram has row 0
        rows = [np.zeros(n + 1, dtype=np.int64)]
        for k in range(1, self.order + 1):
            q = rows[k - 1][:-1] * base + words[k - 1:]
            i = np.searchsorted(keys[k], q)
            rows.append(np.where(keys[k][i] == q, i, keys[k].size - 1))
        # the longest-match recursion of prob, one order at a time from the
        # highest; act holds the positions still backing off
        pos = np.arange(n) - np.repeat(np.cumsum(lens) - lens, lens)
        tgt = np.flatnonzero(pos > 0)
        hlen = np.minimum(pos[tgt], self.order - 1)
        out = np.empty(tgt.size)
        mult = np.ones(tgt.size)
        act = np.empty(0, dtype=np.int64)
        for k in range(self.order, 0, -1):
            act = np.concatenate([act, np.flatnonzero(hlen == k - 1)])
            start = tgt[act] - (k - 1)
            r = rows[k][start]
            hit = has[k][r]
            out[act[hit]] = mult[act[hit]] * prob[k][r[hit]]
            act, start = act[~hit], start[~hit]
            if k > 1:
                mult[act] *= bow[k - 1][rows[k - 1][start]]
        if act.size:
            w = int(ids[tgt[act[0]]])
            name = repr(self.vocab.word(w)) if 0 <= w < len(self.vocab) else "id %d" % w
            raise ValueError("word %s missing from the n-gram model's unigram table"
                             % name)
        return out


def _build_tables(m: NGramModel):
    """`base` and the per-order key, has-probability, probability and
    back-off columns of `prob_many`, each a list indexed by order.

    The order-k table holds, sorted by key, every k-gram that has a
    probability or a back-off weight, and every prefix of a longer such
    k-gram. The key of a k-gram is the row of its (k-1)-gram prefix in
    the order-(k-1) table times `base` plus its last word, so keys stay
    below (rows of the order-(k-1) table + 1) * base at every order. Each
    table ends with one extra row, key 2**63 - 1, no probability and
    back-off weight 1.0, that stands for every absent k-gram.
    """
    grams = [None] * (m.order + 1)
    need = set()
    for k in range(m.order, 0, -1):
        grams[k] = list(need.union(m.probs[k], m.bows.get(k, ())))
        need = {g[:-1] for g in grams[k]}
    lasts = [None] + [np.fromiter((g[-1] for g in gs), dtype=np.int64, count=len(gs))
                      for gs in grams[1:]]
    base = max([len(m.vocab)] + [int(a.max()) + 1 for a in lasts[1:] if a.size]) + 1
    keys, has, prob, bow = [None], [None], [None], [None]
    rows = {(): 0}
    for k in range(1, m.order + 1):
        gs = grams[k]
        prefix = np.fromiter(map(rows.__getitem__, [g[:-1] for g in gs]),
                             dtype=np.int64, count=len(gs))
        key = prefix * base + lasts[k]
        srt = np.argsort(key)
        gs = [gs[i] for i in srt.tolist()]
        rows = dict(zip(gs, itertools.count()))
        probs, bows = m.probs[k], m.bows.get(k, {})
        keys.append(np.append(key[srt], np.iinfo(np.int64).max))
        has.append(np.append(np.fromiter((g in probs for g in gs), dtype=bool,
                                         count=len(gs)), False))
        prob.append(np.append(np.fromiter((probs.get(g, 0.0) for g in gs),
                                          dtype=np.float64, count=len(gs)), 0.0))
        bow.append(np.append(np.fromiter((bows.get(g, 1.0) for g in gs),
                                         dtype=np.float64, count=len(gs)), 1.0))
    return base, keys, has, prob, bow


def modified_counts(ids, lens, order: int) -> dict[int, Counter]:
    """KN count modification over the framed sequences (ids, lens), each
    windowed as a tuple of Python ints: raw counts at the top order,
    continuation counts below it."""
    wc = {k: Counter() for k in range(1, order + 1)}
    flat = iter(ids.tolist())
    for n in lens.tolist():
        t = tuple(itertools.islice(flat, n))
        for k in range(1, order + 1):
            ck = wc[k]
            for i in range(n - k + 1):
                ck[t[i:i + k]] += 1
    mod = {order: wc[order]}
    for k in range(order - 1, 0, -1):
        mk = Counter(gram[1:] for gram in wc[k + 1])
        if k >= 2:
            # bos-initial k-grams have no left extension; keep raw counts
            for gram, c in wc[k].items():
                if gram[0] == BOS_ID:
                    mk[gram] = c
        else:
            mk.pop((BOS_ID,), None)
        mod[k] = mk
    return mod


def check_settings(order: int, prune_min_count: int) -> None:
    """Raise the ValueError train_kn raises for these settings."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if prune_min_count < 0:
        raise ValueError("prune_min_count must be >= 0")


def train_kn(ids, lens, order: int, vocab: Vocabulary,
             prune_min_count: int = 0) -> NGramModel:
    """Train an interpolated modified-KN model on bos/eos-framed id
    sequences, laid back to back in `ids` with lengths `lens`.

    Discounts are estimated per order from the counts-of-counts of all
    its n-grams; prune_min_count > 0 then drops the n-grams of order >= 2
    whose modified count falls below the cutoff (off by default). A
    history left without an entry keeps its back-off weight and gets an
    entry holding its backed-off probability, as ARPA needs.
    """
    check_settings(order, prune_min_count)
    if not lens.size:
        raise ValueError("empty corpus")
    mod = modified_counts(ids, lens, order)

    m = NGramModel(order, vocab)
    for k in range(1, order + 1):
        d, warning = estimate_discounts(mod[k].values())
        m.discounts[k] = d
        if warning:
            m.warnings.append("order %d: %s" % (k, warning))
        if k >= 2 and prune_min_count > 0:
            mod[k] = {g: c for g, c in mod[k].items() if c >= prune_min_count}

    nvocab = len(vocab)

    # Unigrams: interpolate with the uniform distribution over the vocabulary.
    d = m.discounts[1]
    s1 = sum(mod[1].values())
    if s1 == 0:
        raise ValueError("no unigram events in corpus")
    gamma1 = sum(d.for_count(c) for c in mod[1].values()) / s1
    for w in range(nvocab):
        c = mod[1].get((w,), 0)
        m.probs[1][(w,)] = (c - d.for_count(c)) / s1 + gamma1 / nvocab

    # Higher orders, bottom-up; back-off probabilities come from the
    # already-built lower-order tables via the generic query.
    for k in range(2, order + 1):
        d = m.discounts[k]
        by_hist = defaultdict(list)
        for gram, c in mod[k].items():
            by_hist[gram[:-1]].append((gram[-1], c))
        for hist, pairs in sorted(by_hist.items()):
            total = sum(c for _, c in pairs)
            gamma = sum(d.for_count(c) for _, c in pairs) / total
            m.bows[k - 1][hist] = gamma
            for w, c in pairs:
                p_lower = m.prob(w, hist[1:])
                m.probs[k][hist + (w,)] = (c - d.for_count(c)) / total + gamma * p_lower

    # all taken before any is added, so none is read through another's entry
    pruned = [(k, h, m.prob(h[-1], h[:-1])) for k in range(1, order)
              for h in m.bows[k] if h not in m.probs[k]]
    for k, h, p in pruned:
        m.probs[k][h] = p
    return m


def _fmt(x: float) -> str:
    return "%.10g" % x


def export_arpa(m: NGramModel) -> str:
    """Serialize the model in ARPA text format (log10 probs and bows),
    each entry as the model holds it. ARPA keeps a back-off weight on
    the entry of its history, so every history must have an entry."""
    lines = ["", "\\data\\"]
    for k in range(1, m.order + 1):
        lines.append("ngram %d=%d" % (k, len(m.probs[k])))
    for k in range(1, m.order + 1):
        probs, bows = m.probs[k], m.bows.get(k, {})
        if not bows.keys() <= probs.keys():
            raise ValueError("%d-gram history with no entry of its own" % k)
        lines += ["", "\\%d-grams:" % k]
        for gram in sorted(probs):
            words = " ".join(m.vocab.word(i) for i in gram)
            logp = math.log10(probs[gram])
            if gram in bows:
                lines.append("%s\t%s\t%s" % (_fmt(logp), words, _fmt(math.log10(bows[gram]))))
            else:
                lines.append("%s\t%s" % (_fmt(logp), words))
    lines += ["", "\\end\\", ""]
    return "\n".join(lines)


class ArpaParseError(ValueError):
    pass


def _read_counts(lines: list[str]) -> tuple[int, dict[int, int]]:
    """Read the `\\data\\` header of an ARPA file split into lines.

    Returns the index of the line after its `ngram k=count` lines and
    {k: count}. The declared orders must be 1..N, each declared once.
    """
    i = 0
    while i < len(lines) and lines[i].strip() != "\\data\\":
        if lines[i].strip() and not lines[i].startswith("\\"):
            raise ArpaParseError("line %d: expected \\data\\ header" % (i + 1))
        i += 1
    if i == len(lines):
        raise ArpaParseError("missing \\data\\ header")
    i += 1
    declared = {}
    while i < len(lines) and lines[i].strip().startswith("ngram"):
        try:
            spec = lines[i].strip()[len("ngram"):].strip()
            k, cnt = spec.split("=")
            k, cnt = int(k), int(cnt)
        except ValueError:
            raise ArpaParseError("line %d: malformed ngram count line" % (i + 1))
        if k < 1:
            raise ArpaParseError("line %d: ngram order %d is not positive" % (i + 1, k))
        if k in declared:
            raise ArpaParseError("line %d: ngram %d declared twice" % (i + 1, k))
        declared[k] = cnt
        i += 1
    if not declared:
        raise ArpaParseError("no ngram counts declared in \\data\\ section")
    order = max(declared)
    if order != len(declared):
        # the declarations are the len(declared) lines before line i
        raise ArpaParseError("line %d: ngram %d declared without ngram %d" % (
            i - len(declared) + list(declared).index(order) + 1, order,
            min(set(range(1, order)) - declared.keys())))
    return i, declared


def _markers(lines: list[str], i: int):
    """Yield (index, stripped line) for each `\\k-grams:` or `\\end\\`
    line from lines[i] on, then (len(lines), None)."""
    marked = map(operator.contains, itertools.islice(lines, i, None), itertools.repeat("\\"))
    for j in itertools.compress(range(i, len(lines)), marked):
        line = lines[j].strip()
        if line == "\\end\\" or line.startswith("\\") and line.endswith("-grams:"):
            yield j, line
    yield len(lines), None


def _pow10(col: list[str]) -> Optional[list[float]]:
    """[10.0 ** float(x) for x in col], by the same libm pow; None when an
    x is no number or its power is not a positive, finite float."""
    try:
        p = list(map(math.pow, itertools.repeat(10.0), map(float, col)))
    except (ValueError, OverflowError):
        return None
    # a nan or an inf makes the sum non-finite, and with neither, min is
    # the least value; a sum of finite values that overflows falls through
    # to the test of each value
    if min(p) > 0.0 and math.isfinite(sum(p)):
        return p
    if all(map((0.0).__lt__, p)) and all(map(math.inf.__gt__, p)):
        return p
    return None


def _read_entries(chunk: list[str], first: int, k: Optional[int], order: int,
                  word_ids: dict[str, int], probs: dict, bows: dict) -> int:
    """Parse the entries among `chunk`, the lines from index `first` of
    an ARPA file in its k-grams section (k None before any section), into
    probs[k] and bows[k], giving each new word the next id in word_ids.
    Returns the number of entries. Each step is one pass over the chunk;
    a failed step changes no table and names the chunk's first line, as
    read_blocks asks."""
    entries = list(filter(None, map(str.strip, chunk)))
    if not entries:
        return 0

    def fail(msg, *args):
        raise ArpaParseError("line %d: %s" % (first + 1, msg % args))

    def values(col, what):
        v = _pow10(col)
        if v is None:
            fail("bad %s %r", what, col[0])
        return v

    if k is None:
        fail("n-gram entry outside a section")
    fields = list(map(str.split, entries, itertools.repeat("\t")))
    nf = list(map(len, fields))
    if not {2, 3}.issuperset(nf):
        fail("expected 2 or 3 tab-separated fields")
    p = values(list(map(operator.itemgetter(0), fields)), "log probability")
    grams = list(map(str.split, map(operator.itemgetter(1), fields)))
    if set(map(len, grams)) != {k}:
        fail("%d-gram in %d-grams section", len(grams[0]), k)
    words = list(itertools.chain.from_iterable(grams))
    ids = list(map(word_ids.get, words))
    if None in ids:
        new = list(itertools.filterfalse(word_ids.__contains__, dict.fromkeys(words)))
        word_ids.update(zip(new, itertools.count(len(word_ids))))
        ids = list(map(word_ids.__getitem__, words))
    grams = list(zip(*[iter(ids)] * k))
    # the tables change last, once every step has passed
    fresh = dict(zip(grams, p))
    if len(fresh) < len(grams) or not probs[k].keys().isdisjoint(fresh.keys()):
        fail("repeated n-gram %r", " ".join(words[:k]))
    if 3 in nf:
        if k >= order:
            fail("back-off weight on highest order")
        has = list(map((3).__eq__, nf))
        b = values(list(map(operator.itemgetter(2), itertools.compress(fields, has))),
                   "back-off weight")
        bows[k].update(zip(itertools.compress(grams, has), b))
    probs[k].update(fresh)
    return len(entries)


def import_arpa(text: str) -> NGramModel:
    """Parse an ARPA file back into an NGramModel.

    Word ids are assigned with specials pinned to 0/1/2 and remaining words
    in order of first appearance in the file. Each log10 value must give a
    positive, finite probability or back-off weight. Sections are found
    first; the entries of each are then read by textcorpus.read_blocks.
    """
    lines = text.split("\n")
    i, declared = _read_counts(lines)
    order = len(declared)
    word_ids = dict(zip(SPECIALS, itertools.count()))
    probs = {k: {} for k in range(1, order + 1)}
    bows = {k: {} for k in range(1, order)}
    seen = Counter()
    k = None
    for j, line in _markers(lines, i):
        seen[k] += read_blocks(lambda block, at: _read_entries(
            block, at, k, order, word_ids, probs, bows), itertools.islice(lines, i, j), i)
        if line is None:
            raise ArpaParseError("missing \\end\\ marker")
        if line == "\\end\\":
            break
        try:
            k = int(line[1:-len("-grams:")])
        except ValueError:
            raise ArpaParseError("line %d: malformed section header %r" % (j + 1, line))
        if k not in declared:
            raise ArpaParseError("line %d: section %d-grams not declared" % (j + 1, k))
        i = j + 1

    for k2, cnt in declared.items():
        if seen[k2] != cnt:
            raise ArpaParseError(
                "section %d-grams: declared %d entries, found %d" % (k2, cnt, seen[k2]))

    m = NGramModel(order, Vocabulary(list(word_ids)[len(SPECIALS):]))
    m.probs = probs
    m.bows = bows
    return m
