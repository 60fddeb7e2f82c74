"""Oracle for `ngram.import_arpa`'s entries: one line at a time.

This is the per-line entry loop the importer used before it parsed a
section at a time. It reads the header with the importer's own code and
returns (words in id order after the specials, probs, bows), or raises
the importer's `ArpaParseError`.
"""

import math
from collections import Counter

from rarelm.ngram import ArpaParseError, _read_counts
from rarelm.textcorpus import SPECIALS


def ref_import_arpa(text: str):
    lines = text.split("\n")
    i, declared = _read_counts(lines)
    order = max(declared)

    word_ids = {w: j for j, w in enumerate(SPECIALS)}
    words_in_order = []

    def wid(w):
        if w not in word_ids:
            word_ids[w] = len(word_ids)
            words_in_order.append(w)
        return word_ids[w]

    probs = {k: {} for k in range(1, order + 1)}
    bows = {k: {} for k in range(1, order)}
    k = None
    seen = Counter()
    while i < len(lines):
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        if line == "\\end\\":
            break
        if line.endswith("-grams:") and line.startswith("\\"):
            try:
                k = int(line[1:-len("-grams:")])
            except ValueError:
                raise ArpaParseError("line %d: malformed section header %r" % (i + 1, line))
            if k not in declared:
                raise ArpaParseError("line %d: section %d-grams not declared" % (i + 1, k))
            i += 1
            continue
        if k is None:
            raise ArpaParseError("line %d: n-gram entry outside a section" % (i + 1))
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise ArpaParseError("line %d: expected 2 or 3 tab-separated fields" % (i + 1))
        try:
            prob = 10.0 ** float(parts[0])
        except (ValueError, OverflowError):
            prob = 0.0
        if not 0.0 < prob < math.inf:
            raise ArpaParseError("line %d: bad log probability %r" % (i + 1, parts[0]))
        gram = tuple(wid(w) for w in parts[1].split())
        if len(gram) != k:
            raise ArpaParseError("line %d: %d-gram in %d-grams section" % (i + 1, len(gram), k))
        if gram in probs[k]:
            raise ArpaParseError("line %d: repeated n-gram %r"
                                 % (i + 1, " ".join(parts[1].split())))
        probs[k][gram] = prob
        if len(parts) == 3:
            if k >= order:
                raise ArpaParseError("line %d: back-off weight on highest order" % (i + 1))
            try:
                bow = 10.0 ** float(parts[2])
            except (ValueError, OverflowError):
                bow = 0.0
            if not 0.0 < bow < math.inf:
                raise ArpaParseError("line %d: bad back-off weight %r" % (i + 1, parts[2]))
            bows[k][gram] = bow
        seen[k] += 1
        i += 1
    else:
        raise ArpaParseError("missing \\end\\ marker")

    for k2, cnt in declared.items():
        if seen[k2] != cnt:
            raise ArpaParseError(
                "section %d-grams: declared %d entries, found %d" % (k2, cnt, seen[k2]))
    return words_in_order, probs, bows
