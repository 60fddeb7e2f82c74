"""Full-matrix reference implementation of the WER alignment.

Deliberately plain: the whole (n+1) x (m+1) edit-distance matrix is filled
for every pair, shared suffix or not, and backtraced with the tie order
match > sub > del > ins. Used as an oracle for `rarelm.metrics.align`,
which skips the common suffix, and the corpus scores built on it.
"""

MATCH, SUB, INS, DEL = "match", "sub", "ins", "del"
GAP = "-"


def align(ref, hyp):
    """(tag, ref token or -, hyp token or -) ops of a minimal-cost alignment."""
    n, m = len(ref), len(hyp)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        d[i][0] = i
    for j in range(1, m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = d[i - 1][j - 1] + (0 if ref[i - 1] == hyp[j - 1] else 1)
            d[i][j] = min(sub, d[i - 1][j] + 1, d[i][j - 1] + 1)
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
    return ops


def corpus_scores(refs, hyps, tracked=()):
    """(substitutions, insertions, deletions, ref words, tracked
    occurrences, tracked correct) over every reference, a missing
    hypothesis aligned as empty."""
    counts = {SUB: 0, INS: 0, DEL: 0, MATCH: 0}
    ref_words = occurrences = correct = 0
    for utt in refs:
        ref_words += len(refs[utt])
        for tag, rtok, _ in align(refs[utt], hyps.get(utt, [])):
            counts[tag] += 1
            if rtok in tracked:
                occurrences += 1
                correct += tag == MATCH
    return (counts[SUB], counts[INS], counts[DEL], ref_words, occurrences, correct)
