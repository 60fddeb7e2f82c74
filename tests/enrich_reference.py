"""Per-word reference implementation of Eq. 4 enrichment and of the
untouched-parameter comparison.

Deliberately naive: one planned word at a time, one candidate at a time,
norms from np.linalg.norm, and a comparison of each kept column's bytes.
The oracle of the two enrichment paths the commands run: the float64
columns of `rarelm.enrich._eq4_rows` agree with `enrich` bit for bit;
`enriched_in_place`, which `sweep` scores, holds them rounded through
float32 and keeps every other bit; and `enrich_checkpoint` writes the
checkpoint `save_model` gives for a model holding them, with its norms.
"""

import numpy as np


def same_except_columns(a, b, skip_cols):
    """True when W, b and the S and U columns not in skip_cols hold the
    same bytes in models a and b, which have the same dimensions."""
    if a.W.tobytes() != b.W.tobytes() or a.b.tobytes() != b.b.tobytes():
        return False
    for X, Y in ((a.S, b.S), (a.U, b.U)):
        for j in range(a.vocab_size):
            if j not in skip_cols and X[:, j].tobytes() != Y[:, j].tobytes():
                return False
    return True


def enrich(m, plan):
    """(S, U, per_word) after applying Eq. 4 to every planned word.

    Candidates are read from the unmodified S and U, so the result does
    not depend on the plan's order. The plan is assumed valid.
    """
    vocab = m.vocab
    S, U = m.S.copy(), m.U.copy()
    per_word = {}
    for rare, cands in plan.candidates.items():
        r = vocab.id(rare)
        denom = len(cands) + 1.0
        s_new = m.S[:, r].copy()
        u_new = m.U[:, r].copy()
        for c, w in cands:
            ci = vocab.id(c)
            s_new += w * m.S[:, ci]
            u_new += w * m.U[:, ci]
        S[:, r] = s_new / denom
        U[:, r] = u_new / denom
        per_word[rare] = {
            "s_norm_before": float(np.linalg.norm(m.S[:, r])),
            "s_norm_after": float(np.linalg.norm(S[:, r])),
            "u_norm_before": float(np.linalg.norm(m.U[:, r])),
            "u_norm_after": float(np.linalg.norm(U[:, r])),
            "candidates": list(cands),
        }
    return S, U, per_word
