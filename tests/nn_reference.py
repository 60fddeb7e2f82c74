"""Per-token reference implementation of LSTM LM scoring.

Deliberately naive: one sentence at a time and one token at a time, a full
probability vector per step, and log10 of the target's entry. Used as an
oracle for the batched scoring core in `rarelm.neural` and the rescoring
built on it.
"""

import math

import numpy as np


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def step(m, word, h, c):
    """One unbatched LSTM step: (probability vector over V, new h, new c)."""
    dh = m.d_h
    z = m.W @ np.concatenate([m.S[:, word], h]) + m.b
    i = _sigmoid(z[:dh])
    f = _sigmoid(z[dh:2 * dh])
    g = np.tanh(z[2 * dh:3 * dh])
    o = _sigmoid(z[3 * dh:])
    c = f * c + i * g
    h = o * np.tanh(c)
    y = h @ m.U
    e = np.exp(y - y.max())
    return e / e.sum(), h, c


def position_probs(m, ids):
    """P(ids[t+1] | ids[:t+1]) for each position of a framed sentence."""
    h = np.zeros(m.d_h)
    c = np.zeros(m.d_h)
    probs = []
    for t in range(len(ids) - 1):
        p, h, c = step(m, ids[t], h, c)
        probs.append(p[ids[t + 1]])
    return probs


def sentence_logprob(m, ids):
    """Total log10 probability of a bos/eos-framed sentence."""
    return sum(math.log10(p) for p in position_probs(m, ids))


def mixed_logprob(m, kn, ids, mu, kn_ids=None):
    """log10 probability under (1-mu)*P_nlm + mu*P_kn, mixed per position.

    kn_ids, if given, is the same sentence in the KN model's ids.
    """
    if mu == 0.0:
        return sentence_logprob(m, ids)
    if kn_ids is None:
        kn_ids = ids
    total = 0.0
    for t, p in enumerate(position_probs(m, ids)):
        h = tuple(kn_ids[max(0, t - kn.order + 2):t + 1])
        total += math.log10((1.0 - mu) * p + mu * kn.prob(kn_ids[t + 1], h))
    return total
