"""Per-step reference implementation of the LSTM training loss and gradients.

Deliberately plain: one time step at a time in both directions, the
embedding gather, dropout masks, output softmax and every weight gradient
computed inside the step loops, and a cache of per-step tuples. Used as an
oracle for the segment-level `rarelm.neural.loss_and_grads`.
"""

import numpy as np


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax_rows(y):
    y = y - y.max(axis=-1, keepdims=True)
    e = np.exp(y)
    return e / e.sum(axis=-1, keepdims=True)


def _cell(m, x, h_prev, c_prev):
    """One batched LSTM step. x: (B, d_s); returns gates and new (h, c)."""
    dh = m.d_h
    z = np.concatenate([x, h_prev], axis=1) @ m.W.T + m.b
    i = _sigmoid(z[:, :dh])
    f = _sigmoid(z[:, dh:2 * dh])
    g = np.tanh(z[:, 2 * dh:3 * dh])
    o = _sigmoid(z[:, 3 * dh:])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return i, f, g, o, c, h


def loss_and_grads(m, inputs, targets, h0, c0, dropout_p=0.0, rng=None):
    """Sum of cross-entropy (nats) over a (B, T) segment plus gradients.

    Returns (loss, grads dict with keys S/W/b/U, final h, final c). The
    final state is detached: gradients do not flow past the segment start.
    """
    B, T = inputs.shape
    dh, ds = m.d_h, m.d_s
    h, c = h0, c0
    cache = []
    loss = 0.0
    for t in range(T):
        x = m.S[:, inputs[:, t]].T  # (B, d_s)
        if dropout_p > 0.0:
            mx = (rng.random(x.shape) >= dropout_p) / (1.0 - dropout_p)
            x = x * mx
        else:
            mx = None
        i, f, g, o, c_new, h_new = _cell(m, x, h, c)
        if dropout_p > 0.0:
            mh = (rng.random(h_new.shape) >= dropout_p) / (1.0 - dropout_p)
            h_out = h_new * mh
        else:
            mh = None
            h_out = h_new
        y = h_out @ m.U
        p = _softmax_rows(y)
        loss -= np.log(p[np.arange(B), targets[:, t]]).sum()
        cache.append((x, mx, i, f, g, o, c, c_new, h, h_out, mh, p))
        h, c = h_new, c_new

    grads = {"S": np.zeros_like(m.S), "W": np.zeros_like(m.W),
             "b": np.zeros_like(m.b), "U": np.zeros_like(m.U)}
    dh_next = np.zeros((B, dh))
    dc_next = np.zeros((B, dh))
    for t in range(T - 1, -1, -1):
        x, mx, i, f, g, o, c_prev, c_new, h_prev, h_out, mh, p = cache[t]
        dy = p.copy()
        dy[np.arange(B), targets[:, t]] -= 1.0
        grads["U"] += h_out.T @ dy
        dhout = dy @ m.U.T
        if mh is not None:
            dhout = dhout * mh
        dhid = dhout + dh_next
        tc = np.tanh(c_new)
        do = dhid * tc
        dc = dhid * o * (1.0 - tc * tc) + dc_next
        df = dc * c_prev
        di = dc * g
        dg = dc * i
        dc_next = dc * f
        dz = np.concatenate([di * i * (1.0 - i),
                             df * f * (1.0 - f),
                             dg * (1.0 - g * g),
                             do * o * (1.0 - o)], axis=1)
        xh = np.concatenate([x, h_prev], axis=1)
        grads["W"] += dz.T @ xh
        grads["b"] += dz.sum(axis=0)
        dxh = dz @ m.W
        dx = dxh[:, :ds]
        if mx is not None:
            dx = dx * mx
        np.add.at(grads["S"].T, inputs[:, t], dx)
        dh_next = dxh[:, ds:]
    return loss, grads, h, c
