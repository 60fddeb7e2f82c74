"""Segment-level training loss and gradients against the per-step oracle in
train_reference, a gradient check with dropout, and the shared gate math."""

import numpy as np
from hypothesis import given, settings, strategies as st

import train_reference
from rarelm import neural
from rarelm.textcorpus import Vocabulary

TOL = 1e-12


def random_model(n_words, d_s, d_h, seed):
    """A model with normal(0, 0.5) weights, so every gate is far from 0 or 1."""
    m = neural.init_model(Vocabulary(["w%d" % i for i in range(n_words)]), d_s, d_h, seed)
    rng = np.random.default_rng(seed)
    for arr in (m.S, m.W, m.b, m.U):
        arr[...] = rng.normal(0.0, 0.5, arr.shape)
    return m


def close(got, want):
    return np.abs(got - want).max() <= TOL * max(1.0, np.abs(want).max())


@settings(max_examples=60, deadline=None)
@given(n_words=st.integers(1, 6), d_s=st.integers(1, 5), d_h=st.integers(1, 5),
       B=st.integers(1, 5), T=st.integers(1, 9), seed=st.integers(0, 2 ** 16),
       dropout_p=st.sampled_from([0.0, 0.3]))
def test_loss_and_grads_match_per_step_oracle(n_words, d_s, d_h, B, T, seed, dropout_p):
    m = random_model(n_words, d_s, d_h, seed)
    rng = np.random.default_rng(seed + 1)
    inputs = rng.integers(0, m.vocab_size, (B, T))
    targets = rng.integers(0, m.vocab_size, (B, T))
    h0 = rng.normal(0.0, 1.0, (B, d_h))
    c0 = rng.normal(0.0, 1.0, (B, d_h))
    got_rng = np.random.default_rng(seed + 2)
    want_rng = np.random.default_rng(seed + 2)
    loss, grads, h, c = neural.loss_and_grads(
        m, inputs, targets, h0, c0, dropout_p=dropout_p, rng=got_rng)
    want_loss, want_grads, want_h, want_c = train_reference.loss_and_grads(
        m, inputs, targets, h0, c0, dropout_p=dropout_p, rng=want_rng)
    assert close(np.float64(loss), np.float64(want_loss))
    assert sorted(grads) == ["S", "U", "W", "b"]
    for name in ("S", "W", "b", "U"):
        assert grads[name].shape == getattr(m, name).shape
        assert close(grads[name], want_grads[name]), name
    assert close(h, want_h) and close(c, want_c)
    # the whole-segment draw consumes exactly the per-step draws
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_gradient_check_with_dropout_and_state():
    # B=2, T=4, dropout on, nonzero entry state: exercises the time-major
    # row layout and the whole-segment masks; re-seeding the generator for
    # every evaluation repeats the masks
    m = neural.init_model(Vocabulary(["a", "b"]), d_s=2, d_h=2, seed=1)
    rng = np.random.default_rng(3)
    for P in (m.S, m.W, m.U):
        P += rng.uniform(-0.5, 0.5, P.shape)
    m.b += rng.uniform(-0.5, 0.5, m.b.shape)
    inputs = np.array([[0, 3, 4, 3], [4, 4, 3, 0]])
    targets = np.array([[3, 4, 3, 1], [4, 3, 1, 3]])
    h0 = rng.uniform(-0.5, 0.5, (2, 2))
    c0 = rng.uniform(-0.5, 0.5, (2, 2))

    def loss(with_grads=False):
        out = neural.loss_and_grads(m, inputs, targets, h0, c0, dropout_p=0.3,
                                    rng=np.random.default_rng(5))
        return out[1] if with_grads else out[0]

    grads = loss(with_grads=True)
    eps = 1e-5
    for name in ("S", "W", "b", "U"):
        P = getattr(m, name)
        num = np.zeros_like(P)
        for idx in np.ndindex(P.shape):
            orig = P[idx]
            P[idx] = orig + eps
            lp = loss()
            P[idx] = orig - eps
            lm = loss()
            P[idx] = orig
            num[idx] = (lp - lm) / (2.0 * eps)
        denom = np.maximum(np.maximum(np.abs(num), np.abs(grads[name])), 1e-6)
        rel = (np.abs(num - grads[name]) / denom).max()
        assert rel < 1e-4, (name, rel)


def test_gates_bit_identical_to_per_step_cell():
    # gate_step's gate math gives the bits of the oracle's per-slice cell
    for B, d_s, d_h in ((1, 1, 1), (3, 2, 5), (64, 32, 64)):
        m = random_model(3, d_s, d_h, seed=B)
        rng = np.random.default_rng(B)
        x = rng.normal(0.0, 2.0, (B, d_s))
        h_prev = rng.normal(0.0, 2.0, (B, d_h))
        c_prev = rng.normal(0.0, 2.0, (B, d_h))
        *_, want_c, want_h = train_reference._cell(m, x, h_prev, c_prev)
        z = np.concatenate([x, h_prev], axis=1) @ m.W.T + m.b
        c, h = neural._gates(z, c_prev)
        assert np.array_equal(c, want_c) and np.array_equal(h, want_h)
