import json
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarelm import neural
from rarelm.textcorpus import SPECIALS, Vocabulary, build_vocab, encode, pack


def small_vocab(n_extra=1):
    return Vocabulary(["x%d" % i for i in range(n_extra)])


def zeros(m):
    return np.zeros((1, m.d_h))


def numeric_grads(m, inputs, targets, h0, c0, eps=1e-5):
    out = {}
    for name in ("S", "W", "b", "U"):
        P = getattr(m, name)
        num = np.zeros_like(P)
        it = np.nditer(P, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = P[idx]
            P[idx] = orig + eps
            lp, _, _, _ = neural.loss_and_grads(m, inputs, targets, h0, c0)
            P[idx] = orig - eps
            lm, _, _, _ = neural.loss_and_grads(m, inputs, targets, h0, c0)
            P[idx] = orig
            num[idx] = (lp - lm) / (2.0 * eps)
        out[name] = num
    return out


def grad_check_model():
    # weights well away from zero so gradients dominate fd noise
    m = neural.init_model(small_vocab(1), d_s=2, d_h=2, seed=1)
    rng = np.random.default_rng(3)
    for P in (m.S, m.W, m.U):
        P += rng.uniform(-0.5, 0.5, P.shape)
    m.b += rng.uniform(-0.5, 0.5, m.b.shape)
    return m


def test_init_determinism():
    v = small_vocab(2)
    m1 = neural.init_model(v, 4, 3, seed=9)
    m2 = neural.init_model(v, 4, 3, seed=9)
    for a, b in ((m1.S, m2.S), (m1.W, m2.W), (m1.b, m2.b), (m1.U, m2.U)):
        assert np.array_equal(a, b)


def test_init_shapes():
    v = small_vocab(2)  # |V| = 5
    m = neural.init_model(v, d_s=2, d_h=3, seed=0)
    assert m.S.shape == (2, 5)
    assert m.U.shape == (3, 5)
    assert m.W.shape == (12, 5)
    assert m.b.shape == (12,)


def test_init_forget_bias():
    m = neural.init_model(small_vocab(), d_s=2, d_h=3, seed=0)
    assert np.all(m.b[3:6] == 1.0)
    assert np.all(m.b[:3] == 0.0) and np.all(m.b[6:] == 0.0)


def test_forward_step_softmax():
    m = neural.init_model(small_vocab(3), 3, 4, seed=0)
    lp, _, _ = neural.forward_step(m, [0], zeros(m), zeros(m))
    p = np.exp(lp[0])
    assert abs(p.sum() - 1.0) < 1e-6
    assert np.all(p > 0)


def test_forward_step_zero_weights_uniform():
    m = neural.init_model(small_vocab(1), 2, 2, seed=0)
    m.S[:] = 0; m.W[:] = 0; m.b[:] = 0; m.U[:] = 0
    lp, _, _ = neural.forward_step(m, [0], zeros(m), zeros(m))
    assert np.allclose(np.exp(lp), 0.25)


def test_forward_step_hand_scalar_lstm():
    # d_s = d_h = 1 model traced by hand
    v = Vocabulary([])  # |V| = 3
    m = neural.NeuralLM(v, 1, 1,
                        S=np.array([[0.5, -0.3, 0.2]]),
                        W=np.array([[0.1, 0.4], [0.2, -0.1],
                                    [0.3, 0.2], [-0.2, 0.1]]),
                        b=np.array([0.0, 1.0, 0.0, 0.0]),
                        U=np.array([[0.7, -0.5, 0.1]]))
    h0, c0 = np.array([[0.25]]), np.array([[0.1]])
    x = 0.5
    zi = 0.1 * x + 0.4 * 0.25
    zf = 0.2 * x + -0.1 * 0.25 + 1.0
    zg = 0.3 * x + 0.2 * 0.25
    zo = -0.2 * x + 0.1 * 0.25
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    c = sig(zf) * 0.1 + sig(zi) * math.tanh(zg)
    h = sig(zo) * math.tanh(c)
    y = np.array([0.7 * h, -0.5 * h, 0.1 * h])
    exp = np.exp(y - y.max())
    expected = exp / exp.sum()
    lp, new_h, new_c = neural.forward_step(m, [0], h0, c0)
    assert np.allclose(np.exp(lp[0]), expected, atol=1e-12)
    assert abs(new_h[0, 0] - h) < 1e-12
    assert abs(new_c[0, 0] - c) < 1e-12


def test_forward_step_out_of_range():
    m = neural.init_model(small_vocab(), 2, 2, seed=0)
    with pytest.raises(IndexError):
        neural.forward_step(m, [len(m.vocab)], zeros(m), zeros(m))


def test_forward_step_state_not_mutated():
    m = neural.init_model(small_vocab(2), 2, 3, seed=0)
    h, c = zeros(m), zeros(m)
    neural.forward_step(m, [1], h, c)
    assert np.array_equal(h, zeros(m)) and np.array_equal(c, zeros(m))


def test_softmax_property_random_triples():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = neural.init_model(small_vocab(int(rng.integers(1, 5))),
                              int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                              seed=int(rng.integers(1000)))
        h, c = rng.normal(size=(1, m.d_h)), rng.normal(size=(1, m.d_h))
        lp, _, _ = neural.forward_step(m, [int(rng.integers(m.vocab_size))], h, c)
        p = np.exp(lp[0])
        assert abs(p.sum() - 1.0) < 1e-6 and np.all(p > 0)


def test_sentence_logprob_zero_weight_analytic():
    v = Vocabulary(["x%d" % i for i in range(7)])  # |V| = 10
    m = neural.init_model(v, 2, 2, seed=0)
    m.S[:] = 0; m.W[:] = 0; m.b[:] = 0; m.U[:] = 0
    ids = [0, 3, 4, 5, 1]  # 4 predicted tokens
    lp = sum(neural.position_logprobs(m, *pack([ids])).tolist())
    assert abs(lp - 4 * math.log10(0.1)) < 1e-9
    assert abs(neural.nn_perplexity(m, [ids]) - 10.0) < 1e-9


def test_sentence_logprob_matches_stepwise():
    m = neural.init_model(small_vocab(3), 3, 4, seed=5)
    ids = [0, 3, 4, 3, 1]
    h = c = zeros(m)
    total = 0.0
    for t in range(len(ids) - 1):
        lp, h, c = neural.forward_step(m, [ids[t]], h, c)
        total += lp[0, ids[t + 1]] / neural.LOG10
    assert abs(sum(neural.position_logprobs(m, *pack([ids])).tolist()) - total) < 1e-12


def test_perplexity_empty_corpus():
    m = neural.init_model(small_vocab(), 2, 2, seed=0)
    with pytest.raises(ValueError):
        neural.nn_perplexity(m, [])
    # sentences, but no position to score
    with pytest.raises(ValueError, match="empty corpus"):
        neural.nn_perplexity(m, [[0], []])


def test_gradient_check_all_groups():
    m = grad_check_model()
    inputs = np.array([[0, 3, 3]])
    targets = np.array([[3, 3, 1]])
    h0 = np.zeros((1, 2)); c0 = np.zeros((1, 2))
    _, grads, _, _ = neural.loss_and_grads(m, inputs, targets, h0, c0)
    num = numeric_grads(m, inputs, targets, h0, c0)
    for name in ("S", "W", "b", "U"):
        denom = np.maximum(np.maximum(np.abs(num[name]), np.abs(grads[name])), 1e-6)
        rel = (np.abs(num[name] - grads[name]) / denom).max()
        assert rel < 1e-4, (name, rel)


def test_clip_gradients():
    grads = {"a": np.array([3.0, 4.0]), "b": np.array([0.0])}
    norm = neural.clip_gradients(grads, 1e-3)
    assert abs(norm - 5.0) < 1e-12
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert total <= 1e-3 + 1e-9


def test_training_lowers_perplexity():
    rng = random.Random(0)
    corpus = [["a", "b", "c"] * rng.randint(1, 3) for _ in range(20)]
    v = build_vocab(corpus)
    enc = [encode(s, v) for s in corpus]
    m = neural.init_model(v, 4, 8, seed=1)
    cfg = neural.TrainConfig(learning_rate=0.5, epochs=1, batch_size=4,
                             bptt_len=8, dropout_p=0.0, seed=2)
    ppl0 = neural.nn_perplexity(m, enc)
    trained, history = neural.train(m, enc, cfg)
    assert neural.nn_perplexity(trained, enc) < ppl0
    assert len(history) == 1


def test_training_determinism():
    rng = random.Random(1)
    corpus = [[rng.choice("ab") for _ in range(5)] for _ in range(20)]
    v = build_vocab(corpus)
    enc = [encode(s, v) for s in corpus]
    m = neural.init_model(v, 3, 4, seed=1)
    cfg = neural.TrainConfig(learning_rate=0.5, epochs=2, batch_size=4,
                             bptt_len=4, dropout_p=0.2, seed=3)
    t1, _ = neural.train(m, enc, cfg)
    t2, _ = neural.train(m, enc, cfg)
    for a, b in ((t1.S, t2.S), (t1.W, t2.W), (t1.b, t2.b), (t1.U, t2.U)):
        assert np.array_equal(a, b)


def test_training_does_not_mutate_input_model():
    corpus = [["a", "b"]] * 10
    v = build_vocab(corpus)
    enc = [encode(s, v) for s in corpus]
    m = neural.init_model(v, 3, 4, seed=1)
    S0 = m.S.copy()
    neural.train(m, enc, neural.TrainConfig(epochs=1, batch_size=2,
                                            bptt_len=4, dropout_p=0.0, seed=0))
    assert np.array_equal(m.S, S0)


def test_training_shapes_preserved():
    corpus = [["a", "b", "c"]] * 10
    v = build_vocab(corpus)
    enc = [encode(s, v) for s in corpus]
    m = neural.init_model(v, 3, 4, seed=1)
    t, _ = neural.train(m, enc, neural.TrainConfig(
        epochs=2, batch_size=2, bptt_len=4, dropout_p=0.1, seed=0))
    assert t.S.shape == m.S.shape and t.W.shape == m.W.shape
    assert t.b.shape == m.b.shape and t.U.shape == m.U.shape
    for arr in (t.S, t.W, t.b, t.U):
        assert np.all(np.isfinite(arr))


@pytest.mark.parametrize("lr_decay", [-1.0, 0.0, 1.5])
def test_train_config_rejects_lr_decay(lr_decay):
    # a negative factor turns descent into ascent; 0 silently stops learning
    with pytest.raises(ValueError, match=r"lr_decay must be in \(0, 1\]"):
        neural.TrainConfig(lr_decay=lr_decay).validate()


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    corpus = [["a", "b", "c"]] * 5
    v = build_vocab(corpus)
    m = neural.init_model(v, 3, 4, seed=7)
    p1, p2 = tmp_path / "a.rlm", tmp_path / "b.rlm"
    neural.save_model(m, p1)
    loaded = neural.load_model(p1)
    neural.save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.vocab.id_to_word == v.id_to_word
    assert loaded.vocab.counts == v.counts


@settings(max_examples=30, deadline=None)
@given(words=st.lists(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1)
                      .filter(lambda w: w not in SPECIALS), max_size=6),
       d_s=st.integers(1, 4), d_h=st.integers(1, 4), seed=st.integers(0, 2 ** 16),
       scale=st.sampled_from([1e-30, 1e-3, 1.0, 1e30]), data=st.data())
def test_checkpoint_roundtrip_property(tmp_path_factory, words, d_s, d_h, seed,
                                       scale, data):
    # any words and counts, and weights from tiny to huge, come back as
    # saved: parameters rounded to float32
    counts = {w: data.draw(st.integers(0, 2 ** 40)) for w in list(SPECIALS) + words}
    m = neural.init_model(Vocabulary(words, counts), d_s, d_h, seed)
    rng = np.random.default_rng(seed)
    for arr in (m.S, m.W, m.b, m.U):
        arr[...] = rng.normal(0.0, scale, arr.shape)
    p = tmp_path_factory.mktemp("ckpt") / "m.rlm"
    neural.save_model(m, p)
    loaded = neural.load_model(p)
    assert (loaded.d_s, loaded.d_h) == (d_s, d_h)
    assert loaded.vocab.id_to_word == m.vocab.id_to_word
    assert loaded.vocab.counts == m.vocab.counts
    for name in "SWbU":
        want = getattr(m, name).astype(np.float32).astype(np.float64)
        assert np.array_equal(getattr(loaded, name), want)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.rlm"
    p.write_bytes(b"XXXX" + b"\0" * 20)
    with pytest.raises(neural.CheckpointError, match="magic"):
        neural.load_model(p)


def test_checkpoint_truncated(tmp_path):
    m = neural.init_model(small_vocab(), 2, 2, seed=0)
    p = tmp_path / "m.rlm"
    neural.save_model(m, p)
    data = p.read_bytes()
    p.write_bytes(data[:-10])
    with pytest.raises(neural.CheckpointError, match="payload length"):
        neural.load_model(p)


def test_checkpoint_layout(tmp_path):
    m = neural.init_model(small_vocab(2), 3, 2, seed=4)
    p = tmp_path / "m.rlm"
    neural.save_model(m, p)
    data = p.read_bytes()
    (hlen,) = struct.unpack("<I", data[4:8])
    payload = b"".join(a.astype("<f4").tobytes() for a in (m.S, m.W, m.b, m.U))
    assert data[:4] == neural.MAGIC and data[8 + hlen:] == payload


def rewrite_header(path, edit):
    """Apply edit to the JSON header of the checkpoint at path."""
    data = path.read_bytes()
    (hlen,) = struct.unpack("<I", data[4:8])
    header = json.loads(data[8:8 + hlen])
    edit(header)
    hbytes = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:4] + struct.pack("<I", len(hbytes)) + hbytes
                     + data[8 + hlen:])


@pytest.mark.parametrize("key", ["d_s", "d_h", "vocab_size", "vocab"])
def test_checkpoint_missing_key_named(tmp_path, key):
    p = tmp_path / "m.rlm"
    neural.save_model(neural.init_model(small_vocab(), 2, 2, seed=0), p)
    rewrite_header(p, lambda h: h.pop(key))
    with pytest.raises(neural.CheckpointError, match="lacks '%s'" % key):
        neural.load_model(p)


@pytest.mark.parametrize("value", ["2", 0, -1, 2.5])
def test_checkpoint_rejects_bad_dims(tmp_path, value):
    p = tmp_path / "m.rlm"
    neural.save_model(neural.init_model(small_vocab(), 2, 2, seed=0), p)
    rewrite_header(p, lambda h: h.update(d_s=value))
    with pytest.raises(neural.CheckpointError, match="positive integers"):
        neural.load_model(p)


def test_checkpoint_rejects_non_object_header(tmp_path):
    p = tmp_path / "m.rlm"
    p.write_bytes(neural.MAGIC + struct.pack("<I", 2) + b"[]")
    with pytest.raises(neural.CheckpointError, match="not a JSON object"):
        neural.load_model(p)


def test_checkpoint_rejects_non_list_vocab(tmp_path):
    p = tmp_path / "m.rlm"
    neural.save_model(neural.init_model(small_vocab(), 2, 2, seed=0), p)
    rewrite_header(p, lambda h: h.update(vocab=4))
    with pytest.raises(neural.CheckpointError, match="vocabulary is inconsistent"):
        neural.load_model(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite(tmp_path, bad):
    m = neural.init_model(small_vocab(), 2, 2, seed=0)
    m.U[1, 2] = bad
    p = tmp_path / "m.rlm"
    neural.save_model(m, p)
    with pytest.raises(neural.CheckpointError, match="non-finite weights in U"):
        neural.load_model(p)


@pytest.mark.parametrize("extra", [2, 4])
def test_checkpoint_trailing_bytes(tmp_path, extra):
    p = tmp_path / "m.rlm"
    neural.save_model(neural.init_model(small_vocab(), 2, 2, seed=0), p)
    p.write_bytes(p.read_bytes() + b"\0" * extra)
    with pytest.raises(neural.CheckpointError, match="payload length"):
        neural.load_model(p)


def test_checkpoint_header_length_past_end(tmp_path):
    p = tmp_path / "m.rlm"
    p.write_bytes(neural.MAGIC + struct.pack("<I", 1000) + b"{}")
    with pytest.raises(neural.CheckpointError, match="truncated checkpoint header"):
        neural.load_model(p)


def test_softmax_underflow_gives_finite_logprob():
    # P(b | a) underflows to 0.0 in the probability domain
    m = neural.init_model(Vocabulary(["a", "b"]), 2, 2)
    m.U[0, 3] = 1e4
    m.U[0, 4] = -1e4
    m.b[:] = 5
    lp = sum(neural.position_logprobs(m, *pack([[0, 4, 1]])).tolist())
    assert math.isfinite(lp) and lp < -1000
