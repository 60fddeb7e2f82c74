import json
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarelm import enrich, metrics, neural
from corpus_reference import pack
from rarelm.textcorpus import SPECIALS, Vocabulary, build_vocab, encode


def small_vocab(n_extra=1):
    return Vocabulary(["x%d" % i for i in range(n_extra)])


def zeros(m):
    return np.zeros((1, m.d_h))


def nn_ppl(m, ids, lens):
    """The perplexity `rarelm ppl --model` gives the packed sentences."""
    return metrics.perplexity(neural.lm_scores(m, None, ids, lens), lens)


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


def forward_step(m, words, h, c):
    """gate_step, then the natural-log probability of every word from each
    new row: (B, |V|) log-probabilities, new h, new c."""
    h, c = neural.gate_step(m, words, h, c)
    B, nv = h.shape[0], m.vocab_size
    lp = neural.target_logprobs(m, h, np.repeat(np.arange(B), nv), np.tile(np.arange(nv), B))
    return lp.reshape(B, nv), h, c


def test_forward_step_softmax():
    m = neural.init_model(small_vocab(3), 3, 4, seed=0)
    lp, _, _ = forward_step(m, [0], zeros(m), zeros(m))
    p = np.exp(lp[0])
    assert abs(p.sum() - 1.0) < 1e-6
    assert np.all(p > 0)


def test_forward_step_zero_weights_uniform():
    m = neural.init_model(small_vocab(1), 2, 2, seed=0)
    m.S[:] = 0; m.W[:] = 0; m.b[:] = 0; m.U[:] = 0
    lp, _, _ = forward_step(m, [0], zeros(m), zeros(m))
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
    lp, new_h, new_c = forward_step(m, [0], h0, c0)
    assert np.allclose(np.exp(lp[0]), expected, atol=1e-12)
    assert abs(new_h[0, 0] - h) < 1e-12
    assert abs(new_c[0, 0] - c) < 1e-12


def test_forward_step_out_of_range():
    m = neural.init_model(small_vocab(), 2, 2, seed=0)
    with pytest.raises(IndexError):
        neural.gate_step(m, [len(m.vocab)], zeros(m), zeros(m))
    for bad in (-1, len(m.vocab)):
        with pytest.raises(IndexError):
            neural.target_logprobs(m, zeros(m), [0], [bad])


def test_forward_step_rejects_a_step_wider_than_the_cap():
    # wider steps and projections can change bits with 2 BLAS threads
    m = neural.init_model(small_vocab(), 2, 3, seed=0)
    n = neural.STEP_ROWS_MAX
    h = np.zeros((n + 1, m.d_h))
    neural.gate_step(m, np.ones(n, dtype=int), h[:n], h[:n])
    neural.target_logprobs(m, h[:n], [0], [1])
    with pytest.raises(ValueError, match="wider than STEP_ROWS_MAX=64"):
        neural.gate_step(m, np.ones(n + 1, dtype=int), h, h)
    with pytest.raises(ValueError, match="wider than STEP_ROWS_MAX=64"):
        neural.target_logprobs(m, h, [0], [1])


def test_forward_step_state_not_mutated():
    m = neural.init_model(small_vocab(2), 2, 3, seed=0)
    h, c = zeros(m), zeros(m)
    neural.gate_step(m, [1], h, c)
    assert np.array_equal(h, zeros(m)) and np.array_equal(c, zeros(m))


def test_projection_reads_only_its_targets_from_a_reused_buffer():
    # a pass of B rows through a wider buffer gives each target the bits of
    # the full log-softmax row, whatever the buffer held, for B of 1 to 12
    m = neural.init_model(small_vocab(6), 3, 4, seed=2)
    rng = np.random.default_rng(2)
    m.U[...] = rng.normal(0.0, 2.0, m.U.shape)
    buf = np.full((12, m.vocab_size), np.nan)
    for B in range(1, 13):
        h = rng.normal(size=(B, m.d_h))
        y = (h[np.arange(max(B, 8)) % B] @ m.U)[:B]
        y -= y.max(axis=1, keepdims=True)
        y -= np.log(np.exp(y).sum(axis=1, keepdims=True))
        rows = rng.integers(B, size=20)
        targets = rng.integers(m.vocab_size, size=20)
        got = neural.target_logprobs(m, h, rows, targets, buf)
        assert got.tobytes() == y[rows, targets].tobytes()


def test_softmax_property_random_triples():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = neural.init_model(small_vocab(int(rng.integers(1, 5))),
                              int(rng.integers(1, 4)), int(rng.integers(1, 5)),
                              seed=int(rng.integers(1000)))
        h, c = rng.normal(size=(1, m.d_h)), rng.normal(size=(1, m.d_h))
        lp, _, _ = forward_step(m, [int(rng.integers(m.vocab_size))], h, c)
        p = np.exp(lp[0])
        assert abs(p.sum() - 1.0) < 1e-6 and np.all(p > 0)


def test_sentence_logprob_zero_weight_analytic():
    v = Vocabulary(["x%d" % i for i in range(7)])  # |V| = 10
    m = neural.init_model(v, 2, 2, seed=0)
    m.S[:] = 0; m.W[:] = 0; m.b[:] = 0; m.U[:] = 0
    ids = [0, 3, 4, 5, 1]  # 4 predicted tokens
    lp = sum(neural.position_logprobs(m, *pack([ids])).tolist())
    assert abs(lp - 4 * math.log10(0.1)) < 1e-9
    assert abs(nn_ppl(m, *pack([ids])) - 10.0) < 1e-9


def test_sentence_logprob_matches_stepwise():
    m = neural.init_model(small_vocab(3), 3, 4, seed=5)
    ids = [0, 3, 4, 3, 1]
    h = c = zeros(m)
    total = 0.0
    for t in range(len(ids) - 1):
        h, c = neural.gate_step(m, [ids[t]], h, c)
        total += neural.target_logprobs(m, h, [0], [ids[t + 1]])[0] / neural.LOG10
    assert abs(sum(neural.position_logprobs(m, *pack([ids])).tolist()) - total) < 1e-12


def test_perplexity_empty_corpus():
    m = neural.init_model(small_vocab(), 2, 2, seed=0)
    with pytest.raises(ValueError, match="empty corpus"):
        nn_ppl(m, *pack([]))
    # sentences, but no position to score
    with pytest.raises(ValueError, match="empty corpus"):
        nn_ppl(m, *pack([[0], []]))


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
    v = build_vocab(w for s in corpus for w in s)
    enc = pack([encode(s, v) for s in corpus])
    m = neural.init_model(v, 4, 8, seed=1)
    cfg = neural.TrainConfig(learning_rate=0.5, epochs=1, batch_size=4,
                             bptt_len=8, dropout_p=0.0, seed=2)
    ppl0 = nn_ppl(m, *enc)
    trained, history = neural.train(m, enc, cfg)
    assert nn_ppl(trained, *enc) < ppl0
    assert len(history) == 1


def test_training_determinism():
    rng = random.Random(1)
    corpus = [[rng.choice("ab") for _ in range(5)] for _ in range(20)]
    v = build_vocab(w for s in corpus for w in s)
    enc = pack([encode(s, v) for s in corpus])
    m = neural.init_model(v, 3, 4, seed=1)
    cfg = neural.TrainConfig(learning_rate=0.5, epochs=2, batch_size=4,
                             bptt_len=4, dropout_p=0.2, seed=3)
    t1, _ = neural.train(m, enc, cfg)
    t2, _ = neural.train(m, enc, cfg)
    for a, b in ((t1.S, t2.S), (t1.W, t2.W), (t1.b, t2.b), (t1.U, t2.U)):
        assert np.array_equal(a, b)


def test_training_does_not_mutate_input_model():
    corpus = [["a", "b"]] * 10
    v = build_vocab(w for s in corpus for w in s)
    enc = pack([encode(s, v) for s in corpus])
    m = neural.init_model(v, 3, 4, seed=1)
    S0 = m.S.copy()
    neural.train(m, enc, neural.TrainConfig(epochs=1, batch_size=2,
                                            bptt_len=4, dropout_p=0.0, seed=0))
    assert np.array_equal(m.S, S0)


def test_training_shapes_preserved():
    corpus = [["a", "b", "c"]] * 10
    v = build_vocab(w for s in corpus for w in s)
    enc = pack([encode(s, v) for s in corpus])
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
        neural.TrainConfig(lr_decay=lr_decay)


@pytest.mark.parametrize("field", ["learning_rate", "clip_norm"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
def test_train_config_rejects_non_finite(field, value):
    # a nan clip norm turns clipping off, since no norm compares > nan
    with pytest.raises(ValueError, match="%s must be finite and > 0" % field):
        neural.TrainConfig(**{field: value})


def test_train_rejects_empty_validation_corpus():
    corpus = [["a", "b"]] * 10
    v = build_vocab(w for s in corpus for w in s)
    enc = pack([encode(s, v) for s in corpus])
    logged = []
    with pytest.raises(ValueError, match="empty validation corpus"):
        neural.train(neural.init_model(v, 3, 4, seed=1), enc,
                     neural.TrainConfig(epochs=1, batch_size=2), val=pack([]),
                     log=logged.append)
    assert logged == []


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    v = build_vocab(["a", "b", "c"] * 5)
    m = neural.init_model(v, 3, 4, seed=7)
    p1, p2 = tmp_path / "a.rlm", tmp_path / "b.rlm"
    neural.save_model(m, p1)
    loaded = neural.load_model(p1)
    neural.save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.vocab.id_to_word == v.id_to_word
    assert loaded.vocab.counts == v.counts


def test_checkpoint_written_in_blocks_has_whole_array_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(neural, "BATCH_ROWS", 3)
    m = neural.init_model(build_vocab(["a", "b", "c"]), 5, 4, seed=7)
    p = tmp_path / "m.rlm"
    neural.save_model(m, p)
    payload = b"".join(arr.astype("<f4").tobytes() for arr in (m.S, m.W, m.b, m.U))
    assert all(arr.shape[0] > neural.BATCH_ROWS for arr in (m.S, m.W, m.b, m.U))
    data = p.read_bytes()
    assert data[8 + int.from_bytes(data[4:8], "little"):] == payload


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


@pytest.mark.parametrize("value", ["2", 0, -1, 2.5, True])
def test_checkpoint_rejects_bad_dims(tmp_path, value):
    # d_s is 1, so a true that passed as 1 would also pass the payload length
    p = tmp_path / "m.rlm"
    neural.save_model(neural.init_model(small_vocab(), 1, 2, seed=0), p)
    rewrite_header(p, lambda h: h.update(d_s=value))
    with pytest.raises(neural.CheckpointError, match="positive integers"):
        neural.load_model(p)


@pytest.mark.parametrize("value", [True, 1.0, 2, None])
def test_checkpoint_rejects_other_versions(tmp_path, value):
    p = tmp_path / "m.rlm"
    neural.save_model(neural.init_model(small_vocab(), 2, 2, seed=0), p)
    rewrite_header(p, lambda h: h.update(version=value))
    with pytest.raises(neural.CheckpointError,
                       match="unsupported checkpoint version %s$" % value):
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


def test_checkpoint_rejects_repeated_word(tmp_path):
    # a repeat would give fewer vocabulary ids than columns of S and U
    p = tmp_path / "m.rlm"
    neural.save_model(neural.init_model(small_vocab(2), 2, 2, seed=0), p)
    rewrite_header(p, lambda h: h["vocab"].__setitem__(4, h["vocab"][3]))
    with pytest.raises(neural.CheckpointError, match="repeats a word"):
        neural.load_model(p)


def test_checkpoint_rejects_non_string_word(tmp_path):
    p = tmp_path / "m.rlm"
    neural.save_model(neural.init_model(small_vocab(), 2, 2, seed=0), p)
    rewrite_header(p, lambda h: h["vocab"].__setitem__(3, 7))
    with pytest.raises(neural.CheckpointError, match="non-string word"):
        neural.load_model(p)


def set_first_count(value):
    return lambda h: h["counts"].__setitem__(0, value)


@pytest.mark.parametrize("edit", [
    set_first_count(None), set_first_count(-1), set_first_count("3"),
    set_first_count(1.5), set_first_count(True), lambda h: h.update(counts=7),
    lambda h: h["counts"].pop(),
], ids=["null", "negative", "string", "float", "bool", "not-a-list", "short"])
def test_checkpoint_rejects_bad_counts(tmp_path, edit):
    p = tmp_path / "m.rlm"
    neural.save_model(neural.init_model(small_vocab(), 2, 2, seed=0), p)
    rewrite_header(p, edit)
    with pytest.raises(neural.CheckpointError,
                       match="counts must be a list of %d non-negative integers"
                       % len(small_vocab())):
        neural.load_model(p)


def enrich_to_missing_output(p):
    """enrich_checkpoint from p; asserts that it created no file."""
    try:
        with open(p, "rb") as f:
            enrich.enrich_checkpoint(f, neural._read_header(f), p.parent / "out.rlm",
                                     enrich.EnrichmentPlan({"x0": [("x1", 1.0)]}))
    finally:
        assert [f.name for f in p.parent.iterdir()] == [p.name]


@pytest.mark.parametrize("read", [neural.load_model, enrich_to_missing_output],
                         ids=["load_model", "enrich_checkpoint"])
@pytest.mark.parametrize("name", "SWbU")
@pytest.mark.parametrize("row", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite(tmp_path, monkeypatch, read, name, row, bad):
    # with 3-row blocks every matrix spans several, so the first and the
    # last row fall in different blocks
    monkeypatch.setattr(neural, "BATCH_ROWS", 3)
    m = neural.init_model(small_vocab(2), 5, 4, seed=0)
    assert all(len(getattr(m, n)) > 3 for n in "SWbU")
    getattr(m, name)[row] = bad
    p = tmp_path / "m.rlm"
    neural.save_model(m, p)
    with pytest.raises(neural.CheckpointError, match="non-finite weights in %s" % name):
        read(p)


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


def test_model_digest_sees_one_ulp_in_every_array():
    m = neural.init_model(Vocabulary(["a", "b", "c"]), 4, 5, seed=0)
    digest = neural.model_digest(m)
    assert neural.model_digest(m.copy()) == digest
    for name in "SWbU":
        other = m.copy()
        X = getattr(other, name).reshape(-1)
        X[-1] = np.nextafter(X[-1], np.inf)
        assert neural.model_digest(other) != digest, name
        X[-1] = np.nextafter(X[-1], -np.inf)
        assert neural.model_digest(other) == digest, name
