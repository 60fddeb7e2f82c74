"""Single-layer LSTM language model trained from scratch with truncated BPTT.

The model keeps an input embedding matrix S (d_s x |V|), one LSTM layer
with gate order (input, forget, cell, output), and an output embedding
matrix U (d_h x |V|) applied as a pure inner product: y = U^T h, no output
bias. Parameters live in float64; checkpoints store float32.
"""

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .metrics import perplexity
from .textcorpus import SPECIALS, Vocabulary, pack

MAGIC = b"RLM1"
CHECKPOINT_VERSION = 1
LOG10 = math.log(10.0)
BATCH_ROWS = 64  # rows per batched inference step; bounds memory at any |V|
GROUP_ROWS = 2048  # sequences per prefix tree; bounds the state kept per position


@dataclass
class TrainConfig:
    learning_rate: float = 1.0
    clip_norm: float = 5.0
    bptt_len: int = 32
    dropout_p: float = 0.2
    epochs: int = 20
    seed: int = 0
    lr_decay: float = 0.5
    batch_size: int = 16

    def validate(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError("dropout_p must be in [0, 1)")
        if self.bptt_len < 1:
            raise ValueError("bptt_len must be >= 1")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")


class NeuralLM:
    """Container for the three parameter groups S, (W, b), U."""

    def __init__(self, vocab: Vocabulary, d_s: int, d_h: int,
                 S: np.ndarray, W: np.ndarray, b: np.ndarray, U: np.ndarray):
        self.vocab = vocab
        self.d_s = d_s
        self.d_h = d_h
        self.S = S  # (d_s, |V|)
        self.W = W  # (4*d_h, d_s + d_h), gate order i, f, g, o
        self.b = b  # (4*d_h,)
        self.U = U  # (d_h, |V|)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def copy(self) -> "NeuralLM":
        return NeuralLM(self.vocab, self.d_s, self.d_h,
                        self.S.copy(), self.W.copy(), self.b.copy(), self.U.copy())


def init_model(vocab: Vocabulary, d_s: int = 32, d_h: int = 64,
               seed: int = 0) -> NeuralLM:
    """Seeded uniform(-0.05, 0.05) init; forget-gate bias slice set to 1."""
    if d_s < 1 or d_h < 1:
        raise ValueError("embedding and hidden sizes must be >= 1")
    rng = np.random.default_rng(seed)
    nv = len(vocab)
    S = rng.uniform(-0.05, 0.05, (d_s, nv))
    W = rng.uniform(-0.05, 0.05, (4 * d_h, d_s + d_h))
    U = rng.uniform(-0.05, 0.05, (d_h, nv))
    b = np.zeros(4 * d_h)
    b[d_h:2 * d_h] = 1.0  # forget gate
    return NeuralLM(vocab, d_s, d_h, S, W, b, U)


def _gates(z, c_prev):
    """LSTM gate nonlinearities for pre-activations z (B, 4*d_h), gate order
    i, f, g, o. Overwrites z with the gate activations; returns new (c, h).

    The sigmoid runs in place over the whole of z and tanh over the g slice,
    which gives the same bits as a sigmoid on each of the i, f and o slices.
    """
    dh = z.shape[1] // 4
    g = np.tanh(z[:, 2 * dh:3 * dh])
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)
    z[:, 2 * dh:3 * dh] = g
    c = z[:, dh:2 * dh] * c_prev + z[:, :dh] * g
    h = z[:, 3 * dh:] * np.tanh(c)
    return c, h


def forward_step(m: NeuralLM, words, h, c):
    """One batched inference step over B rows.

    words: (B,) input ids; h, c: (B, d_h) hidden and cell state. Returns
    (natural-log softmax over V, shape (B, |V|), new h, new c). The input
    state is never mutated.
    """
    words = np.asarray(words)
    if words.min() < 0 or words.max() >= m.vocab_size:
        raise IndexError("word id out of range for |V|=%d" % m.vocab_size)
    z = np.concatenate([m.S[:, words].T, h], axis=1) @ m.W.T + m.b
    c, h = _gates(z, c)
    y = h @ m.U
    y -= y.max(axis=1, keepdims=True)
    y -= np.log(np.exp(y).sum(axis=1, keepdims=True))
    return y, h, c


def position_logprobs(m: NeuralLM, ids, lens) -> np.ndarray:
    """log10 P(ids[t+1] | ids[:t+1]) for every position t of each
    bos/eos-framed id sequence; state is reset per sequence.

    `ids` holds the sequences back to back and `lens` their lengths, as
    `textcorpus.pack` lays them out. Returns one flat array in input
    order: sequence i contributes its max(lens[i] - 1, 0) positions, as in
    `NGramModel.prob_many`.

    Each distinct prefix goes through the LSTM once. Sequences are taken
    GROUP_ROWS at a time, in input order, and each group is walked as a
    prefix tree one position at a time: the distinct (parent prefix, input
    word) keys of its live rows are its distinct prefixes ids[:t+1]. They
    step through forward_step BATCH_ROWS at a time, each from its parent
    prefix's state, and every sequence reads its target from its own
    prefix's row.
    """
    nv = m.vocab_size
    if ids.size and (ids.min() < 0 or ids.max() >= nv):
        raise IndexError("word id out of range for |V|=%d" % nv)
    n = lens.size
    npos = np.maximum(lens - 1, 0)
    start = np.cumsum(lens) - lens
    ostart = np.cumsum(npos) - npos
    lp = np.empty(int(npos.sum()))
    for a in range(0, n, GROUP_ROWS):
        rows = np.arange(a, min(a + GROUP_ROWS, n))
        slot = np.zeros(rows.size, dtype=np.int64)  # row -> its prefix's state row
        h = c = np.zeros((1, m.d_h))
        for t in range(int(npos[rows].max())):
            live = npos[rows] > t
            rows = rows[live]
            keys, slot = np.unique(slot[live] * nv + ids[start[rows] + t],
                                   return_inverse=True)
            parent, words = np.divmod(keys, nv)
            nh = np.empty((keys.size, m.d_h))
            nc = np.empty((keys.size, m.d_h))
            chunk = slot // BATCH_ROWS
            target = ids[start[rows] + t + 1]
            for j, b in enumerate(range(0, keys.size, BATCH_ROWS)):
                e = b + BATCH_ROWS
                p = parent[b:e]
                logp, nh[b:e], nc[b:e] = forward_step(m, words[b:e], h[p], c[p])
                sel = chunk == j
                lp[ostart[rows[sel]] + t] = logp[slot[sel] - b, target[sel]]
            h, c = nh, nc
    lp /= LOG10
    return lp


def nn_perplexity(m: NeuralLM, corpus) -> float:
    """Perplexity over framed sentences; eos counted, bos not."""
    ids, lens = pack(corpus)
    return perplexity(position_logprobs(m, ids, lens), lens)


def loss_and_grads(m: NeuralLM, inputs, targets, h0, c0,
                   dropout_p: float = 0.0, rng=None):
    """Sum of cross-entropy (nats) over a (B, T) segment plus gradients.

    Returns (loss, grads dict with keys S/W/b/U, final h, final c). The
    final state is detached: gradients do not flow past the segment start.

    Rows are time-major: row t*B + r is step t of batch row r. Only the
    recurrence runs per step, h @ W_h.T and the gates forward, the dc
    recurrence and dz @ W_h backward. The embedding gather, the dropout
    masks, the input projection, the softmax and the weight gradients run
    once over all T*B rows.
    """
    B, T = inputs.shape
    dh, ds = m.d_h, m.d_s
    n = T * B
    Wx, Wh = m.W[:, :ds], m.W[:, ds:]
    WhT = np.ascontiguousarray(Wh.T)
    ids = inputs.T.reshape(n)
    # xh[t] = [x_t, h_{t-1}], the stacked input to step t's gates; the h
    # part of xh[T] holds the last step's h
    xh = np.empty((T + 1, B, ds + dh))
    xh[:T, :, :ds] = m.S[:, ids].T.reshape(T, B, ds)
    x = xh[:T, :, :ds].reshape(n, ds)  # a view: masking x masks xh
    if dropout_p > 0.0:
        # one draw, laid out as the per-step x mask then h mask of each step;
        # v * keep * scale has the bits of v * (keep / (1 - p))
        keep = rng.random((T, B * (ds + dh))) >= dropout_p
        kx = keep[:, :B * ds].reshape(n, ds)
        kh = keep[:, B * ds:].reshape(n, dh)
        scale = 1.0 / (1.0 - dropout_p)
        x *= kx
        x *= scale
    gz = x @ Wx.T  # pre-activations, then gates, then dz
    gz += m.b
    gz = gz.reshape(T, B, 4 * dh)
    cs = np.empty((T + 1, B, dh))
    cs[0] = c0
    h, c = h0, c0
    xh[0, :, ds:] = h0
    for t in range(T):
        z = gz[t]
        z += h @ WhT
        c, h = _gates(z, c)
        cs[t + 1] = c
        xh[t + 1, :, ds:] = h

    h_out = xh[1:, :, ds:].reshape(n, dh)
    if dropout_p > 0.0:
        h_out = h_out * kh
        h_out *= scale
    p = h_out @ m.U
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    rows, tgt = np.arange(n), targets.T.reshape(n)
    loss = -np.log(p[rows, tgt]).sum()
    p[rows, tgt] -= 1.0  # dy
    dU = h_out.T @ p
    del h_out  # dh_out can take its memory
    dh_out = p @ m.U.T
    del p
    if dropout_p > 0.0:
        dh_out *= kh
        dh_out *= scale
    dh_out = dh_out.reshape(T, B, dh)

    dh_next = np.zeros((B, dh))
    dc_next = np.zeros((B, dh))
    du = np.empty((B, 4 * dh))  # d(loss)/d(gate), gate by gate
    di, df, dg, do = du[:, :dh], du[:, dh:2 * dh], du[:, 2 * dh:3 * dh], du[:, 3 * dh:]
    for t in range(T - 1, -1, -1):
        z = gz[t]
        i, f, g, o = z[:, :dh], z[:, dh:2 * dh], z[:, 2 * dh:3 * dh], z[:, 3 * dh:]
        dhid = dh_out[t]
        dhid += dh_next
        # in place, in the order of operations of the per-step reference
        # (tests/train_reference.py):
        # dc = dhid * o * (1 - tc * tc) + dc_next
        tc = np.tanh(cs[t + 1])
        np.multiply(dhid, tc, out=do)
        tc *= tc
        np.subtract(1.0, tc, out=tc)
        dc = dhid * o
        dc *= tc
        dc += dc_next
        np.multiply(dc, cs[t], out=df)
        np.multiply(dc, g, out=di)
        np.multiply(dc, i, out=dg)
        dc_next = dc * f
        # dz_t replaces the gates of step t, which are no longer needed:
        # du * s * (1 - s) for the sigmoid gates, dg * (1 - g * g) for g
        g2 = g * g
        np.subtract(1.0, g2, out=g2)
        s1 = 1.0 - z
        z *= du
        z *= s1
        np.multiply(dg, g2, out=g)
        dh_next = z @ Wh

    dz = gz.reshape(n, 4 * dh)
    dW = dz.T @ xh[:T].reshape(n, ds + dh)
    db = dz.sum(axis=0)
    dx = dz @ Wx
    if dropout_p > 0.0:
        dx *= kx
        dx *= scale
    # dS[:, v] sums the dx rows of word v in row order, as np.add.at would
    bins = (ids[:, None] * ds + np.arange(ds)).reshape(-1)
    dS = np.bincount(bins, weights=dx.reshape(-1), minlength=m.vocab_size * ds)
    dS = np.ascontiguousarray(dS.reshape(m.vocab_size, ds).T)
    return loss, {"S": dS, "W": dW, "b": db, "U": dU}, h, c


def clip_gradients(grads: dict, clip_norm: float) -> float:
    """Scale all gradients in place so the global norm is <= clip_norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > clip_norm:
        scale = clip_norm / total
        for g in grads.values():
            g *= scale
    return total


class TrainingDiverged(RuntimeError):
    pass


def _batch_stream(corpus_ids, batch_size):
    """Concatenate framed sentences and fold the stream into batch rows."""
    stream, _ = pack(corpus_ids)
    nbatch = (len(stream) - 1) // batch_size
    if nbatch < 1:
        raise ValueError("corpus too small for batch_size=%d" % batch_size)
    inputs = stream[:nbatch * batch_size].reshape(batch_size, nbatch)
    targets = stream[1:nbatch * batch_size + 1].reshape(batch_size, nbatch)
    return inputs, targets


def train(m: NeuralLM, corpus_ids, cfg: TrainConfig, val_ids=None,
          log=None) -> tuple[NeuralLM, list[dict]]:
    """Train a copy of the model; returns (trained model, per-epoch log).

    corpus_ids: list of bos/eos-framed id sequences. Validation perplexity
    defaults to the epoch's training-stream perplexity when val_ids is
    None; the learning rate is multiplied by lr_decay whenever it fails to
    improve. Deterministic given cfg.seed.
    """
    cfg.validate()
    corpus_ids = list(corpus_ids)
    if not corpus_ids:
        raise ValueError("empty corpus")
    m = m.copy()
    rng = np.random.default_rng(cfg.seed)
    inputs, targets = _batch_stream(corpus_ids, cfg.batch_size)
    B, N = inputs.shape
    lr = cfg.learning_rate
    best_val = float("inf")
    history = []
    for epoch in range(1, cfg.epochs + 1):
        h = np.zeros((B, m.d_h))
        c = np.zeros((B, m.d_h))
        total_loss = 0.0
        total_tokens = 0
        for bi, start in enumerate(range(0, N, cfg.bptt_len)):
            seg_in = inputs[:, start:start + cfg.bptt_len]
            seg_tg = targets[:, start:start + cfg.bptt_len]
            loss, grads, h, c = loss_and_grads(
                m, seg_in, seg_tg, h, c, dropout_p=cfg.dropout_p, rng=rng)
            ntok = seg_in.size
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    "non-finite loss at epoch %d batch %d" % (epoch, bi))
            # SGD on the mean per-token loss
            for g in grads.values():
                g /= ntok
            clip_gradients(grads, cfg.clip_norm)
            m.S -= lr * grads["S"]
            m.W -= lr * grads["W"]
            m.b -= lr * grads["b"]
            m.U -= lr * grads["U"]
            total_loss += loss
            total_tokens += ntok
        train_ppl = math.exp(total_loss / total_tokens)
        if val_ids is not None:
            val_ppl = nn_perplexity(m, val_ids)
        else:
            val_ppl = train_ppl
        history.append({"epoch": epoch, "lr": lr,
                        "train_ppl": train_ppl, "val_ppl": val_ppl})
        if log:
            log("epoch %d lr %.4g train_ppl %.2f val_ppl %.2f"
                % (epoch, lr, train_ppl, val_ppl))
        if val_ppl < best_val:
            best_val = val_ppl
        else:
            lr *= cfg.lr_decay
    return m, history


def save_model(m: NeuralLM, path) -> None:
    """Write the RLM1 checkpoint: magic, JSON header, float32 LE payloads."""
    header = {
        "version": CHECKPOINT_VERSION,
        "d_s": m.d_s,
        "d_h": m.d_h,
        "vocab_size": m.vocab_size,
        "gate_order": "ifgo",
        "vocab": m.vocab.id_to_word,
        "counts": [m.vocab.counts.get(w, 0) for w in m.vocab.id_to_word],
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(hbytes)))
        f.write(hbytes)
        for arr in (m.S, m.W, m.b, m.U):
            arr.astype("<f4").tofile(f)


class CheckpointError(ValueError):
    pass


def load_model(path) -> NeuralLM:
    """Read an RLM1 checkpoint into float64 parameters.

    Raises CheckpointError for a bad magic, a truncated or unreadable
    header, a header without the model's dimensions, a payload whose byte
    length differs from what the header's dimensions need, and non-finite
    weights.
    """
    with open(path, "rb") as f:
        if f.read(4) != MAGIC:
            raise CheckpointError("bad magic: not an RLM1 checkpoint")
        raw = f.read(4)
        if len(raw) < 4:
            raise CheckpointError("truncated checkpoint header")
        (hlen,) = struct.unpack("<I", raw)
        payload_bytes = os.fstat(f.fileno()).st_size - (8 + hlen)
        if payload_bytes < 0:
            raise CheckpointError("truncated checkpoint header")
        hbytes = f.read(hlen)
        try:
            header = json.loads(hbytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError("unreadable checkpoint header: %s" % e)
        if not isinstance(header, dict):
            raise CheckpointError("unreadable checkpoint header: not a JSON object")
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError("unsupported checkpoint version %r" % header.get("version"))
        for key in ("d_s", "d_h", "vocab_size", "vocab"):
            if key not in header:
                raise CheckpointError("checkpoint header lacks %r" % key)
        d_s, d_h, nv = header["d_s"], header["d_h"], header["vocab_size"]
        if not all(isinstance(v, int) and v > 0 for v in (d_s, d_h, nv)):
            raise CheckpointError("checkpoint dims must be positive integers")
        words = header["vocab"]
        if not isinstance(words, list) or len(words) != nv or words[:3] != list(SPECIALS):
            raise CheckpointError("checkpoint vocabulary is inconsistent")
        counts = dict(zip(words, header.get("counts", [])))
        vocab = Vocabulary(words[3:], counts)
        shapes = [(d_s, nv), (4 * d_h, d_s + d_h), (4 * d_h,), (d_h, nv)]
        sizes = [int(np.prod(s)) for s in shapes]
        need = sum(sizes)
        # np.fromfile drops a trailing partial float, so compare bytes first
        if payload_bytes != need * 4:
            raise CheckpointError(
                "payload length %d does not match header dims (expected %d)"
                % (payload_bytes, need * 4))
        payload = np.fromfile(f, dtype="<f4", count=need)
    if payload.size != need:
        raise CheckpointError("checkpoint payload ended early: %d of %d floats"
                              % (payload.size, need))
    arrays = []
    off = 0
    for name, shape, n in zip("SWbU", shapes, sizes):
        block = payload[off:off + n]
        if not np.isfinite(block).all():
            raise CheckpointError("checkpoint holds non-finite weights in %s" % name)
        arrays.append(block.astype(np.float64).reshape(shape))
        off += n
    S, W, b, U = arrays
    return NeuralLM(vocab, d_s, d_h, S, W, b, U)
