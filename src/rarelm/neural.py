"""Single-layer LSTM language model trained from scratch with truncated BPTT.

The model keeps an input embedding matrix S (d_s x |V|), one LSTM layer
with gate order (input, forget, cell, output), and an output embedding
matrix U (d_h x |V|) applied as a pure inner product: y = U^T h, no output
bias. Parameters live in float64; checkpoints store float32. `lm_scores`
scores sequences for rescoring and both perplexities.
"""

import hashlib
import itertools
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .metrics import left_sums, perplexity
from .textcorpus import SPECIALS, Vocabulary, write_file

MAGIC = b"RLM1"
CHECKPOINT_VERSION = 1
LOG10 = math.log(10.0)
# rows per checkpoint block read or written; bounds the memory each takes
# at any |V|
BATCH_ROWS = 64
# rows per gate step and per pass over U, the widest _matmul_rows takes. A
# wider step or pass can change bits with 2 BLAS threads, so raising it must
# first show that scores keep their bits at the new width with
# OPENBLAS_NUM_THREADS=1 and =2, each set in a fresh subprocess, as
# test_scores_do_not_depend_on_layout_with_one_or_two_blas_threads does.
STEP_ROWS_MAX = 64
GROUP_ROWS = 2048  # sequences per prefix_slices slice; bounds the scoring state


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1.0
    clip_norm: float = 5.0
    bptt_len: int = 32
    dropout_p: float = 0.2
    epochs: int = 20
    seed: int = 0
    lr_decay: float = 0.5
    batch_size: int = 16

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError("dropout_p must be in [0, 1)")
        if self.bptt_len < 1:
            raise ValueError("bptt_len must be >= 1")
        if not (math.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ValueError("clip_norm must be finite and > 0")
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


def model_digest(m: NeuralLM) -> str:
    """sha256 of the bytes of S, W, b and U, hashed from the arrays uncopied."""
    h = hashlib.sha256()
    for X in (m.S, m.W, m.b, m.U):
        h.update(X)
    return h.hexdigest()


def check_sizes(d_s: int, d_h: int) -> None:
    """Raise the ValueError init_model raises for these sizes."""
    if d_s < 1 or d_h < 1:
        raise ValueError("embedding and hidden sizes must be >= 1")


def init_model(vocab: Vocabulary, d_s: int = 32, d_h: int = 64,
               seed: int = 0) -> NeuralLM:
    """Seeded uniform(-0.05, 0.05) init; forget-gate bias slice set to 1."""
    check_sizes(d_s, d_h)
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


def _matmul_rows(a, b, out=None):
    """a @ b for the B rows of a, into out (of at least max(B, 8) rows)
    when given. A row gets the same bits in any product of up to
    STEP_ROWS_MAX rows, and a wider one raises ValueError: BLAS takes a
    matmul of fewer than 8 rows down other kernels (gemv for one row), so
    fewer rows are repeated up to 8 and the first B returned. Across BLAS
    thread counts a row keeps its bits only at desk width: at paper width
    (d_h=1000, |V| in the thousands) threaded gemm blocks the inner
    dimension otherwise than one thread, so a row can differ in the last
    bit between OPENBLAS_NUM_THREADS=1 and =2."""
    B = a.shape[0]
    if B > STEP_ROWS_MAX:
        raise ValueError("step of %d rows is wider than STEP_ROWS_MAX=%d"
                         % (B, STEP_ROWS_MAX))
    if B < 8:
        a = a[np.arange(8) % B]
    return np.matmul(a, b, out=None if out is None else out[:a.shape[0]])[:B]


def gate_step(m: NeuralLM, words, h, c):
    """One batched LSTM step over B rows, without the output projection.

    words: (B,) input ids; h, c: (B, d_h) hidden and cell state. Returns
    the new (h, c); the input state is never mutated. The step is
    loss_and_grads's, in its order: x @ W_x.T, + b, + h @ W_h.T. Both
    matmuls take _matmul_rows, so a row has the same bits in any step of
    up to STEP_ROWS_MAX rows, and a wider step raises ValueError.
    """
    words = np.asarray(words)
    if words.min() < 0 or words.max() >= m.vocab_size:
        raise IndexError("word id out of range for |V|=%d" % m.vocab_size)
    z = _matmul_rows(m.S[:, words].T, m.W[:, :m.d_s].T)
    z += m.b
    z += _matmul_rows(h, m.W[:, m.d_s:].T)
    c, h = _gates(z, c)
    return h, c


def target_logprobs(m: NeuralLM, h, rows, targets, buf=None) -> np.ndarray:
    """Natural-log P(targets[i] | h[rows[i]]) from one pass of the B
    hidden rows h (B, d_h) over U.

    y = h @ U comes from _matmul_rows, into buf when given, a reused
    float64 scratch of at least max(B, 8) rows and |V| columns, so a pass
    wider than STEP_ROWS_MAX rows raises ValueError. Each row's max is
    subtracted in place and the targets read; then the row is
    exponentiated in place and summed. A target's value is
    (y[t] - max) - log(sum(exp(y - max))), the two subtractions and the
    contiguous row sum of a full log-softmax, so it has the bits of that
    softmax's entry.
    """
    targets = np.asarray(targets)
    if targets.size and (targets.min() < 0 or targets.max() >= m.vocab_size):
        raise IndexError("word id out of range for |V|=%d" % m.vocab_size)
    y = _matmul_rows(h, m.U, buf)
    y -= y.max(axis=1, keepdims=True)
    picked = y[rows, targets]
    np.exp(y, out=y)
    return picked - np.log(y.sum(axis=1))[rows]


def position_logprobs(m: NeuralLM, ids, lens) -> np.ndarray:
    """log10 P(ids[t+1] | ids[:t+1]) for every position t of each
    bos/eos-framed id sequence; state is reset per sequence.

    `ids` holds the sequences back to back and `lens` their lengths, as
    `textcorpus.encode_many` lays them out. Returns one flat array in input
    order: sequence i contributes its max(lens[i] - 1, 0) positions, as in
    `NGramModel.prob_many`.

    The sequences are walked as one prefix tree, one position at a time:
    each run of adjacent live rows that share a parent prefix and an input
    word is one prefix ids[:t+1]. In prefix order, as prefix_slices yields
    them, each distinct prefix goes through the LSTM once; in another
    order, equal prefixes that are not adjacent step apart, with the same
    values. The runs go through gate_step STEP_ROWS_MAX at a time, each
    from its parent prefix's state. Their hidden rows join one queue with
    the rows of their runs, which read their targets from them;
    target_logprobs projects it STEP_ROWS_MAX rows at a time into one
    reused buffer, so only the last pass over U is narrower. Callers bound
    the state kept per position by passing the slices of prefix_slices.
    """
    nv = m.vocab_size
    if ids.size and (ids.min() < 0 or ids.max() >= nv):
        raise IndexError("word id out of range for |V|=%d" % nv)
    npos = np.maximum(lens - 1, 0)
    start = np.cumsum(lens) - lens
    ostart = np.cumsum(npos) - npos
    lp = np.empty(int(npos.sum()))
    buf = np.empty((max(STEP_ROWS_MAX, 8), nv))
    queue = np.empty((STEP_ROWS_MAX, m.d_h))
    fill = 0
    readers = []  # per piece of the queue: (queue row, flat position, target)

    def project():
        nonlocal fill
        rows, at, targets = map(np.concatenate, zip(*readers))
        lp[at] = target_logprobs(m, queue[:fill], rows, targets, buf)
        fill = 0
        readers.clear()

    rows = np.arange(lens.size)
    slot = np.zeros(rows.size, dtype=np.int64)  # row -> its prefix's state row
    h = c = np.zeros((1, m.d_h))
    for t in range(int(npos.max(initial=0))):
        live = npos[rows] > t
        rows = rows[live]
        parent, words = slot[live], ids[start[rows] + t]
        # a run of adjacent rows with one parent and one word is one
        # prefix; run k holds the rows cut[k]:cut[k + 1]
        new = (np.diff(parent, prepend=-1) | np.diff(words, prepend=-1)) != 0
        cut = np.append(np.flatnonzero(new), rows.size)
        slot = np.cumsum(new) - 1
        parent, words = parent[new], words[new]
        nh, nc = np.empty((2, words.size, m.d_h))
        for b in range(0, words.size, STEP_ROWS_MAX):
            p = parent[b:b + STEP_ROWS_MAX]
            nh[b:b + STEP_ROWS_MAX], nc[b:b + STEP_ROWS_MAX] = gate_step(
                m, words[b:b + STEP_ROWS_MAX], h[p], c[p])
        h, c = nh, nc
        at, target = ostart[rows] + t, ids[start[rows] + t + 1]
        k = 0
        while k < words.size:
            take = min(words.size - k, STEP_ROWS_MAX - fill)
            queue[fill:fill + take] = nh[k:k + take]
            sel = slice(cut[k], cut[k + take])
            readers.append((slot[sel] - k + fill, at[sel], target[sel]))
            fill += take
            k += take
            if fill == STEP_ROWS_MAX:
                project()
    if fill:
        project()
    lp /= LOG10
    return lp


def prefix_slices(ids, lens):
    """Yield (indices, ids, lens) for the packed id sequences (ids, lens)
    GROUP_ROWS at a time, in lexicographic order of their ids, ties in
    input order, each slice packed back to back. Sequences sharing a
    prefix are adjacent, so they mostly fall in one slice, where
    position_logprobs steps the prefix once as one run of rows. A slice
    bounds the state position_logprobs keeps per position.

    The order comes from one stable sort per position, from the last. The
    sort at position t takes the sequences that have an id there, those
    whose last id it is first, so a prefix comes before its extensions.
    Time and memory grow with the number of ids, not with the longest
    sequence."""
    n = lens.size
    # the narrowest integer type that holds every id: numpy sorts 8- and
    # 16-bit keys by radix, several times faster
    key = ids.astype(np.min_scalar_type(-1 - int(np.abs(ids).max(initial=0))))
    starts = np.cumsum(lens) - lens
    # the sequences of length t are by_len[cut[t]:cut[t + 1]], in input order
    by_len = np.argsort(lens, kind="stable")
    width = int(lens.max(initial=0))
    cut = np.searchsorted(lens[by_len], np.arange(width + 2))
    order = by_len[:0]
    for t in range(width - 1, -1, -1):
        order = np.concatenate([by_len[cut[t + 1]:cut[t + 2]], order])
        order = order[np.argsort(key[starts[order] + t], kind="stable")]
    order = np.concatenate([by_len[:cut[1]], order])
    for a in range(0, n, GROUP_ROWS):
        idx = order[a:a + GROUP_ROWS]
        held = lens[idx]
        ends = np.cumsum(held)
        at = np.repeat(starts[idx] - (ends - held), held)
        at += np.arange(at.size)
        yield idx, ids[at], held


def lm_scores(m, kn, ids, lens, mu: float = 0.0) -> np.ndarray:
    """log10 probability of each bos/eos-framed id sequence under
    (1-mu)*P_m + mu*P_kn, for the neural model m and the n-gram model kn.

    (ids, lens) are packed as `textcorpus.encode_many` packs them, in m's
    vocabulary, or in kn's when m is None: then kn alone scores them. kn
    is reached only through its vocab.id and prob_many. The sequences go
    in prefix_slices, so that those sharing a prefix mostly step it once,
    and each slice bounds the memory of its step. The models are joined
    by word: a map from each id of m to kn's id of the same word, or its
    unk. The mix is elementwise, and each sequence sums its positions
    left to right, so every score has the bits of
    sum(math.log10((1-mu) * 10.0**p + mu * q)) over its positions,
    whatever its slice. Scores come back in input order.
    """
    if mu > 0.0 and kn is None:
        raise ValueError("interp_weight > 0 requires an n-gram model")
    if m is not None and mu > 0.0:
        to_kn = np.fromiter(map(kn.vocab.id, m.vocab.id_to_word), dtype=np.int64,
                            count=len(m.vocab))
    # numpy's power and log10 can differ from math's in the last bit
    log10s = lambda p: np.fromiter(map(math.log10, p.tolist()), dtype=np.float64)
    scores = np.empty(lens.size)
    # slices, not one pass: in one pass the KN join and mix of 16,000
    # hypotheses peaked at 26.2 MB (6.8 MB in slices), and kn alone over
    # 975,457 ids at 131.3 MB (8.6 MB)
    for idx, ids_s, held in prefix_slices(ids, lens):
        if m is None:
            lp = log10s(kn.prob_many(ids_s, held))
        else:
            lp = position_logprobs(m, ids_s, held)
            if mu > 0.0:
                q = kn.prob_many(np.take(to_kn, ids_s), held)
                p = np.fromiter(map(math.pow, itertools.repeat(10.0), lp.tolist()),
                                dtype=np.float64, count=lp.size)
                lp = log10s((1.0 - mu) * p + mu * q)
        scores[idx] = left_sums(lp, held)
    return scores


def loss_and_grads(m: NeuralLM, inputs, targets, h0, c0,
                   dropout_p: float = 0.0, rng=None):
    """Sum of cross-entropy (nats) over a (B, T) segment plus gradients.

    Returns (loss, grads dict with keys S/W/b/U, final h, final c). The
    final state is detached: gradients do not flow past the segment start.

    Rows are time-major: row t*B + r is step t of batch row r. Only the
    recurrence runs per step, h @ W_h.T and the gates forward, the dc
    recurrence and dz @ W_h backward. The embedding gather, the dropout
    masks, the input projection, the softmax and the weight gradients run
    once over all T*B rows. The forward is gate_step's, on views of W, and
    a batch under 8 rows takes h @ W_h.T from _matmul_rows, padded as
    gate_step's is: without dropout a gate_step chain ends in the same bits.
    """
    B, T = inputs.shape
    dh, ds = m.d_h, m.d_s
    n = T * B
    Wx, Wh = m.W[:, :ds], m.W[:, ds:]
    # not _matmul_rows for all: it refuses the more than STEP_ROWS_MAX rows a
    # training batch may have
    recur = _matmul_rows if B < 8 else np.matmul
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
        z += recur(h, Wh.T)
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


def _batch_stream(stream, batch_size):
    """Fold the stream of framed sentences into batch rows."""
    nbatch = (len(stream) - 1) // batch_size
    if nbatch < 1:
        raise ValueError("corpus too small for batch_size=%d" % batch_size)
    inputs = stream[:nbatch * batch_size].reshape(batch_size, nbatch)
    targets = stream[1:nbatch * batch_size + 1].reshape(batch_size, nbatch)
    return inputs, targets


def train(m: NeuralLM, corpus, cfg: TrainConfig, val=None,
          log=None) -> tuple[NeuralLM, list[dict]]:
    """Train a copy of the model; returns (trained model, per-epoch log).

    corpus: the (ids, lens) of bos/eos-framed id sequences laid back to
    back, as textcorpus.encode_many gives them; val likewise, or None.
    Validation perplexity defaults to the epoch's training-stream
    perplexity when val is None; the learning rate is multiplied by
    lr_decay whenever it fails to improve. Deterministic given cfg.seed.
    """
    stream, lens = corpus
    if not lens.size:
        raise ValueError("empty corpus")
    if val is not None and not val[1].size:
        raise ValueError("empty validation corpus")
    m = m.copy()
    rng = np.random.default_rng(cfg.seed)
    inputs, targets = _batch_stream(stream, cfg.batch_size)
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
            for g in grads.values():
                g *= lr  # the bits of lr * g, without a copy
            m.S -= grads["S"]
            m.W -= grads["W"]
            m.b -= grads["b"]
            m.U -= grads["U"]
            total_loss += loss
            total_tokens += ntok
        train_ppl = math.exp(total_loss / total_tokens)
        if val is not None:
            val_ppl = perplexity(lm_scores(m, None, *val), val[1])
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


def _write_checkpoint(path, vocab: Vocabulary, d_s: int, d_h: int, blocks) -> None:
    """Write an RLM1 checkpoint through write_file: magic, JSON header,
    then the float32 LE payload blocks in order."""
    header = {
        "version": CHECKPOINT_VERSION,
        "d_s": d_s,
        "d_h": d_h,
        "vocab_size": len(vocab),
        "gate_order": "ifgo",
        "vocab": vocab.id_to_word,
        "counts": [vocab.counts.get(w, 0) for w in vocab.id_to_word],
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    write_file(path, itertools.chain([MAGIC + struct.pack("<I", len(hbytes)) + hbytes],
                                     blocks))


def save_model(m: NeuralLM, path) -> None:
    """Write m as an RLM1 checkpoint, BATCH_ROWS rows at a time."""
    _write_checkpoint(path, m.vocab, m.d_s, m.d_h,
                      (arr[i:i + BATCH_ROWS].astype("<f4") for arr in (m.S, m.W, m.b, m.U)
                       for i in range(0, arr.shape[0], BATCH_ROWS)))


class CheckpointError(ValueError):
    pass


def _shapes(d_s: int, d_h: int, nv: int) -> list:
    """The shapes of S, W, b and U, in payload order."""
    return [(d_s, nv), (4 * d_h, d_s + d_h), (4 * d_h,), (d_h, nv)]


def _read_header(f) -> tuple:
    """Read the magic and JSON header of the RLM1 checkpoint open as f,
    leaving f at the payload; returns (vocab, d_s, d_h).

    Raises CheckpointError for a bad magic, a truncated or unreadable
    header, a header without the model's dimensions, a vocabulary with a
    repeated or non-string word, counts that are not |V| non-negative
    integers, and a payload whose byte length differs from what the
    header's dimensions need.
    """
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
    # type(v) is int throughout, so a JSON true, or 1.0, is no version or dim
    version = header.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError("unsupported checkpoint version %r" % version)
    for key in ("d_s", "d_h", "vocab_size", "vocab"):
        if key not in header:
            raise CheckpointError("checkpoint header lacks %r" % key)
    d_s, d_h, nv = header["d_s"], header["d_h"], header["vocab_size"]
    if not all(type(v) is int and v > 0 for v in (d_s, d_h, nv)):
        raise CheckpointError("checkpoint dims must be positive integers")
    words = header["vocab"]
    if not isinstance(words, list) or len(words) != nv or words[:3] != list(SPECIALS):
        raise CheckpointError("checkpoint vocabulary is inconsistent")
    if not all(map(isinstance, words, itertools.repeat(str))):
        raise CheckpointError("checkpoint vocabulary holds a non-string word")
    counts = header.get("counts", [0] * nv)
    # type(c) is int, so a JSON true or false is no count
    counted = (isinstance(counts, list) and len(counts) == nv
               and set(map(type, counts)) <= {int} and min(counts) >= 0)
    vocab = Vocabulary(words[3:], dict(zip(words, counts)) if counted else None)
    if len(vocab) != nv:
        raise CheckpointError("checkpoint vocabulary repeats a word")
    if not counted:
        raise CheckpointError("checkpoint counts must be a list of %d "
                              "non-negative integers" % nv)
    need = 4 * sum(math.prod(s) for s in _shapes(d_s, d_h, nv))
    if payload_bytes != need:
        raise CheckpointError("payload length %d does not match header dims "
                              "(expected %d)" % (payload_bytes, need))
    return vocab, d_s, d_h


def _payload_blocks(f, d_s: int, d_h: int, nv: int):
    """Yield (name, first row, float32 block) for BATCH_ROWS rows at a
    time of S, W, b and U, read from f at the payload and checked for
    non-finite values. Each block is a view of one reused buffer, valid
    until the next is yielded."""
    shapes = _shapes(d_s, d_h, nv)
    buf = np.empty(BATCH_ROWS * max(math.prod(s[1:]) for s in shapes), dtype="<f4")
    for name, shape in zip("SWbU", shapes):
        width = math.prod(shape[1:])
        for i in range(0, shape[0], BATCH_ROWS):
            rows = min(BATCH_ROWS, shape[0] - i)
            block = buf[:rows * width]
            if f.readinto(block) != block.nbytes:
                raise CheckpointError("checkpoint payload ended early in %s" % name)
            if not np.isfinite(block).all():
                raise CheckpointError("checkpoint holds non-finite weights in %s" % name)
            yield name, i, block.reshape((rows,) + shape[1:])


@contextmanager
def open_checkpoint(path):
    """Yield the RLM1 checkpoint at path open for binary reading at its
    payload, and its header as _read_header returns it. A CheckpointError
    raised in the block, as _read_header and _payload_blocks raise them,
    is prefixed with path."""
    with open(path, "rb") as f:
        try:
            yield f, _read_header(f)
        except CheckpointError as e:
            raise CheckpointError("%s: %s" % (path, e)) from None


def load_model(path) -> NeuralLM:
    """Read an RLM1 checkpoint into float64 parameters, block by block.
    Raises CheckpointError, naming path, for the faults _read_header names
    and for non-finite weights."""
    with open_checkpoint(path) as (f, (vocab, d_s, d_h)):
        params = dict(zip("SWbU", (np.empty(s) for s in _shapes(d_s, d_h, len(vocab)))))
        for name, i, block in _payload_blocks(f, d_s, d_h, len(vocab)):
            params[name][i:i + len(block)] = block
    return NeuralLM(vocab, d_s, d_h, **params)
