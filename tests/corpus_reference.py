"""Per-sentence reference for the packed id arrays the package passes
around: `textcorpus.encode_many` encodes a whole corpus in one pass into
what `pack` gives for its `encode`d sentences."""

import itertools

import numpy as np


def pack(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Id sequences laid back to back: (ids, lens), both int64."""
    seqs = list(seqs)
    lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    ids = np.fromiter(itertools.chain.from_iterable(seqs), dtype=np.int64,
                      count=int(lens.sum()))
    return ids, lens
