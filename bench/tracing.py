"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the rarelm modules from outside the
package: `install()` swaps module (and class) attributes for timing
wrappers and restores the originals on exit. Names bound at import time
by another module (`rescore` imports `forward_step` and `encode`) are
patched at both places, so every call is caught.

Spans live in memory and are written out once, at the end of the run.
Layers called tens of thousands of times per pipeline (`forward_step`,
`NGramModel.prob`, `align`, `encode`) are leaves: they are counted and
timed, and their time is charged to the enclosing span, but no span
record is kept per call. Each wrapper costs about 1 us, which is of the
order of one `NGramModel.prob` call, so per-call times of the leaves
carry that cost; `trace.overhead_ratio` reports the total effect.
"""

import itertools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

from rarelm import enrich, experiment, metrics, neural, ngram, rescore, textcorpus


def _nbest_lines(args, result):
    return sum(len(nb.hypotheses) for nb in result)


def _align_cells(args, result):
    return (len(args[0]) + 1) * (len(args[1]) + 1)


def _saved_bytes(args, result):
    return os.path.getsize(args[1])


# (owner, attribute, span name, options). Options: leaf (no per-call span
# record), durations (keep every call's duration), materialize (the
# function returns an iterator; consume it inside the span), count
# (counter name, function of (args, result)).
PATCHES = [
    (neural, "loss_and_grads", "neural.loss_and_grads",
     {"count": ("neural.loss_and_grads.tokens", lambda a, r: a[1].size)}),
    (neural, "forward_step", "neural.forward_step", {"leaf": True}),
    (rescore, "forward_step", "neural.forward_step", {"leaf": True}),
    (neural, "load_model", "neural.load_model", {}),
    (neural, "save_model", "neural.save_model",
     {"count": ("neural.checkpoint_bytes", _saved_bytes)}),
    (enrich, "enrich_embeddings", "enrich.enrich_embeddings",
     {"count": ("enrich.rows_modified", lambda a, r: r[1].modified)}),
    (enrich, "select_candidates", "enrich.select_candidates", {}),
    (ngram.NGramModel, "prob", "ngram.prob", {"leaf": True}),
    (ngram, "train_kn", "ngram.train_kn", {}),
    (ngram, "export_arpa", "ngram.export_arpa", {}),
    (ngram, "import_arpa", "ngram.import_arpa",
     {"count": ("ngram.arpa_bytes", lambda a, r: len(a[0].encode("utf-8")))}),
    (ngram, "kn_perplexity", "ngram.kn_perplexity", {}),
    (rescore, "read_nbest", "rescore.read_nbest",
     {"count": ("rescore.read_nbest.lines", _nbest_lines)}),
    (rescore, "rescore_nbest", "rescore.rescore_nbest", {"durations": True}),
    (rescore, "lm_score_hypothesis", "rescore.lm_score_hypothesis", {}),
    (rescore, "write_rescored", "rescore.write_rescored", {}),
    (metrics, "align", "metrics.align",
     {"leaf": True, "count": ("metrics.align.cells", _align_cells)}),
    (experiment, "run_configuration", "experiment.run_configuration", {}),
    (textcorpus, "read_corpus", "textcorpus.read_corpus", {"materialize": True}),
    (textcorpus, "encode", "textcorpus.encode", {"leaf": True}),
    (rescore, "encode", "textcorpus.encode", {"leaf": True}),
]


class Tracer:
    """Collects spans and per-name call counts, busy time and self time.

    Busy time is a span's duration; self time excludes the time of timed
    children, leaves included.
    """

    def __init__(self):
        self.spans = []          # (id, parent id, name, start, end)
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.counters = defaultdict(float)
        self.missing = []        # patch targets absent from the program
        self._stack = []         # frames: [span id, child time]
        self._ids = itertools.count(1)

    def _close(self, name, frame, t0, t1, leaf, keep):
        dur = t1 - t0
        self.calls[name] += 1
        self.busy[name] += dur
        self.self_time[name] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if keep:
            self.durations[name].append(dur)
        if not leaf:
            parent = self._stack[-1][0] if self._stack else 0
            self.spans.append((frame[0], parent, name, t0, t1))

    @contextmanager
    def span(self, name):
        frame = [next(self._ids), 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._close(name, frame, t0, t1, False, False)

    def wrap(self, fn, name, leaf=False, durations=False, materialize=False,
             count=None):
        stack = self._stack
        ids = self._ids
        close = self._close
        counters = self.counters

        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                close(name, frame, t0, t1, leaf, durations)
            if count is not None:
                counters[count[0]] += count[1](args, result)
            return iter(result) if materialize else result

        return traced

    @contextmanager
    def install(self):
        """Patch every entry of PATCHES for the duration of the block.

        A function the program no longer has is skipped and listed in
        `self.missing`; its layer then reports zero.
        """
        saved = []
        wrapped = {}
        try:
            for owner, attr, name, opts in PATCHES:
                orig = owner.__dict__.get(attr)
                if orig is None:
                    self.missing.append("%s.%s" % (owner.__name__, attr))
                    continue
                if orig not in wrapped:
                    wrapped[orig] = self.wrap(orig, name, **opts)
                saved.append((owner, attr, orig))
                setattr(owner, attr, wrapped[orig])
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def write_spans(self, f, traced_pass):
        """Write the recorded spans to file `f` as JSON lines."""
        for sid, parent, name, t0, t1 in self.spans:
            f.write(json.dumps({"pass": traced_pass, "id": sid, "parent": parent,
                                "name": name, "start": t0, "end": t1}) + "\n")
