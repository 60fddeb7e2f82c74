"""The benchmark's three workloads.

Each workload makes its inputs from the seed, lists the `rarelm` CLI
stages of one pipeline pass, extracts the answers a pass produced, and
loads what its rescore stage loads (the set-up the benchmark times).
"""

import contextlib
import hashlib
import io
import math
import os
import re
import traceback
from dataclasses import dataclass

import numpy as np

from rarelm import cli, neural, ngram, rescore, textcorpus

# The README walkthrough at desk scale. Seed 42 reproduces it exactly.
DESK_EPOCHS = 10
DESK_BATCH = 16
DESK_TRAIN = ["--embed-dim", "32", "--hidden-dim", "64", "--epochs", str(DESK_EPOCHS),
              "--batch-size", str(DESK_BATCH), "--bptt-len", "32", "--dropout", "0.1",
              "--seed", "1"]


@dataclass
class Stage:
    name: str      # unique within the workload, e.g. "rescore_kn"
    command: str   # the rarelm subcommand
    argv: list     # arguments after the subcommand


def run_cli(command, argv):
    """Run one rarelm command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([command] + list(argv))
        except Exception:  # a crash in a stage is a failed operation
            code = "exception"
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


def sha256_files(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(os.path.basename(p).encode() + b"\0" + f.read())
    return h.hexdigest()


def report_value(stdout, key):
    """Value of a `key<TAB>value` line of a CLI report, as printed."""
    m = re.search(r"^%s\t(\S+)$" % re.escape(key), stdout, re.M)
    return m.group(1) if m else None


def rescored_totals(path):
    """total_score column of a rescored file, in file order."""
    with open(path, encoding="utf-8") as f:
        return [float(line.split("\t")[3]) for line in f if line.strip()]


def best_totals(path):
    """total_score of each utterance's chosen (first) hypothesis."""
    best = []
    last = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            parts = line.split("\t")
            if parts[0] != last:
                best.append(float(parts[3]))
                last = parts[0]
    return best


def file_shape(path):
    """(utterances, lines) of an n-best, rescored or 1-best file."""
    with open(path, encoding="utf-8") as f:
        utts = [line.split("\t", 1)[0] for line in f if line.strip()]
    return [len(set(utts)), len(utts)]


def output_shape(onebest, rescored):
    """[1-best lines, rescored lines] a rescore stage wrote."""
    return [file_shape(onebest)[1], file_shape(rescored)[1]]


def sentence_tokens(path):
    """Number of tokens perplexity scores in a corpus: words plus eos."""
    return sum(len(s) + 1 for s in textcorpus.read_corpus(path))


class Workload:
    name = ""
    rescore_stages = ()     # stages that rescore the whole n-best file
    rescore_reps = 0        # extra timed runs of them after each untraced pass
    shapes = ()             # answers holding [1-best utts, rescored lines]
    nbest_file = ""
    model_file = ""         # checkpoint the rescore stage loads
    arpa_file = None        # ARPA model the rescore stage loads, if any

    def __init__(self, work, seed):
        self.work = work
        self.seed = seed

    def path(self, name):
        return os.path.join(self.work, name)

    def prepare(self):
        """Make the inputs that are not part of the timed pipeline."""

    def stages(self):
        raise NotImplementedError

    def answers(self, outputs):
        """Map answer name -> (stage name, function computing the answer)
        for the pass whose stage stdouts are `outputs`.

        Answers are compared exactly across passes of one run, and against
        the recorded answers for seed 42.
        """
        raise NotImplementedError

    def invariants(self):
        """Answers known for every seed: each rescore stage writes every
        hypothesis of the n-best and one 1-best line per utterance."""
        utts, lines = file_shape(self.path(self.nbest_file))
        return {name: [utts, lines] for name in self.shapes}

    def predictions(self, layers, wall):
        """(prediction, held, measured share) from a traced pass."""
        return []

    def setup_ready(self):
        """Whether the files setup() reads exist yet."""
        return all(os.path.exists(self.path(f))
                   for f in (self.model_file, self.arpa_file, self.nbest_file) if f)

    def setup(self):
        """Load the checkpoint, ARPA model and n-best the rescore stage loads."""
        m = neural.load_model(self.path(self.model_file))
        kn = None
        if self.arpa_file:
            with open(self.path(self.arpa_file), encoding="utf-8") as f:
                kn = ngram.import_arpa(f.read())
        lists = rescore.read_nbest(self.path(self.nbest_file))
        return m, kn, lists

    def extra_metrics(self, stage_s):
        """Stage figures a user of this workload sees, from median stage
        times: name -> (value, unit)."""
        return {}


def nbest_properties(m, lists):
    """Input properties of an n-best set under the model that rescores it.

    A scored position t of a hypothesis predicts word t+1 from the prefix
    ids[:t+1]; it is shared when an earlier hypothesis of the same list has
    the same prefix, so a prefix trie would not need to run it again.
    """
    hyps = positions = shared = words = oov = 0
    for nb in lists:
        seen = set()
        for h in nb.hypotheses:
            hyps += 1
            words += len(h.words)
            oov += sum(1 for w in h.words if w not in m.vocab)
            ids = textcorpus.encode(h.words, m.vocab)
            for t in range(len(ids) - 1):
                prefix = tuple(ids[:t + 1])
                positions += 1
                if prefix in seen:
                    shared += 1
                seen.add(prefix)
    return {
        "input.hypotheses": hyps,
        "input.scored_positions": positions,
        "rescore.shared_prefix_ratio": shared / positions,
        "input.nbest_oov_rate": oov / words,
        "input.mean_hyp_words": words / hyps,
        "input.vocab_size": m.vocab_size,
        "input.d_s": m.d_s,
        "input.d_h": m.d_h,
    }


class DeskWalkthrough(Workload):
    """The README walkthrough, stage for stage, on the seed's synthetic
    bundle; seed 42 is the README's bundle."""
    name = "desk_walkthrough"
    rescore_stages = ("rescore_kn", "rescore_nn")
    rescore_reps = 2
    shapes = ("shape_kn", "shape_nn")
    nbest_file = "bundle/nbest.txt"
    model_file = "enriched.rlm"
    arpa_file = "kn.arpa"

    def stages(self):
        p = self.path
        b = lambda f: p("bundle/" + f)
        sweep = ["threshold", "--values", "0,2,10,50", "--model", p("lstm.rlm"),
                 "--scope", b("streets.txt"), "--nbest", b("nbest.txt"),
                 "--refs", b("refs.txt"), "--seed", "3"]
        return [
            Stage("gen", "gen-synthetic",
                  ["--outdir", p("bundle"), "--streets", "40",
                   "--train-sentences", "2000", "--eval-sentences", "200",
                   "--nbest-size", "8", "--seed", str(self.seed)]),
            Stage("vocab", "build-vocab",
                  ["--corpus", b("train.txt"), "--output", p("vocab.txt")]),
            Stage("train_lstm", "train-lstm",
                  ["--corpus", b("train.txt"), "--vocab", p("vocab.txt"),
                   "--output", p("lstm.rlm")] + DESK_TRAIN),
            Stage("train_ngram", "train-ngram",
                  ["--corpus", b("train.txt"), "--vocab", p("vocab.txt"),
                   "--order", "4", "--output", p("kn.arpa")]),
            Stage("enrich", "enrich",
                  ["--model", p("lstm.rlm"), "--scope", b("streets.txt"),
                   "--threshold", "10", "--k", "5", "--output", p("enriched.rlm"),
                   "--plan-out", p("plan.tsv"), "--seed", "3"]),
            Stage("rescore_kn", "rescore",
                  ["--model", p("enriched.rlm"), "--ngram", p("kn.arpa"),
                   "--interp-weight", "0.3", "--nbest", b("nbest.txt"),
                   "--output", p("rescored_kn.tsv"), "--onebest", p("onebest_kn.tsv")]),
            Stage("rescore_nn", "rescore",
                  ["--model", p("enriched.rlm"), "--nbest", b("nbest.txt"),
                   "--output", p("rescored_nn.tsv"), "--onebest", p("onebest_nn.tsv")]),
            Stage("wer_kn", "wer",
                  ["--refs", b("refs.txt"), "--hyps", p("onebest_kn.tsv"),
                   "--tracked", b("streets.txt")]),
            Stage("wer_nn", "wer",
                  ["--refs", b("refs.txt"), "--hyps", p("onebest_nn.tsv"),
                   "--tracked", b("streets.txt")]),
            Stage("ppl_nn", "ppl", ["--corpus", b("train.txt"), "--model", p("enriched.rlm")]),
            Stage("ppl_kn", "ppl", ["--corpus", b("train.txt"), "--ngram", p("kn.arpa")]),
            Stage("sweep", "sweep", sweep),
        ]

    def answers(self, outputs):
        p = self.path
        bundle = [p("bundle/" + f) for f in
                  ("train.txt", "refs.txt", "nbest.txt", "streets.txt", "confusions.tsv")]
        return {
            "bundle_sha256": ("gen", lambda: sha256_files(bundle)),
            "wer_kn": ("wer_kn", lambda: report_value(outputs["wer_kn"], "wer")),
            "tracked_acc_kn": ("wer_kn", lambda: report_value(
                outputs["wer_kn"], "tracked_accuracy")),
            "wer_nn": ("wer_nn", lambda: report_value(outputs["wer_nn"], "wer")),
            "tracked_acc_nn": ("wer_nn", lambda: report_value(
                outputs["wer_nn"], "tracked_accuracy")),
            "ppl_nn": ("ppl_nn", lambda: report_value(outputs["ppl_nn"], "perplexity")),
            "ppl_kn": ("ppl_kn", lambda: report_value(outputs["ppl_kn"], "perplexity")),
            "sweep_wer": ("sweep", lambda: [list(row) for row in re.findall(
                r"^(\d+)\t(\S+)$", outputs["sweep"], re.M)] or None),
            "onebest_kn_sha256": ("rescore_kn", lambda: sha256_files([p("onebest_kn.tsv")])),
            "onebest_nn_sha256": ("rescore_nn", lambda: sha256_files([p("onebest_nn.tsv")])),
            "totals_kn": ("rescore_kn", lambda: rescored_totals(p("rescored_kn.tsv"))),
            "totals_nn": ("rescore_nn", lambda: rescored_totals(p("rescored_nn.tsv"))),
            "shape_kn": ("rescore_kn",
                           lambda: output_shape(p("onebest_kn.tsv"), p("rescored_kn.tsv"))),
            "shape_nn": ("rescore_nn",
                           lambda: output_shape(p("onebest_nn.tsv"), p("rescored_nn.tsv"))),
        }

    def predictions(self, layers, wall):
        share = layers["neural.loss_and_grads.s"] / wall
        return [("neural.loss_and_grads.s is about half of the pipeline (35-65%)",
                 0.35 <= share <= 0.65, "%.1f%%" % (100 * share))]

    def train_tokens(self):
        """Tokens one training run processes: the bos/eos-framed stream folded
        into batch rows, once per epoch."""
        stream = sum(len(s) + 2 for s in
                     textcorpus.read_corpus(self.path("bundle/train.txt")))
        return DESK_EPOCHS * ((stream - 1) // DESK_BATCH) * DESK_BATCH

    def extra_metrics(self, stage_s):
        return {
            "train_tokens_per_s": (self.train_tokens() / stage_s["train_lstm"], "1/s"),
            "ppl_tokens_per_s": (2 * sentence_tokens(self.path("bundle/train.txt"))
                                 / (stage_s["ppl_nn"] + stage_s["ppl_kn"]), "1/s"),
            "enrich_s": (stage_s["enrich"], "s"),
            "sweep_s": (stage_s["sweep"], "s"),
        }


# Paper-scale model of Khassanov et al. (2019): |V| = 20k, d_s = 300,
# d_h = 1000. Counts follow a Zipf law, so most of the vocabulary is rare.
PAPER_V = 20000
PAPER_DS = 300
PAPER_DH = 1000
PAPER_RARE_IN_SCOPE = 800
PAPER_FREQUENT_IN_SCOPE = 800
PAPER_UTTS = 8
PAPER_HYPS = 5
PAPER_HYP_WORDS = 8
PAPER_PPL_SENTENCES = 12
PAPER_OOV_RATE = 0.03


class PaperEnrichRescore(Workload):
    """enrich, rescore and ppl on a seeded init_model checkpoint at paper
    scale, with a benchmark-made scope, n-best and text."""
    name = "paper_enrich_rescore"
    rescore_stages = ("rescore",)
    shapes = ("shape",)
    nbest_file = "nbest.txt"
    model_file = "enriched.rlm"

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        words = ["w%05d" % i for i in range(PAPER_V - len(textcorpus.SPECIALS))]
        counts = {w: max(1, int(round(2e5 / (r + 1) ** 1.3)))
                  for r, w in enumerate(words)}
        m = neural.init_model(textcorpus.Vocabulary(words, counts),
                              PAPER_DS, PAPER_DH, seed=self.seed)
        neural.save_model(m, self.path("paper.rlm"))
        del m
        rare = [w for w in words if counts[w] < 10]
        frequent = [w for w in words if counts[w] >= 10]
        scope = (list(rng.choice(rare, PAPER_RARE_IN_SCOPE, replace=False))
                 + list(rng.choice(frequent, PAPER_FREQUENT_IN_SCOPE, replace=False)))
        with open(self.path("scope.txt"), "w", encoding="utf-8") as f:
            f.write("".join(w + "\n" for w in scope))
        zipf = np.array([counts[w] for w in words], dtype=float)
        zipf /= zipf.sum()

        def sentence(first=None):
            ids = rng.choice(len(words), PAPER_HYP_WORDS, p=zipf)
            toks = [words[i] for i in ids]
            if first is not None:
                toks[0] = words[first]
            for i in range(len(toks)):
                if rng.random() < PAPER_OOV_RATE:
                    toks[i] = "oov%d" % rng.integers(1000)
            return toks

        with open(self.path("nbest.txt"), "w", encoding="utf-8") as f:
            for u in range(PAPER_UTTS):
                # distinct first words: lists share no prefix beyond <s>
                firsts = rng.choice(len(words), PAPER_HYPS, replace=False)
                for r in range(PAPER_HYPS):
                    f.write("utt%04d\t%d\t%.4f\t%s\n"
                            % (u, r + 1, -0.5 * r, " ".join(sentence(firsts[r]))))
        with open(self.path("text.txt"), "w", encoding="utf-8") as f:
            for _ in range(PAPER_PPL_SENTENCES):
                f.write(" ".join(sentence()) + "\n")

    def stages(self):
        p = self.path
        return [
            Stage("enrich", "enrich",
                  ["--model", p("paper.rlm"), "--scope", p("scope.txt"),
                   "--threshold", "10", "--k", "5", "--output", p("enriched.rlm"),
                   "--plan-out", p("plan.tsv"), "--seed", "3"]),
            Stage("rescore", "rescore",
                  ["--model", p("enriched.rlm"), "--nbest", p("nbest.txt"),
                   "--output", p("rescored.tsv"), "--onebest", p("onebest.tsv")]),
            Stage("ppl", "ppl", ["--corpus", p("text.txt"), "--model", p("enriched.rlm")]),
        ]

    def answers(self, outputs):
        p = self.path

        def rows_modified():
            m = re.search(r"^enriched (\d+) words", outputs["enrich"], re.M)
            return int(m.group(1)) if m else None

        return {
            "inputs_sha256": ("enrich", lambda: sha256_files(
                [p("paper.rlm"), p("scope.txt"), p("nbest.txt"), p("text.txt")])),
            "rows_modified": ("enrich", rows_modified),
            "plan_sha256": ("enrich", lambda: sha256_files([p("plan.tsv")])),
            "onebest_sha256": ("rescore", lambda: sha256_files([p("onebest.tsv")])),
            "totals": ("rescore", lambda: rescored_totals(p("rescored.tsv"))),
            "shape": ("rescore",
                      lambda: output_shape(p("onebest.tsv"), p("rescored.tsv"))),
            "ppl_nn": ("ppl", lambda: report_value(outputs["ppl"], "perplexity")),
        }

    def invariants(self):
        # every rare word of the scope is in the vocabulary and gets a row
        return dict(super().invariants(), rows_modified=PAPER_RARE_IN_SCOPE)

    def predictions(self, layers, wall):
        main = (layers["neural.forward_step.s"] + layers["enrich.enrich_embeddings.s"]
                + layers["neural.load_model.s"]) / wall
        prob = layers["ngram.prob.s"] / wall
        read = layers["rescore.read_nbest.s"] / wall
        return [
            ("forward_step, enrich_embeddings and load_model make up most of the "
             "pipeline (>50%)", main > 0.5, "%.1f%%" % (100 * main)),
            ("ngram.prob.s is zero", layers["ngram.prob.calls"] == 0,
             "%.3f%%" % (100 * prob)),
            ("rescore.read_nbest.s is zero (<0.1%)", read < 0.001,
             "%.3f%%" % (100 * read)),
        ]

    def extra_metrics(self, stage_s):
        return {
            "ppl_tokens_per_s": (sentence_tokens(self.path("text.txt"))
                                 / stage_s["ppl"], "1/s"),
            "enrich_s": (stage_s["enrich"], "s"),
        }


LARGE_UTTS = 2000


class LargeNbestKN(Workload):
    """The desk model and its KN 4-gram, trained outside the timed pipeline,
    rescore LARGE_UTTS synthetic 8-best lists at mu=0.3; then WER."""
    name = "large_nbest_kn"
    rescore_stages = ("rescore_kn",)
    shapes = ("shape_kn",)
    nbest_file = "bundle/nbest.txt"
    model_file = "lstm.rlm"
    arpa_file = "kn.arpa"

    def prepare(self):
        p = self.path
        b = lambda f: p("bundle/" + f)
        for command, argv in [
                ("gen-synthetic", ["--outdir", p("bundle"), "--eval-sentences",
                                   str(LARGE_UTTS), "--seed", str(self.seed)]),
                ("build-vocab", ["--corpus", b("train.txt"), "--output", p("vocab.txt")]),
                ("train-lstm", ["--corpus", b("train.txt"), "--vocab", p("vocab.txt"),
                                "--output", p("lstm.rlm")] + DESK_TRAIN),
                ("train-ngram", ["--corpus", b("train.txt"), "--vocab", p("vocab.txt"),
                                 "--order", "4", "--output", p("kn.arpa")])]:
            code, out, err = run_cli(command, argv)
            if code != 0:
                raise RuntimeError("input preparation failed at %s: %s" % (command, err))

    def stages(self):
        p = self.path
        b = lambda f: p("bundle/" + f)
        return [
            Stage("rescore_kn", "rescore",
                  ["--model", p("lstm.rlm"), "--ngram", p("kn.arpa"),
                   "--interp-weight", "0.3", "--nbest", b("nbest.txt"),
                   "--output", p("rescored_kn.tsv"), "--onebest", p("onebest_kn.tsv")]),
            Stage("wer_kn", "wer",
                  ["--refs", b("refs.txt"), "--hyps", p("onebest_kn.tsv"),
                   "--tracked", b("streets.txt")]),
        ]

    def answers(self, outputs):
        p = self.path
        return {
            "inputs_sha256": ("rescore_kn", lambda: sha256_files(
                [p("bundle/nbest.txt"), p("bundle/refs.txt"), p("lstm.rlm"), p("kn.arpa")])),
            "onebest_kn_sha256": ("rescore_kn", lambda: sha256_files([p("onebest_kn.tsv")])),
            "best_totals_kn": ("rescore_kn", lambda: best_totals(p("rescored_kn.tsv"))),
            "shape_kn": ("rescore_kn",
                           lambda: output_shape(p("onebest_kn.tsv"), p("rescored_kn.tsv"))),
            "wer_kn": ("wer_kn", lambda: report_value(outputs["wer_kn"], "wer")),
            "tracked_acc_kn": ("wer_kn", lambda: report_value(
                outputs["wer_kn"], "tracked_accuracy")),
        }

    def predictions(self, layers, wall):
        prob = layers["ngram.prob.s"] / wall
        read = layers["rescore.read_nbest.s"] / wall
        return [
            ("ngram.prob.s is material (>=1%)", prob >= 0.01, "%.1f%%" % (100 * prob)),
            ("rescore.read_nbest.s is material (>=1%)", read >= 0.01,
             "%.1f%%" % (100 * read)),
        ]


WORKLOADS = {w.name: w for w in (DeskWalkthrough, PaperEnrichRescore, LargeNbestKN)}

# Scores are compared to the recorded ones within this absolute tolerance
# (log10 units). Reordering the per-token arithmetic, as a batched scoring
# core does, moves them by about 1e-14; the rescored files print ten
# significant digits.
SCORE_TOL = 1e-6


def compare(name, got, want):
    """Problems with one answer against its recorded value (None if equal)."""
    if isinstance(want, list) and want and isinstance(want[0], float):
        if not isinstance(got, list) or len(got) != len(want):
            return "%s: %s values, expected %d" % (
                name, len(got) if isinstance(got, list) else got, len(want))
        worst = max(abs(g - w) for g, w in zip(got, want))
        if not worst <= SCORE_TOL:
            return "%s: differs by up to %.3g (tolerance %g)" % (name, worst, SCORE_TOL)
        return None
    if got != want:
        return "%s: got %s, expected %s" % (name, _short(got), _short(want))
    return None


def _short(v):
    s = repr(v)
    return s if len(s) < 80 else s[:77] + "..."


def check_complete(name, value):
    """Problems with an answer on a seed without recorded answers: every
    output must be present and every number finite."""
    if value is None:
        return "%s: missing" % name
    values = value if isinstance(value, list) else [value]
    for v in values:
        if isinstance(v, list):
            v = v[-1]
        try:
            x = float(v)
        except (TypeError, ValueError):
            if isinstance(v, str) and re.fullmatch(r"[0-9a-f]{64}", v):
                continue
            return "%s: not a number: %r" % (name, v)
        if not math.isfinite(x):
            return "%s: not finite: %r" % (name, v)
    if isinstance(value, list) and not value:
        return "%s: empty" % name
    return None
