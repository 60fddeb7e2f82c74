"""Experiment drivers: synthetic benchmark generation and the frequency
threshold / candidate-count sweeps.

The synthetic bundle is a desk-scale stand-in for a street-name ASR
corpus: a training corpus whose street tokens follow a Zipf-like count
profile clamped so a configured fraction falls below the frequency
threshold, an evaluation set oversampling rare streets, and n-best lists
built by corrupting the references (street tokens split into confusable
word pairs, plus random substitutions) with acoustic scores set so the
corrupted hypothesis outranks the correct one by a small margin.
"""

import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import enrich, metrics, neural, rescore
from .enrich import EnrichConfig, EnrichmentPlan
from .rescore import NBest, RescoreConfig
from .textcorpus import write_file

STREET_HEADS = [
    "ang", "bukit", "boon", "tam", "sem", "pasir", "jur", "choa", "ser",
    "bed", "clem", "yish", "hou", "toa", "kal", "gey", "mar", "pun", "sen",
    "wood",
]
STREET_TAILS = [
    "mo", "batok", "lay", "pines", "bawang", "ris", "ong", "kang", "goon",
    "dok", "enti", "un", "gang", "payoh", "lang", "lang2", "siling", "ggol",
    "toso", "lands",
]

# words used to corrupt street tokens; they get their own (non-street)
# training contexts so they are familiar but implausible in street slots
CONFUSION_WORDS = [
    "bully", "plays", "mobile", "batch", "boom", "delay", "tennis", "pine",
    "semi", "bang", "passing", "risk", "journey", "gong", "chewing", "kind",
    "serious", "gone", "bed", "dock", "clever", "entry", "wishing", "sun",
    "house", "gang", "tower", "payer", "killer", "long",
]

STREET_TEMPLATES = [
    "the market at {s} opened in nineteen seventy six",
    "a new school near {s} was announced last year",
    "buses stop at {s} every morning",
    "she lives close to {s} with her family",
    "the council upgraded the park at {s} recently",
    "residents of {s} asked for a new clinic",
]

FILLER_TEMPLATES = [
    "the committee discussed the development guide plan",
    "many people visit the hawker centre every weekend",
    "the {c} often {d} near the old station",
    "a {c} was seen at the community centre",
    "children enjoy the playground behind the library",
    "the government announced a new housing project",
    "workers repaired the road after the heavy rain",
    "the {c} and the {d} appeared in the newspaper",
]

AM_MARGIN = 0.4  # acoustic lead of the corrupted hypothesis over the reference
AM_NOISE = 0.05  # std of the per-utterance acoustic score offset


@dataclass(frozen=True)
class SyntheticConfig:
    n_streets: int = 40
    rare_fraction: float = 0.5
    n_train: int = 2000
    n_eval: int = 200
    nbest_size: int = 8
    threshold: int = 10
    seed: int = 0
    confusions: Optional[dict] = None  # street -> list of confusion tokens

    def __post_init__(self):
        if self.n_streets < 1 or self.n_train < 1 or self.n_eval < 1:
            raise ValueError("counts must be >= 1")
        if self.n_streets > len(STREET_HEADS) * len(STREET_TAILS):
            raise ValueError("n_streets must be <= %d, the number of distinct street "
                             "names" % (len(STREET_HEADS) * len(STREET_TAILS)))
        # a chained comparison is False for NaN, so this rejects every non-finite value
        if not 0 < self.rare_fraction < 1:
            raise ValueError("rare_fraction must be in (0, 1), got %r" % self.rare_fraction)
        if not 0 < self.n_rare < self.n_streets:
            raise ValueError("rare_fraction must leave at least one rare and one "
                             "frequent street")
        # a rare street occurs 1 to threshold-1 times in the training corpus
        if self.threshold < 2:
            raise ValueError("threshold must be >= 2")
        if self.nbest_size < 3:
            raise ValueError("nbest_size must be >= 3")

    @property
    def n_rare(self) -> int:
        return int(round(self.rare_fraction * self.n_streets))


@dataclass
class SyntheticBundle:
    train: list            # token lists
    refs: dict             # utt -> token list
    nbest: NBest
    streets: list          # lexicon, underscored
    street_counts: dict    # street -> configured training count
    confusions: dict       # street -> confusion token list


def _street_names(cfg: SyntheticConfig, rng) -> list:
    names = []
    seen = set()
    while len(names) < cfg.n_streets:
        name = "%s_%s" % (rng.choice(STREET_HEADS), rng.choice(STREET_TAILS))
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _street_count_profile(cfg: SyntheticConfig) -> list:
    """Zipf-like counts clamped so exactly the configured fraction of
    streets (the tail ranks) falls below the threshold."""
    n = cfg.n_streets
    cutoff = n - cfg.n_rare
    scale = cfg.threshold * (cutoff + 1) ** 1.15
    counts = []
    for r in range(n):
        c = int(round(scale / (r + 1) ** 1.15))
        if r < cutoff:
            c = max(c, cfg.threshold)
        else:
            c = min(max(c, 1), cfg.threshold - 1)
        counts.append(c)
    return counts


def gen_synthetic(cfg: SyntheticConfig) -> SyntheticBundle:
    """Generate the full benchmark bundle, deterministic by cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    streets = _street_names(cfg, rng)
    profile = _street_count_profile(cfg)
    street_counts = dict(zip(streets, profile))

    if cfg.confusions is not None:
        confusions = dict(cfg.confusions)
    else:
        confusions = {}
    for s in streets:
        if s not in confusions:
            pair = rng.choice(len(CONFUSION_WORDS), size=2, replace=False)
            confusions[s] = [CONFUSION_WORDS[pair[0]], CONFUSION_WORDS[pair[1]]]

    def fill_template(t):
        sent = t
        if "{c}" in sent:
            sent = sent.replace("{c}", CONFUSION_WORDS[rng.integers(len(CONFUSION_WORDS))])
        if "{d}" in sent:
            sent = sent.replace("{d}", CONFUSION_WORDS[rng.integers(len(CONFUSION_WORDS))])
        return sent.split()

    train = []
    for s, c in street_counts.items():
        for _ in range(c):
            t = STREET_TEMPLATES[rng.integers(len(STREET_TEMPLATES))]
            train.append(t.format(s=s).split())
    while len(train) < cfg.n_train:
        train.append(fill_template(FILLER_TEMPLATES[rng.integers(len(FILLER_TEMPLATES))]))
    order = rng.permutation(len(train))
    train = [train[i] for i in order]

    cutoff = cfg.n_streets - cfg.n_rare
    frequent_streets = streets[:cutoff]
    rare_streets = streets[cutoff:]

    refs = {}
    nbest = []
    filler_words = sorted({w for t in FILLER_TEMPLATES for w in t.split()
                           if "{" not in w})
    for u in range(cfg.n_eval):
        utt = "utt%04d" % u
        kind = rng.random()
        if kind < 0.55:
            street = rare_streets[rng.integers(len(rare_streets))]
        elif kind < 0.75:
            street = frequent_streets[rng.integers(len(frequent_streets))]
        else:
            street = None
        if street is not None:
            t = STREET_TEMPLATES[rng.integers(len(STREET_TEMPLATES))]
            ref = t.format(s=street).split()
        else:
            ref = fill_template(FILLER_TEMPLATES[rng.integers(len(FILLER_TEMPLATES))])
        refs[utt] = ref

        base = float(rng.normal(0.0, AM_NOISE))
        hyps = []
        if street is not None:
            corrupted = []
            for w in ref:
                corrupted.extend(confusions[street] if w == street else [w])
            hyps.append((base + AM_MARGIN, corrupted))
            hyps.append((base, list(ref)))
            other = frequent_streets[rng.integers(len(frequent_streets))]
            hyps.append((base - 0.8, [other if w == street else w for w in ref]))
        else:
            pos = int(rng.integers(len(ref)))
            sub = filler_words[rng.integers(len(filler_words))]
            corrupted = list(ref)
            corrupted[pos] = sub
            hyps.append((base + AM_MARGIN / 2.0, corrupted))
            hyps.append((base, list(ref)))
        while len(hyps) < cfg.nbest_size:
            j = len(hyps)
            pos = int(rng.integers(len(ref)))
            sub = filler_words[rng.integers(len(filler_words))]
            noisy = list(ref)
            noisy[pos] = sub
            hyps.append((base - 1.2 - 0.3 * j + float(rng.normal(0.0, AM_NOISE)),
                         noisy))
        hyps.sort(key=lambda x: -x[0])
        nbest.append((utt, [(r + 1, am, words) for r, (am, words) in enumerate(hyps)]))

    return SyntheticBundle(train, refs, NBest.from_lists(nbest), streets, street_counts,
                           confusions)


def bundle_paths(outdir) -> dict:
    """The path map of the bundle files in outdir."""
    return {
        "train": os.path.join(outdir, "train.txt"),
        "refs": os.path.join(outdir, "refs.txt"),
        "nbest": os.path.join(outdir, "nbest.txt"),
        "streets": os.path.join(outdir, "streets.txt"),
        "confusions": os.path.join(outdir, "confusions.tsv"),
    }


def write_bundle(bundle: SyntheticBundle, outdir) -> dict:
    """Write the bundle files, making outdir if it is missing; returns the
    path map."""
    os.makedirs(outdir, exist_ok=True)
    paths = bundle_paths(outdir)
    write_file(paths["train"], (("%s\n" % " ".join(s)).encode() for s in bundle.train))
    write_file(paths["refs"], (("%s\t%s\n" % (u, " ".join(words))).encode()
                               for u, words in sorted(bundle.refs.items())))
    rescore.write_nbest(bundle.nbest, paths["nbest"])
    write_file(paths["streets"], (("%s\n" % s).encode() for s in bundle.streets))
    write_file(paths["confusions"], (("%s\t%s\n" % (s, " ".join(words))).encode()
                                     for s, words in sorted(bundle.confusions.items())))
    return paths


@dataclass
class ExperimentBundle:
    """Everything needed to run enrichment + rescoring + WER once."""
    counts: dict
    scope: set
    model: neural.NeuralLM
    kn: object
    nbest: NBest
    refs: dict
    enrich_cfg: EnrichConfig = field(default_factory=EnrichConfig)
    rescore_cfg: RescoreConfig = field(default_factory=RescoreConfig)


def run_configuration(bundle: ExperimentBundle, plan: EnrichmentPlan) -> metrics.WerReport:
    """Rescore every list with the bundle's own model, the columns of
    `plan` enriched in place as `rarelm enrich` writes them and restored
    once scored, and score the 1-best hypotheses."""
    nbest = bundle.nbest
    with enrich.enriched_in_place(bundle.model, plan) as model:
        order, _ = rescore.rescore_lists(nbest, model, bundle.kn, bundle.rescore_cfg)
    onebest = dict(zip(nbest.utt_ids, nbest.word_lists(nbest.best(order))))
    return metrics.corpus_scores(bundle.refs, onebest)[0]


def sweep(bundle: ExperimentBundle, key: str, values: list) -> list:
    """WER per value of one enrichment setting (key "threshold" or "k"),
    every other setting taken from bundle.enrich_cfg. A value whose plan
    equals an earlier value's takes that value's WER, since it scores
    the same model. Raises if the input model was mutated. No model is
    copied: at paper width (|V|=20k, 300/1000) a one-row threshold sweep
    peaks at 312 MB, beside 293 MB for rescore of the same checkpoint,
    where a copy per row and a snapshot took 782 MB."""
    digest = neural.model_digest(bundle.model)
    rows = []
    done = []  # (plan, wer) of each distinct plan scored
    for v in values:
        cfg = replace(bundle.enrich_cfg, **{key: v})
        plan = enrich.plan_enrichment(bundle.counts, bundle.scope, bundle.model.vocab,
                                      cfg, bundle.nbest)
        wer = next((w for p, w in done if p == plan), None)
        if wer is None:
            wer = run_configuration(bundle, plan)
            done.append((plan, wer))
        rows.append({key: v, "wer": wer.wer, "errors": wer.errors})
    if neural.model_digest(bundle.model) != digest:
        raise RuntimeError("sweep modified the input model")
    return rows


def format_sweep(rows: list, key: str) -> str:
    """Aligned-column table plus a TSV block for external plotters."""
    lines = ["%-12s %-10s %s" % (key, "wer", "errors")]
    for row in rows:
        lines.append("%-12s %-10.4f %d" % (row[key], row["wer"], row["errors"]))
    lines.append("")
    lines.append("%s\twer" % key)
    for row in rows:
        lines.append("%s\t%.6f" % (row[key], row["wer"]))
    return "\n".join(lines) + "\n"
