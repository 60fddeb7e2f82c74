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
from typing import NamedTuple, Optional

import numpy as np

from . import enrich, metrics, rescore
from .enrich import EnrichConfig, EnrichmentPlan
from .neural import NeuralLM
from .rescore import Hypothesis, NBestList, RescoreConfig

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


@dataclass
class SyntheticConfig:
    n_streets: int = 40
    rare_fraction: float = 0.5
    n_train: int = 2000
    n_eval: int = 200
    nbest_size: int = 8
    threshold: int = 10
    seed: int = 0
    confusions: Optional[dict] = None  # street -> list of confusion tokens


@dataclass
class SyntheticBundle:
    train: list            # token lists
    refs: dict             # utt -> token list
    nbest: list            # list[NBestList]
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
    cutoff = n - int(round(cfg.rare_fraction * n))
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
    if cfg.n_streets < 1 or cfg.n_train < 1 or cfg.n_eval < 1:
        raise ValueError("counts must be >= 1")
    n_rare = int(round(cfg.rare_fraction * cfg.n_streets))
    if not 0 < n_rare < cfg.n_streets:
        raise ValueError("rare_fraction must leave at least one rare and one "
                         "frequent street")
    if cfg.threshold < 1:
        raise ValueError("threshold must be >= 1")
    if cfg.nbest_size < 3:
        raise ValueError("nbest_size must be >= 3")
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

    cutoff = cfg.n_streets - n_rare
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
        nb = NBestList(utt, [Hypothesis(r + 1, am, words)
                             for r, (am, words) in enumerate(hyps)])
        nbest.append(nb)

    return SyntheticBundle(train, refs, nbest, streets, street_counts, confusions)


def write_bundle(bundle: SyntheticBundle, outdir) -> dict:
    """Write the bundle files; returns the path map."""
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "train": os.path.join(outdir, "train.txt"),
        "refs": os.path.join(outdir, "refs.txt"),
        "nbest": os.path.join(outdir, "nbest.txt"),
        "streets": os.path.join(outdir, "streets.txt"),
        "confusions": os.path.join(outdir, "confusions.tsv"),
    }
    with open(paths["train"], "w", encoding="utf-8") as f:
        for sent in bundle.train:
            f.write(" ".join(sent) + "\n")
    with open(paths["refs"], "w", encoding="utf-8") as f:
        for utt in sorted(bundle.refs):
            f.write("%s\t%s\n" % (utt, " ".join(bundle.refs[utt])))
    rescore.write_nbest(bundle.nbest, paths["nbest"])
    with open(paths["streets"], "w", encoding="utf-8") as f:
        for s in bundle.streets:
            f.write(s + "\n")
    with open(paths["confusions"], "w", encoding="utf-8") as f:
        for s in sorted(bundle.confusions):
            f.write("%s\t%s\n" % (s, " ".join(bundle.confusions[s])))
    return paths


@dataclass
class ExperimentBundle:
    """Everything needed to run enrichment + rescoring + WER once."""
    counts: dict
    scope: set
    model: NeuralLM
    kn: object
    nbest: list
    refs: dict
    enrich_cfg: EnrichConfig = field(default_factory=EnrichConfig)
    rescore_cfg: RescoreConfig = field(default_factory=RescoreConfig)


class Run(NamedTuple):
    wer: metrics.WerReport
    model: NeuralLM        # the enriched model, or the bundle's own
    plan: EnrichmentPlan   # empty when nothing was enriched


def run_configuration(bundle: ExperimentBundle, enrich_cfg: EnrichConfig) -> Run:
    """Enrich the bundle's model under enrich_cfg, rescore every list and
    score the 1-best hypotheses.

    When no scope word is rare, or no frequent candidate exists (extreme
    thresholds), the bundle's model object itself is scored, uncopied.
    """
    try:
        plan = enrich.plan_enrichment(bundle.counts, bundle.scope, bundle.model.vocab,
                                      enrich_cfg, bundle.nbest)
    except enrich.NoCandidates:
        plan = EnrichmentPlan({})
    model = enrich.enrich_embeddings(bundle.model, plan)[0] if plan else bundle.model
    rescored = rescore.rescore_lists(bundle.nbest, model, bundle.kn, bundle.rescore_cfg)
    onebest = {nb.utt_id: nb.hypotheses[0].words for nb in rescored}
    return Run(metrics.corpus_wer(bundle.refs, onebest), model, plan)


def sweep(bundle: ExperimentBundle, key: str, values: list) -> list:
    """WER per value of one enrichment setting (key "threshold" or "k"),
    every other setting taken from bundle.enrich_cfg. Raises if the input
    model was mutated."""
    digest = enrich._untouched_checksum(bundle.model, ())
    rows = []
    for v in values:
        wer = run_configuration(bundle, replace(bundle.enrich_cfg, **{key: v})).wer
        rows.append({key: v, "wer": wer.wer, "errors": wer.errors})
    if enrich._untouched_checksum(bundle.model, ()) != digest:
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
