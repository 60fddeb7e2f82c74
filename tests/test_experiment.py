from collections import Counter
from dataclasses import replace
from pathlib import Path
import tracemalloc

import numpy as np
import pytest

from rarelm import enrich, experiment, metrics, neural, rescore, textcorpus
from rarelm.experiment import SyntheticConfig
from rarelm.rescore import NBest, RescoreConfig


def small_cfg(**kw):
    defaults = dict(n_streets=12, n_train=150, n_eval=20, nbest_size=4, seed=5)
    defaults.update(kw)
    return SyntheticConfig(**defaults)


def test_gen_synthetic_deterministic(tmp_path):
    b1 = experiment.gen_synthetic(small_cfg())
    b2 = experiment.gen_synthetic(small_cfg())
    d1 = experiment.write_bundle(b1, tmp_path / "a")
    d2 = experiment.write_bundle(b2, tmp_path / "b")
    for key in d1:
        assert Path(d1[key]).read_bytes() == Path(d2[key]).read_bytes()


def test_gen_synthetic_reference_in_nbest():
    b = experiment.gen_synthetic(small_cfg())
    for nb in b.nbest:
        ref = b.refs[nb.utt_id]
        assert any(h.words == ref for h in nb.hypotheses)


def test_gen_synthetic_ranks_follow_am():
    b = experiment.gen_synthetic(small_cfg())
    for nb in b.nbest:
        ams = [h.am_score for h in nb.hypotheses]
        assert ams == sorted(ams, reverse=True)
        assert [h.rank for h in nb.hypotheses] == list(range(1, len(ams) + 1))


def test_gen_synthetic_count_split():
    cfg = small_cfg(rare_fraction=0.5, threshold=10)
    b = experiment.gen_synthetic(cfg)
    counts = Counter(w for s in b.train for w in s)
    # generated corpus realizes the configured per-street counts
    for s, c in b.street_counts.items():
        assert counts.get(s, 0) == c
    rare = [s for s in b.streets if counts.get(s, 0) < cfg.threshold]
    assert len(rare) == round(cfg.rare_fraction * cfg.n_streets)


def test_gen_synthetic_custom_confusions():
    table = {"ignored_street": ["foo", "bar"]}
    b = experiment.gen_synthetic(small_cfg(confusions=table))
    assert b.confusions["ignored_street"] == ["foo", "bar"]
    assert all(s in b.confusions for s in b.streets)


def make_bundle(pipe):
    return pipe["bundle"]


def plan_of(bundle, cfg):
    """The plan sweep makes for cfg."""
    return enrich.plan_enrichment(bundle.counts, bundle.scope, bundle.model.vocab, cfg,
                                  bundle.nbest)


def test_threshold_zero_is_baseline(synthetic_pipeline):
    bundle = synthetic_pipeline["bundle"]
    plan = plan_of(bundle, replace(bundle.enrich_cfg, threshold=0))
    experiment.run_configuration(bundle, plan)
    assert len(plan) == 0
    with enrich.enriched_in_place(bundle.model, plan) as model:
        assert model is bundle.model


def test_single_threshold_equals_manual_pipeline(synthetic_pipeline):
    bundle = synthetic_pipeline["bundle"]
    rows = experiment.sweep(bundle, "threshold", [10])
    wer = experiment.run_configuration(
        bundle, plan_of(bundle, replace(bundle.enrich_cfg, threshold=10)))
    assert rows[0]["wer"] == wer.wer


def test_sweep_scores_each_distinct_plan_once(synthetic_pipeline, monkeypatch):
    # equal plans score the same model, so a row whose plan an earlier row
    # had takes that row's WER; every row equals its own run, and each
    # value is planned once
    bundle = synthetic_pipeline["bundle"]
    values = [0, 2, 10, 50, 10]
    plans = [plan_of(bundle, replace(bundle.enrich_cfg, threshold=v)) for v in values]
    wers = [experiment.run_configuration(bundle, plan) for plan in plans]
    firsts = [plan for j, plan in enumerate(plans) if plan not in plans[:j]]
    calls, planned = [], []
    run_configuration = experiment.run_configuration
    monkeypatch.setattr(experiment, "run_configuration", lambda b, plan:
                        calls.append(plan) or run_configuration(b, plan))
    plan_enrichment = enrich.plan_enrichment
    monkeypatch.setattr(enrich, "plan_enrichment", lambda *a:
                        planned.append(a[3]) or plan_enrichment(*a))
    rows = experiment.sweep(bundle, "threshold", values)
    assert calls == firsts and len(calls) < len(values)
    assert [cfg.threshold for cfg in planned] == values
    assert rows == [{"threshold": v, "wer": wer.wer, "errors": wer.errors}
                    for v, wer in zip(values, wers)]


def test_sweep_does_not_mutate_model(synthetic_pipeline):
    bundle = synthetic_pipeline["bundle"]
    S0 = bundle.model.S.copy()
    experiment.sweep(bundle, "threshold", [0, 10])
    assert np.array_equal(bundle.model.S, S0)


def test_run_that_raises_restores_model(synthetic_pipeline, monkeypatch):
    bundle = synthetic_pipeline["bundle"]
    m = bundle.model
    digest = neural.model_digest(m)
    before = [X.copy() for X in (m.S, m.W, m.b, m.U)]
    scored = []

    def failing(lists, model, kn, cfg):
        scored.append(neural.model_digest(model))
        raise RuntimeError("scoring failed")

    monkeypatch.setattr(rescore, "rescore_lists", failing)
    with pytest.raises(RuntimeError, match="scoring failed"):
        experiment.run_configuration(
            bundle, plan_of(bundle, replace(bundle.enrich_cfg, threshold=10)))
    assert scored[0] != digest  # the planned columns were written before it raised
    assert neural.model_digest(m) == digest
    for X, X0 in zip((m.S, m.W, m.b, m.U), before):
        assert np.array_equal(X.view(np.uint64), X0.view(np.uint64))


def test_sweep_copies_no_model():
    # W alone is 10 MB; a sweep that copied the model once would peak above it
    words = ["w%03d" % i for i in range(497)]
    counts = dict(zip(words, range(len(words))))
    m = neural.init_model(textcorpus.Vocabulary(words, counts), 400, 400, seed=0)
    hyps = {"u%d" % u: [words[u * 7 + r:u * 7 + r + 6] for r in range(3)] for u in range(4)}
    nbest = NBest.from_lists([(u, [(r + 1, -r, h) for r, h in enumerate(hs)])
                              for u, hs in hyps.items()])
    bundle = experiment.ExperimentBundle(
        counts=counts, scope=set(words[:60]), model=m, kn=None, nbest=nbest,
        refs={u: hs[1] for u, hs in hyps.items()})
    nbytes = sum(X.nbytes for X in (m.S, m.W, m.b, m.U))
    tracemalloc.start()
    try:
        rows = experiment.sweep(bundle, "threshold", [10, 20, 40])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r["threshold"] for r in rows] == [10, 20, 40]
    assert peak < nbytes, (peak, nbytes)


@pytest.mark.parametrize("key", ["threshold", "k"])
def test_sweep_that_mutates_model_raises(monkeypatch, key):
    m = neural.init_model(textcorpus.Vocabulary(["a"]), 2, 2)
    bundle = experiment.ExperimentBundle(counts={}, scope=set(), model=m, kn=None,
                                         nbest=[], refs={})
    report = metrics.corpus_scores({"u": ["a"]}, {"u": ["a"]})[0]

    def mutating_run(b, plan):
        b.model.U[0, 0] += 1.0
        return report

    monkeypatch.setattr(experiment, "run_configuration", mutating_run)
    with pytest.raises(RuntimeError, match="modified the input model"):
        experiment.sweep(bundle, key, [1])


def test_candidate_sweep_clamps_k(synthetic_pipeline):
    bundle = synthetic_pipeline["bundle"]
    nfreq = sum(1 for s in bundle.scope
                if bundle.counts.get(s, 0) >= bundle.enrich_cfg.threshold)
    rows = experiment.sweep(bundle, "k", [nfreq + 50])
    assert len(rows) == 1 and 0.0 <= rows[0]["wer"] <= 1.0


def test_candidate_sweep_midrange(synthetic_pipeline):
    bundle = synthetic_pipeline["bundle"]
    rows = experiment.sweep(bundle, "k", [1, 5, 15])
    baseline = experiment.run_configuration(
        bundle, plan_of(bundle, replace(bundle.enrich_cfg, threshold=0, k=5)))
    assert min(r["wer"] for r in rows) <= baseline.wer


def test_from_nbest_mode(synthetic_pipeline):
    bundle = synthetic_pipeline["bundle"]
    cfg = replace(bundle.enrich_cfg, threshold=10, k=5)
    plan_all = plan_of(bundle, cfg)
    plan_nb = plan_of(bundle, replace(cfg, mode="fromNbest"))
    assert set(plan_nb.candidates) <= set(plan_all.candidates)


def test_format_sweep_table():
    rows = [{"threshold": 0, "wer": 0.5, "errors": 10},
            {"threshold": 10, "wer": 0.25, "errors": 5}]
    out = experiment.format_sweep(rows, "threshold")
    assert "threshold\twer" in out
    assert "10\t0.250000" in out


def test_gen_synthetic_rejects_bad_counts():
    with pytest.raises(ValueError):
        experiment.gen_synthetic(SyntheticConfig(n_streets=0))


@pytest.mark.parametrize("settings,message", [
    (dict(rare_fraction=0.0), "rare_fraction"),
    (dict(rare_fraction=1.0), "rare_fraction"),
    (dict(n_streets=10, rare_fraction=0.01), "rare_fraction"),
    (dict(rare_fraction=1.5), "rare_fraction"),
    (dict(threshold=0), "threshold must be >= 2"),
    (dict(threshold=1), "threshold must be >= 2"),
    (dict(nbest_size=2), "nbest_size must be >= 3"),
    (dict(n_streets=401), "n_streets must be <= 400"),
    (dict(rare_fraction=float("inf")), r"rare_fraction must be in \(0, 1\), got inf"),
    (dict(rare_fraction=float("nan")), r"rare_fraction must be in \(0, 1\), got nan"),
], ids=["no-rare", "no-frequent", "rounds-to-no-rare", "fraction-above-1",
        "threshold-0", "threshold-1", "nbest-2", "more-streets-than-names",
        "fraction-inf", "fraction-nan"])
def test_gen_synthetic_rejects_unrealisable(settings, message):
    with pytest.raises(ValueError, match=message):
        experiment.gen_synthetic(SyntheticConfig(**settings))
