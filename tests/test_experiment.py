from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rarelm import experiment, metrics, neural, textcorpus
from rarelm.enrich import EnrichmentPlan
from rarelm.experiment import SyntheticConfig
from rarelm.rescore import RescoreConfig


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
    counts = textcorpus.word_counts(b.train)
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


def test_threshold_zero_is_baseline(synthetic_pipeline):
    bundle = synthetic_pipeline["bundle"]
    run = experiment.run_configuration(bundle, replace(bundle.enrich_cfg, threshold=0))
    assert len(run.plan) == 0
    assert run.model is bundle.model


def test_single_threshold_equals_manual_pipeline(synthetic_pipeline):
    bundle = synthetic_pipeline["bundle"]
    rows = experiment.sweep(bundle, "threshold", [10])
    wer = experiment.run_configuration(bundle, replace(bundle.enrich_cfg, threshold=10)).wer
    assert rows[0]["wer"] == wer.wer


def test_sweep_does_not_mutate_model(synthetic_pipeline):
    bundle = synthetic_pipeline["bundle"]
    S0 = bundle.model.S.copy()
    experiment.sweep(bundle, "threshold", [0, 10])
    assert np.array_equal(bundle.model.S, S0)


@pytest.mark.parametrize("key", ["threshold", "k"])
def test_sweep_that_mutates_model_raises(monkeypatch, key):
    m = neural.init_model(textcorpus.Vocabulary(["a"]), 2, 2)
    bundle = experiment.ExperimentBundle(counts={}, scope=set(), model=m, kn=None,
                                         nbest=[], refs={})
    report = metrics.corpus_wer({"u": ["a"]}, {"u": ["a"]})

    def mutating_run(b, enrich_cfg):
        b.model.U[0, 0] += 1.0
        return experiment.Run(report, b.model, EnrichmentPlan({}))

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
        bundle, replace(bundle.enrich_cfg, threshold=0, k=5)).wer
    assert min(r["wer"] for r in rows) <= baseline.wer


def test_from_nbest_mode(synthetic_pipeline):
    bundle = synthetic_pipeline["bundle"]
    cfg = replace(bundle.enrich_cfg, threshold=10, k=5)
    plan_all = experiment.run_configuration(bundle, cfg).plan
    plan_nb = experiment.run_configuration(bundle, replace(cfg, mode="fromNbest")).plan
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
    (dict(threshold=0), "threshold must be >= 1"),
    (dict(nbest_size=2), "nbest_size must be >= 3"),
], ids=["no-rare", "no-frequent", "rounds-to-no-rare", "fraction-above-1",
        "threshold-0", "nbest-2"])
def test_gen_synthetic_rejects_unrealisable(settings, message):
    with pytest.raises(ValueError, match=message):
        experiment.gen_synthetic(SyntheticConfig(**settings))
