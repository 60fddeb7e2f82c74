import numpy as np
import pytest

from rarelm import experiment, metrics, neural, textcorpus
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
        assert open(d1[key], "rb").read() == open(d2[key], "rb").read()


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
    model, plan = experiment.enrich_for_bundle(bundle, 0, 5)
    assert plan is None
    assert model is bundle.model


def test_single_threshold_equals_manual_pipeline(synthetic_pipeline):
    bundle = synthetic_pipeline["bundle"]
    rows = experiment.sweep_threshold(bundle, [10])
    wer, _, _, _ = experiment.run_configuration(bundle, 10, bundle.k)
    assert rows[0]["wer"] == wer.wer


def test_sweep_does_not_mutate_model(synthetic_pipeline):
    bundle = synthetic_pipeline["bundle"]
    S0 = bundle.model.S.copy()
    experiment.sweep_threshold(bundle, [0, 10])
    assert np.array_equal(bundle.model.S, S0)


@pytest.mark.parametrize("sweep", [experiment.sweep_threshold,
                                   experiment.sweep_candidates])
def test_sweep_that_mutates_model_raises(monkeypatch, sweep):
    m = neural.init_model(textcorpus.Vocabulary(["a"]), 2, 2)
    bundle = experiment.ExperimentBundle(counts={}, scope=set(), model=m, kn=None,
                                         nbest=[], refs={})
    report = metrics.corpus_wer({"u": ["a"]}, {"u": ["a"]})

    def mutating_run(b, threshold, k, mode="allStreets"):
        b.model.U[0, 0] += 1.0
        return report, [], {}, None

    monkeypatch.setattr(experiment, "run_configuration", mutating_run)
    with pytest.raises(RuntimeError, match="modified the input model"):
        sweep(bundle, [1])


def test_candidate_sweep_clamps_k(synthetic_pipeline):
    bundle = synthetic_pipeline["bundle"]
    nfreq = sum(1 for s in bundle.scope
                if bundle.counts.get(s, 0) >= bundle.threshold)
    rows = experiment.sweep_candidates(bundle, [nfreq + 50])
    assert len(rows) == 1 and 0.0 <= rows[0]["wer"] <= 1.0


def test_candidate_sweep_midrange(synthetic_pipeline):
    bundle = synthetic_pipeline["bundle"]
    rows = experiment.sweep_candidates(bundle, [1, 5, 15])
    baseline, _, _, _ = experiment.run_configuration(bundle, 0, 5)
    assert min(r["wer"] for r in rows) <= baseline.wer


def test_from_nbest_mode(synthetic_pipeline):
    bundle = synthetic_pipeline["bundle"]
    _, plan_all = experiment.enrich_for_bundle(bundle, 10, 5, "allStreets")
    _, plan_nb = experiment.enrich_for_bundle(bundle, 10, 5, "fromNbest")
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
