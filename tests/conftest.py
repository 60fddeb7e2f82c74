import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rarelm import experiment, neural, textcorpus
from rarelm.enrich import EnrichConfig
from rarelm.rescore import RescoreConfig


@pytest.fixture(scope="session")
def synthetic_pipeline():
    """One trained synthetic benchmark shared by experiment/acceptance tests.

    Mirrors the paper-flavored settings: frequency threshold 10, k=5
    equal-weight candidates, ~2k training sentences, ~40 streets.
    """
    cfg = experiment.SyntheticConfig(seed=42)
    bundle_data = experiment.gen_synthetic(cfg)
    words = [w for s in bundle_data.train for w in s]
    counts = Counter(words)
    vocab = textcorpus.build_vocab(words)
    enc = textcorpus.encode_many(words, [len(s) for s in bundle_data.train], vocab)
    m0 = neural.init_model(vocab, d_s=32, d_h=64, seed=1)
    tcfg = neural.TrainConfig(learning_rate=1.0, epochs=10, batch_size=16,
                              bptt_len=32, dropout_p=0.1, seed=1)
    model, history = neural.train(m0, enc, tcfg)
    bundle = experiment.ExperimentBundle(
        counts=dict(counts), scope=set(bundle_data.streets), model=model,
        kn=None, nbest=bundle_data.nbest, refs=bundle_data.refs,
        enrich_cfg=EnrichConfig(threshold=cfg.threshold, k=5, seed=3),
        rescore_cfg=RescoreConfig(lm_weight=1.0))
    return {
        "config": cfg,
        "data": bundle_data,
        "vocab": vocab,
        "model": model,
        "history": history,
        "bundle": bundle,
        "rare_streets": [s for s in bundle_data.streets
                         if counts.get(s, 0) < cfg.threshold],
    }
