"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget."""

import filecmp
import math
import random
import time
from dataclasses import replace

import numpy as np

from rarelm import cli, enrich, experiment, metrics, neural, ngram, rescore, textcorpus
from rarelm.rescore import Hypothesis, NBestList, RescoreConfig
from corpus_reference import pack
from rarelm.textcorpus import Vocabulary, build_vocab, encode

import enrich_reference
from kn_reference import ref_prob
from nbest_reference import lm_scores_of, rescored
from test_experiment import plan_of
from test_metrics import brute_force_distance


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print("ACCEPTANCE %d %s: %s (%.1fs / budget %ds)"
          % (num, status, detail, elapsed, budget))
    assert ok, detail
    assert elapsed < budget, "criterion %d exceeded runtime budget" % num


def test_criterion_1_eq4_exactness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        nwords = int(rng.integers(4, 12))
        words = ["w%d" % i for i in range(nwords)]
        m = neural.init_model(Vocabulary(words), int(rng.integers(1, 6)),
                              int(rng.integers(1, 6)), seed=int(rng.integers(10000)))
        n_rare = int(rng.integers(1, max(2, nwords // 2)))
        rare = list(rng.choice(words, size=n_rare, replace=False))
        cands = [w for w in words if w not in rare]
        plan = {}
        for r in rare:
            ks = int(rng.integers(1, len(cands) + 1))
            sample = list(rng.choice(cands, size=ks, replace=False))
            plan[r] = [(c, float(rng.uniform(0.1, 2.0))) for c in sample]
        # the in-place enrichment sweep scores, rounded through float32 as
        # enrich writes it, against a recomputation and the per-word oracle
        before, cols = m.copy(), [m.vocab.id(r) for r in plan]
        eplan = enrich.EnrichmentPlan(plan)
        oracle = enrich_reference.enrich(before, eplan)
        with enrich.enriched_in_place(m, eplan) as out:
            for r, cs in plan.items():
                ri = m.vocab.id(r)
                for src, dst in ((before.S, out.S), (before.U, out.U)):
                    expect = src[:, ri].copy()
                    for c, w in cs:
                        expect = expect + w * src[:, m.vocab.id(c)]
                    expect /= len(cs) + 1.0
                    worst = max(worst, float(np.max(np.abs(dst[:, ri] - expect))))
            for dst, want in zip((out.S, out.U), oracle):
                assert np.array_equal(dst[:, cols].view(np.uint64), want[:, cols].astype(
                    np.float32).astype(np.float64).view(np.uint64))
            assert enrich_reference.same_except_columns(before, out, cols)
            assert np.array_equal(out.W, before.W) and np.array_equal(out.b, before.b)
        assert enrich_reference.same_except_columns(before, m, ())
    report(1, worst < 1e-6,
           "enrichment matches independent recomputation (max dev %.2e)" % worst,
           time.time() - t0, 5)


def test_criterion_2_kn_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(202)
    worst = 0.0
    worst_norm = 0.0
    for trial in range(20):
        order = (trial % 4) + 1
        words = ["w%d" % i for i in range(rng.randint(2, 6))]
        corpus, ntok = [], 0
        while ntok < rng.randint(8, 45):
            sent = [rng.choice(words) for _ in range(rng.randint(1, 8))]
            if ntok + len(sent) > 50:
                break
            corpus.append(sent)
            ntok += len(sent)
        if not corpus:
            corpus = [[words[0]]]
        vocab = build_vocab(w for s in corpus for w in s)
        enc = [encode(s, vocab) for s in corpus]
        m = ngram.train_kn(*pack(enc), order, vocab)
        nv = len(vocab)
        for _ in range(15):
            h = tuple(rng.randrange(nv) for _ in range(rng.randint(0, order - 1))) \
                if order > 1 else ()
            w = rng.randrange(nv)
            dev = abs(m.prob(w, h) - ref_prob(enc, w, h, order, nv))
            worst = max(worst, dev)
        for _ in range(100):
            h = tuple(rng.randrange(nv) for _ in range(rng.randint(0, max(0, order - 1))))
            s = sum(m.prob(w, h) for w in range(nv))
            worst_norm = max(worst_norm, abs(s - 1.0))
    report(2, worst < 1e-9 and worst_norm < 1e-6,
           "KN matches brute-force oracle (max dev %.2e, norm dev %.2e)"
           % (worst, worst_norm), time.time() - t0, 30)


def test_criterion_3_lstm_gradient_check():
    t0 = time.time()
    m = neural.init_model(Vocabulary(["a"]), d_s=2, d_h=2, seed=1)
    rng = np.random.default_rng(3)
    for P in (m.S, m.W, m.U):
        P += rng.uniform(-0.5, 0.5, P.shape)
    m.b += rng.uniform(-0.5, 0.5, m.b.shape)
    inputs = np.array([[0, 3, 3]])
    targets = np.array([[3, 3, 1]])
    h0 = np.zeros((1, 2))
    c0 = np.zeros((1, 2))
    _, grads, _, _ = neural.loss_and_grads(m, inputs, targets, h0, c0)
    eps = 1e-5
    worst = 0.0
    for name in ("S", "W", "b", "U"):
        P = getattr(m, name)
        num = np.zeros_like(P)
        it = np.nditer(P, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = P[idx]
            P[idx] = orig + eps
            lp, _, _, _ = neural.loss_and_grads(m, inputs, targets, h0, c0)
            P[idx] = orig - eps
            lm = neural.loss_and_grads(m, inputs, targets, h0, c0)[0]
            P[idx] = orig
            num[idx] = (lp - lm) / (2.0 * eps)
        denom = np.maximum(np.maximum(np.abs(num), np.abs(grads[name])), 1e-6)
        worst = max(worst, float((np.abs(num - grads[name]) / denom).max()))
    report(3, worst < 1e-4,
           "analytic vs central-difference gradients (max rel err %.2e)" % worst,
           time.time() - t0, 10)


def test_criterion_4_wer_oracle():
    t0 = time.time()
    rng = random.Random(404)
    alpha = list("abcd")
    ok = True
    for _ in range(500):
        ref = [rng.choice(alpha) for _ in range(rng.randint(0, 6))]
        hyp = [rng.choice(alpha) for _ in range(rng.randint(0, 6))]
        cost = sum(tag != metrics.MATCH for tag, _, _ in metrics.align(ref, hyp))
        if cost != brute_force_distance(ref, hyp):
            ok = False
            break
    for _ in range(20):
        sent = [rng.choice(alpha) for _ in range(rng.randint(1, 8))]
        if metrics.corpus_scores({"u": sent}, {"u": list(sent)})[0].wer != 0.0:
            ok = False
    report(4, ok, "alignment cost equals brute-force edit distance",
           time.time() - t0, 10)


def test_criterion_5_rescoring_boundaries():
    t0 = time.time()
    rng = random.Random(505)
    corpus = [[rng.choice(["a", "b", "c", "d"]) for _ in range(rng.randint(2, 6))]
              for _ in range(40)]
    vocab = build_vocab(w for s in corpus for w in s)
    enc = [encode(s, vocab) for s in corpus]
    nlm = neural.init_model(vocab, 4, 6, seed=5)
    kn = ngram.train_kn(*pack(enc), 3, vocab)
    hyps = [Hypothesis(1, -2.0, ["a", "b"]), Hypothesis(2, -1.2, ["c", "d", "a"]),
            Hypothesis(3, -3.0, ["b"])]
    nb = NBestList("u", hyps)
    out0 = rescored([nb], nlm, kn, RescoreConfig(lm_weight=0.0))[0]
    am_best = min(hyps, key=lambda h: (-h.am_score, h.rank))
    ok = out0.hypotheses[0].rank == am_best.rank
    for h in hyps:
        mu0 = lm_scores_of(nlm, kn, [h.words], 0.0)[0]
        mu1 = lm_scores_of(nlm, kn, [h.words], 1.0)[0]
        ok = ok and mu0 == sum(neural.position_logprobs(
            nlm, *pack([encode(h.words, vocab)])).tolist())
        ok = ok and mu1 == sum(map(math.log10, kn.prob_many(
            *pack([encode(h.words, vocab)]))))
    report(5, ok, "lambda=0 reproduces acoustic 1-best; mu boundaries exact",
           time.time() - t0, 5)


def test_criterion_6_directional_synthetic(synthetic_pipeline):
    t0 = time.time()
    pipe = synthetic_pipeline
    bundle = pipe["bundle"]
    vocab = pipe["vocab"]
    refs_enc = pack([encode(pipe["data"].refs[u], vocab)
                     for u in sorted(pipe["data"].refs)])

    cfg = replace(bundle.enrich_cfg, k=5)
    plan = plan_of(bundle, replace(cfg, threshold=10))
    wer_base = experiment.run_configuration(bundle, plan_of(bundle, replace(cfg, threshold=0)))
    wer_all = experiment.run_configuration(bundle, plan)
    wer_nb = experiment.run_configuration(
        bundle, plan_of(bundle, replace(cfg, threshold=10, mode="fromNbest")))

    def onebest(model):
        nbest = bundle.nbest
        order, _ = rescore.rescore_lists(nbest, model, bundle.kn, bundle.rescore_cfg)
        return dict(zip(nbest.utt_ids, nbest.word_lists(nbest.best(order))))

    tracked = set(pipe["rare_streets"])
    ppl_base = metrics.perplexity(neural.lm_scores(bundle.model, None, *refs_enc),
                                  refs_enc[1])
    acc_base = metrics.corpus_scores(pipe["data"].refs, onebest(bundle.model), tracked)[1]
    # the model run_configuration scored at threshold 10; the bundle's model
    # is the baseline again once the block exits
    with enrich.enriched_in_place(bundle.model, plan) as enriched:
        ppl_enr = metrics.perplexity(neural.lm_scores(enriched, None, *refs_enc),
                                     refs_enc[1])
        acc_enr = metrics.corpus_scores(pipe["data"].refs, onebest(enriched), tracked)[1]

    a = ppl_enr < ppl_base
    b = wer_all.wer < wer_base.wer
    c = acc_enr.accuracy - acc_base.accuracy >= 0.05
    d = abs(wer_nb.wer - wer_all.wer) <= 0.005
    report(6, a and b and c and d,
           "ppl %.1f->%.1f, wer %.4f->%.4f, rare acc %.3f->%.3f, "
           "fromNbest wer %.4f"
           % (ppl_base, ppl_enr, wer_base.wer, wer_all.wer,
              acc_base.accuracy, acc_enr.accuracy, wer_nb.wer),
           time.time() - t0, 600)


def test_criterion_7_threshold_sweep_shape(synthetic_pipeline):
    t0 = time.time()
    bundle = synthetic_pipeline["bundle"]
    rows = experiment.sweep(bundle, "threshold", [0, 2, 10, 50, 10 ** 6])
    wer_base = experiment.run_configuration(
        bundle, plan_of(bundle, replace(bundle.enrich_cfg, threshold=0, k=5)))
    by_th = {r["threshold"]: r["wer"] for r in rows}
    best_mid = min(by_th[2], by_th[10], by_th[50])
    ok = (by_th[0] == wer_base.wer
          and best_mid <= by_th[0] and best_mid <= by_th[10 ** 6])
    report(7, ok,
           "sweep WERs %s; threshold 0 equals baseline, mid range best"
           % {k: round(v, 4) for k, v in by_th.items()},
           time.time() - t0, 1200)


def test_criterion_8_pipeline_determinism(tmp_path):
    t0 = time.time()
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        d.mkdir()
        assert cli.main(["gen-synthetic", "--outdir", str(d / "bundle"),
                         "--streets", "16", "--train-sentences", "300",
                         "--eval-sentences", "25", "--nbest-size", "4",
                         "--seed", "8"]) == 0
        bundle = d / "bundle"
        assert cli.main(["build-vocab", "--corpus", str(bundle / "train.txt"),
                         "--output", str(d / "vocab.txt")]) == 0
        assert cli.main(["train-lstm", "--corpus", str(bundle / "train.txt"),
                         "--vocab", str(d / "vocab.txt"),
                         "--output", str(d / "lstm.rlm"), "--embed-dim", "8",
                         "--hidden-dim", "12", "--epochs", "3",
                         "--batch-size", "4", "--seed", "5"]) == 0
        assert cli.main(["enrich", "--model", str(d / "lstm.rlm"),
                         "--scope", str(bundle / "streets.txt"),
                         "--threshold", "10", "--k", "3",
                         "--output", str(d / "enriched.rlm"),
                         "--plan-out", str(d / "plan.tsv"), "--seed", "2"]) == 0
        assert cli.main(["rescore", "--model", str(d / "enriched.rlm"),
                         "--nbest", str(bundle / "nbest.txt"),
                         "--output", str(d / "rescored.tsv"),
                         "--onebest", str(d / "onebest.tsv")]) == 0
        refs = rescore.read_onebest(bundle / "refs.txt")
        hyps = rescore.read_onebest(d / "onebest.tsv")
        (d / "report.txt").write_text(
            metrics.format_wer_report(metrics.corpus_scores(refs, hyps)[0]))
    artifacts = ["lstm.rlm", "enriched.rlm", "plan.tsv", "rescored.tsv",
                 "onebest.tsv", "report.txt", "vocab.txt"]
    same = all(filecmp.cmp(dirs[0] / a, dirs[1] / a, shallow=False)
               for a in artifacts)
    report(8, same, "pipeline rerun yields byte-identical artifacts",
           time.time() - t0, 120)
