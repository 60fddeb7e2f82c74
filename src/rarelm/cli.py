"""Subcommand front-end wiring the pipeline end to end.

Exit codes: 0 success, 1 domain error (message on stderr), 2 usage error.
Every command prints a one-line reproducibility stamp with the package
version, seed and a digest of the effective configuration.
"""

import argparse
import hashlib
import json
import sys

from . import __version__, enrich, experiment, metrics, neural, ngram, rescore, textcorpus
from .rescore import RescoreConfig


def _stamp(args):
    cfgdict = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    digest = hashlib.sha256(json.dumps(cfgdict, sort_keys=True, default=str)
                            .encode()).hexdigest()[:12]
    print("# rarelm %s seed=%s config=%s"
          % (__version__, getattr(args, "seed", "-"), digest))


def _load_corpus(path, phrases_path=None):
    sentences = list(textcorpus.read_corpus(path))
    if phrases_path:
        phrases = textcorpus.PhraseList.from_file(phrases_path)
        sentences = [textcorpus.join_phrases(s, phrases) for s in sentences]
    return sentences


def cmd_build_vocab(args):
    sentences = _load_corpus(args.corpus, args.phrases)
    vocab = textcorpus.build_vocab(sentences, args.min_count, args.max_size)
    vocab.to_file(args.output)
    print("vocabulary: %d words -> %s" % (len(vocab), args.output))


def cmd_train_lstm(args):
    vocab = textcorpus.Vocabulary.from_file(args.vocab)
    sentences = _load_corpus(args.corpus, args.phrases)
    enc = [textcorpus.encode(s, vocab) for s in sentences]
    val = None
    if args.val_corpus:
        val = [textcorpus.encode(s, vocab)
               for s in _load_corpus(args.val_corpus, args.phrases)]
    m = neural.init_model(vocab, args.embed_dim, args.hidden_dim, args.seed)
    cfg = neural.TrainConfig(
        learning_rate=args.lr, clip_norm=args.clip_norm, bptt_len=args.bptt_len,
        dropout_p=args.dropout, epochs=args.epochs, seed=args.seed,
        lr_decay=args.lr_decay, batch_size=args.batch_size)
    m, history = neural.train(m, enc, cfg, val_ids=val, log=print)
    neural.save_model(m, args.output)
    print("final train_ppl %.2f val_ppl %.2f -> %s"
          % (history[-1]["train_ppl"], history[-1]["val_ppl"], args.output))


def cmd_train_ngram(args):
    vocab = textcorpus.Vocabulary.from_file(args.vocab)
    sentences = _load_corpus(args.corpus, args.phrases)
    enc = [textcorpus.encode(s, vocab) for s in sentences]
    m = ngram.train_kn(enc, args.order, vocab, prune_min_count=args.prune_min_count)
    for w in m.warnings:
        print("warning: %s" % w, file=sys.stderr)
    with open(args.output, "w", encoding="utf-8") as f:
        f.write(ngram.export_arpa(m))
    print("KN%d model -> %s" % (args.order, args.output))


def _word_set(path) -> set:
    """The stripped non-blank lines of a one-word-per-line file."""
    with open(path, encoding="utf-8") as f:
        return {line.strip() for line in f if line.strip()}


def cmd_enrich(args):
    if args.mode == "fromNbest" and not args.nbest:
        raise ValueError("--mode fromNbest requires --nbest")
    cfg = enrich.EnrichConfig(threshold=args.threshold, k=args.k, seed=args.seed,
                              weighting=args.weighting, mode=args.mode,
                              shared=not args.per_word_sampling)
    m = neural.load_model(args.model)
    counts = m.vocab.counts
    if args.counts:
        counts = dict(textcorpus.read_word_counts(args.counts))
    nbest = rescore.read_nbest(args.nbest) if args.mode == "fromNbest" else None
    plan = enrich.plan_enrichment(counts, _word_set(args.scope), m.vocab, cfg, nbest)
    enriched, report = enrich.enrich_embeddings(m, plan)
    neural.save_model(enriched, args.output)
    if args.plan_out:
        plan.to_file(args.plan_out)
    print("enriched %d words (%s) -> %s" % (report.modified, args.mode, args.output))


def cmd_rescore(args):
    m = neural.load_model(args.model)
    kn = None
    if args.ngram:
        with open(args.ngram, encoding="utf-8") as f:
            kn = ngram.import_arpa(f.read())
    cfg = RescoreConfig(lm_weight=args.lm_weight,
                        interp_weight=args.interp_weight,
                        word_penalty=args.word_penalty)
    lists = rescore.read_nbest(args.nbest)
    rescored = rescore.rescore_lists(lists, m, kn, cfg)
    rescore.write_rescored(rescored, args.output)
    if args.onebest:
        rescore.write_onebest(rescored, args.onebest)
    print("rescored %d utterances -> %s" % (len(rescored), args.output))


def cmd_ppl(args):
    sentences = _load_corpus(args.corpus, args.phrases)
    if args.model:
        m = neural.load_model(args.model)
        enc = [textcorpus.encode(s, m.vocab) for s in sentences]
        total = neural.nn_perplexity(m, enc)
    else:
        with open(args.ngram, encoding="utf-8") as f:
            kn = ngram.import_arpa(f.read())
        enc = [textcorpus.encode(s, kn.vocab) for s in sentences]
        total = ngram.kn_perplexity(kn, enc)
    print("perplexity\t%.4f" % total)


def cmd_wer(args):
    refs = rescore.read_onebest(args.refs)
    hyps = rescore.read_onebest(args.hyps)
    report, acc = metrics.corpus_scores(
        refs, hyps, _word_set(args.tracked) if args.tracked else ())
    sys.stdout.write(metrics.format_wer_report(report))
    if args.tracked:
        if acc.defined:
            print("tracked_occurrences\t%d" % acc.occurrences)
            print("tracked_correct\t%d" % acc.correct)
            print("tracked_accuracy\t%.6f" % acc.accuracy)
        else:
            print("tracked_occurrences\t0")
            print("tracked_accuracy\tundefined")


def cmd_sweep(args):
    m = neural.load_model(args.model)
    bundle = experiment.ExperimentBundle(
        counts=m.vocab.counts, scope=_word_set(args.scope), model=m, kn=None,
        refs=rescore.read_onebest(args.refs), nbest=rescore.read_nbest(args.nbest),
        enrich_cfg=enrich.EnrichConfig(threshold=args.threshold, k=args.k,
                                       seed=args.seed),
        rescore_cfg=RescoreConfig(lm_weight=args.lm_weight))
    key = "threshold" if args.what == "threshold" else "k"
    rows = experiment.sweep(bundle, key, [int(v) for v in args.values.split(",")])
    out = experiment.format_sweep(rows, key)
    sys.stdout.write(out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(out)


def cmd_gen_synthetic(args):
    cfg = experiment.SyntheticConfig(
        n_streets=args.streets, rare_fraction=args.rare_fraction,
        n_train=args.train_sentences, n_eval=args.eval_sentences,
        nbest_size=args.nbest_size, threshold=args.threshold, seed=args.seed)
    if args.confusions:
        cfg.confusions = {s: words.split() for _, s, words in
                          textcorpus.read_tab_pairs(args.confusions, "street<TAB>words")}
    bundle = experiment.gen_synthetic(cfg)
    paths = experiment.write_bundle(bundle, args.outdir)
    print("synthetic bundle -> %s" % args.outdir)
    for k, p in sorted(paths.items()):
        print("  %s\t%s" % (k, p))


def build_parser():
    p = argparse.ArgumentParser(prog="rarelm",
                                description="Rare-word embedding enrichment toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(func=fn)
        return sp

    sp = add("build-vocab", cmd_build_vocab, help="build a vocabulary file")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--phrases", help="multiword-name list to join with underscores")
    sp.add_argument("--min-count", type=int, default=1, dest="min_count")
    sp.add_argument("--max-size", type=int, default=None, dest="max_size")
    sp.add_argument("--output", required=True)

    sp = add("train-lstm", cmd_train_lstm, help="train the LSTM language model")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--val-corpus", dest="val_corpus")
    sp.add_argument("--phrases")
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--output", required=True)
    sp.add_argument("--embed-dim", type=int, default=32, dest="embed_dim")
    sp.add_argument("--hidden-dim", type=int, default=64, dest="hidden_dim")
    sp.add_argument("--lr", type=float, default=1.0)
    sp.add_argument("--lr-decay", type=float, default=0.5, dest="lr_decay")
    sp.add_argument("--clip-norm", type=float, default=5.0, dest="clip_norm")
    sp.add_argument("--bptt-len", type=int, default=32, dest="bptt_len")
    sp.add_argument("--dropout", type=float, default=0.2)
    sp.add_argument("--epochs", type=int, default=20)
    sp.add_argument("--batch-size", type=int, default=16, dest="batch_size")
    sp.add_argument("--seed", type=int, default=0)

    sp = add("train-ngram", cmd_train_ngram, help="train the Kneser-Ney n-gram model")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--phrases")
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--order", type=int, default=4)
    sp.add_argument("--prune-min-count", type=int, default=0, dest="prune_min_count")
    sp.add_argument("--output", required=True)

    sp = add("enrich", cmd_enrich, help="enrich rare-word embeddings")
    sp.add_argument("--model", required=True)
    sp.add_argument("--scope", required=True, help="lexicon file, one name per line")
    sp.add_argument("--counts", help="word<TAB>count file; defaults to vocab counts")
    sp.add_argument("--threshold", type=int, default=10)
    sp.add_argument("--k", type=int, default=5)
    sp.add_argument("--weighting", choices=enrich.WEIGHTINGS, default="equal")
    sp.add_argument("--mode", choices=enrich.MODES, default="allStreets")
    sp.add_argument("--nbest", help="n-best file, required for fromNbest")
    sp.add_argument("--per-word-sampling", action="store_true", dest="per_word_sampling")
    sp.add_argument("--plan-out", dest="plan_out")
    sp.add_argument("--output", required=True)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("rescore", cmd_rescore, help="rescore n-best lists")
    sp.add_argument("--model", required=True)
    sp.add_argument("--ngram", help="ARPA model to interpolate with")
    sp.add_argument("--nbest", required=True)
    sp.add_argument("--lm-weight", type=float, default=1.0, dest="lm_weight")
    sp.add_argument("--interp-weight", type=float, default=0.0, dest="interp_weight")
    sp.add_argument("--word-penalty", type=float, default=0.0, dest="word_penalty")
    sp.add_argument("--output", required=True)
    sp.add_argument("--onebest")

    sp = add("ppl", cmd_ppl, help="corpus perplexity under a model")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--phrases")
    model = sp.add_mutually_exclusive_group(required=True)
    model.add_argument("--model", help="LSTM checkpoint")
    model.add_argument("--ngram", help="ARPA model")

    sp = add("wer", cmd_wer, help="word error rate of hypotheses vs references")
    sp.add_argument("--refs", required=True)
    sp.add_argument("--hyps", required=True)
    sp.add_argument("--tracked", help="word list for recognition accuracy")

    sp = add("sweep", cmd_sweep, help="threshold or candidate-count sweep")
    sp.add_argument("what", choices=["threshold", "candidates"])
    sp.add_argument("--values", required=True, help="comma-separated values")
    sp.add_argument("--model", required=True)
    sp.add_argument("--scope", required=True)
    sp.add_argument("--nbest", required=True)
    sp.add_argument("--refs", required=True)
    sp.add_argument("--threshold", type=int, default=10)
    sp.add_argument("--k", type=int, default=5)
    sp.add_argument("--lm-weight", type=float, default=1.0, dest="lm_weight")
    sp.add_argument("--output")
    sp.add_argument("--seed", type=int, default=0)

    sp = add("gen-synthetic", cmd_gen_synthetic, help="generate the synthetic benchmark")
    sp.add_argument("--outdir", required=True)
    sp.add_argument("--streets", type=int, default=40)
    sp.add_argument("--rare-fraction", type=float, default=0.5, dest="rare_fraction")
    sp.add_argument("--train-sentences", type=int, default=2000, dest="train_sentences")
    sp.add_argument("--eval-sentences", type=int, default=200, dest="eval_sentences")
    sp.add_argument("--nbest-size", type=int, default=8, dest="nbest_size")
    sp.add_argument("--threshold", type=int, default=10)
    sp.add_argument("--confusions", help="street<TAB>words confusion table")
    sp.add_argument("--seed", type=int, default=0)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 2
    _stamp(args)
    try:
        args.func(args)
    except (ValueError, KeyError, IndexError, OSError,
            neural.TrainingDiverged) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
