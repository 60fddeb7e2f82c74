"""Subcommand front-end wiring the pipeline end to end.

Exit codes: 0 success, 1 domain error (message on stderr), 2 usage error.
Every command checks its settings, then that it can write each of its
outputs, before it reads any input. Every output is written by
textcorpus.write_file: beside its real path, and put in place whole (a
device or FIFO, which cannot be replaced, in place).
Every command prints a one-line reproducibility stamp with the package
version, seed and a digest of the effective configuration.
"""

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__, enrich, experiment, metrics, neural, ngram, rescore, textcorpus
from .rescore import RescoreConfig


def _stamp(args):
    cfgdict = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    digest = hashlib.sha256(json.dumps(cfgdict, sort_keys=True, default=str)
                            .encode()).hexdigest()[:12]
    print("# rarelm %s seed=%s config=%s"
          % (__version__, getattr(args, "seed", "-"), digest))


def _load_corpus(path, phrases_path=None):
    """The (phrase-joined) words of a corpus's lines laid back to back, one
    str per distinct word, and the int64 number of words of each line.
    On a 100,000-line corpus (975,457 framed ids), reading, encoding and
    folding into batch rows peak at 18.9 MB (tracemalloc), where a token
    list and an id list per sentence took 72.7 MB."""
    phrases = textcorpus.PhraseList.from_file(phrases_path) if phrases_path else None
    words, lens, same = [], [], {}.setdefault
    for sent in textcorpus.read_corpus(path):
        if phrases is not None:
            sent = textcorpus.join_phrases(sent, phrases)
        words += map(same, sent, sent)
        lens.append(len(sent))
    return words, np.array(lens, dtype=np.int64)


def _check_outputs(*paths):
    """textcorpus.check_writable on each output path given, None skipped;
    two whose real paths are one file are a ValueError."""
    named = {}
    for path in filter(None, paths):
        real = os.path.realpath(path)
        if real in named:
            raise ValueError("outputs %s and %s name one file" % (named[real], path))
        named[real] = path
        textcorpus.check_writable(path)


def cmd_build_vocab(args):
    textcorpus.check_vocab_limits(args.min_count, args.max_size)
    _check_outputs(args.output)
    words, _ = _load_corpus(args.corpus, args.phrases)
    vocab = textcorpus.build_vocab(words, args.min_count, args.max_size)
    vocab.to_file(args.output)
    print("vocabulary: %d words -> %s" % (len(vocab), args.output))


def cmd_train_lstm(args):
    cfg = neural.TrainConfig(
        learning_rate=args.lr, clip_norm=args.clip_norm, bptt_len=args.bptt_len,
        dropout_p=args.dropout, epochs=args.epochs, seed=args.seed,
        lr_decay=args.lr_decay, batch_size=args.batch_size)
    neural.check_sizes(args.embed_dim, args.hidden_dim)
    _check_outputs(args.output)
    vocab = textcorpus.Vocabulary.from_file(args.vocab)
    corpus = textcorpus.encode_many(*_load_corpus(args.corpus, args.phrases), vocab)
    val = None
    if args.val_corpus:
        val = textcorpus.encode_many(*_load_corpus(args.val_corpus, args.phrases), vocab)
    m = neural.init_model(vocab, args.embed_dim, args.hidden_dim, args.seed)
    m, history = neural.train(m, corpus, cfg, val=val, log=print)
    neural.save_model(m, args.output)
    print("final train_ppl %.2f val_ppl %.2f -> %s"
          % (history[-1]["train_ppl"], history[-1]["val_ppl"], args.output))


def cmd_train_ngram(args):
    ngram.check_settings(args.order, args.prune_min_count)
    _check_outputs(args.output)
    vocab = textcorpus.Vocabulary.from_file(args.vocab)
    ids, lens = textcorpus.encode_many(*_load_corpus(args.corpus, args.phrases), vocab)
    m = ngram.train_kn(ids, lens, args.order, vocab, prune_min_count=args.prune_min_count)
    for w in m.warnings:
        print("warning: %s" % w, file=sys.stderr)
    textcorpus.write_file(args.output, [ngram.export_arpa(m).encode()])
    print("KN%d model -> %s" % (args.order, args.output))


def _word_set(path) -> set:
    """The stripped non-blank lines of a one-word-per-line file."""
    with textcorpus.open_text(path) as f:
        return {line.strip() for line in f if line.strip()}


def _load_arpa(path):
    """The n-gram model of the ARPA file at path; a fault in it names path."""
    with textcorpus.open_text(path) as f:
        text = f.read()
    try:
        return ngram.import_arpa(text)
    except ngram.ArpaParseError as e:
        raise ngram.ArpaParseError("%s: %s" % (path, e)) from None


def _add_enrich_options(sp):
    """Declare the options of one enrichment, read by _enrich_settings and
    _enrich_words."""
    sp.add_argument("--scope", required=True, help="lexicon file, one name per line")
    sp.add_argument("--counts", help="word<TAB>count file; defaults to vocab counts")
    sp.add_argument("--threshold", type=int, default=10)
    sp.add_argument("--k", type=int, default=5)
    sp.add_argument("--weighting", choices=enrich.WEIGHTINGS, default="equal")
    sp.add_argument("--mode", choices=enrich.MODES, default="allStreets")
    sp.add_argument("--per-word-sampling", action="store_true", dest="per_word_sampling")
    sp.add_argument("--seed", type=int, default=0)


def _enrich_settings(args):
    """The enrichment config the enrich options give; reads no file."""
    if args.mode == "fromNbest" and not args.nbest:
        raise ValueError("--mode fromNbest requires --nbest")
    return enrich.EnrichConfig(threshold=args.threshold, k=args.k, seed=args.seed,
                               weighting=args.weighting, mode=args.mode,
                               shared=not args.per_word_sampling)


def _enrich_words(args, vocab):
    """The word counts (the vocabulary's unless --counts) and the scope."""
    counts = textcorpus.read_word_counts(args.counts) if args.counts else vocab.counts
    return counts, _word_set(args.scope)


def _add_rescore_options(sp):
    """Declare the options of one rescoring, read by _rescore_settings."""
    sp.add_argument("--ngram", help="ARPA model to interpolate with")
    sp.add_argument("--lm-weight", type=float, default=1.0, dest="lm_weight")
    sp.add_argument("--interp-weight", type=float, default=0.0, dest="interp_weight")
    sp.add_argument("--word-penalty", type=float, default=0.0, dest="word_penalty")


def _rescore_settings(args):
    """The rescoring config the rescore options give; reads no file."""
    cfg = RescoreConfig(lm_weight=args.lm_weight, interp_weight=args.interp_weight,
                        word_penalty=args.word_penalty)
    if cfg.interp_weight > 0.0 and not args.ngram:
        raise ValueError("--interp-weight > 0 requires --ngram")
    return cfg


def cmd_enrich(args):
    cfg = _enrich_settings(args)
    _check_outputs(args.output, args.plan_out)
    with neural.open_checkpoint(args.model) as (f, header):
        counts, scope = _enrich_words(args, header[0])
        nbest = rescore.read_nbest(args.nbest) if args.mode == "fromNbest" else None
        plan = enrich.plan_enrichment(counts, scope, header[0], cfg, nbest)
        report = enrich.enrich_checkpoint(f, header, args.output, plan)
    if args.plan_out:
        plan.to_file(args.plan_out)
    print("enriched %d words (%s) -> %s" % (report.modified, args.mode, args.output))


def cmd_rescore(args):
    cfg = _rescore_settings(args)
    _check_outputs(args.output, args.onebest)
    kn = _load_arpa(args.ngram) if args.ngram else None
    m = neural.load_model(args.model)
    nbest = rescore.read_nbest(args.nbest)
    order, totals = rescore.rescore_lists(nbest, m, kn, cfg)
    rescore.write_rescored(nbest, order, totals, args.output)
    if args.onebest:
        rescore.write_onebest(nbest, order, args.onebest)
    print("rescored %d utterances -> %s" % (len(nbest), args.output))


def cmd_ppl(args):
    words, lens = _load_corpus(args.corpus, args.phrases)
    m = neural.load_model(args.model) if args.model else None
    kn = _load_arpa(args.ngram) if args.ngram else None
    ids, lens = textcorpus.encode_many(words, lens, (m or kn).vocab)
    print("perplexity\t%.4f" % metrics.perplexity(neural.lm_scores(m, kn, ids, lens), lens))


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


def _sweep_values(text) -> list:
    """The integers of the comma-separated --values option."""
    values = []
    for item in text.split(","):
        try:
            values.append(int(item))
        except ValueError:
            raise ValueError("--values: %r is not an integer" % item) from None
    return values


def cmd_sweep(args):
    """Each row is the enrich + rescore + wer run with the same options."""
    values = _sweep_values(args.values)
    enrich_cfg = _enrich_settings(args)
    key = "threshold" if args.what == "threshold" else "k"
    for v in values:  # a bad value fails here, before any file is read
        replace(enrich_cfg, **{key: v})
    rescore_cfg = _rescore_settings(args)
    _check_outputs(args.output)
    kn = _load_arpa(args.ngram) if args.ngram else None
    m = neural.load_model(args.model)
    counts, scope = _enrich_words(args, m.vocab)
    bundle = experiment.ExperimentBundle(
        counts=counts, scope=scope, model=m, kn=kn,
        refs=rescore.read_onebest(args.refs), nbest=rescore.read_nbest(args.nbest),
        enrich_cfg=enrich_cfg, rescore_cfg=rescore_cfg)
    rows = experiment.sweep(bundle, key, values)
    out = experiment.format_sweep(rows, key)
    sys.stdout.write(out)
    if args.output:
        textcorpus.write_file(args.output, [out.encode()])


def _check_bundle(outdir):
    """_check_outputs on the bundle files in outdir. A missing outdir is
    made for the check, as write_bundle makes it, and then removed with
    each parent the check made."""
    made, d = [], os.path.abspath(outdir)
    while not os.path.lexists(d):
        made.append(d)
        d = os.path.dirname(d)
    try:
        os.makedirs(outdir, exist_ok=True)
        _check_outputs(*experiment.bundle_paths(outdir).values())
    finally:
        for d in filter(os.path.isdir, made):
            os.rmdir(d)


def cmd_gen_synthetic(args):
    cfg = experiment.SyntheticConfig(
        n_streets=args.streets, rare_fraction=args.rare_fraction,
        n_train=args.train_sentences, n_eval=args.eval_sentences,
        nbest_size=args.nbest_size, threshold=args.threshold, seed=args.seed)
    _check_bundle(args.outdir)
    if args.confusions:
        pairs = textcorpus.read_tab_pairs(args.confusions, "street<TAB>words", "street")
        cfg = replace(cfg, confusions={s: words.split() for _, s, words in pairs})
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
    _add_enrich_options(sp)
    sp.add_argument("--nbest", help="n-best file, required for fromNbest")
    sp.add_argument("--plan-out", dest="plan_out")
    sp.add_argument("--output", required=True)

    sp = add("rescore", cmd_rescore, help="rescore n-best lists")
    sp.add_argument("--model", required=True)
    _add_rescore_options(sp)
    sp.add_argument("--nbest", required=True)
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
    _add_enrich_options(sp)
    _add_rescore_options(sp)
    sp.add_argument("--nbest", required=True)
    sp.add_argument("--refs", required=True)
    sp.add_argument("--output")

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
