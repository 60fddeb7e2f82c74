import filecmp
import os

import pytest

from rarelm import __version__, cli, metrics


def run(argv, capsys=None):
    return cli.main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small synthetic bundle plus trained artifacts built via the CLI."""
    d = tmp_path_factory.mktemp("cliwork")
    bundle = d / "bundle"
    assert run(["gen-synthetic", "--outdir", str(bundle), "--streets", "12",
                "--train-sentences", "200", "--eval-sentences", "15",
                "--nbest-size", "4", "--seed", "11"]) == 0
    assert run(["build-vocab", "--corpus", str(bundle / "train.txt"),
                "--output", str(d / "vocab.txt")]) == 0
    assert run(["train-lstm", "--corpus", str(bundle / "train.txt"),
                "--vocab", str(d / "vocab.txt"), "--output", str(d / "lstm.rlm"),
                "--embed-dim", "8", "--hidden-dim", "12", "--epochs", "2",
                "--batch-size", "4", "--seed", "1"]) == 0
    assert run(["train-ngram", "--corpus", str(bundle / "train.txt"),
                "--vocab", str(d / "vocab.txt"), "--order", "3",
                "--output", str(d / "kn.arpa")]) == 0
    return d


def test_enrich_and_rescore_pipeline(workdir):
    d = workdir
    bundle = d / "bundle"
    assert run(["enrich", "--model", str(d / "lstm.rlm"),
                "--scope", str(bundle / "streets.txt"), "--threshold", "10",
                "--k", "3", "--output", str(d / "enriched.rlm"),
                "--plan-out", str(d / "plan.tsv"), "--seed", "2"]) == 0
    assert (d / "plan.tsv").exists()
    assert run(["rescore", "--model", str(d / "enriched.rlm"),
                "--nbest", str(bundle / "nbest.txt"),
                "--output", str(d / "rescored.tsv"),
                "--onebest", str(d / "onebest.tsv")]) == 0
    assert run(["wer", "--refs", str(bundle / "refs.txt"),
                "--hyps", str(d / "onebest.tsv"),
                "--tracked", str(bundle / "streets.txt")]) == 0


def test_enrich_from_nbest_mode(workdir):
    d = workdir
    bundle = d / "bundle"
    assert run(["enrich", "--model", str(d / "lstm.rlm"),
                "--scope", str(bundle / "streets.txt"), "--mode", "fromNbest",
                "--nbest", str(bundle / "nbest.txt"),
                "--output", str(d / "enriched_nb.rlm"), "--seed", "2"]) == 0


def test_enrich_per_word_sampling(workdir):
    d = workdir
    assert run(["enrich", "--model", str(d / "lstm.rlm"),
                "--scope", str(d / "bundle" / "streets.txt"), "--k", "2",
                "--per-word-sampling", "--output", str(d / "enriched_pw.rlm"),
                "--plan-out", str(d / "plan_pw.tsv"), "--seed", "2"]) == 0
    samples = [line.split("\t")[1] for line in
               (d / "plan_pw.tsv").read_text().splitlines()]
    assert len(samples) > 1 and len(set(samples)) > 1


def test_enrich_out_of_vocabulary_scope_copies_model(workdir, capsys):
    d = workdir
    (d / "nowhere.txt").write_text("nowhere_street\n")
    assert run(["enrich", "--model", str(d / "lstm.rlm"),
                "--scope", str(d / "nowhere.txt"),
                "--output", str(d / "unchanged.rlm")]) == 0
    assert "enriched 0 words" in capsys.readouterr().out
    assert filecmp.cmp(d / "lstm.rlm", d / "unchanged.rlm", shallow=False)


def test_enrich_from_nbest_requires_nbest(workdir):
    d = workdir
    assert run(["enrich", "--model", str(d / "lstm.rlm"),
                "--scope", str(d / "bundle" / "streets.txt"),
                "--mode", "fromNbest", "--output", str(d / "x.rlm")]) == 1


def test_rescore_with_interpolation(workdir):
    d = workdir
    assert run(["rescore", "--model", str(d / "lstm.rlm"),
                "--ngram", str(d / "kn.arpa"), "--interp-weight", "0.3",
                "--nbest", str(d / "bundle" / "nbest.txt"),
                "--output", str(d / "rescored_mix.tsv")]) == 0


def test_ppl_commands(workdir, capsys):
    d = workdir
    assert run(["ppl", "--corpus", str(d / "bundle" / "train.txt"),
                "--model", str(d / "lstm.rlm")]) == 0
    assert "perplexity" in capsys.readouterr().out
    assert run(["ppl", "--corpus", str(d / "bundle" / "train.txt"),
                "--ngram", str(d / "kn.arpa")]) == 0


def test_ppl_takes_exactly_one_model(workdir, capsys):
    d = workdir
    corpus = ["ppl", "--corpus", str(d / "bundle" / "train.txt")]
    assert run(corpus) == 2
    assert "one of the arguments --model --ngram is required" in capsys.readouterr().err
    assert run(corpus + ["--model", str(d / "lstm.rlm"), "--ngram", str(d / "kn.arpa")]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_bad_arpa_value_is_a_domain_error(workdir, capsys):
    # 10 ** 400 overflows a float; the loader names the line, no traceback
    d = workdir
    lines = (d / "kn.arpa").read_text().split("\n")
    idx = next(i for i, l in enumerate(lines) if l.startswith("\\1-grams:")) + 1
    lines[idx] = "400\t" + lines[idx].split("\t", 1)[1]
    (d / "bad400.arpa").write_text("\n".join(lines))
    for argv in (["ppl", "--corpus", str(d / "bundle" / "train.txt")],
                 ["rescore", "--model", str(d / "lstm.rlm"), "--interp-weight", "0.3",
                  "--nbest", str(d / "bundle" / "nbest.txt"),
                  "--output", str(d / "rescored_bad.tsv")]):
        assert run(argv + ["--ngram", str(d / "bad400.arpa")]) == 1
        assert "error: line %d: bad log probability '400'" % (idx + 1) \
            in capsys.readouterr().err


def test_arpa_without_unk_names_the_word(workdir, capsys):
    # an external ARPA file need not list <unk>; OOV words then have no
    # unigram, and the error names the word
    d = workdir
    lines = (d / "kn.arpa").read_text().split("\n")
    unk = next(i for i, l in enumerate(lines) if l.split("\t")[1:2] == ["<unk>"])
    del lines[unk]
    n1 = next(i for i, l in enumerate(lines) if l.startswith("ngram 1="))
    lines[n1] = "ngram 1=%d" % (int(lines[n1][len("ngram 1="):]) - 1)
    (d / "nounk.arpa").write_text("\n".join(lines))
    (d / "oov_nbest.txt").write_text("u1\t1\t-1.0\tzzzq\n")
    (d / "oov.txt").write_text("zzzq\n")
    for argv in (["ppl", "--corpus", str(d / "oov.txt")],
                 ["rescore", "--model", str(d / "lstm.rlm"), "--interp-weight", "0.3",
                  "--nbest", str(d / "oov_nbest.txt"),
                  "--output", str(d / "rescored_nounk.tsv")]):
        assert run(argv + ["--ngram", str(d / "nounk.arpa")]) == 1
        assert "error: word '<unk>' missing from the n-gram model's unigram table" \
            in capsys.readouterr().err


def test_sweep_command(workdir, capsys):
    d = workdir
    bundle = d / "bundle"
    assert run(["sweep", "threshold", "--values", "0,10",
                "--model", str(d / "lstm.rlm"),
                "--scope", str(bundle / "streets.txt"),
                "--nbest", str(bundle / "nbest.txt"),
                "--refs", str(bundle / "refs.txt"), "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "threshold" in out and "wer" in out


def tsv_value(out, key):
    """The value of the last `key<TAB>value` line of a command's stdout."""
    return [line.split("\t")[1] for line in out.splitlines()
            if line.startswith(key + "\t")][-1]


def test_sweep_and_enrich_share_one_path(workdir, capsys):
    d = workdir
    bundle = d / "bundle"
    common = ["--model", str(d / "lstm.rlm"), "--scope", str(bundle / "streets.txt"),
              "--k", "3", "--seed", "2"]
    sweep = ["sweep", "threshold", "--nbest", str(bundle / "nbest.txt"),
             "--refs", str(bundle / "refs.txt")] + common
    assert run(["enrich", "--threshold", "10", "--output", str(d / "shared.rlm")]
               + common) == 0
    assert run(["rescore", "--model", str(d / "shared.rlm"),
                "--nbest", str(bundle / "nbest.txt"),
                "--output", str(d / "shared.tsv"),
                "--onebest", str(d / "shared_1best.tsv")]) == 0
    capsys.readouterr()
    assert run(["wer", "--refs", str(bundle / "refs.txt"),
                "--hyps", str(d / "shared_1best.tsv")]) == 0
    want = tsv_value(capsys.readouterr().out, "wer")
    assert run(sweep + ["--values", "10"]) == 0
    assert tsv_value(capsys.readouterr().out, "10") == want == "0.017094"
    # no rare word and no candidate both score the input model
    assert run(sweep + ["--values", "0,1000000"]) == 0
    out = capsys.readouterr().out
    assert tsv_value(out, "0") == tsv_value(out, "1000000")
    assert run(["enrich", "--threshold", "1000000",
                "--output", str(d / "none.rlm")] + common) == 1
    assert "error: no candidates available" in capsys.readouterr().err


def enrich_with_counts(d, text):
    path = d / "bad_counts.txt"
    path.write_text(text)
    return path, ["enrich", "--model", str(d / "lstm.rlm"),
                  "--scope", str(d / "bundle" / "streets.txt"),
                  "--counts", str(path), "--output", str(d / "bad.rlm")]


def ngram_with_vocab(d, text):
    path = d / "bad_vocab.txt"
    path.write_text(text)
    return path, ["train-ngram", "--corpus", str(d / "bundle" / "train.txt"),
                  "--vocab", str(path), "--output", str(d / "bad.arpa")]


def synthetic_with_confusions(d, text):
    path = d / "bad_confusions.tsv"
    path.write_text(text)
    return path, ["gen-synthetic", "--outdir", str(d / "bad_bundle"),
                  "--confusions", str(path)]


@pytest.mark.parametrize("make,text,line", [
    (enrich_with_counts, "a\t3\nb 4\n", 2),
    (enrich_with_counts, "a\t3\n\nb\tx\n", 3),
    (ngram_with_vocab, "<s>\t0\n</s>\t5\n<unk>\tmany\n", 3),
    (synthetic_with_confusions, "ang_mo\tbully plays\nbukit_batok\n", 2),
], ids=["counts-no-tab", "counts-not-int", "vocab-not-int", "confusions-no-tab"])
def test_malformed_input_names_file_and_line(workdir, capsys, make, text, line):
    path, argv = make(workdir, text)
    assert run(argv) == 1
    assert "error: %s:%d: " % (path, line) in capsys.readouterr().err


@pytest.mark.parametrize("flag,field", [("--epochs", "epochs"),
                                        ("--batch-size", "batch_size")])
def test_train_lstm_rejects_zero(workdir, capsys, flag, field):
    d = workdir
    assert run(["train-lstm", "--corpus", str(d / "bundle" / "train.txt"),
                "--vocab", str(d / "vocab.txt"), "--output", str(d / "zero.rlm"),
                flag, "0"]) == 1
    assert "error: %s must be >= 1" % field in capsys.readouterr().err
    assert not (d / "zero.rlm").exists()


def test_usage_error_exit_code_2():
    assert run(["rescore", "--definitely-not-a-flag"]) == 2
    assert run(["no-such-command"]) == 2


def test_domain_error_exit_code_1(tmp_path):
    missing = tmp_path / "nope.txt"
    assert run(["build-vocab", "--corpus", str(missing),
                "--output", str(tmp_path / "v.txt")]) == 1


def write_wer_inputs(tmp_path, hyps):
    (tmp_path / "refs.txt").write_text("u1\ta b c\nu2\td e\nu3\tf\n")
    (tmp_path / "hyps.txt").write_text(hyps)
    (tmp_path / "tracked.txt").write_text("b\nf\n")
    return ["wer", "--refs", str(tmp_path / "refs.txt"),
            "--hyps", str(tmp_path / "hyps.txt"),
            "--tracked", str(tmp_path / "tracked.txt")]


def test_wer_aligns_each_utterance_once(tmp_path, monkeypatch, capsys):
    calls = []
    align = metrics.align
    monkeypatch.setattr(metrics, "align", lambda r, h: calls.append((r, h)) or align(r, h))
    argv = write_wer_inputs(tmp_path, "u1\ta x c\nu2\td e\nu3\tf\n")
    assert run(argv) == 0
    assert sorted(calls) == [(["a", "b", "c"], ["a", "x", "c"]),
                             (["d", "e"], ["d", "e"]), (["f"], ["f"])]
    out = capsys.readouterr().out
    assert "substitutions\t1\n" in out
    assert "tracked_occurrences\t2\ntracked_correct\t1\n" in out


def test_wer_hypothesis_without_reference(tmp_path, capsys):
    assert run(write_wer_inputs(tmp_path, "u1\ta b c\nuttX\tf\n")) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error: no reference for utterance uttX"


def test_wer_reference_without_hypothesis_counts_deletions(tmp_path, capsys):
    assert run(write_wer_inputs(tmp_path, "u1\ta b c\n")) == 0
    out = capsys.readouterr().out
    assert "ref_words\t6\n" in out and "deletions\t3\n" in out
    assert "wer\t0.500000\n" in out
    assert "tracked_occurrences\t2\ntracked_correct\t1\n" in out


def test_reproducibility_stamp(workdir, capsys):
    d = workdir
    run(["enrich", "--model", str(d / "lstm.rlm"),
         "--scope", str(d / "bundle" / "streets.txt"),
         "--output", str(d / "stamp.rlm"), "--seed", "9"])
    out = capsys.readouterr().out
    assert out.startswith("# rarelm ")
    assert "seed=9" in out and "config=" in out
    run(["ppl", "--corpus", str(d / "bundle" / "train.txt"),
         "--model", str(d / "lstm.rlm")])
    assert capsys.readouterr().out.startswith("# rarelm %s seed=- config=" % __version__)


def test_command_artifacts_byte_identical_on_rerun(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["gen-synthetic", "--outdir", str(out), "--streets", "8",
                    "--train-sentences", "60", "--eval-sentences", "6",
                    "--nbest-size", "3", "--seed", "4"]) == 0
        assert run(["build-vocab", "--corpus", str(out / "train.txt"),
                    "--output", str(out / "vocab.txt")]) == 0
        assert run(["train-lstm", "--corpus", str(out / "train.txt"),
                    "--vocab", str(out / "vocab.txt"),
                    "--output", str(out / "m.rlm"), "--embed-dim", "4",
                    "--hidden-dim", "6", "--epochs", "1", "--batch-size", "2",
                    "--seed", "3"]) == 0
    for name in ("train.txt", "nbest.txt", "vocab.txt", "m.rlm"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name
