import errno
import filecmp
import io
import os
import shutil
import stat

import numpy as np
import pytest

import enrich_reference
from rarelm import __version__, cli, experiment, metrics, neural, rescore, textcorpus


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


def enrich_argv(d, model, output):
    return ["enrich", "--model", str(model), "--scope", str(d / "bundle" / "streets.txt"),
            "--k", "3", "--output", str(output), "--seed", "2"]


def test_enrich_in_place_builds_no_model(workdir, tmp_path, monkeypatch):
    # enrich streams the checkpoint; writing over its own source gives the
    # bytes it writes elsewhere
    def no_model(*args):
        raise AssertionError("enrich built a model")

    monkeypatch.setattr(neural, "load_model", no_model)
    monkeypatch.setattr(neural.NeuralLM, "copy", no_model)
    m = tmp_path / "m.rlm"
    shutil.copyfile(workdir / "lstm.rlm", m)
    assert run(enrich_argv(workdir, m, tmp_path / "elsewhere.rlm")) == 0
    assert run(enrich_argv(workdir, m, m)) == 0
    assert m.read_bytes() == (tmp_path / "elsewhere.rlm").read_bytes()
    assert m.read_bytes() != (workdir / "lstm.rlm").read_bytes()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["elsewhere.rlm", "m.rlm"]


def assert_failure_keeps_output(d, argv, output, capsys, message):
    """argv fails with message, leaving output's bytes and no other file."""
    before = {f.name: f.read_bytes() for f in d.iterdir()}
    assert output.name in before
    assert run(argv) == 1
    assert "error: %s" % message in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in d.iterdir()} == before


class DiskFull(io.BufferedWriter):
    """A file that takes ROOM bytes, then fails as a full disk does."""
    ROOM = 16

    def write(self, b):
        b = memoryview(b).cast("B")
        if self.tell() + len(b) > self.ROOM:
            super().write(b[:self.ROOM - self.tell()])
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(b)


def fill_disk(monkeypatch, output):
    """Make the new file textcorpus.write_file opens beside output a DiskFull."""
    beside = os.path.realpath(output) + "."

    def open_(file, mode="r", *args, **kwargs):
        if str(file).startswith(beside):
            return DiskFull(io.FileIO(file, mode))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(textcorpus, "open", open_, raising=False)


@pytest.mark.parametrize("argv", [
    ["rescore", "--model", "{d}/lstm.rlm", "--nbest", "{d}/bundle/nbest.txt",
     "--output", "{out}", "--onebest", "{other}"],
    ["rescore", "--model", "{d}/lstm.rlm", "--nbest", "{d}/bundle/nbest.txt",
     "--output", "{other}", "--onebest", "{out}"],
    ["build-vocab", "--corpus", "{d}/bundle/train.txt", "--output", "{out}"],
    ["train-ngram", "--corpus", "{d}/bundle/train.txt", "--vocab", "{d}/vocab.txt",
     "--order", "3", "--output", "{out}"],
    ["enrich", "--model", "{d}/lstm.rlm", "--scope", "{d}/bundle/streets.txt",
     "--k", "3", "--output", "{other}", "--plan-out", "{out}"],
    ["sweep", "threshold", "--values", "10", "--model", "{d}/lstm.rlm",
     "--scope", "{d}/bundle/streets.txt", "--nbest", "{d}/bundle/nbest.txt",
     "--refs", "{d}/bundle/refs.txt", "--output", "{out}"],
], ids=["rescore", "rescore-onebest", "build-vocab", "train-ngram", "enrich-plan-out",
        "sweep"])
def test_a_write_failing_partway_keeps_output(workdir, tmp_path, capsys, monkeypatch, argv):
    # the disk fills after the output's first 16 bytes: the new file is
    # removed and the earlier output keeps its bytes; a writer that
    # truncated the output first would leave it holding those 16 bytes
    out = tmp_path / "out" / "x"
    out.parent.mkdir()
    out.write_bytes(b"an earlier output")
    fill_disk(monkeypatch, out)
    argv = [a.format(d=workdir, out=out, other=tmp_path / "other") for a in argv]
    assert_failure_keeps_output(out.parent, argv, out, capsys,
                                "[Errno 28] No space left on device: '%s'" % out)


@pytest.mark.parametrize("argv", [
    lambda d, out: enrich_argv(d, d / "lstm.rlm", out),
    lambda d, out: ["build-vocab", "--corpus", str(d / "bundle" / "train.txt"),
                    "--output", str(out)],
], ids=["checkpoint", "text"])
def test_an_output_that_is_a_symlink_is_written_at_its_target(workdir, tmp_path, argv):
    # the link survives: write_file replaces the file it points at
    target = tmp_path / "target"
    target.write_bytes(b"an earlier output")
    link = tmp_path / "link"
    link.symlink_to(target)
    assert run(argv(workdir, link)) == 0
    assert run(argv(workdir, tmp_path / "plain")) == 0
    assert os.readlink(link) == str(target)
    assert target.read_bytes() == (tmp_path / "plain").read_bytes()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["link", "plain", "target"]


def test_an_output_that_is_a_fifo_is_written_in_place(workdir, tmp_path):
    # as /dev/null is: a FIFO or device cannot be replaced, so rescore
    # --output /dev/null keeps only the 1-best. The reader is opened first,
    # so the write does not wait for it
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        for out, best in [(fifo, "best_fifo"), (tmp_path / "plain", "best_plain")]:
            assert run(["rescore", "--model", str(workdir / "lstm.rlm"),
                        "--nbest", str(workdir / "bundle" / "nbest.txt"),
                        "--output", str(out), "--onebest", str(tmp_path / best)]) == 0
        with os.fdopen(reader, "rb") as f:
            reader = None
            assert f.read() == (tmp_path / "plain").read_bytes()
    finally:
        if reader is not None:
            os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert (tmp_path / "best_fifo").read_bytes() == (tmp_path / "best_plain").read_bytes()
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "best_fifo", "best_plain", "fifo", "plain"]


@pytest.mark.parametrize("same_path", [False, True], ids=["other-path", "same-path"])
def test_failed_enrich_keeps_output(workdir, tmp_path, capsys, same_path):
    m = neural.load_model(workdir / "lstm.rlm")
    m.U[-1, -1] = np.nan
    src = tmp_path / "nan.rlm"
    neural.save_model(m, src)
    out = src if same_path else tmp_path / "out.rlm"
    out.write_bytes(src.read_bytes() if same_path else b"an earlier output")
    assert_failure_keeps_output(tmp_path, enrich_argv(workdir, src, out), out, capsys,
                                "%s: checkpoint holds non-finite weights in U" % src)


class FullDisk(np.ndarray):
    """An array whose checkpoint blocks fail to write."""
    def astype(self, *args, **kwargs):
        raise OSError("no space left on device")


def test_failed_train_lstm_keeps_output(workdir, tmp_path, capsys, monkeypatch):
    # save_model fails after writing the header, S, W and b
    train = neural.train

    def train_then_fail_at_u(*args, **kwargs):
        m, history = train(*args, **kwargs)
        m.U = m.U.view(FullDisk)
        return m, history

    monkeypatch.setattr(neural, "train", train_then_fail_at_u)
    out = tmp_path / "lstm.rlm"
    out.write_bytes(b"an earlier output")
    assert_failure_keeps_output(tmp_path, train_lstm_argv(workdir, out), out, capsys,
                                "no space left on device")


def train_lstm_argv(d, output):
    return ["train-lstm", "--corpus", str(d / "bundle" / "train.txt"),
            "--vocab", str(d / "vocab.txt"), "--output", str(output),
            "--embed-dim", "2", "--hidden-dim", "2", "--epochs", "1", "--batch-size", "8"]


@pytest.mark.parametrize("argv", [train_lstm_argv, lambda d, out: enrich_argv(
    d, d / "lstm.rlm", out)], ids=["train-lstm", "enrich"])
def test_unwritable_output_is_named(workdir, tmp_path, capsys, monkeypatch, argv):
    # the error names the output the user gave, not the file written first
    monkeypatch.chdir(tmp_path)
    assert run(argv(workdir, "nodir/x.rlm")) == 1
    err = capsys.readouterr().err
    assert "error: [Errno 2] No such file or directory: 'nodir/x.rlm'" in err
    assert ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


def test_train_lstm_checks_output_before_training(tmp_path, capsys, monkeypatch):
    # and before reading: neither the vocabulary nor the corpus exists
    monkeypatch.chdir(tmp_path)
    assert run(["train-lstm", "--corpus", "missing.txt", "--vocab", "missing.txt",
                "--output", "nodir/x.rlm"]) == 1
    out, err = capsys.readouterr()
    assert "error: [Errno 2] No such file or directory: 'nodir/x.rlm'" in err
    assert "epoch" not in out
    assert list(tmp_path.iterdir()) == []


OUTPUT_CHECKS = {
    "build-vocab": ["build-vocab", "--corpus", "missing.txt", "--output", "{out}"],
    "train-ngram": ["train-ngram", "--corpus", "missing.txt", "--vocab", "missing.txt",
                    "--output", "{out}"],
    "enrich-plan-out": ["enrich", "--model", "missing.rlm", "--scope", "missing.txt",
                        "--output", "enriched.rlm", "--plan-out", "{out}"],
    "enrich-plan-out-read": ["enrich", "--model", "{d}/lstm.rlm",
                             "--scope", "{d}/bundle/streets.txt",
                             "--output", "enriched.rlm", "--plan-out", "{out}"],
    "rescore": ["rescore", "--model", "missing.rlm", "--nbest", "missing.txt",
                "--output", "{out}"],
    "rescore-onebest": ["rescore", "--model", "missing.rlm", "--nbest", "missing.txt",
                        "--output", "rescored.tsv", "--onebest", "{out}"],
    "sweep": ["sweep", "threshold", "--values", "10", "--model", "missing.rlm",
              "--scope", "missing.txt", "--nbest", "missing.txt", "--refs", "missing.txt",
              "--output", "{out}"],
}
# the tests above check train-lstm and enrich --output in a missing directory
SYMLINK_CHECKS = dict(OUTPUT_CHECKS, **{
    "train-lstm": ["train-lstm", "--corpus", "missing.txt", "--vocab", "missing.txt",
                   "--output", "{out}"],
    "enrich": ["enrich", "--model", "missing.rlm", "--scope", "missing.txt",
               "--output", "{out}"],
})


@pytest.mark.parametrize("argv,given", [
    (argv, "nodir/out") for argv in OUTPUT_CHECKS.values()] + [
    (argv, "link") for argv in SYMLINK_CHECKS.values()],
    ids=list(OUTPUT_CHECKS) + ["%s-symlink" % k for k in SYMLINK_CHECKS])
def test_outputs_are_checked_before_any_input_is_read(workdir, tmp_path, capsys,
                                                      monkeypatch, argv, given):
    # a missing input would fail first if it were read first; with every
    # input there, enrich would write its checkpoint before the plan failed.
    # A symlink is checked at its target, where the output is written; a
    # check beside the link would pass, and the write fail after every read
    monkeypatch.chdir(tmp_path)
    if given == "link":
        os.symlink("nodir/out", "link")
    assert run([a.format(d=workdir, out=given) for a in argv]) == 1
    assert "error: [Errno 2] No such file or directory: '%s'" % given in \
        capsys.readouterr().err
    assert os.listdir() == ([given] if given == "link" else [])


def listing(d):
    """Every path under d, relative to d."""
    return sorted(str(p.relative_to(d)) for p in d.rglob("*"))


@pytest.mark.parametrize("outdir,message", [
    ("afile", "[Errno 17] File exists: 'afile'"),
    ("afile/sub", "[Errno 20] Not a directory: 'afile/sub'"),
    ("b", "[Errno 21] Is a directory: 'b/train.txt'"),
    ("new/deep", "[Errno 2] No such file or directory: 'missing.tsv'"),
    ("new/" + "x" * 300, "[Errno 36] File name too long: 'new/%s'" % ("x" * 300)),
], ids=["outdir-a-file", "outdir-under-a-file", "bundle-file-a-directory", "new-outdir",
        "new-outdir-name-too-long"])
def test_gen_synthetic_checks_its_outputs_first(tmp_path, capsys, monkeypatch, outdir,
                                                message):
    # before --confusions is read and anything generated; the check makes a
    # missing outdir and removes it, so a failed command leaves no new file
    def no_generation(cfg):
        raise AssertionError("generated before the outputs were checked")

    monkeypatch.setattr(experiment, "gen_synthetic", no_generation)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_bytes(b"")
    (tmp_path / "b" / "train.txt").mkdir(parents=True)
    before = listing(tmp_path)
    assert run(["gen-synthetic", "--outdir", outdir, "--confusions", "missing.tsv"]) == 1
    assert "error: %s" % message in capsys.readouterr().err
    assert listing(tmp_path) == before


@pytest.mark.parametrize("argv", [
    ["build-vocab", "--corpus", "missing.txt", "--output", "out"],
    ["train-lstm", "--corpus", "missing.txt", "--vocab", "missing.txt", "--output", "out"],
    ["train-ngram", "--corpus", "missing.txt", "--vocab", "missing.txt", "--output", "out"],
    ["enrich", "--model", "missing.rlm", "--scope", "missing.txt", "--output", "out"],
    ["enrich", "--model", "missing.rlm", "--scope", "missing.txt",
     "--output", "enriched.rlm", "--plan-out", "out"],
    ["rescore", "--model", "missing.rlm", "--nbest", "missing.txt", "--output", "out"],
    ["rescore", "--model", "missing.rlm", "--nbest", "missing.txt",
     "--output", "rescored.tsv", "--onebest", "out"],
    ["sweep", "threshold", "--values", "10", "--model", "missing.rlm",
     "--scope", "missing.txt", "--nbest", "missing.txt", "--refs", "missing.txt",
     "--output", "out"],
], ids=["build-vocab", "train-lstm", "train-ngram", "enrich", "enrich-plan-out",
        "rescore", "rescore-onebest", "sweep"])
def test_an_output_that_is_a_directory_is_rejected_first(tmp_path, capsys, monkeypatch,
                                                        argv):
    # a file beside a directory can be opened, so without its own check
    # train-lstm trained, and rescore scored, before the output failed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    assert run(argv) == 1
    assert "error: [Errno 21] Is a directory: 'out'" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["out"]
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["enrich", "--model", "{d}/lstm.rlm", "--scope", "{d}/bundle/streets.txt",
      "--output", "e.rlm", "--plan-out", "e.rlm"], "outputs e.rlm and e.rlm"),
    (["rescore", "--model", "{d}/lstm.rlm", "--nbest", "{d}/bundle/nbest.txt",
      "--output", "x", "--onebest", "x"], "outputs x and x"),
    (["rescore", "--model", "{d}/lstm.rlm", "--nbest", "{d}/bundle/nbest.txt",
      "--output", "x", "--onebest", "./x"], "outputs x and ./x"),
], ids=["enrich", "rescore", "rescore-other-spelling"])
def test_two_outputs_that_name_one_file_are_rejected_first(workdir, tmp_path, capsys,
                                                          monkeypatch, argv, message):
    # every input is there: without the check, the second output written
    # replaced the first, and the command exited 0
    monkeypatch.chdir(tmp_path)
    assert run([a.format(d=workdir) for a in argv]) == 1
    assert "error: %s name one file" % message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("same_path", [False, True], ids=["other-path", "same-path"])
def test_enrich_reads_the_header_once(workdir, tmp_path, monkeypatch, same_path):
    # and the payload once: Eq. 4 takes each block of S or U as it is copied
    calls, passes = [], []
    read, blocks = neural._read_header, neural._payload_blocks

    def spy(f):
        calls.append(f.name)
        return read(f)

    def spy_blocks(f, *dims):
        passes.append(f.name)
        return blocks(f, *dims)

    monkeypatch.setattr(neural, "_read_header", spy)
    monkeypatch.setattr(neural, "_payload_blocks", spy_blocks)
    m = tmp_path / "m.rlm"
    shutil.copyfile(workdir / "lstm.rlm", m)
    assert run(enrich_argv(workdir, m, m if same_path else tmp_path / "out.rlm")) == 0
    assert calls == [str(m)]
    assert passes == [str(m)]


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


def test_ppl_overflow_is_an_error(tmp_path, capsys):
    # the weights are finite in float32, but the mean log10 probability per
    # position is far below -308, so 10 ** -mean overflows a float
    m = neural.init_model(textcorpus.Vocabulary(["a", "b", "c"]), 4, 4, seed=0)
    m.U *= 1e37
    neural.save_model(m, tmp_path / "huge.rlm")
    (tmp_path / "two.txt").write_text("a b c\nc b a\n")
    assert run(["ppl", "--corpus", str(tmp_path / "two.txt"),
                "--model", str(tmp_path / "huge.rlm")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: perplexity overflows: mean log10 probability per "
                          "position is -") and "Traceback" not in err


@pytest.mark.parametrize("fraction", ["inf", "nan"])
def test_gen_synthetic_non_finite_rare_fraction_is_an_error(tmp_path, capsys, fraction):
    # n_rare rounds rare_fraction to an int, which a non-finite value
    # cannot be, so the config must reject it first
    assert run(["gen-synthetic", "--outdir", str(tmp_path / "b"),
                "--rare-fraction", fraction]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rare_fraction must be in (0, 1)") and "Traceback" not in err
    assert not (tmp_path / "b").exists()


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
        assert "error: %s: line %d: bad log probability '400'" % (d / "bad400.arpa", idx + 1) \
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
    common = ["--model", str(d / "lstm.rlm"), "--scope", str(bundle / "streets.txt"),
              "--k", "3", "--seed", "2"]
    assert run(["sweep", "threshold", "--values", "0,1000000",
                "--nbest", str(bundle / "nbest.txt"),
                "--refs", str(bundle / "refs.txt")] + common) == 0
    out = capsys.readouterr().out
    assert "threshold" in out and "wer" in out
    # no rare word and no candidate both score the input model
    assert tsv_value(out, "0") == tsv_value(out, "1000000")
    assert run(["enrich", "--threshold", "1000000",
                "--output", str(d / "none.rlm")] + common) == 0
    assert "enriched 0 words" in capsys.readouterr().out
    assert filecmp.cmp(d / "lstm.rlm", d / "none.rlm", shallow=False)


def test_sweep_scores_the_model_enrich_writes(workdir, monkeypatch):
    """A sweep row scores, bit for bit, the checkpoint `rarelm enrich`
    writes with the same options: float32 planned columns included."""
    d = workdir
    bundle = d / "bundle"
    common = ["--model", str(d / "lstm.rlm"), "--scope", str(bundle / "streets.txt"),
              "--k", "3", "--seed", "2"]
    assert run(["enrich", "--threshold", "10", "--output", str(d / "written.rlm")]
               + common) == 0
    scored = []
    rescore_lists = rescore.rescore_lists
    monkeypatch.setattr(rescore, "rescore_lists", lambda lists, m, kn, cfg:
                        scored.append(m.copy()) or rescore_lists(lists, m, kn, cfg))
    assert run(["sweep", "threshold", "--values", "10", "--nbest", str(bundle / "nbest.txt"),
                "--refs", str(bundle / "refs.txt")] + common) == 0
    written = neural.load_model(d / "written.rlm")
    assert not enrich_reference.same_except_columns(
        written, neural.load_model(d / "lstm.rlm"), ())
    [model] = scored
    assert model.vocab.id_to_word == written.vocab.id_to_word
    assert enrich_reference.same_except_columns(model, written, ())


def in_dir(d, argv):
    """argv with each file name made a path under d."""
    return [str(d / a) if a.endswith((".txt", ".rlm", ".arpa")) else a for a in argv]


def tsv_value(out, key):
    """The value of the last `key<TAB>value` line of a command's stdout."""
    return [line.split("\t")[1] for line in out.splitlines()
            if line.startswith(key + "\t")][-1]


# At an LM weight of 30 the enrichment flags move the WER of this small
# bundle. The lists of the first 8 utterances (few.txt) name 3 of the 6
# rare streets, so fromNbest draws per-word samples for 3 words where
# allStreets draws them for 6: the fromNbest row differs from its twin
# without --mode, which shows that sweep reads --mode.
@pytest.mark.parametrize("enrich_flags,rescore_flags,wer", [
    ([], [], "0.017094"),
    ([], ["--ngram", "kn.arpa", "--interp-weight", "0.3"], "0.051282"),
    ([], ["--lm-weight", "30"], "0.059829"),
    (["--weighting", "frequency", "--per-word-sampling"], ["--lm-weight", "30"],
     "0.051282"),
    (["--per-word-sampling", "--nbest", "few.txt"],
     ["--lm-weight", "30", "--nbest", "few.txt"], "0.470085"),
    (["--mode", "fromNbest", "--per-word-sampling", "--nbest", "few.txt"],
     ["--lm-weight", "30", "--nbest", "few.txt"], "0.478632"),
    (["--counts", "counts.txt"], ["--lm-weight", "30"], "0.051282"),
], ids=["defaults", "ngram", "lm-weight", "frequency-per-word", "few-lists", "fromNbest",
        "counts"])
def test_sweep_and_enrich_share_one_path(workdir, capsys, enrich_flags, rescore_flags,
                                         wer):
    d = workdir
    bundle = d / "bundle"
    # half of every vocabulary count moves the threshold split
    (d / "counts.txt").write_text("".join(
        "%s\t%d\n" % (w, int(c) // 2) for w, c in
        (line.split("\t") for line in (d / "vocab.txt").read_text().splitlines())))
    lines = (bundle / "nbest.txt").read_text().splitlines(keepends=True)
    first = list(dict.fromkeys(line.split("\t")[0] for line in lines))[:8]
    (d / "few.txt").write_text("".join(l for l in lines if l.split("\t")[0] in first))
    enrich_flags, rescore_flags = in_dir(d, enrich_flags), in_dir(d, rescore_flags)
    common = ["--model", str(d / "lstm.rlm"), "--scope", str(bundle / "streets.txt"),
              "--nbest", str(bundle / "nbest.txt"), "--k", "3", "--seed", "2"]
    assert run(["enrich", "--threshold", "10", "--output", str(d / "shared.rlm")]
               + common + enrich_flags) == 0
    assert run(["rescore", "--model", str(d / "shared.rlm"),
                "--nbest", str(bundle / "nbest.txt"),
                "--output", str(d / "shared.tsv"),
                "--onebest", str(d / "shared_1best.tsv")] + rescore_flags) == 0
    capsys.readouterr()
    assert run(["wer", "--refs", str(bundle / "refs.txt"),
                "--hyps", str(d / "shared_1best.tsv")]) == 0
    want = tsv_value(capsys.readouterr().out, "wer")
    assert run(["sweep", "threshold", "--values", "10", "--refs", str(bundle / "refs.txt")]
               + common + enrich_flags + rescore_flags) == 0
    assert tsv_value(capsys.readouterr().out, "10") == want == wer


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
    (enrich_with_counts, "a\t3\nb\t4\na\t9\n", 3),
    (ngram_with_vocab, "<s>\t0\n</s>\t5\n<unk>\tmany\n", 3),
    (ngram_with_vocab, "<s>\t0\n</s>\t5\n<unk>\t0\na\t3\nb\t4\na\t9\n", 6),
    (synthetic_with_confusions, "ang_mo\tbully plays\nbukit_batok\n", 2),
], ids=["counts-no-tab", "counts-not-int", "counts-repeated", "vocab-not-int",
        "vocab-repeated", "confusions-no-tab"])
def test_malformed_input_names_file_and_line(workdir, capsys, make, text, line):
    path, argv = make(workdir, text)
    assert run(argv) == 1
    assert "error: %s:%d: " % (path, line) in capsys.readouterr().err


def lstm_with_vocab(d, text):
    path = d / "bad_vocab.txt"
    path.write_text(text)
    return path, ["train-lstm", "--corpus", str(d / "bundle" / "train.txt"),
                  "--vocab", str(path), "--output", str(d / "bad.rlm"),
                  "--embed-dim", "2", "--hidden-dim", "2", "--epochs", "1"]


@pytest.mark.parametrize("make,text", [
    (lstm_with_vocab, "<s>\t0\n</s>\t5\n<unk>\t0\nat\t-4\n"),
    (enrich_with_counts, "a\t3\nat\t-4\n"),
], ids=["train-lstm-vocab", "enrich-counts"])
def test_negative_count_writes_no_checkpoint(workdir, capsys, make, text):
    # a checkpoint with a negative count is one load_model rejects
    path, argv = make(workdir, text)
    assert run(argv) == 1
    assert "error: %s:%d: count -4 is negative" % (path, text.count("\n")) in \
        capsys.readouterr().err
    assert not (workdir / "bad.rlm").exists()


WER_LINES = "u1\ta b c\nu2\td e\n"


def wer_with_refs(d, text):
    (d / "hyps.txt").write_text(WER_LINES)
    (d / "refs.txt").write_text(text)
    return d / "refs.txt", ["wer", "--refs", str(d / "refs.txt"),
                            "--hyps", str(d / "hyps.txt")]


def wer_with_hyps(d, text):
    (d / "refs.txt").write_text(WER_LINES)
    (d / "hyps.txt").write_text(text)
    return d / "hyps.txt", ["wer", "--refs", str(d / "refs.txt"),
                            "--hyps", str(d / "hyps.txt")]


@pytest.mark.parametrize("make,text,line,key", [
    (wer_with_refs, WER_LINES + "u1\tx\n", 3, "utterance 'u1'"),
    (wer_with_hyps, "u2\td e\n\nu2\td\nu1\ta b c\n", 3, "utterance 'u2'"),
    (synthetic_with_confusions, "ang_mo\tbully plays\nang_mo\tang more\n", 2,
     "street 'ang_mo'"),
], ids=["refs", "hyps", "confusions"])
def test_repeated_key_names_file_and_line(tmp_path, capsys, make, text, line, key):
    """A repeated key fails rather than letting its last line win."""
    path, argv = make(tmp_path, text)
    assert run(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        "error: %s:%d: repeated %s" % (path, line, key)


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff: invalid start byte"
NOT_RLM1 = "bad magic: not an RLM1 checkpoint"


@pytest.mark.parametrize("argv,message", [
    (["rescore", "--model", "{d}/lstm.rlm", "--nbest", "{bad}", "--output", "o.tsv"],
     ":1: " + NOT_UTF8),
    (["rescore", "--model", "{d}/lstm.rlm", "--nbest", "{d}/bundle/nbest.txt",
      "--ngram", "{bad}", "--interp-weight", "0.3", "--output", "o.tsv"], ":1: " + NOT_UTF8),
    (["rescore", "--model", "{bad}", "--nbest", "{d}/bundle/nbest.txt", "--output", "o.tsv"],
     ": " + NOT_RLM1),
    (["wer", "--refs", "{bad}", "--hyps", "{d}/bundle/refs.txt"], ":1: " + NOT_UTF8),
    (["enrich", "--model", "{d}/lstm.rlm", "--scope", "{bad}", "--output", "e.rlm"],
     ":1: " + NOT_UTF8),
    (["enrich", "--model", "{bad}", "--scope", "{d}/bundle/streets.txt", "--output", "e.rlm"],
     ": " + NOT_RLM1),
    (["ppl", "--corpus", "{bad}", "--model", "{d}/lstm.rlm"], ":1: " + NOT_UTF8),
    (["train-lstm", "--corpus", "{d}/bundle/train.txt", "--vocab", "{bad}",
      "--output", "x.rlm"], ":1: " + NOT_UTF8),
    (["sweep", "threshold", "--values", "10", "--model", "{d}/lstm.rlm",
      "--scope", "{d}/bundle/streets.txt", "--nbest", "{d}/bundle/nbest.txt",
      "--refs", "{bad}"], ":1: " + NOT_UTF8),
], ids=["rescore-nbest", "rescore-ngram", "rescore-model", "wer-refs", "enrich-scope",
        "enrich-model", "ppl-corpus", "train-lstm-vocab", "sweep-refs"])
def test_an_unreadable_input_is_named(workdir, tmp_path, capsys, monkeypatch, argv, message):
    # with several inputs, only the path tells the user which one is bad
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfe bad\n")
    assert run([a.format(d=workdir, bad="bad.txt") for a in argv]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: bad.txt" + message
    assert os.listdir() == ["bad.txt"]


@pytest.mark.parametrize("flag,field", [("--epochs", "epochs"),
                                        ("--batch-size", "batch_size")])
def test_train_lstm_rejects_zero(workdir, capsys, flag, field):
    d = workdir
    assert run(["train-lstm", "--corpus", str(d / "bundle" / "train.txt"),
                "--vocab", str(d / "vocab.txt"), "--output", str(d / "zero.rlm"),
                flag, "0"]) == 1
    assert "error: %s must be >= 1" % field in capsys.readouterr().err
    assert not (d / "zero.rlm").exists()


@pytest.mark.parametrize("argv,message", [
    (["train-lstm", "--corpus", "bundle/train.txt", "--vocab", "vocab.txt",
      "--clip-norm", "nan"], "clip_norm must be finite and > 0"),
    (["rescore", "--model", "lstm.rlm", "--nbest", "bundle/nbest.txt",
      "--lm-weight", "nan"], "lm_weight must be finite and >= 0"),
    # no file is read, so a missing checkpoint does not hide the setting
    (["rescore", "--model", "missing.rlm", "--nbest", "bundle/nbest.txt",
      "--interp-weight", "0.3"], "--interp-weight > 0 requires --ngram"),
    (["sweep", "threshold", "--values", "10", "--model", "missing.rlm",
      "--scope", "bundle/streets.txt", "--nbest", "bundle/nbest.txt",
      "--refs", "bundle/refs.txt", "--interp-weight", "0.3"],
     "--interp-weight > 0 requires --ngram"),
    (["enrich", "--model", "missing.rlm", "--scope", "bundle/streets.txt", "--k", "0"],
     "k must be >= 1"),
    (["sweep", "threshold", "--values", "10", "--model", "missing.rlm",
      "--scope", "bundle/streets.txt", "--nbest", "bundle/nbest.txt",
      "--refs", "bundle/refs.txt", "--k", "0"], "k must be >= 1"),
    (["enrich", "--model", "missing.rlm", "--scope", "bundle/streets.txt",
      "--mode", "fromNbest"], "--mode fromNbest requires --nbest"),
    (["sweep", "threshold", "--values", "10,,20", "--model", "missing.rlm",
      "--scope", "bundle/streets.txt", "--nbest", "bundle/nbest.txt",
      "--refs", "bundle/refs.txt"], "--values: '' is not an integer"),
    (["sweep", "candidates", "--values", "0", "--model", "missing.rlm",
      "--scope", "bundle/streets.txt", "--nbest", "bundle/nbest.txt",
      "--refs", "bundle/refs.txt"], "k must be >= 1"),
    (["sweep", "threshold", "--values", "-1", "--model", "missing.rlm",
      "--scope", "bundle/streets.txt", "--nbest", "bundle/nbest.txt",
      "--refs", "bundle/refs.txt"], "threshold must be >= 0"),
    (["train-lstm", "--corpus", "bundle/train.txt", "--vocab", "missing.txt",
      "--epochs", "0"], "epochs must be >= 1"),
    (["train-lstm", "--corpus", "bundle/train.txt", "--vocab", "missing.txt",
      "--embed-dim", "0"], "embedding and hidden sizes must be >= 1"),
    (["train-ngram", "--corpus", "bundle/train.txt", "--vocab", "missing.txt",
      "--order", "0"], "order must be >= 1"),
    (["train-ngram", "--corpus", "bundle/train.txt", "--vocab", "vocab.txt",
      "--prune-min-count", "-3"], "prune_min_count must be >= 0"),
    (["build-vocab", "--corpus", "missing.txt", "--min-count", "0"],
     "min_count must be >= 1"),
    # the corpus exists: no vocabulary of the specials alone may be written
    (["build-vocab", "--corpus", "bundle/train.txt", "--max-size", "-5"],
     "max_size must be > 3"),
], ids=["clip-norm", "lm-weight", "rescore-mu-without-ngram", "sweep-mu-without-ngram",
        "enrich-k-missing-model", "sweep-k-missing-model",
        "enrich-fromNbest-missing-model", "sweep-values-missing-model",
        "sweep-candidates-missing-model", "sweep-threshold-missing-model",
        "train-lstm-epochs-missing-vocab", "train-lstm-embed-dim-missing-vocab",
        "train-ngram-order-missing-vocab", "train-ngram-negative-prune",
        "build-vocab-min-count-missing-corpus", "build-vocab-max-size"])
def test_non_finite_setting_fails_before_any_work(workdir, capsys, argv, message):
    d = workdir
    assert run(in_dir(d, argv) + ["--output", str(d / "nan.out")]) == 1
    assert "error: %s" % message in capsys.readouterr().err
    assert not (d / "nan.out").exists()


def test_load_corpus_reads_columns(tmp_path):
    # one str per distinct word, as read_nbest shares them; a blank line is
    # a sentence of no words; phrases join within a line only
    (tmp_path / "c.txt").write_text("Boon Lay x\n\nboon\nlay boon lay\n")
    (tmp_path / "p.txt").write_text("boon lay\n")
    words, lens = cli._load_corpus(tmp_path / "c.txt", tmp_path / "p.txt")
    assert words == ["boon_lay", "x", "boon", "lay", "boon_lay"]
    assert lens.dtype == np.int64 and lens.tolist() == [2, 0, 1, 2]
    assert words[0] is words[4]
    words, lens = cli._load_corpus(tmp_path / "c.txt")
    assert words == ["boon", "lay", "x", "boon", "lay", "boon", "lay"]
    assert lens.tolist() == [3, 0, 1, 3]
    assert words[0] is words[3] is words[5] and words[1] is words[4] is words[6]


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
