"""Checks over the package source itself."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import rarelm
from rarelm import cli, enrich, neural, rescore, textcorpus

ROOT = Path(__file__).parent.parent
SRC = sorted((ROOT / "src" / "rarelm").glob("*.py"))
BENCH_USERS = [ROOT / "bench" / "workloads.py", ROOT / "bench" / "run.py"]


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_assert_statements(path):
    # python -O strips asserts, so invariant checks must raise explicitly
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, "%s: assert at line(s) %s" % (path.name, lines)


def reader_source(fn):
    """The source of fn and of every cli function it passes `args` to."""
    source = inspect.getsource(fn)
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in vars(cli)
                and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
            source += reader_source(getattr(cli, node.func.id))
    return source


def test_every_option_is_read():
    # an option that its command never reads only changes the stamp's digest
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    unread = []
    for name, parser in sub.choices.items():
        source = reader_source(parser.get_default("func"))
        unread += ["%s %s" % (name, a.option_strings[0] if a.option_strings else a.dest)
                   for a in parser._actions
                   if a.dest != "help" and "args.%s" % a.dest not in source]
    assert not unread, "options no command reads: %s" % unread


def is_frozen_dataclass(decorator):
    return (isinstance(decorator, ast.Call)
            and getattr(decorator.func, "id", None) == "dataclass"
            and any(k.arg == "frozen" and getattr(k.value, "value", None) is True
                    for k in decorator.keywords))


def test_every_config_is_frozen():
    # a config is checked once, when it is built, so it must not change after
    thawed = ["%s.%s" % (path.name, node.name)
              for path in SRC
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.ClassDef) and node.name.endswith("Config")
              and not any(map(is_frozen_dataclass, node.decorator_list))]
    assert not thawed, "config classes that are not frozen dataclasses: %s" % thawed


def imported_from_rarelm(tree):
    """name -> object for every name a file binds by importing from rarelm."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "rarelm":
                    module = importlib.import_module(a.name)
                    bound[a.asname or "rarelm"] = module if a.asname else rarelm
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rarelm":
            owner = importlib.import_module(node.module)
            for a in node.names:
                try:
                    bound[a.asname or a.name] = getattr(owner, a.name)
                except AttributeError:
                    bound[a.asname or a.name] = importlib.import_module(
                        "%s.%s" % (node.module, a.name))
    return bound


def dotted(node):
    """['a', 'b', 'c'] for the expression a.b.c, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("path", BENCH_USERS, ids=[p.name for p in BENCH_USERS])
def test_bench_uses_only_what_the_package_has(path):
    # the benchmark calls into the package by name (nbest_properties calls
    # textcorpus.encode); a refactor that drops such a name must fail here,
    # not in a benchmark run
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = imported_from_rarelm(tree)
    assert bound, "%s imports nothing from rarelm" % path.name
    missing = set()
    for node in ast.walk(tree):
        parts = dotted(node) if isinstance(node, ast.Attribute) else None
        if parts and parts[0] in bound:
            obj = bound[parts[0]]
            for k, attr in enumerate(parts[1:], 2):
                if not hasattr(obj, attr):
                    missing.add("%s (line %d)" % (".".join(parts[:k]), node.lineno))
                    break
                obj = getattr(obj, attr)
    assert not missing, "%s uses names rarelm lacks: %s" % (path.name, sorted(missing))


def bench_module(name, monkeypatch):
    """The module bench/<name>.py, imported without writing under bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_reads_what_read_nbest_returns(tmp_path, monkeypatch):
    # the benchmark iterates read_nbest's result as lists of hypotheses with
    # words; a change to what the reader returns must fail here, not in a
    # benchmark run
    workloads = bench_module("workloads", monkeypatch)
    tracing = bench_module("tracing", monkeypatch)
    path = tmp_path / "n.tsv"
    path.write_text("u1\t1\t-1\ta b\nu1\t2\t-2\ta c oov\nu2\t1\t-1\tb\n")
    nbest = rescore.read_nbest(path)
    assert tracing._nbest_lines((path,), nbest) == 3
    m = neural.init_model(textcorpus.Vocabulary(["a", "b", "c"]), 2, 3)
    props = workloads.nbest_properties(m, nbest)
    assert props["input.hypotheses"] == 3
    assert props["input.scored_positions"] == 9
    # u1's second hypothesis shares the prefixes <s> and <s> a with its first
    assert props["rescore.shared_prefix_ratio"] == 2 / 9
    assert props["input.nbest_oov_rate"] == 1 / 6
    assert props["input.mean_hyp_words"] == 2.0


def matmuls(fn):
    """The lines of fn's source that multiply matrices other than through
    neural._matmul_rows: an @ or @=, or a call of a matmul or dot."""
    tree = ast.parse(inspect.getsource(fn))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("matmul", "dot")]


@pytest.mark.parametrize("fn", [neural.gate_step, neural.target_logprobs],
                         ids=lambda fn: fn.__name__)
def test_scoring_matmuls_take_the_row_helper(fn):
    # the STEP_ROWS_MAX cap and the 8-row padding that keep a score's bits
    # whatever it is scored beside live in _matmul_rows alone; a matmul
    # written out in a scoring step would bypass them
    lines = matmuls(fn)
    assert not lines, "%s multiplies outside _matmul_rows at line(s) %s" % (
        fn.__name__, lines)
    assert "_matmul_rows(" in inspect.getsource(fn)


def test_prefix_walk_sorts_nothing_and_steps_the_row_helper_width():
    # prefix_slices is the one orderer: position_logprobs takes each prefix
    # as a run of adjacent rows of its ordered input, and steps and projects
    # at most the STEP_ROWS_MAX rows _matmul_rows takes; BATCH_ROWS sizes
    # checkpoint blocks and comparisons only
    tree = ast.parse(inspect.getsource(neural.position_logprobs))
    sorts = sorted({getattr(node.func, "attr", getattr(node.func, "id", None))
                    for node in ast.walk(tree) if isinstance(node, ast.Call)}
                   & {"unique", "argsort", "sort", "lexsort", "searchsorted"})
    assert not sorts, "position_logprobs calls %s" % sorts
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "BATCH_ROWS" not in names


def corpus_encoders(tree):
    """The lines of tree that import textcorpus.encode or pack, or call
    either by name or as an attribute of the module, under any alias."""
    names = {"encode", "pack"}
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules = {a.asname or a.name for node in imports for a in node.names
               if a.name == "textcorpus"}
    return sorted(
        [node.lineno for node in imports if (node.module or "").endswith("textcorpus")
         and names & {a.name for a in node.names}]
        + [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id in names
            or (dotted(node.func) or [])[:1] in [[m] for m in modules]
            and node.func.attr in names)])


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_corpora_take_one_text_path(path):
    # a corpus is read once into flat words and lens and encoded by
    # encode_many; encode and pack stay as the tests' per-sentence
    # references, and a caller of either is a second path
    lines = corpus_encoders(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, "%s calls textcorpus.encode or pack at line(s) %s" % (path.name, lines)


def is_eq4_divide(node):
    """Whether node divides by a sum with the constant 1, as Eq. 4 divides
    by |C_r| + 1."""
    op = node.op if isinstance(node, (ast.BinOp, ast.AugAssign)) else None
    divisor = node.right if isinstance(node, ast.BinOp) else getattr(node, "value", None)
    return (isinstance(op, ast.Div) and isinstance(divisor, ast.BinOp)
            and isinstance(divisor.op, ast.Add)
            and any(isinstance(v, ast.Constant) and v.value == 1
                    for v in (divisor.left, divisor.right)))


def test_eq4_has_one_core():
    # the in-place enrichment sweep scores and the streamed one enrich
    # writes both take Eq. 4 from _eq4_rows, which tests/test_enrich.py
    # holds to the per-word oracle; no other function holds the divide
    for fn in (enrich.enriched_in_place, enrich.enrich_checkpoint):
        called = {node.func.id for node in ast.walk(ast.parse(inspect.getsource(fn)))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert "_eq4_rows" in called, "%s does not call _eq4_rows" % fn.__name__
    tree = ast.parse(inspect.getsource(enrich))
    dividers = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                and any(map(is_eq4_divide, ast.walk(node)))}
    assert dividers == {"_eq4_rows"}


def test_scoring_has_one_core():
    # rescoring, both perplexities and training validation score through
    # neural.lm_scores: no other function asks a model for every position.
    # The scalar NGramModel.prob, which train_kn uses, is not such a call
    users = set()
    for path in SRC:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {getattr(node, "id", getattr(node, "attr", None))
                         for node in ast.walk(fn)
                         if isinstance(node, (ast.Name, ast.Attribute))}
                if names & {"position_logprobs", "prob_many"}:
                    users.add("%s.%s" % (path.stem, fn.name))
    assert users == {"neural.lm_scores"}


def uses(tree):
    """Every name tree uses: names, attributes and the names of from-imports."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for a in node.names})


def test_every_definition_is_named():
    # src/rarelm keeps only what a command or the benchmark calls: each
    # top-level function and class is named in src/rarelm or bench/ outside
    # its own definition; a string or docstring does not count. The match
    # is by name alone, so struct.pack in neural names textcorpus.pack,
    # which the tests keep as encode_many's per-sentence reference
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in SRC + sorted((ROOT / "bench").glob("*.py"))}
    statements = [(node, uses(node)) for tree in trees.values() for node in tree.body]
    unnamed = ["%s.%s" % (path.stem, node.name) for path in SRC for node in trees[path].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not any(node.name in names for other, names in statements
                           if other is not node)]
    assert not unnamed, "definitions nothing names: %s" % unnamed


def names_in(tree):
    """Every name tree defines, uses or imports: what uses gives, and the
    names of functions and classes."""
    return uses(tree) | {node.name for node in ast.walk(tree)
                         if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_block_size_has_one_owner(path):
    # textcorpus.read_blocks alone cuts a reader's input into blocks and
    # re-reads a failed one a line at a time; a reader that named the block
    # size would cut its own blocks, outside that rule
    names = names_in(ast.parse(path.read_text(encoding="utf-8")))
    banned = {"block_fail"} | ({"BLOCK_LINES"} if path.stem != "textcorpus" else set())
    assert not names & banned, "%s names %s" % (path.name, sorted(names & banned))


def opens_to_write(tree):
    """The lines of tree that call open (by name or as an attribute, as
    io.open and os.open are) with a mode that writes: w, a, x or +, or a
    mode that is not a string constant."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None),
                                                     getattr(node.func, "attr", None)):
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg in ("mode", "flags")), None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and isinstance(mode.value, str)
                                         and not set(mode.value) & set("wax+")):
                lines.append(node.lineno)
    return lines



def test_outputs_have_one_writer():
    # textcorpus.write_file alone opens a file to write: every output, text
    # or checkpoint, is written beside its real path and put in place whole;
    # a writer that opened its own file would truncate its output first
    opens = {"%s.py:%d" % (path.stem, line) for path in SRC
             for line in opens_to_write(ast.parse(path.read_text(encoding="utf-8")))}
    tree = ast.parse((ROOT / "src" / "rarelm" / "textcorpus.py").read_text(encoding="utf-8"))
    write_file = next((node for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef) and node.name == "write_file"), None)
    inside = {"textcorpus.py:%d" % line for line in opens_to_write(write_file or tree)}
    assert write_file and inside, "textcorpus.write_file opens no file to write"
    assert opens == inside, "opened to write outside textcorpus.write_file: %s" % sorted(
        opens - inside)
