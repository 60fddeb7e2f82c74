"""Run a function of a test module under one and under two BLAS threads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import rarelm


def one_and_two(fn):
    """The JSON results of fn(), a function of a test module, each from a
    fresh process: the first with OPENBLAS_NUM_THREADS=1, the second with
    =2, each set before numpy loads. Raises AssertionError if either
    process fails."""
    paths = [str(Path(__file__).parent), str(Path(rarelm.__file__).parents[1])]
    script = ("import importlib, json, sys; sys.path[:0] = sys.argv[3:]; "
              "fn = getattr(importlib.import_module(sys.argv[1]), sys.argv[2]); "
              "print(json.dumps(fn()))")
    procs = [subprocess.Popen([sys.executable, "-c", script, fn.__module__, fn.__name__,
                               *paths],
                              stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=n))
             for n in ("1", "2")]
    outs = [p.communicate()[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    return [json.loads(out) for out in outs]
