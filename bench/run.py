"""rarelm benchmark: one workload per run, end-to-end metrics untraced,
per-layer metrics from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory. NAME is one of desk_walkthrough, paper_enrich_rescore,
large_nbest_kn, or `all`, which runs each of them in its own process.

A run makes its inputs from the seed, then repeats the workload's
pipeline (a fixed sequence of `rarelm` CLI stages, run in-process) for
about S seconds and at least MIN_PASSES times; `pipeline_s` is the
median of the untraced passes' wall times. Every pass is checked:
against the recorded answers for seed 42, and for complete, finite
outputs on other seeds; every pass must repeat the first pass of its
run exactly. A mismatch counts as a failed operation.

After each stage of an untraced pass, once the files it reads exist,
the set-up the rescore stage does (load checkpoint, ARPA model and
n-best) is timed, repeatedly until SETUP_MIN_S have gone on it; that
time counts neither in the stage nor in the pass. After each untraced
pass the workload's rescore stages run `rescore_reps` more times, each
run checked against the pass.

The host these figures come from is shared, and its speed flips between
a fast and a slow state, sometimes within a second, with set-up and
rescoring up to 1.7 times slower in the slow one. A median of such
samples jumps from one state to the other as their mix nears half, so
`setup_s` is the mean of all set-up samples, spread across the run, and
`rescore_hyps_per_s` the hypotheses all untraced rescore runs scored
over the time they took together; both move in proportion to the mix.

With --trace 1 the passes alternate between untraced and traced ones;
traced passes wrap the package's public functions (see tracing.py) and
give the per-layer metrics. The last line of standard output is the
result as JSON; bench/out/ receives the full report and the spans.

Interpreter-bound timings on a shared host drift with the host's speed.
While a workload runs, its main thread rotates over the allowed CPUs
(rotate_cpus), so that a run does not hang on one CPU's slow stretch;
each pass is followed by a fixed reference loop whose time is reported
beside the metrics, never applied to them.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")

# BLAS threads are pinned to the CPUs this process may run on, before
# numpy loads its BLAS library.
CPUS = sorted(os.sched_getaffinity(0))
BLAS_THREADS = len(CPUS)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_MIN_S = 0.1
MIN_PASSES = 2
ROTATE_S = 0.5
WORKLOAD_NAMES = ("desk_walkthrough", "paper_enrich_rescore", "large_nbest_kn")


def load_program():
    """Import rarelm from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "rarelm", "__init__.py")):
        sys.exit("bench: no rarelm sources under %s; run from a source checkout" % SRC)
    sys.path.insert(0, SRC)
    import rarelm
    if os.path.dirname(os.path.abspath(rarelm.__file__)) != os.path.join(SRC, "rarelm"):
        sys.exit("bench: imported rarelm from %s, not from %s" % (rarelm.__file__, SRC))
    sys.path.insert(0, BENCH)


def reference_loop_ms():
    """Fastest of three runs of a fixed pure-Python loop, in ms.

    It tracks how fast the host runs interpreter-bound code right now, so
    a reader can tell host drift from a change in the program; it is
    recorded next to the metrics and never applied to them.
    """
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, time.perf_counter() - t)
    return 1e3 * best


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, why):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "why": why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(CPUS), "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "git_commit": git_commit(), "machine": platform.machine(),
    }


class Pass:
    """One pipeline pass: stage times, stdouts, failures, per-layer figures."""

    def __init__(self, traced):
        self.traced = traced
        self.wall = 0.0
        self.stage_s = {}
        self.outputs = {}
        self.problems = {}     # stage name -> list of problems
        self.answers = {}
        self.layers = None


def run_pass(wl, tracer, between=None):
    """Run the workload's stages once. `between`, if given, runs after
    each stage; its time counts neither in the stage nor in the pass."""
    from workloads import run_cli
    p = Pass(tracer is not None)
    stages = wl.stages()
    gc.collect()
    aside = 0.0
    t_start = time.perf_counter()
    for st in stages:
        t0 = time.perf_counter()
        if tracer is None:
            code, out, err = run_cli(st.command, st.argv)
        else:
            with tracer.span("cli.%s" % st.command):
                code, out, err = run_cli(st.command, st.argv)
        p.stage_s[st.name] = time.perf_counter() - t0
        p.outputs[st.name] = out
        p.problems[st.name] = []
        if code != 0:
            last = err.strip().splitlines()[-1:] or [""]
            p.problems[st.name].append("exit %s: %s" % (code, last[0]))
        if between is not None:
            t1 = time.perf_counter()
            between()
            aside += time.perf_counter() - t1
    p.wall = time.perf_counter() - t_start - aside
    return p


def check_pass(wl, p, expected, first):
    """Fill p.answers and p.problems from the pass's outputs."""
    from workloads import check_complete, compare
    try:
        known = wl.invariants()
    except OSError as e:
        known = {}
        p.problems[wl.stages()[0].name].append("inputs: %s" % e)
    if expected is not None:
        known.update(expected)
    for name, (stage, compute) in wl.answers(p.outputs).items():
        try:
            value = compute()
        except (OSError, ValueError, IndexError, KeyError) as e:
            p.problems[stage].append("%s: cannot read: %s" % (name, e))
            continue
        p.answers[name] = value
        if name in known:
            problem = compare(name, value, known[name])
        else:
            problem = check_complete(name, value)
        if problem is None and first is not None and value != first.answers.get(name):
            problem = "%s: differs from the first pass of this run" % name
        if problem is not None:
            p.problems[stage].append(problem)


def rerun_rescore(wl, p, rescore_s):
    """Run the rescore stages of pass `p` wl.rescore_reps more times,
    appending each run's time to rescore_s[stage]; returns the problems of
    the runs that failed or did not give the pass's answers."""
    from workloads import run_cli
    stages = {st.name: st for st in wl.stages()}
    problems = []
    for _ in range(wl.rescore_reps):
        for name in wl.rescore_stages:
            st = stages[name]
            gc.collect()
            t0 = time.perf_counter()
            code, out, err = run_cli(st.command, st.argv)
            rescore_s[name].append(time.perf_counter() - t0)
            if code != 0:
                last = err.strip().splitlines()[-1:] or [""]
                problems.append("%s again: exit %s: %s" % (name, code, last[0]))
                continue
            for answer, (stage, compute) in wl.answers(dict(p.outputs, **{name: out})).items():
                if stage != name:
                    continue
                try:
                    value = compute()
                except (OSError, ValueError, IndexError, KeyError) as e:
                    value = "cannot read: %s" % e
                if value != p.answers.get(answer):
                    problems.append("%s again: %s differs from its pass" % (name, answer))
                    break
    return problems


def layer_metrics(tr):
    """Per-layer figures of one traced pass, by metric name."""
    def s(n):
        return tr.busy.get(n, 0.0)

    def calls(n):
        return tr.calls.get(n, 0)

    def us_per_call(n):
        return 1e6 * s(n) / calls(n) if calls(n) else 0.0

    lists_ms = sorted(1e3 * d for d in tr.durations.get("rescore.rescore_nbest", []))

    def pct(q):
        if not lists_ms:
            return 0.0
        return lists_ms[min(len(lists_ms) - 1, int(q * len(lists_ms)))]

    out = {}
    for n in ("neural.loss_and_grads", "neural.forward_step", "enrich.enrich_embeddings",
              "ngram.prob", "rescore.rescore_nbest", "metrics.align",
              "experiment.run_configuration"):
        out[n + ".calls"] = calls(n)
        out[n + ".s"] = s(n)
    for n in ("neural.forward_step", "ngram.prob"):
        out[n + ".us_per_call"] = us_per_call(n)
    for n in ("neural.load_model", "neural.save_model", "enrich.select_candidates",
              "ngram.train_kn", "ngram.export_arpa", "ngram.import_arpa",
              "ngram.kn_perplexity", "rescore.read_nbest", "rescore.write_rescored",
              "textcorpus.read_corpus", "textcorpus.encode"):
        out[n + ".s"] = s(n)
    for n in ("gen-synthetic", "build-vocab", "train-lstm", "train-ngram", "enrich",
              "rescore", "ppl", "wer", "sweep"):
        out["cli.%s.s" % n] = s("cli." + n)
    for n in ("neural.loss_and_grads.tokens", "neural.checkpoint_bytes",
              "enrich.rows_modified", "ngram.arpa_bytes", "rescore.read_nbest.lines",
              "metrics.align.cells"):
        out[n] = tr.counters.get(n, 0)
    out["rescore.rescore_nbest.p50_ms"] = pct(0.50)
    out["rescore.rescore_nbest.p99_ms"] = pct(0.99)
    out["rescore.lm_score_hypothesis.self_s"] = tr.self_time.get(
        "rescore.lm_score_hypothesis", 0.0)
    return out


def median_of(passes, key):
    return statistics.median(key(p) for p in passes)


def rotate_cpus(stop):
    """Move the main thread to the next allowed CPU every ROTATE_S seconds
    until `stop` is set, then allow all of them again.

    On a shared host each CPU's speed drifts on its own, and a
    single-threaded pass stays on one CPU for seconds; rotating makes a
    run sample every CPU alike. It acts on this process only.
    """
    tid = threading.main_thread().native_id
    i = 0
    while not stop.wait(ROTATE_S):
        i = (i + 1) % len(CPUS)
        os.sched_setaffinity(tid, {CPUS[i]})
    os.sched_setaffinity(tid, CPUS)


def measure(args):
    stop = threading.Event()
    rotator = threading.Thread(target=rotate_cpus, args=(stop,), daemon=True)
    rotator.start()
    try:
        run_workload(args)
    finally:
        stop.set()
        rotator.join()


def run_workload(args):
    from tracing import Tracer
    from workloads import WORKLOADS, nbest_properties

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(BENCH, "expected_seed42.json")) as f:
        expected = json.load(f)[args.workload] if args.seed == 42 else None

    work_root = os.path.join(BENCH, "work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=work_root)
    try:
        wl = WORKLOADS[args.workload](work, args.seed)
        wl.prepare()

        passes = []
        tracers = []
        iterations = []
        setup_s = []
        setup_failures = []
        setup_attempts = 0
        rescore_s = {name: [] for name in wl.rescore_stages}
        rescore_runs = 0
        rescore_failures = []
        host_ref_ms = []
        props = {}

        def time_setup():
            nonlocal setup_attempts, props
            if not wl.setup_ready():
                return
            start = time.perf_counter()
            while True:
                setup_attempts += 1
                gc.collect()
                ts = time.perf_counter()
                try:
                    m, _, lists = wl.setup()
                except (OSError, ValueError, KeyError) as e:
                    setup_failures.append("setup: %s" % e)
                else:
                    setup_s.append(time.perf_counter() - ts)
                    if not props:
                        props = nbest_properties(m, lists)
                    del m, lists  # a paper-scale model must not outlive the set-up
                if time.perf_counter() - start >= SETUP_MIN_S:
                    break

        t0 = time.perf_counter()
        while True:
            t_iter = time.perf_counter()
            traced = bool(args.trace) and len(passes) % 2 == 1
            tracer = Tracer() if traced else None
            if tracer is None:
                p = run_pass(wl, None, time_setup)
            else:
                with tracer.install():
                    p = run_pass(wl, tracer)
                p.layers = layer_metrics(tracer)
                tracers.append(tracer)
            check_pass(wl, p, expected, passes[0] if passes else None)
            passes.append(p)
            if not p.traced:
                for name in wl.rescore_stages:
                    rescore_s[name].append(p.stage_s[name])
            if not args.trace:  # a traced run reports no end-to-end metric
                rescore_failures += rerun_rescore(wl, p, rescore_s)
                rescore_runs += wl.rescore_reps * len(wl.rescore_stages)
            host_ref_ms.append(reference_loop_ms())
            iterations.append(time.perf_counter() - t_iter)
            # start another iteration only if at least half of it fits
            elapsed = time.perf_counter() - t0
            if (elapsed + statistics.median(iterations) / 2 > args.seconds
                    and len(passes) >= MIN_PASSES):
                break

        untraced = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        stage_s = {name: median_of(untraced, lambda p: p.stage_s[name])
                   for name in untraced[0].stage_s}
        extras = {}
        if not any(any(p.problems.values()) for p in untraced):
            extras = wl.extra_metrics(stage_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = (sum(len(p.stage_s) for p in passes) + setup_attempts
                 + rescore_runs)
    failed = (sum(1 for p in passes for probs in p.problems.values() if probs)
              + len(setup_failures) + len(rescore_failures))

    hyps = props.get("input.hypotheses", 0)
    e2e = {
        "setup_s": statistics.mean(setup_s) if setup_s else None,
        "pipeline_s": median_of(untraced, lambda p: p.wall),
        "rescore_hyps_per_s": hyps * sum(len(t) for t in rescore_s.values())
        / sum(sum(t) for t in rescore_s.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_ratio": (attempted - failed) / attempted,
    }
    layers = dict(props)
    predictions = []
    if traced:
        for key in traced[0].layers:
            layers[key] = statistics.median(p.layers[key] for p in traced)
        traced_wall = statistics.median(p.wall for p in traced)
        layers["trace.overhead_ratio"] = traced_wall / e2e["pipeline_s"]
        predictions = wl.predictions(layers, traced_wall)

    section = "per_layer" if args.trace else "end_to_end"
    values = layers if args.trace else e2e
    metrics = {}
    for m in spec[section]:
        # a failed operation may leave a metric unmeasured; otherwise every
        # declared metric must be measured
        if m["name"] not in values and not failed:
            raise KeyError("metric %s is declared in BENCHMARK.json but not measured"
                           % m["name"])
        metrics[m["name"]] = {"value": values.get(m["name"]), "unit": m["unit"]}

    report = {
        "provenance": provenance(args, next(w["why"] for w in spec["workloads"]
                                            if w["name"] == args.workload)),
        "passes": [{"traced": p.traced, "wall_s": p.wall, "stage_s": p.stage_s,
                    "problems": {k: v for k, v in p.problems.items() if v}}
                   for p in passes],
        "setup_s": setup_s, "setup_failures": setup_failures,
        "rescore_s": rescore_s, "rescore_failures": rescore_failures,
        "host_ref_ms": host_ref_ms,
        "input": props, "end_to_end": e2e, "per_layer": layers,
        "stage_metrics": {k: v[0] for k, v in extras.items()},
        "quality": {k: passes[0].answers.get(k) for k in
                    ("wer_kn", "wer_nn", "tracked_acc_kn", "tracked_acc_nn",
                     "ppl_nn", "ppl_kn") if k in passes[0].answers},
        "predictions": [{"prediction": t, "held": h, "share": s}
                        for t, h, s in predictions],
        "failed_ops_ratio": failed / attempted,
        "answers": passes[0].answers,
        "trace_missing": tracers[0].missing if tracers else [],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(dict(report, result=result), f, indent=1, default=str)
    if tracers:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as f:
            for i, tr in enumerate(tracers):
                tr.write_spans(f, i)
    print_report(report, result, metrics, extras)
    print(json.dumps(result))


def print_report(report, result, metrics, extras):
    prov = report["provenance"]
    print("# workload %s seed %s: %s" % (prov["workload"], prov["seed"], prov["why"]))
    print("# provenance %s" % json.dumps(prov, sort_keys=True))
    print("# input %s" % json.dumps(report["input"], sort_keys=True))
    for p in report["passes"]:
        print("# pass traced=%d wall %.3f s %s" % (p["traced"], p["wall_s"],
                                                  " ".join("%s=%.3f" % kv for kv in
                                                           p["stage_s"].items())))
        for stage, problems in p["problems"].items():
            for problem in problems:
                print("# FAILED %s: %s" % (stage, problem))
    for problem in report["setup_failures"] + report["rescore_failures"]:
        print("# FAILED %s" % problem)
    for name, times in report["rescore_s"].items():
        print("# %s runs %s" % (name, " ".join("%.3f" % t for t in times)))
    ref = report["host_ref_ms"]
    print("# host reference loop %.2f ms (median of %d; %.2f-%.2f)" % (
        statistics.median(ref), len(ref), min(ref), max(ref)))
    for name, m in metrics.items():
        print("%-40s %14.6g %s" % (name, m["value"] if m["value"] is not None
                                   else float("nan"), m["unit"]))
    for name, (value, unit) in extras.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    for name, value in report["quality"].items():
        print("%-40s %14s 1" % (name, value))
    print("%-40s %14.6g ratio (%d of %d operations)" % (
        "failed_ops_ratio", report["failed_ops_ratio"], result["failed"],
        result["attempted"]))
    for target in report["trace_missing"]:
        print("# trace: %s not found in the program; its layer reports zero" % target)
    for pr in report["predictions"]:
        print("# prediction %s: %s (measured %s)" % (
            "held" if pr["held"] else "DID NOT HOLD", pr["prediction"], pr["share"]))


def run_all(args):
    """Run every workload, each in its own process, and sum up."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.exit("bench: workload %s exited with %d" % (name, proc.returncode))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"]["%s.%s" % (name, k)] = v
    print(json.dumps(total))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    load_program()
    if args.workload == "all":
        run_all(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
