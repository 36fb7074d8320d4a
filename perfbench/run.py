"""Benchmark for motivic-cc: timed CLI workloads, a traced per-layer run, and a comparison.

Run from the repository root; only the standard library is needed::

    python3 perfbench/run.py --workload classes --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl

Every case is a fresh ``python -m motivic_cc.cli`` process with
``MOTIVIC_CC_MAX_ORDER=40``, run one at a time: one interpreter per query is
what a CLI user pays.  A pass runs each case of the workload once; passes
repeat until ``--seconds`` have elapsed (at least three).  Every report is
checked: exit code 0, no traceback, no check with status ``fail``, the stdout
digest equal to the committed one for fixed cases (``digests.json``) and the
same in every pass for all cases.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs each case untraced and then under ``tracer.py``, and prints the
per-layer metrics.  Each run appends one JSON record (metrics, digests, load
average, interpreter) to ``perfbench/out/results.jsonl`` or to ``--out``;
``--compare`` reads two such files.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from cases import WORKLOADS, workload_cases

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
DIGESTS_PATH = BENCH_DIR / "digests.json"

MAX_ORDER = "40"
SETUP_PER_PASS = 5  # import timings taken before each pass, so they span the run
MIN_PASSES = 3
RUN_DEADLINE_S = 170.0  # a run must end within 180 s, even if the program hangs

# layers that must record calls on a workload, and layers that must not
ACTIVE_LAYERS = {"classes": ("pontrjagin",), "motivic": ("series", "lambda_power"),
                 "verify": ("checks",)}
SILENT_LAYERS = {"motivic": ("pontrjagin",)}

RENDER_FUNCTIONS = ("cli.pont_coefficients", "cli.series_coefficients", "cli.report",
                    "cli.print_report")


class SetupError(RuntimeError):
    """The program cannot be imported, so nothing can be measured."""


# -- processes -------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["MOTIVIC_CC_MAX_ORDER"] = MAX_ORDER
    return env


def run_process(argv, env, stdout_path: Path, stderr_path: Path, timeout: float) -> dict:
    """Run one process to completion; wall time, rusage and exit code."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 0.1), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kib": usage.ru_maxrss, "code": proc.returncode}


def measure_setup(env, work: Path, deadline: float, samples: int) -> list[float]:
    """Wall times of fresh interpreters running ``import motivic_cc.cli``."""
    if not (ROOT / "src" / "motivic_cc" / "cli.py").is_file():
        raise SetupError(f"no program to measure: {ROOT / 'src' / 'motivic_cc'} is missing")
    argv = [sys.executable, "-c", "import motivic_cc.cli"]
    out, err = work / "setup.stdout", work / "setup.stderr"
    times = []
    for _ in range(samples):
        res = run_process(argv, env, out, err, deadline - time.perf_counter())
        if res["code"] != 0:
            raise SetupError("cannot import motivic_cc.cli: "
                             + err.read_text(errors="replace").strip()[-500:])
        times.append(res["wall"])
    return times


def run_case(case, env, work: Path, deadline: float, gate: dict, traced: bool) -> dict:
    stdout_path = work / f"{case.id}{'.traced' if traced else ''}.stdout"
    stderr_path = stdout_path.with_suffix(".stderr")
    summary_path = work / f"{case.id}.summary.json"
    if traced:
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(summary_path),
                str(work / f"{case.id}.spans.jsonl"), case.id, "--", *case.args]
    else:
        argv = [sys.executable, "-m", "motivic_cc.cli", *case.args]
    res = run_process(argv, env, stdout_path, stderr_path, deadline - time.perf_counter())
    out = stdout_path.read_bytes()
    res["digest"] = hashlib.sha256(out).hexdigest()
    res["bytes"] = len(out)
    res["problems"] = check_report(case, res, out, stderr_path.read_bytes(), gate)
    if traced and not res["problems"]:
        res["summary"] = json.loads(summary_path.read_text())
    return res


def check_report(case, res: dict, out: bytes, err: bytes, gate: dict) -> list[str]:
    problems = []
    if res["code"] != 0:
        problems.append(f"exit code {res['code']}")
    if b"Traceback" in err:
        problems.append("traceback on stderr")
    try:
        failing = [c["name"] for c in json.loads(out)["checks"] if c["status"] == "fail"]
    except (ValueError, KeyError, TypeError):
        problems.append("stdout is not a JSON report")
    else:
        if failing:
            problems.append(f"failed checks: {', '.join(failing)}")
    if case.fixed and res["digest"] != gate.get(case.id):
        problems.append("stdout digest differs from digests.json")
    return problems


# -- one workload ------------------------------------------------------------------

def run_passes(cases, env, work, deadline, gate, seconds, traced: bool,
               setup_times: list) -> list[dict]:
    """Passes over the cases until ``seconds`` elapse; in a traced run each
    case runs untraced and then traced, so both see the same machine state.
    An untraced run times SETUP_PER_PASS imports before each pass."""
    passes = []
    min_passes = 1 if traced else MIN_PASSES
    start = time.perf_counter()
    last_pass_s = 0.0
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        if passes and time.perf_counter() + last_pass_s > deadline:
            break
        t0 = time.perf_counter()
        if not traced:
            setup_times += measure_setup(env, work, deadline, SETUP_PER_PASS)
        runs = {}
        for case in cases:
            runs[case.id] = run_case(case, env, work, deadline, gate, False)
            if traced:
                runs[case.id, "traced"] = run_case(case, env, work, deadline, gate, True)
        passes.append(runs)
        last_pass_s = time.perf_counter() - t0
    return passes


def digest_problems(passes: list[dict]) -> list[str]:
    """Every run of a case, traced or not, must print the same bytes."""
    first = {}
    problems = []
    for runs in passes:
        for key, res in runs.items():
            case_id = key[0] if isinstance(key, tuple) else key
            if first.setdefault(case_id, res["digest"]) != res["digest"]:
                label = "traced" if isinstance(key, tuple) else "untraced"
                problems.append(f"{case_id}: {label} stdout digest differs from the first run")
    return problems


def median_sum(passes: list[dict], case_keys, field: str) -> float:
    return sum(statistics.median(runs[k][field] for runs in passes) for k in case_keys)


def end_to_end_metrics(passes, cases, setup_times) -> dict:
    ids = [c.id for c in cases]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": median_sum(passes, ids, "wall"),
        "cpu_s": median_sum(passes, ids, "cpu"),
        "peak_rss_mb": statistics.median(
            max(runs[k]["rss_kib"] for k in ids) for runs in passes) / 1024,
    }


def layer_metrics(runs: dict, case_ids) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, summed over its cases."""
    calls = defaultdict(int)
    layer_calls = defaultdict(int)
    self_s = defaultdict(float)
    incl = defaultdict(float)
    extra = defaultdict(int)
    bits = 0
    report_bytes = 0
    for case_id in case_ids:
        res = runs[case_id, "traced"]
        summary = res["summary"]
        for d, src in ((calls, "calls"), (layer_calls, "layer_calls"), (self_s, "self_s"),
                       (incl, "incl_s"), (extra, "extra")):
            for key, val in summary[src].items():
                d[key] += val
        bits = max(bits, summary["coeff_bits_max"])
        report_bytes += res["bytes"]

    def n(*names):
        return sum(calls[name] for name in names)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{layer}.self_s": self_s[layer] for layer in
         ("lpoly", "series", "lambda_power", "motives", "hirzebruch", "pontrjagin", "checks", "cli")}
    m.update({f"{layer}.calls": layer_calls[layer] for layer in
              ("lpoly", "series", "lambda_power", "motives", "hirzebruch", "pontrjagin")})
    m.update({
        "lpoly.mul.calls": n("lpoly.LPoly.__mul__", "lpoly.LPoly.__rmul__"),
        "lpoly.mul.term_pairs": extra["lpoly.mul.term_pairs"],
        "lpoly.mul.terms_out": extra["lpoly.mul.terms_out"],
        "lpoly.mul.yield": ratio(extra["lpoly.mul.terms_out"], extra["lpoly.mul.term_pairs"]),
        "lpoly.add.calls": n("lpoly.LPoly.__add__", "lpoly.LPoly.__radd__"),
        "lpoly.exact_div.calls": n("lpoly.LPoly.exact_div"),
        "lpoly.substitute.calls": n("lpoly.LPoly.substitute"),
        "lpoly.coeff_bits_max": bits,
        "series.mul.calls": n("series.TSeries.__mul__", "series.TSeries.__rmul__"),
        "series.exp.calls": n("series.TSeries.exp"),
        "series.log.calls": n("series.TSeries.log"),
        "series.invert.calls": n("series.TSeries.invert"),
        "lambda_power.euler_log.calls": n("lambda_power.euler_log"),
        "lambda_power.euler_exp.calls": n("lambda_power.euler_exp"),
        "lambda_power.power.calls": n("lambda_power.power"),
        "pontrjagin.mul.calls": n("pontrjagin.PontSeries.mul", "pontrjagin.PontSeries.__mul__"),
        "pontrjagin.mul.multiset_pairs": extra["pontrjagin.mul.multiset_pairs"],
        "pontrjagin.mul.terms_out": extra["pontrjagin.mul.terms_out"],
        "pontrjagin.mul.yield": ratio(extra["pontrjagin.mul.terms_out"],
                                      extra["pontrjagin.mul.multiset_pairs"]),
        "pontrjagin.hom_exp_inv.calls": n("pontrjagin.hom_exp_inv"),
        "pontrjagin.pont_exp.calls": n("pontrjagin.pont_exp"),
        "checks.lambda_s": incl["checks.suite_lambda"],
        "checks.motives_s": incl["checks.suite_motives"],
        "checks.hirzebruch_s": incl["checks.suite_hirzebruch"],
        "checks.pontrjagin_s": incl["checks.suite_pontrjagin"],
        "checks.failed": extra["checks.failed"],
        "cli.render_s": sum(incl[name] for name in RENDER_FUNCTIONS),
        "cli.load_model_s": incl["cli.load_model"],
        "cli.report_bytes": report_bytes,
    })
    return m, layer_calls


def trace_problems(workload: str, layer_calls: dict) -> list[str]:
    problems = [f"layer {layer} recorded no calls on {workload}"
                for layer in ACTIVE_LAYERS.get(workload, ()) if not layer_calls[layer]]
    problems += [f"layer {layer} recorded {layer_calls[layer]} calls on {workload}; expected 0"
                 for layer in SILENT_LAYERS.get(workload, ()) if layer_calls[layer]]
    return problems


def per_layer_metrics(workload, passes, cases) -> tuple[dict, list[str]]:
    ids = [c.id for c in cases]
    samples = defaultdict(list)
    problems = []
    for runs in passes:
        m, layer_calls = layer_metrics(runs, ids)
        problems += trace_problems(workload, layer_calls)
        for key, val in m.items():
            samples[key].append(val)
    metrics = {key: statistics.median(vals) for key, vals in samples.items()}
    untraced = median_sum(passes, ids, "wall")
    traced = median_sum(passes, [(k, "traced") for k in ids], "wall")
    metrics["trace.overhead_frac"] = traced / untraced - 1
    return metrics, sorted(set(problems))


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 env: dict, gate: dict) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    work = OUT_DIR / workload
    work.mkdir(parents=True, exist_ok=True)
    cases = workload_cases(workload, seed, work)
    load_before = os.getloadavg()
    measure_setup(env, work, deadline, 1)  # fails early without a program; fills the bytecode cache
    setup_times = []
    passes = run_passes(cases, env, work, deadline, gate, seconds, traced, setup_times)
    load_after = os.getloadavg()

    runs = [(key, res) for p in passes for key, res in p.items()]
    problems = [f"{key if isinstance(key, str) else key[0] + ' (traced)'}: {msg}"
                for key, res in runs for msg in res["problems"]]
    problems += digest_problems(passes)
    failed = sum(1 for _, res in runs if res["problems"])
    if traced:
        metrics, gate_problems = ({}, []) if failed else per_layer_metrics(workload, passes, cases)
        problems += gate_problems
        failed += len(gate_problems)
    else:
        metrics = end_to_end_metrics(passes, cases, setup_times)
    return {
        "workload": workload, "seed": seed, "trace": int(traced), "seconds": seconds,
        "passes": len(passes), "setup_samples": len(setup_times), "cases": [c.id for c in cases],
        "attempted": len(runs), "failed": failed, "problems": problems,
        "metrics": metrics,
        "case_wall_s": {c.id: [runs[c.id]["wall"] for runs in passes] for c in cases},
        "digests": {c.id: passes[0][c.id]["digest"] for c in cases},
        "meta": {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
                 "loadavg_before": list(load_before), "loadavg_after": list(load_after),
                 "seed": seed, "MOTIVIC_CC_MAX_ORDER": MAX_ORDER},
    }


# -- output ------------------------------------------------------------------------

def load_spec() -> tuple[dict, int]:
    """Metric declarations by name, and the run length, from BENCHMARK.json."""
    spec = json.loads(SPEC_PATH.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}, spec["run_seconds"]


def print_record(rec: dict, spec: dict) -> None:
    meta = rec["meta"]
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"{rec['passes']} passes over {len(rec['cases'])} cases  "
          f"(python {meta['python']}, nproc {meta['nproc']}, "
          f"load {meta['loadavg_before'][0]:.2f} -> {meta['loadavg_after'][0]:.2f}, "
          f"MOTIVIC_CC_MAX_ORDER={meta['MOTIVIC_CC_MAX_ORDER']})")
    for name, value in rec["metrics"].items():
        print(f"  {name:32} {value:>16.6g} {spec[name]['unit']}")
    frac = rec["failed"] / rec["attempted"]
    print(f"  {'failed_frac':32} {frac:>16.6g} ratio  ({rec['failed']} of {rec['attempted']} "
          f"case runs)")
    if rec["trace"]:
        print(f"  times and counts are medians over {rec['passes']} traced passes")
    else:
        print(f"  setup_s is the median of {rec['setup_samples']} imports; wall_s and cpu_s sum "
              f"each case's median over {rec['passes']} passes; peak_rss_mb is the median "
              f"of the per-pass maxima")
    for msg in rec["problems"]:
        print(f"  FAILED {msg}")


def result_line(records: list[dict], spec: dict) -> dict:
    prefix = len(records) > 1
    metrics = {}
    for rec in records:
        for name, value in rec["metrics"].items():
            key = f"{rec['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": spec[name]["unit"]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- comparison ----------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def digest_changes(ra: list[dict], rb: list[dict], fixed: set) -> list[str]:
    """Cases whose stdout differs between the sides: fixed cases across all
    runs, seeded cases between runs made at the same seed."""
    def table(recs):
        out = defaultdict(set)
        for rec in recs:
            for case_id, digest in rec["digests"].items():
                out[case_id, None if case_id in fixed else rec["seed"]].add(digest)
        return out

    da, db = table(ra), table(rb)
    return [f"{case_id}" + ("" if seed is None else f" at seed {seed}")
            for case_id, seed in sorted(set(da) & set(db), key=str) if da[case_id, seed] != db[case_id, seed]]


def compare(path_a: Path, path_b: Path, spec: dict, fixed: set) -> int:
    """Median and quartiles of each side, the pair win rate of B over A, digest
    changes, and regressions beyond the bounds in BENCHMARK.json."""
    def load(path):
        groups = defaultdict(list)
        for line in path.read_text().splitlines():
            if line.strip():
                rec = json.loads(line)
                groups[rec["workload"], rec["trace"]].append(rec)
        return groups

    a, b = load(path_a), load(path_b)
    bad = 0
    for key in sorted(set(a) & set(b)):
        ra, rb = a[key], b[key]
        by_seed = defaultdict(lambda: ([], []))
        for side, recs in ((0, ra), (1, rb)):
            for rec in recs:
                by_seed[rec["seed"]][side].append(rec)
        pairs = [(x, y) for sa, sb in by_seed.values() for x, y in zip(sa, sb)]
        print(f"== {key[0]} trace {key[1]}: {len(ra)} vs {len(rb)} runs, {len(pairs)} same-seed pairs")
        for change in digest_changes(ra, rb, fixed):
            print(f"  DIGEST CHANGED {change}")
            bad += 1
        names = [n for n in ra[0]["metrics"] if n in rb[0]["metrics"]]
        for name in names:
            lower = spec[name]["better"] == "lower"
            qa = quartiles([r["metrics"][name] for r in ra])
            qb = quartiles([r["metrics"][name] for r in rb])
            wins = sum(1 for x, y in pairs
                       if (y["metrics"][name] < x["metrics"][name]) == lower
                       and y["metrics"][name] != x["metrics"][name])
            rate = f"{wins}/{len(pairs)}" if pairs else "n/a"
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = change if lower else -change
            bound = spec[name].get("bound")
            verdict = ""
            if bound is not None and worse > bound:
                verdict = f"  REGRESSION beyond bound {bound}"
                bad += 1
            print(f"  {name:32} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  {change:+.1%}  "
                  f"B wins {rate}{verdict}")
    return 1 if bad else 0


# -- entry point ---------------------------------------------------------------------

def main(argv=None) -> int:
    spec, run_seconds = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT_DIR / "results.jsonl",
                        help="JSON-lines file the run records are appended to")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two result files and exit")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    gate = json.loads(DIGESTS_PATH.read_text())
    if args.compare:
        return compare(*args.compare, spec, set(gate))

    env = child_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace), env, gate)
                   for w in names]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    for rec in records:
        print_record(rec, spec)
    result = result_line(records, spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
