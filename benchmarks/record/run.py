"""The benchmark of record: one command, six workloads.

    python benchmarks/record/run.py [--seed S] [--workload W] [--out DIR]

runs every workload (or one) twice in fresh single-threaded
subprocesses — untraced for the end-to-end metrics, traced for the
per-layer budget — checks the outputs, prints every metric by name with
its unit, writes ``result.json`` and the traced spans under
``.benchmarks/record/<run-id>/`` and appends one line to
``.benchmarks/record/history.jsonl``.

With ``--trace 0|1`` (the form BENCHMARK.json's ``command`` is driven
with) it runs one workload once and ends with a single JSON line:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics untraced, the per-layer metrics traced.

``--selftest`` runs everything at smoke size into a scratch directory
and asserts the harness's own invariants; ``--write-baseline`` rewrites
``BENCHMARK.json`` from the declarations in ``metrics.py`` and is the
only code path that touches a tracked file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RECORD_DIR = ROOT / ".benchmarks" / "record"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Seconds one run measures for; the driver passes it back as
#: ``--seconds``.
RUN_SECONDS = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")
#: The only inherited variables a child sees (none of them tunes
#: numerics); thread settings are set here, never inherited.
INHERITED = ("PATH", "HOME", "LANG", "LC_ALL", "LD_LIBRARY_PATH")
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_PATTERN = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark_document():
    """BENCHMARK.json, from the declarations."""
    return {
        "command": ["python3", "benchmarks/record/run.py"],
        "paths": ["benchmarks/record"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _read in PER_LAYER],
    }


def child_environment():
    """The child's whole environment, built rather than inherited."""
    env = {name: value for name, value in os.environ.items()
           if name in INHERITED}
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _git(*args):
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True,
                              timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, argv):
    status = _git("status", "--porcelain")
    return {"commit": _git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "argv": list(argv), "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds,
            "thread_env": {name: "1" for name in THREAD_VARS},
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


class ChildFailed(RuntimeError):
    pass


def run_child(workload, args, trace, spans=None):
    """One workload in a fresh interpreter; returns its document."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--scale", str(args.scale), "--trace", str(trace)]
    if spans is not None:
        command += ["--spans", str(spans)]
    done = subprocess.run(command, env=child_environment(),
                          cwd=str(ROOT), capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(
            f"{workload} (trace {trace}) exited {done.returncode}:\n"
            f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def contract_metrics(document):
    """The ``metrics`` object of the driver's result line."""
    if "end_to_end" in document:
        return {name: {"value": document["end_to_end"][name]["median"],
                       "unit": unit}
                for name, unit, _better, _bound in END_TO_END}
    return {name: {"value": document["per_layer"][name]["value"],
                   "unit": unit}
            for name, unit, _better, _read in PER_LAYER}


def print_metrics(workload, document):
    print(f"== {workload}  digest {document['digest'][:16]}  "
          f"attempted {document['attempted']}  "
          f"failed {document['failed']}  "
          f"repeats {document['repeats']}")
    if "end_to_end" in document:
        for name, unit, _better, _bound in END_TO_END:
            row = document["end_to_end"][name]
            print(f"  {name:<28} {row['median']:>14.6g} {unit:<6} "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  "
                  f"n {row['n']}")
    else:
        for name, unit, _better, _read in PER_LAYER:
            value = document["per_layer"][name]["value"]
            if value:
                print(f"  {name:<40} {value:>14.6g} {unit}")
        print("  self-time share of the timed region: " + "  ".join(
            f"{layer} {share:.1%}" for layer, share
            in document["layer_self_share"].items()))


def new_run_dir(out):
    if out is not None:
        path = Path(out)
    else:
        path = RECORD_DIR / (time.strftime("%Y%m%dT%H%M%S")
                             + f"-{os.getpid()}")
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_result(run_dir, result, history=True):
    with open(run_dir / "result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    if not history:
        return
    RECORD_DIR.mkdir(parents=True, exist_ok=True)
    line = {"run_id": result["run_id"],
            "commit": result["provenance"]["commit"],
            "dirty": result["provenance"]["dirty"],
            "seed": result["provenance"]["seed"],
            "scale": result["provenance"]["scale"],
            "medians": {
                workload: {name: row["median"] for name, row
                           in documents["untraced"]["end_to_end"].items()}
                for workload, documents in result["workloads"].items()
                if "untraced" in documents}}
    with open(RECORD_DIR / "history.jsonl", "a",
              encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


def run_suite(args, argv, run_dir, history=True):
    """Every selected workload, untraced then traced; returns the
    result document and whether every output check held."""
    names = [args.workload] if args.workload \
        else [name for name, _why in WORKLOADS]
    traces = (0, 1) if args.trace is None else (args.trace,)
    # A single driver-style run keeps its spans only when told where.
    keep_spans = args.trace is None or args.out is not None
    result = {"schema": 1, "run_id": run_dir.name,
              "provenance": provenance(args, argv), "workloads": {}}
    correct = True
    for workload in names:
        documents = {}
        for trace in traces:
            spans = run_dir / f"trace_{workload}.json" \
                if trace and keep_spans else None
            document = run_child(workload, args, trace, spans)
            documents["traced" if trace else "untraced"] = document
            print_metrics(workload, document)
            correct &= document["correct"]
        if len(documents) == 2 and documents["traced"]["digest"] \
                != documents["untraced"]["digest"]:
            print(f"!! {workload}: traced and untraced digests differ")
            correct = False
        result["workloads"][workload] = documents
        result["provenance"].setdefault(
            "environment", document["environment"])
    result["correct"] = bool(correct)
    write_result(run_dir, result, history=history)
    return result, correct


def selftest(args, argv):
    """Everything at smoke size, plus the harness's own invariants."""
    started = time.perf_counter()
    problems = []
    declared = benchmark_document()
    if not BENCHMARK_JSON.is_file() \
            or json.loads(BENCHMARK_JSON.read_text()) != declared:
        problems.append("BENCHMARK.json differs from metrics.py; run "
                        "--write-baseline")
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in declared[group]:
            if not NAME_PATTERN.fullmatch(entry["name"]):
                problems.append(f"bad name {entry['name']!r}")
            if "unit" in entry \
                    and not UNIT_PATTERN.fullmatch(entry["unit"]):
                problems.append(f"bad unit {entry['unit']!r}")
            if len(entry.get("why", "")) > 200:
                problems.append(f"why of {entry['name']} too long")

    args.scale, args.seconds, args.trace = 0.15, 0.5, None
    RECORD_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=RECORD_DIR))
    try:
        result, correct = run_suite(args, argv, scratch, history=False)
        if not correct:
            problems.append("an output check failed")
        for workload, documents in result["workloads"].items():
            for document in documents.values():
                emitted = contract_metrics(document)
                wanted = declared["end_to_end"] \
                    if "end_to_end" in document else declared["per_layer"]
                for entry in wanted:
                    got = emitted.get(entry["name"])
                    if got is None or got["unit"] != entry["unit"] \
                            or not isinstance(got["value"], float):
                        problems.append(
                            f"{workload}: {entry['name']} not emitted")
            checks = documents["traced"]["checks"]
            if not checks["probes_restored"]:
                problems.append(f"{workload}: a probe was not restored")
            if checks["nesting_errors"]:
                problems.append(f"{workload}: spans do not nest: "
                                f"{checks['nesting_errors'][:2]}")
            if checks["self_sum_error_share"] > 0.01:
                problems.append(f"{workload}: self times do not sum to "
                                f"the root span")
            if not (scratch / f"trace_{workload}.json").is_file():
                problems.append(f"{workload}: no span file written")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    elapsed = time.perf_counter() - started
    for problem in problems:
        print(f"SELFTEST FAIL: {problem}")
    print(f"selftest {'failed' if problems else 'ok'} in "
          f"{elapsed:.1f} s")
    return 1 if problems else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload",
                        choices=[name for name, _why in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measurement budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run of one workload, ending with the "
                             "driver's JSON line")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (smoke runs)")
    parser.add_argument("--out", help="result directory (default: "
                        ".benchmarks/record/<run-id>/)")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    if args.write_baseline:
        BENCHMARK_JSON.write_text(
            json.dumps(benchmark_document(), indent=2) + "\n")
        print(f"wrote {BENCHMARK_JSON}")
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    try:
        if args.selftest:
            return selftest(args, argv)
        run_dir = new_run_dir(args.out)
        result, correct = run_suite(args, argv, run_dir)
    except ChildFailed as failure:
        print(failure, file=sys.stderr)
        return 1
    print(f"results in {run_dir}")
    if args.trace is not None:
        kind = "traced" if args.trace else "untraced"
        document = result["workloads"][args.workload][kind]
        print(json.dumps({
            "correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": contract_metrics(document)}))
    return 0 if correct else 3


if __name__ == "__main__":
    sys.exit(main())
