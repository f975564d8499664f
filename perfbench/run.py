"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout of this repository::

    python3 perfbench/run.py --workload wiki-batch --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed``; the program only
sees the generated requests and epochs.  Every verdict is checked
against the known answer.  Standard output ends with two JSON lines:
a report (host/commit fingerprint, verdict error rate, per-workload
details) and the result, whose ``metrics`` are the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
End-to-end timings are adjusted to a reference host speed measured while
they run (see ``hostspeed.py``); the report line holds them raw as well.
A traced run also writes its spans to
``perfbench-out/spans-<workload>-<seed>.jsonl``.
The exit code is 0 only when every verdict was right and the run valid.
"""

import os
import sys
import time

# The program's cost depends on set and dict iteration order, so string
# hashing is pinned: run-to-run spread then measures the host and the
# program, not which hash order a process drew.  execve replaces this
# process; it starts no other.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable] + sys.argv,
              dict(os.environ, PYTHONHASHSEED="0"))

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

import hostspeed  # noqa: E402
import spec  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, "perfbench-out")


def fingerprint() -> dict:
    """Host and commit of this run, stamped into every result."""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = "unknown", None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
                check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "dirty": dirty,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}/repro; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Compute scale is part of a workload's definition, never inherited.
    os.environ.pop("KAROUSOS_WORK_SCALE", None)
    import workloads

    imported = time.perf_counter() - START
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        outcome = workloads.RUNNERS[args.workload](
            workdir, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome.tracer is not None:
        os.makedirs(SPANS_DIR, exist_ok=True)
        path = os.path.join(SPANS_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        outcome.tracer.write(path)
        outcome.info["spans_file"] = os.path.relpath(path, ROOT)
    return report(args, outcome, imported)


def report(args, outcome, imported: float) -> int:
    info = outcome.info
    head = imported + info.get("warmup_s", 0.0)
    metrics = dict(outcome.metrics)
    metrics["setup_s"] = info["setup_speed"] * (head + info["setup_step_s"])
    metrics["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    raw = dict(outcome.raw, setup_s=head + info["setup_step_s"])
    failed = len(outcome.wrong)
    correct = not outcome.wrong and not outcome.invalid
    if args.trace:
        units = spec.per_layer_units()
        shown = {name: {"value": outcome.per_layer[name], "unit": unit}
                 for name, unit in units.items()}
    else:
        shown = {name: {"value": metrics[name], "unit": m["unit"]}
                 for name, m in spec.END_TO_END.items()}
    print(json.dumps({
        "report": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": fingerprint(),
            "host_probe_nominal_s": hostspeed.NOMINAL_S,
            spec.VERDICT_ERROR_RATE: failed / max(outcome.attempted, 1),
            "wrong_verdicts": outcome.wrong,
            "invalid": outcome.invalid,
            "import_s": imported,
            "info": outcome.info,
            "end_to_end": metrics,
            "end_to_end_raw": raw,
        }
    }, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": shown,
    }))
    for problem in outcome.wrong + outcome.invalid:
        print(f"error: {problem}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
