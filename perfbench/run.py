"""risknet benchmark: one command, three workloads, stdlib timing only.

    python3 perfbench/run.py --workload pipeline-weak|train-paper|infer-paper
        --seed N --seconds S --trace 0|1

Run from the repository root.  The command sets the workload up three times
in fresh processes (`setup_s` is their median), then runs the measurement in
one more process (`workload.py`) and prints a report followed, as its last
line, by one JSON object:

    {"correct": bool, "attempted": CLI calls, "failed": failed calls,
     "metrics": {name: {"value": number, "unit": unit}}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer span and count metrics of a traced run.
BLAS is pinned to one thread in every child.  Scratch files live under
`.perfbench/` and are removed at exit, except the traced run's spans.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 3
DEADLINE_S = 170.0  # the whole command, every child included
PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "posts_per_s": "posts/s",
                    "peak_rss_mib": "MiB"}
# printed in the report; they vary too much from seed to seed to bound
REPORT_UNITS = {"final_loss": "nats", "macro_f1": "ratio", "ablation_mean_f1": "ratio"}


class BenchError(RuntimeError):
    pass


def _child(argv: list[str], env: dict, deadline: float, log: Path):
    """Run one child to completion; returns (seconds, peak RSS in MiB)."""
    start = time.perf_counter()
    with log.open("w", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "workload.py"), *argv],
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            # wait4 gives this child's own rusage (RUSAGE_CHILDREN would be
            # the maximum over every child waited for so far)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"{argv[1]} child exited {proc.returncode}:\n{tail}")
    return seconds, usage.ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("pipeline-weak", "train-paper", "infer-paper"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (SRC / "risknet" / "cli.py").is_file():
        print(f"error: no risknet sources under {SRC}; run from a risknet checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    # a fixed str-hash seed makes the allocation pattern, and so peak RSS,
    # repeat from run to run; it changes no risknet output
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0", **{k: "1" for k in PIN})
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)]
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, calls, digests = [], [], set()
        for i in range(1 if args.trace else SETUPS):
            result = work / f"setup{i}.json"
            seconds, _ = _child(["--phase", "setup", *common, "--result", str(result)],
                                env, deadline, work / f"setup{i}.log")
            setup = json.loads(result.read_text(encoding="utf-8"))
            setup_s.append(seconds)
            calls += setup["calls"]
            digests.add(setup["inputs"])
        if len(digests) != 1 and calls:
            calls[-1]["failed_checks"].append("set-ups with one seed wrote different inputs")
        result = work / "measure.json"
        _, peak_mib = _child(["--phase", "measure", *common, "--result", str(result)],
                             env, deadline, work / "measure.log")
        measured = json.loads(result.read_text(encoding="utf-8"))
        if args.trace:
            spans = ROOT / ".perfbench" / f"spans-{args.workload}-s{args.seed}.json"
            shutil.copyfile(work / "spans.json", spans)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls += measured["calls"]
    failed = [c for c in calls if c["failed_checks"]]
    error_rate = len(failed) / len(calls)
    if args.trace:
        units = tracing.per_layer_units()
        values = measured["metrics"]
    else:
        units = END_TO_END_UNITS
        values = {**measured["metrics"], "setup_s": statistics.median(setup_s),
                  "peak_rss_mib": peak_mib}

    print(f"# environment: {json.dumps(setup['env'], sort_keys=True)}")
    for c in failed:
        print(f"# FAILED {c['stage']}: {'; '.join(c['failed_checks'])}")
    report = {k: (values.get(k, 0.0), u) for k, u in units.items()}
    report.update({k: (measured["report"][k], u) for k, u in REPORT_UNITS.items()
                   if k in measured["report"]})
    report["error_rate"] = (error_rate, "ratio")
    for name, (value, unit) in report.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if args.trace:
        print(f"# spans written to {spans.relative_to(ROOT)}")
    else:
        print(f"# units measured: {measured['report']['units']}, "
              f"setup_s samples: {[round(s, 4) for s in setup_s]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {k: {"value": float(values.get(k, 0.0)), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
