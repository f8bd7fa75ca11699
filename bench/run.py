"""The equiko benchmark: end-to-end CLI metrics, or per-layer metrics traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds `src/equiko`; it needs only
the standard library.  The load is a closed loop with one client: one fresh
`python -m equiko.cli ...` process at a time (`src` on PYTHONPATH), the next
started when the previous one has exited, so it fits a 2-core machine.
Every op's output is checked against `oracle`, which does not import
equiko.  Inputs come from `workloads`, seeded by --seed; ops run in whole
rounds until --seconds have passed.  An op still running after
OP_TIMEOUT_S is killed and counted as failed; nothing is retried or dropped.
Ops not yet started when the run reaches RUN_DEADLINE_S count as failed and
stay out of the latency figures.

--trace 0 prints the end-to-end metrics:
  setup_s      median wall time of `python -c "import equiko.cli"` (pyc warm),
               sampled before the ops and after every round
  op_p50_s     median wall time of one op, from spawn to exit
  ops_per_s    ops completed per second of summed op wall time
  peak_rss_mb  largest child ru_maxrss over the run, from os.wait4

--trace 1 runs the ops of the first round, each once untraced and once
under `tracer.py` in a fresh interpreter, repeating the round until
--seconds have passed, checks that the two stdouts are byte-identical and
prints the per-layer metrics of `tracer.layer_metrics`.

The last stdout line is the JSON result {correct, attempted, failed,
metrics}.  Before it come an `env` line (interpreter, CPU, commit, seed, op
count) and a `summary` line with failed_frac, failure reasons and, on runs
of at least 100 ops, op_p90_s.  `failed` counts wrong outputs, non-zero
exits and timeouts; `correct` is false when any of them is not the one
known defect (`oracle.KNOWN_DEFECT`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import tracer
import workloads

OP_TIMEOUT_S = 60.0
#: The whole run ends within 180 s; ops not started by then count as failed.
RUN_DEADLINE_S = 160.0
#: Set-up samples taken before the ops, then after every round, so that the
#: median spans the whole run.
SETUP_SAMPLES_FIRST = 8
SETUP_SAMPLES_PER_ROUND = 3
SETUP_CMD = ("-c", "import equiko.cli")
P90_MIN_OPS = 100


@dataclass(frozen=True)
class Outcome:
    code: int | None
    wall_s: float
    maxrss_kb: int
    stdout: bytes
    reason: str = ""
    started: bool = True


class Runner:
    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.tracer = str(Path(tracer.__file__).resolve())

    def spawn(self, argv) -> Outcome:
        """Run `python argv...` to completion, reading its stdout from a pipe."""
        timeout = min(OP_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return Outcome(None, 0.0, 0, b"", "run deadline reached before the op started",
                           started=False)
        rfd, wfd = os.pipe()
        try:
            t0 = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, wfd, 1),
                                               (os.POSIX_SPAWN_CLOSE, rfd)])
        finally:
            os.close(wfd)
        chunks, timed_out, reaped = [], False, False
        try:
            pidfd = os.pidfd_open(pid)
            try:
                waiting = [rfd, pidfd]
                while waiting:
                    left = t0 + timeout - time.perf_counter()
                    ready = select.select(waiting, [], [], max(left, 0))[0] if left > 0 else []
                    if not ready:
                        timed_out = True
                        os.kill(pid, signal.SIGKILL)
                        break
                    if rfd in ready:
                        chunk = os.read(rfd, 1 << 16)
                        chunks.append(chunk)
                        if not chunk:
                            waiting.remove(rfd)
                    if pidfd in ready:
                        waiting.remove(pidfd)
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
            reaped = True
        finally:
            os.close(rfd)
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        reason = f"killed after the {timeout:.0f} s op timeout" if timed_out else ""
        code = None if timed_out else os.waitstatus_to_exitcode(status)
        return Outcome(code, wall, usage.ru_maxrss, b"".join(chunks), reason)

    def cli(self, op) -> Outcome:
        return self.spawn(["-m", "equiko.cli", *op.args])

    def traced(self, op):
        outcome = self.spawn([self.tracer, *op.args])
        try:
            trace = json.loads(outcome.stdout)
        except ValueError:
            trace = None
        return outcome, trace


def verdict(op, outcome: Outcome) -> str:
    if outcome.reason:
        return "wrong: " + outcome.reason
    return oracle.check(op, outcome.code, outcome.stdout)


def write_inputs(ops) -> None:
    for op in ops:
        for path, text in op.files.items():
            Path(path).write_text(text, encoding="utf-8")


def setup_samples(runner: Runner, n: int) -> list[float]:
    return [runner.spawn(SETUP_CMD).wall_s for _ in range(n)]


def run_untraced(runner, rounds, seconds):
    """Whole rounds until `seconds` have passed; returns (results, setup_s)."""
    runner.spawn(SETUP_CMD)  # writes the bytecode caches, as any earlier use would
    setup = setup_samples(runner, SETUP_SAMPLES_FIRST)
    results, start = [], time.monotonic()
    for ops in rounds:
        write_inputs(ops)
        for op in ops:
            outcome = runner.cli(op)
            results.append((op, outcome, verdict(op, outcome)))
        setup += setup_samples(runner, SETUP_SAMPLES_PER_ROUND)
        if time.monotonic() - start >= seconds:
            return results, statistics.median(setup)


def run_traced(runner, rounds, seconds):
    ops = next(rounds)
    write_inputs(ops)
    results, traces, plain_s, traced_s = [], [], 0.0, 0.0
    start = time.monotonic()
    while True:
        for op in ops:
            plain = runner.cli(op)
            outcome, trace = runner.traced(op)
            result = verdict(op, plain)
            if trace is None or outcome.code != 0:
                result = f"wrong: tracer failed ({outcome.reason or outcome.code})"
            elif trace["stdout"].encode("utf-8") != plain.stdout or trace["code"] != plain.code:
                result = "wrong: traced stdout or exit code differs from the untraced run"
            else:
                traces.append(trace)
                plain_s += plain.wall_s
                traced_s += outcome.wall_s
            results.append((op, plain, result))
        if time.monotonic() - start >= seconds:
            break
    metrics = tracer.layer_metrics(traces, traced_s / plain_s - 1) if traces else {}
    return results, metrics


def env_stamp(root: Path, args, n_ops: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else None
        commit = ref
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": commit,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "ops": n_ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # On SIGTERM, unwind through the `finally` blocks that kill the running
    # child and remove the input files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "equiko" / "cli.py").is_file():
        print(f"error: no equiko sources under {root / 'src'}", file=sys.stderr)
        return 2
    os.chdir(root)
    deadline = time.monotonic() + RUN_DEADLINE_S
    work_parent = Path(".bench_work")
    workdir = work_parent / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(root, workdir, deadline)
        rounds = workloads.rounds(args.workload, args.seed, str(workdir))
        if args.trace:
            results, metrics = run_traced(runner, rounds, args.seconds)
        else:
            results, setup_s = run_untraced(runner, rounds, args.seconds)
            ran = [outcome for _, outcome, _ in results if outcome.started]
            walls = [outcome.wall_s for outcome in ran]
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_p50_s": (statistics.median(walls), "s"),
                "ops_per_s": (len(walls) / sum(walls), "1/s"),
                "peak_rss_mb": (max(o.maxrss_kb for o in ran) / 1024, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass

    failures = [v for _, _, v in results if v != "ok"]
    wrong = [v for v in failures if v != "known-defect"]
    summary = {"failed_frac": len(failures) / len(results), "known_defect": oracle.KNOWN_DEFECT,
               "known_defect_ops": len(failures) - len(wrong), "wrong": wrong[:5]}
    if not args.trace:
        summary["op_samples"] = len(walls)
        if len(walls) >= P90_MIN_OPS:
            summary["op_p90_s"] = statistics.quantiles(walls, n=10)[-1]
    print("env " + json.dumps(env_stamp(root, args, len(results))))
    print("summary " + json.dumps(summary))
    print(json.dumps({
        "correct": not wrong and bool(metrics),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
