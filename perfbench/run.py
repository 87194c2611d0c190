"""lattice-lab benchmark: one workload per run, closed loop, outputs checked.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; lattice_lab is imported from its ``src``.
Order of a run: build the inputs from the seed, one untimed warm-up op, three
timed set-ups in child processes, then whole rounds of the workload's fixed
op list until the next round would end after S seconds (at least one round,
at most MAX_ROUNDS).

Every latency is scaled to a reference host speed with ``probe()``, run
before and after each op (see ``scaled``), and each op's latency is its
median over the rounds.  With ``--trace 0`` the last stdout line reports:
  setup_s      median of the three set-ups: child start, import, input build
  wall_s       sum of the op latencies of one round
  op_p50_s     median op latency
  op_tail_s    latency at the highest percentile with >= 10 ops beyond it
               (the slowest op when a round has at most 10)
  peak_rss_mb  largest peak RSS of any op (child ``wait4`` rusage, or this
               process's own peak for in-process ops)
With ``--trace 1`` it runs one round untraced and the same round traced, and
reports the per-layer metrics of the traced round (raw span times) plus the
tracing overhead (traced minus untraced wall_s).  Every op's output is
checked; failed ops count in ``failed`` and fail_ratio = failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import bootstrap

bootstrap.pin_threads()

import numpy as np  # noqa: E402  (after the thread pin)

import tracing  # noqa: E402
import workloads  # noqa: E402

CHILD = str(Path(__file__).resolve().parent / "child.py")
WORKDIR = bootstrap.ROOT / ".perfbench_work"
SETUPS = 3
MAX_ROUNDS = 6
PROBE_REF_S = 0.008
PROBE_EXPONENT = 0.8
OP_TIMEOUT_S = 150.0
TAIL_BEYOND = 10


_RNG = np.random.default_rng(0)
_PROBE_VEC = _RNG.uniform(-1.0, 1.0, 64)
_PROBE_MAT = _RNG.uniform(-1.0, 1.0, (128, 128))
_PROBE_ROWS = _RNG.uniform(-1.0, 1.0, (16, 64)).tolist()


def probe() -> float:
    """Seconds for a fixed mix of interpreter, small-array, JSON and BLAS work."""
    start = time.perf_counter()
    total = 0
    for k in range(75_000):
        total += k
    for _ in range(650):
        float(np.max(np.abs(_PROBE_VEC * 2.0 - _PROBE_VEC)))
    for _ in range(3):
        json.loads(json.dumps(_PROBE_ROWS))
    for _ in range(4):
        _PROBE_MAT @ _PROBE_MAT
    return time.perf_counter() - start


@dataclass
class OpResult:
    label: str
    latency_s: float
    rss_mb: float
    error: str | None
    probe_s: float = 0.0


class OpRunner:
    """Runs ops one at a time, timing each; traces them when ``tracer`` is set."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.tracer: tracing.Tracer | None = None
        self.trace_raws: list[dict] = []
        self.op_id = 0

    def spawn(self, args: list[str]) -> tuple[float, float, int, str]:
        """Run the child script; (wall s, peak RSS MB, exit code, stdout)."""
        out_path = self.workdir / "child.out"
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, CHILD, *args],
                                    stdout=out, stderr=subprocess.DEVNULL)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout

    def run(self, op: workloads.Op) -> OpResult:
        before = probe()
        result = self._run(op)
        result.probe_s = (before + probe()) / 2
        return result

    def _run(self, op: workloads.Op) -> OpResult:
        self.op_id += 1
        if op.argv is not None:
            args = ["cli", *op.argv]
            trace_path = None
            if self.tracer is not None:
                trace_path = self.workdir / f"trace-{self.op_id}.json"
                args = ["--trace-out", str(trace_path), "--op-id", str(self.op_id), *args]
            latency, rss, code, stdout = self.spawn(args)
            if trace_path is not None and trace_path.exists():
                self.trace_raws.append(json.loads(trace_path.read_text(encoding="utf-8")))
                trace_path.unlink()
            value, error = (code, stdout), None
        else:
            if self.tracer is not None:
                self.tracer.op_id = self.op_id
            start = time.perf_counter()
            try:
                value, error = op.call(), None
            except Exception as exc:  # a failed op is counted, the run goes on
                value, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if error is None:
            try:
                error = op.check(value)
            except Exception as exc:  # malformed output is a failed op
                error = f"check raised {type(exc).__name__}: {exc}"
        return OpResult(op.label, latency, rss, error)


def run_rounds(wl, runner: OpRunner, seconds: float, max_rounds: int) -> list[list[OpResult]]:
    """Whole rounds until max_rounds, or until the next would end after ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append([runner.run(op) for op in wl.round_ops()])
        elapsed = time.perf_counter() - start
        if len(rounds) >= max_rounds or elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def scaled(latency_s: float, probe_s: float) -> float:
    """A latency rescaled to the host speed at which probe() takes PROBE_REF_S.

    On a shared host the same op's time swings by up to 1.6x in phases of
    a second to minutes.  The exponent is below 1 because the probe samples
    the speed only at the op's two ends; 0.8 is the fitted slope of log
    latency on log probe over repeated ops.
    """
    return latency_s * (PROBE_REF_S / probe_s) ** PROBE_EXPONENT


def per_op(rounds: list[list[OpResult]]) -> list[float]:
    """Each op's median scaled latency over the rounds."""
    return [statistics.median(scaled(r.latency_s, r.probe_s) for r in ops) for ops in zip(*rounds)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n


def metadata(args: argparse.Namespace) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    mem_kb = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            mem_kb = int(next(line for line in fh if line.startswith("MemTotal")).split()[1])
    except (OSError, StopIteration, ValueError):
        pass
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((bootstrap.SRC / "lattice_lab").rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "mem_total_mb": None if mem_kb is None else round(mem_kb / 1024),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ[k] for k in bootstrap.THREAD_VARS},
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def git_commit() -> str | None:
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args: argparse.Namespace) -> tuple[dict, list[str]]:
    bootstrap.import_program()
    make = workloads.WORKLOADS[args.workload]
    wl = make(args.seed, str(WORKDIR))
    runner = OpRunner(WORKDIR)
    done = [runner.run(op) for op in wl.warmup_ops()]
    setups = []
    for _ in range(SETUPS):
        before = probe()
        secs, _, code, _ = runner.spawn(["setup", args.workload, str(args.seed), str(WORKDIR)])
        if code != 0:
            raise RuntimeError(f"set-up child exited with {code}")
        setups.append((secs, (before + probe()) / 2))

    lines = []
    if args.trace:
        untraced = run_rounds(wl, runner, args.seconds, max_rounds=1)
        tracer = tracing.Tracer()
        runner.tracer = tracer
        uninstall = tracing.install(tracer)
        try:
            traced = run_rounds(wl, runner, args.seconds, max_rounds=1)
        finally:
            uninstall()
        raw = tracing.merge([tracer.raw(), *runner.trace_raws])
        layer = tracing.layer_metrics(raw)
        layer["trace.overhead_s"] = (sum(per_op(traced)) - sum(per_op(untraced)), "s")
        layer["martingales.martingale_input_share"] = (wl.martingale_share, "ratio")
        rounds = untraced + traced
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        lines.append(f"traced wall_s {sum(per_op(traced)):.4f} s, "
                     f"untraced {sum(per_op(untraced)):.4f} s")
    else:
        rounds = run_rounds(wl, runner, args.seconds, MAX_ROUNDS)
        latencies = per_op(rounds)
        tail_value, tail_pct = tail(latencies)
        metrics = {
            "setup_s": {"value": statistics.median(scaled(*s) for s in setups), "unit": "s"},
            "wall_s": {"value": sum(latencies), "unit": "s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "op_tail_s": {"value": tail_value, "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_mb for ops in rounds for r in ops), "unit": "MB"},
        }
        lines.append(f"op_tail_s is p{tail_pct:.1f} of {len(latencies)} ops, "
                     f"each the median of {len(rounds)} round(s)")
        lines += [f"op {ops[0].label}: latency/probe s " +
                  " ".join(f"{r.latency_s:.4f}/{r.probe_s:.5f}" for r in ops)
                  for ops in zip(*rounds)]
        lines.append(f"martingale input share of classify ops: {wl.martingale_share:.3f}")

    done += [r for ops in rounds for r in ops]
    failed = [r for r in done if r.error is not None]
    lines.append(f"fail_ratio {len(failed) / len(done):.4f} ({len(failed)} of {len(done)} ops)")
    lines += [f"FAILED {r.label}: {r.error}" for r in failed]
    result = {"correct": not failed, "attempted": len(done), "failed": len(failed),
              "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        result, lines = run(args)
    except bootstrap.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print("metadata " + json.dumps(metadata(args)))
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
