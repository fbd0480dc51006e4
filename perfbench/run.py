"""Benchmark of the beamfeedback command line.

    python3 perfbench/run.py --workload sweep-quantized --seed 1 --seconds 55 --trace 0

Each run executes one workload (see ``workloads.py``) as a series of fresh
CLI processes for about ``--seconds`` seconds, checks every process's outputs,
and prints as its last stdout line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones (median wall time, set-up time and peak memory of the
untraced processes).  With ``--trace 1`` the run alternates untraced and
traced (``tracer.py``) processes, and the metrics are the per-layer ones,
medians over the traced processes.  The line before the
result holds the environment stamp and every process's raw figures.

The program is imported from ``src/`` of the checkout the benchmark sits in;
without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from check import check_outputs, self_test
from tracer import LAYERS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_UNTRACED = 3          # processes per --trace 0 run, whatever --seconds says
RUN_LIMIT_S = 170         # a hung process is killed so the run ends in time
# A second BLAS thread mostly spins, and on a small shared machine it
# competes with whatever else runs there, which makes timings noisier.
BLAS_THREADS = 1
# The spans must account for the traced wall time within the tracing
# overhead; an overhead smaller than this counts as this.
UNACCOUNTED_FLOOR_S = 0.05

# Per-function trace totals reported as per-layer metrics.
PER_FUNCTION = {
    "simulator.simulate_policy": ("s", "self_s", "calls", "feedback_events"),
    "simulator.simulate_periodic": ("s", "calls"),
    "simulator.sweep_alpha": ("self_s",),
    "codebook.quantize_shape": ("calls", "s"),
    "codebook.lloyd_codebook": ("s", "iterations"),
    "codebook.epsilon_statistics": ("s",),
    "mdp.policy_iteration_average": ("s", "calls", "iterations"),
    "state_grid.estimate_transition_model": ("s", "calls", "samples"),
    "state_grid.make_grid": ("s",),
}


def git_sha():
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": git_sha(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), "seed": seed}


class Runner:
    def __init__(self, name, seed, work):
        self.name = name
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env["PYTHONPATH"] = str(SRC)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.config = work / "config.ini"
        self.config.write_text(WORKLOADS[name].ini(), encoding="utf-8")
        self.digests = None
        self.count = 0

    def child(self, args, cwd, log):
        """Run child.py fresh; returns (exit code, start, wall s, peak RSS MB)."""
        with open(log, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *args],
                                    cwd=cwd, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: take the child along
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, start, wall, usage.ru_maxrss / 1024.0

    def once(self, traced):
        """One fresh CLI process: its raw figures and the problems found."""
        self.count += 1
        rep = self.work / f"rep{self.count}"
        out = rep / "out"
        out.mkdir(parents=True)
        trace = rep / "trace.json"
        args = [str(rep / "marks"), str(trace) if traced else "-",
                *WORKLOADS[self.name].argv, "--config", str(self.config),
                "--seed", str(self.seed), "--out", "run", "--quiet"]
        code, start, wall, rss = self.child(args, out, rep / "stderr.log")
        sample = {"traced": traced, "exit": code, "wall_s": wall, "peak_rss_mb": rss}
        if code != 0:
            tail = (rep / "stderr.log").read_text(errors="replace")[-500:]
            return sample, [f"exit code {code}: {tail}"]
        entered, returned = map(float, (rep / "marks").read_text().split())
        sample["setup_s"] = entered - start
        sample["teardown_s"] = start + wall - returned
        problems = check_outputs(self.name, out, self.seed)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.iterdir())}
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            problems.append("outputs differ from the first process of this run")
        if traced:
            sample["trace"] = json.loads(trace.read_text())
        shutil.rmtree(rep)
        return sample, problems


def layer_metrics(sample):
    """Per-layer figures of one traced process, plus its unaccounted time."""
    totals = sample["trace"]["totals"]
    metrics = {}
    for layer in ("cli",) + LAYERS:
        metrics[f"{layer}.self_s"] = sum(t["self_s"] for k, t in totals.items()
                                         if k.split(".")[0] == layer)
    for fn, fields in PER_FUNCTION.items():
        for field in fields:
            metrics[f"{fn}.{field}"] = totals.get(fn, {}).get(field, 0)
    sim = totals.get("simulator.simulate_policy", {})
    metrics["simulator.simulate_policy.slots_per_s"] = (
        sim["slots"] / sim["s"] if sim.get("s") else 0.0)
    # wall time outside set-up, shutdown and every span's self time
    unaccounted = (sample["wall_s"] - sample["setup_s"] - sample["teardown_s"]
                   - sum(t["self_s"] for t in totals.values()))
    return metrics, unaccounted


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child and the scratch go too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "beamfeedback" / "cli.py").is_file():
        print(f"no beamfeedback source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        problems = [f"self-test: {p}" for p in self_test(work)]
        runner = Runner(args.workload, args.seed, work)
        env = environment(args.seed)  # its imports also warm the file cache
        start = time.monotonic()
        samples = []
        minimum = 2 if args.trace else MIN_UNTRACED
        last = 0.0
        while len(samples) < minimum or time.monotonic() - start + last <= args.seconds:
            began = time.monotonic()
            # traced runs alternate untraced and traced processes
            sample, found = runner.once(traced=bool(args.trace) and len(samples) % 2 == 1)
            last = time.monotonic() - began
            samples.append(sample)
            problems += found
            sample["ok"] = not found
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it

    good = [s for s in samples if s["ok"]]
    plain = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    metrics = {}
    info = {"workload": args.workload, "env": env}
    if args.trace and plain and traced:
        per_run = [layer_metrics(s) for s in traced]
        metrics = {k: statistics.median(m[k] for m, _ in per_run) for k in per_run[0][0]}
        overhead = (statistics.median(s["wall_s"] for s in traced)
                    - statistics.median(s["wall_s"] for s in plain))
        metrics["trace.overhead_s"] = overhead
        unaccounted = statistics.median(u for _, u in per_run)
        info["unaccounted_s"] = unaccounted
        if abs(unaccounted) > max(abs(overhead), UNACCOUNTED_FLOOR_S):
            problems.append(f"spans leave {unaccounted:.3f} s of the traced wall time "
                            f"unaccounted, more than the tracing overhead {overhead:.3f} s")
        shares = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
        info["largest_layer"] = max(shares, key=shares.get)
        info["expected_largest_layer"] = WORKLOADS[args.workload].dominant
    elif plain:
        for key in ("wall_s", "setup_s", "peak_rss_mb"):
            metrics[key] = statistics.median(s[key] for s in plain)
    if set(units) - set(metrics):
        problems.append(f"metrics {sorted(set(units) - set(metrics))} of BENCHMARK.json "
                        "not measured")
    # figures of workloads the timed set leaves out, e.g. simulate_periodic on fig3
    info["unlisted_metrics"] = {k: v for k, v in metrics.items() if k not in units}
    metrics = {k: v for k, v in metrics.items() if k in units}
    info["processes"] = [{k: v for k, v in s.items() if k != "trace"} for s in samples]
    info["problems"] = problems
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(samples),
        "failed": len(samples) - len(good),
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
