"""Output check behind the benchmark's failure count, and the check's self-test.

``check_outputs`` returns the problems it finds in one command's outputs (an
empty list means the outputs pass).  It checks that every expected file is
there, that CSVs carry the fixed header and the configured prices, that
feedback rates lie in [0, 1], that on fig3 event-driven feedback is no worse
than periodic feedback, that kernel rows are distributions, and that the
nets or kernel entries agree with the reference outputs in ``reference/``,
which the CLI wrote at the default seed.

``self_test`` corrupts copies of those reference outputs and requires the
check to accept the originals and reject every copy, so a zero failure count
cannot come from a check that rejects nothing.

    python3 perfbench/check.py                      # runs the self-test
    python3 perfbench/check.py --write-reference    # re-records reference/ first
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, FIG3_CURVES, WORKLOADS

REFERENCE = Path(__file__).resolve().parent / "reference"
CSV_HEADER = "alpha,net,throughput,feedback_rate,avg_threshold,stderr"

# Agreement with the reference, in combined standard errors.  At other seeds
# the batch-means stderr of the slow-fading (0.01) curves can understate the
# seed-to-seed spread (by up to 1.8 times in eight-seed samples), hence the
# wider band there.
REF_TOL_DEFAULT_SEED = 6.0
REF_TOL_OTHER_SEED = 12.0
# fig3: controlled net >= periodic net - PERIODIC_MARGIN * controlled stderr
# (both curves share one trajectory, so their difference is far tighter).
PERIODIC_MARGIN = 3.0
ROW_SUM_TOL = 1e-9


def _read_csv(path: Path, header: str, problems: list):
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines[0] != header:
        problems.append(f"{path.name}: header {lines[0]!r}")
        return []
    if not text.endswith("\n"):
        problems.append(f"{path.name}: last line unterminated")
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        try:
            rows.append({k: (v if k == "curve" else float(v)) for k, v in row.items()})
        except (TypeError, ValueError):
            problems.append(f"{path.name}: malformed row {row}")
    return rows


def _check_rows(name, rows, prices, problems):
    if [r["alpha"] for r in rows] != list(prices):
        problems.append(f"{name}: prices {[r['alpha'] for r in rows]}, "
                        f"configured {list(prices)}")
    for r in rows:
        if not 0.0 <= r["feedback_rate"] <= 1.0:
            problems.append(f"{name}: feedback_rate {r['feedback_rate']} outside [0, 1]")
        if not all(math.isfinite(r[k]) for k in ("net", "throughput", "stderr")):
            problems.append(f"{name}: non-finite value in {r}")


def _check_nets(name, rows, ref_rows, tol, problems):
    for r, ref in zip(rows, ref_rows):
        se = math.hypot(r["stderr"], ref["stderr"])
        if not abs(r["net"] - ref["net"]) <= tol * se:
            problems.append(f"{name}: net {r['net']} at alpha {r['alpha']} is "
                            f"{abs(r['net'] - ref['net']) / se:.1f} stderr from the "
                            f"reference {ref['net']} (limit {tol})")


def _ref_tol(seed):
    return REF_TOL_DEFAULT_SEED if seed == DEFAULT_SEED else REF_TOL_OTHER_SEED


def _check_sweeps(name, outdir, seed, problems):
    workload = WORKLOADS[name]
    csvs = [f for f in workload.outputs if f.endswith(".csv")]
    curves = {}
    for fname in csvs:
        combined = fname == "run.fig3.csv"
        header = ("curve," if combined else "") + CSV_HEADER
        rows = _read_csv(outdir / fname, header, problems)
        if combined:
            # the combined file repeats the price list once per curve
            for curve in FIG3_CURVES:
                _check_rows(f"{fname}[{curve}]", [r for r in rows if r["curve"] == curve],
                            workload.prices, problems)
        else:
            _check_rows(fname, rows, workload.prices, problems)
            curves[fname] = rows
        ref_rows = _read_csv(REFERENCE / name / fname, header, [])
        _check_nets(fname, rows, ref_rows, _ref_tol(seed), problems)
    if workload.argv[0] == "reproduce-fig":
        for dop in ("0.1", "0.01"):
            ctrl = curves.get(f"run.fig3.controlled_dop{dop}.csv", [])
            per = curves.get(f"run.fig3.periodic_dop{dop}.csv", [])
            for c, p in zip(ctrl, per):
                if c["net"] < p["net"] - PERIODIC_MARGIN * c["stderr"]:
                    problems.append(f"fig3 doppler {dop} alpha {c['alpha']}: controlled "
                                    f"net {c['net']} below periodic {p['net']}")
    meta = json.loads((outdir / [f for f in workload.outputs
                                 if f.endswith(".meta.json")][0]).read_text())
    if meta["seed"] != seed or meta["alphas"] != list(workload.prices):
        problems.append(f"metadata seed {meta['seed']} / alphas {meta['alphas']} "
                        f"do not match seed {seed} / prices {list(workload.prices)}")


def _kernels(doc):
    yield "Ptilde", doc["Ptilde"]
    yield "P0", doc["P0"]
    yield "P1_row", [doc["P1_row"]]
    if doc.get("Peps1_row") is not None:
        yield "Peps1_row", [doc["Peps1_row"]]


def _check_model(name, outdir, seed, problems):
    doc = json.loads((outdir / "run.model.json").read_text(encoding="utf-8"))
    ref = json.loads((REFERENCE / name / "run.model.json").read_text(encoding="utf-8"))
    grid = WORKLOADS[name].config["grid"]
    samples = grid["samples"]
    if (doc["M"], doc["N"], doc["sample_count"]) != (grid["M"], grid["N"], samples):
        problems.append(f"model M, N, samples {doc['M']}, {doc['N']}, {doc['sample_count']}")
        return
    # source samples behind each row: equiprobable power bins, samples // N
    # per alignment row, and every sample for the feedback row
    per_row = {"Ptilde": samples / doc["M"], "P0": samples // doc["N"],
               "P1_row": samples, "Peps1_row": samples}
    tol = _ref_tol(seed)
    ref_kernels = dict(_kernels(ref))
    for kernel, rows in _kernels(doc):
        for i, row in enumerate(rows):
            if min(row) < 0 or abs(math.fsum(row) - 1.0) > ROW_SUM_TOL:
                problems.append(f"{kernel} row {i} is not a distribution (sum {math.fsum(row)})")
            for j, (p, q) in enumerate(zip(row, ref_kernels[kernel][i])):
                pbar = 0.5 * (p + q)
                se = math.sqrt(pbar * (1.0 - pbar) * 2.0 / per_row[kernel])
                if p != q and not abs(p - q) <= tol * se:
                    problems.append(f"{kernel}[{i}][{j}] = {p}, reference {q}, "
                                    f"{abs(p - q) / se:.1f} stderr apart (limit {tol})")


def check_outputs(name: str, outdir: Path, seed: int) -> list:
    """Problems found in the outputs of workload ``name`` run at ``seed``."""
    workload = WORKLOADS[name]
    missing = [f for f in workload.outputs if not (outdir / f).is_file()]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]
    problems = []
    try:
        if workload.argv[0] == "model":
            _check_model(name, outdir, seed, problems)
        else:
            _check_sweeps(name, outdir, seed, problems)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def _shift_net(path: Path, sigmas: float):
    lines = path.read_text().split("\n")
    cols = lines[1].split(",")
    net, se = float(cols[-5]), float(cols[-1])
    cols[-5] = repr(net + sigmas * se)
    lines[1] = ",".join(cols)
    path.write_text("\n".join(lines))


def _truncate(path: Path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _break_kernel_row(path: Path):
    doc = json.loads(path.read_text())
    doc["Ptilde"][0][0] += 0.01
    path.write_text(json.dumps(doc, indent=2))


def _corruptions(name):
    workload = WORKLOADS[name]
    if workload.argv[0] == "model":
        return {"kernel row not summing to 1":
                lambda d: _break_kernel_row(d / "run.model.json")}
    first_csv = workload.outputs[0]
    return {"net shifted by 10 stderr": lambda d: _shift_net(d / first_csv, 10.0),
            "truncated CSV": lambda d: _truncate(d / first_csv)}


def self_test(scratch: Path) -> list:
    """Failures of the check on the reference outputs and corrupted copies."""
    failures = []
    for name in WORKLOADS:
        ref_dir = REFERENCE / name
        found = check_outputs(name, ref_dir, DEFAULT_SEED)
        if found:
            failures.append(f"{name}: reference rejected: {found}")
        for label, corrupt in _corruptions(name).items():
            copy = scratch / f"{name}-{label.replace(' ', '_')}"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(ref_dir, copy)
            corrupt(copy)
            if not check_outputs(name, copy, DEFAULT_SEED):
                failures.append(f"{name}: check accepted a copy with a {label}")
            shutil.rmtree(copy)
    return failures


def write_reference():
    """Record every workload's outputs at the default seed as the reference."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for name, workload in WORKLOADS.items():
        out = REFERENCE / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        config = REFERENCE / f"{name}.ini"
        config.write_text(workload.ini(), encoding="utf-8")
        try:
            subprocess.run([sys.executable, "-m", "beamfeedback.cli", *workload.argv,
                            "--config", str(config), "--seed", str(DEFAULT_SEED),
                            "--out", "run", "--quiet"], cwd=out, env=env, check=True)
        finally:
            config.unlink()


if __name__ == "__main__":
    if sys.argv[1:] == ["--write-reference"]:
        write_reference()
    work = Path(__file__).resolve().parents[1] / ".perfbench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        failures = self_test(work)
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for line in failures:
        print(line)
    print("self-test", "FAIL" if failures else "PASS")
    sys.exit(1 if failures else 0)
