"""Benchmark for ixpgraph: end-to-end CLI timings and a traced per-module run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it measures the checkout's own
``src/ixpgraph`` and refuses to run if that is not the package Python
imports. Inputs are generated from ``--seed`` (see ``inputs.py``); one
process runs one command at a time.

``--trace 0`` runs whole passes of the workload's command sequence, each
command a subprocess timed with ``os.wait4`` (wall, CPU and peak RSS of
its whole process tree), until ``--seconds`` have elapsed (at least one
pass), with at least ``SETUP_PROBES`` runs of the set-up probe spread
among them. It reports the end-to-end metrics: medians over passes and
probes, with times in reference seconds (see ``calibrate``).

``--trace 1`` times ``import ixpgraph.cli`` in fresh interpreters, runs
the commands that have per-command metrics as subprocesses, then runs
every command in-process through ``ixpgraph.cli.main``: once untraced
and once with the public functions of every module wrapped in spans. It
reports the per-layer metrics.

Every output is checked (see ``workloads.py``), and so is its stdout
digest where ``digests.json`` has one for this workload and seed. The
last line on stdout is the JSON result; stderr gets every metric by name
with its unit, and ``.perfbench_work/results/`` the full record (machine
and code facts, per-command results, spans).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import GROUPS, PER_LAYER, TARGETS, layer_metrics  # noqa: E402
from spans import Tracer, patched  # noqa: E402
from workloads import SIZES, prepare  # noqa: E402

END_TO_END = (("setup_s", "s"), ("session_s", "s"), ("peak_rss_mb", "MB"))
# End-to-end times are in reference seconds: wall time scaled by
# CALIBRATION_S over the median time ``calibrate`` took in the same pass.
# Changing the constant or ``calibrate`` rescales every end-to-end time.
CALIBRATION_S = 0.07
SETUP_PROBES = 7
IMPORT_PROBES = 5
COMPARE_BUDGET_S = 110  # keeps a --trace 1 run well inside three minutes
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 42


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's stdout digests for the workload and seed, "
                             "if every output passed its checks")
    args = parser.parse_args(argv)

    root = HERE.parent
    package = root / "src" / "ixpgraph" / "__init__.py"
    if not package.is_file():
        print(f"error: no ixpgraph package at {package}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("IXPGRAPH_THREADS", None)
    os.environ.pop("IXPGRAPH_THREADS", None)
    try:
        facts = machine_facts(root, env, package)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work = root / ".perfbench_work"
    workdir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = prepare(args.workload, args.seed, workdir)
        bench = Bench(workload, workdir, env, recorded_digests(args.workload, args.seed))
        if args.trace:
            metrics, extra = bench.traced_run(package)
            units = PER_LAYER
        else:
            metrics, extra = bench.timed_run(args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in bench.results if r["problems"])
    attempted = len(bench.results)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "facts": facts, "inputs": workload.inputs,
        "metrics": metrics, "extra": extra, "failed_frac": failed / attempted,
        "commands": bench.results,
    }
    (work / "results").mkdir(parents=True, exist_ok=True)
    out_file = work / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    report(record, units, out_file)

    if args.record_digests and not failed:
        store_digests(args.workload, args.seed, bench.results)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


class Bench:
    """Runs a workload's commands, checks every output and keeps the results."""

    def __init__(self, workload, workdir: Path, env: dict, digests: dict):
        self.workload = workload
        self.workdir = workdir
        self.env = env
        self.digests = digests
        self.results: list[dict] = []

    def check(self, cmd, mode: str, status, out: bytes, **timing) -> dict:
        problems = [] if status == 0 else [f"exit status {status}"]
        digest = hashlib.sha256(out).hexdigest()
        try:
            if status == 0:
                problems += cmd.check(out)
            digest = hashlib.sha256(cmd.digest_of(out)).hexdigest()
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        if self.digests.get(cmd.label, digest) != digest:
            problems.append("stdout digest differs from the recorded one")
        result = {"label": cmd.label, "group": cmd.group, "mode": mode, "status": status,
                  "problems": problems, "sha256": digest, **timing}
        if problems:
            print(f"FAILED {cmd.label} ({mode}): {'; '.join(problems)}", file=sys.stderr)
        self.results.append(result)
        return result

    def subprocess_run(self, cmd) -> dict:
        """One CLI command as a child process; rusage covers its whole tree."""
        out_path = self.workdir / ".stdout"
        err_path = self.workdir / ".stderr"
        calibration = calibrate()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "ixpgraph.cli", *cmd.argv],
                                    cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            _, wait_status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        if proc.returncode:
            sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
        return self.check(cmd, "subprocess", proc.returncode, out_path.read_bytes(),
                          wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                          rss_mb=usage.ru_maxrss / 1024, calibration_s=calibration)

    def inprocess_run(self, cmd, tracer: Tracer | None) -> dict:
        from ixpgraph import cli

        buf = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    status = cli.main(list(cmd.argv))
                else:
                    with tracer.span(f"cli.{cmd.label}"):
                        status = cli.main(list(cmd.argv))
        except SystemExit as exc:
            status = exc.code
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            status = "exception"
        wall = perf_counter() - start
        mode = "traced" if tracer else "inprocess"
        return self.check(cmd, mode, status, buf.getvalue().encode(), wall_s=wall)

    def timed_run(self, seconds: float) -> tuple[dict, dict]:
        # Machine speed drifts over tens of seconds, so the set-up probes are
        # spread over the run: one after a command at most every
        # seconds / SETUP_PROBES, topped up at the end. Each pass's times are
        # scaled by the median calibration taken during that pass.
        passes = []  # (commands, probes) per pass; top-up probes come last
        start = last_probe = perf_counter()
        while not passes or perf_counter() - start < seconds:
            results, probes = [], []
            for cmd in self.workload.commands:
                results.append(self.subprocess_run(cmd))
                if perf_counter() - last_probe >= seconds / SETUP_PROBES:
                    probes.append(self.subprocess_run(self.workload.setup))
                    last_probe = perf_counter()
            passes.append((results, probes))
        missing = SETUP_PROBES - sum(len(probes) for _, probes in passes)
        if missing > 0:
            passes.append(([], [self.subprocess_run(self.workload.setup) for _ in range(missing)]))

        def scale(results, probes):
            return CALIBRATION_S / statistics.median(r["calibration_s"] for r in results + probes)

        sessions = [(sum(r["wall_s"] for r in results), scale(results, probes))
                    for results, probes in passes if results]
        setups = [(p["wall_s"], scale(results, probes))
                  for results, probes in passes for p in probes]
        metrics = {
            "setup_s": statistics.median(wall * k for wall, k in setups),
            "session_s": statistics.median(wall * k for wall, k in sessions),
            "peak_rss_mb": statistics.median(
                max(r["rss_mb"] for r in results) for results, _ in passes if results),
        }
        extra = {
            "passes": len(sessions), "setup_probes": len(setups),
            "wall.setup_s": statistics.median(wall for wall, _ in setups),
            "wall.session_s": statistics.median(wall for wall, _ in sessions),
            "calibration_s": statistics.median(
                r["calibration_s"] for results, probes in passes for r in results + probes),
        }
        for group in GROUPS:
            walls = [sum(r["wall_s"] for r in results if r["group"] == group)
                     for results, _ in passes if results]
            if any(walls):
                extra[f"wall.{group}_s"] = statistics.median(walls)
        return metrics, extra

    def traced_run(self, package: Path) -> tuple[dict, dict]:
        started = perf_counter()
        metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        metrics["cli.import_s"] = statistics.median(
            self.import_time() for _ in range(IMPORT_PROBES))
        for cmd in self.workload.commands:
            if cmd.group:
                r = self.subprocess_run(cmd)
                metrics[f"{cmd.group}_s"] += r["wall_s"]
                metrics[f"cli.{cmd.group}.cpu_s"] += r["cpu_s"]
                metrics[f"cli.{cmd.group}.rss_mb"] = max(
                    metrics[f"cli.{cmd.group}.rss_mb"], r["rss_mb"])

        sys.path.insert(0, str(package.parent.parent))
        import ixpgraph

        if Path(ixpgraph.__file__).resolve() != package:
            raise RuntimeError(f"imported {ixpgraph.__file__}, not {package}")
        # Each command runs untraced and traced back to back, in alternating
        # order, so drift in machine speed and warm-up hit both totals alike.
        # Once COMPARE_BUDGET_S have passed, commands run traced only, so that
        # a slow machine still finishes in time.
        tracer = Tracer()
        pairs = []  # (untraced, traced) wall times of commands run both ways
        traced = 0.0
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            for k, cmd in enumerate(self.workload.commands):
                both = not pairs or perf_counter() - started < COMPARE_BUDGET_S
                walls = {}
                for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
                    if traced_turn:
                        with patched(tracer, TARGETS) as missing:
                            walls[True] = self.inprocess_run(cmd, tracer)["wall_s"]
                    elif both:
                        walls[False] = self.inprocess_run(cmd, None)["wall_s"]
                traced += walls[True]
                if both:
                    pairs.append((walls[False], walls[True]))
        finally:
            os.chdir(cwd)

        untraced = sum(u for u, _ in pairs)
        metrics.update(layer_metrics(tracer))
        metrics["trace.untraced_s"] = untraced
        metrics["trace.traced_s"] = traced
        metrics["trace.overhead_frac"] = sum(t - u for u, t in pairs) / untraced
        self.check_span_accounting(tracer, traced, metrics["trace.overhead_frac"])
        extra = {"compared_commands": len(pairs), "missing_functions": missing,
                 "counter_errors": tracer.counter_errors, "spans": tracer.records()}
        return metrics, extra

    def check_span_accounting(self, tracer: Tracer, traced: float, overhead: float) -> None:
        """Self times of all spans must add up to the traced in-process total,
        within the tracing overhead (or 1% when that is smaller)."""
        self_sum = sum(tracer.self_times())
        gap = abs(traced - self_sum)
        problems = []
        if gap > max(abs(overhead), 0.01) * traced:
            problems.append(f"span self times add up to {self_sum:.4f} s, "
                            f"the traced pass took {traced:.4f} s")
        result = {"label": "span_accounting", "group": None, "mode": "traced", "status": 0,
                  "problems": problems, "self_sum_s": self_sum, "traced_s": traced}
        if problems:
            print(f"FAILED span accounting: {problems[0]}", file=sys.stderr)
        self.results.append(result)

    def import_time(self) -> float:
        code = ("import time; t = time.perf_counter(); import ixpgraph.cli; "
                "print(time.perf_counter() - t)")
        out = subprocess.run([sys.executable, "-c", code], env=self.env, check=True,
                             capture_output=True, text=True).stdout
        return float(out)


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python job of dict, string, set and sort
    work, the kind of work ixpgraph does. It runs right before every timed
    command, so its time tracks how fast the machine is at that moment."""
    start = perf_counter()
    table = {f"k{i}": (i, str(i)) for i in range(60000)}
    sorted({value[1] + key for key, value in table.items()})
    return perf_counter() - start


def machine_facts(root: Path, env: dict, package: Path) -> dict:
    probe = ("import sys, ixpgraph, networkx; print(ixpgraph.__file__); "
             "print(networkx.__version__)")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"cannot import ixpgraph from {root / 'src'}: {proc.stderr.strip()}")
    resolved, nx_version = proc.stdout.split()
    if Path(resolved).resolve() != package:
        raise RuntimeError(f"ixpgraph resolves to {resolved}, not to the checkout's {package}")
    nproc = shutil.which("nproc")
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(package.parent.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": int(subprocess.run([nproc], capture_output=True, text=True).stdout)
        if nproc else None,
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "networkx": nx_version,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "package": resolved,
    }


def recorded_digests(workload: str, seed: int) -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed), {})


def store_digests(workload: str, seed: int, results: list[dict]) -> None:
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    data.setdefault(workload, {})[str(seed)] = {
        r["label"]: r["sha256"] for r in results if r["mode"] == "subprocess"}
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def report(record: dict, units, out_file: Path) -> None:
    lines = [f"{record['workload']} seed={record['seed']} trace={record['trace']}"]
    lines += [f"  {k} = {v}" for k, v in record["facts"].items()]
    lines += [f"  inputs: {json.dumps(record['inputs'])}"]
    width = max(len(name) for name in [*record["metrics"], *record["extra"]])
    lines += [f"  {name:<{width}} {record['metrics'][name]:>14.6f} {unit}" for name, unit in units]
    for name, value in record["extra"].items():
        if isinstance(value, (int, float)):
            lines.append(f"  {name:<{width}} {value:>14.6f} {'s' if name.endswith('_s') else ''}")
    lines.append(f"  {'failed_frac':<{width}} {record['failed_frac']:>14.6f} ratio "
                 f"(of {len(record['commands'])} checked outputs)")
    lines.append(f"  record: {out_file}")
    print("\n".join(lines), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
