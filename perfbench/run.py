"""End-to-end and per-module benchmark of the triplesys command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace both

Each operation is one ``triplesys`` command run in this process through
``triplesys.cli.main(argv)`` with its output captured.  The load is a
closed loop with one client: an operation starts when the previous one has
finished.  A pass runs every operation of the workload once.  After the
first pass the operations repeat, longest first, as long as each still
ends within ``--seconds``; a pass time is the sum of each operation's mean
time.  A fixed reference loop is timed between operations and, from a
timer, during them (speed.py); the gated pass time ``pass_ref`` counts in
runs of that loop, which cancels the machine's own changes of speed.  Every output is checked, and repeated operations must
print the same bytes.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` at least two traced passes run, and the last line reports the
per-layer metrics.  ``--workload all`` and ``--trace both`` run each
(workload, trace) pair in a child process of its own and merge the result
lines.  A report of every metric, the environment and the per-operation
times goes to ``perfbench/out/``.  See perfbench/README.md for the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from speed import REFERENCE_RUN_S, SpeedProbe, between_speeds
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
SETUP_EVERY_S = 5.0
TRACED_PASSES = 2  # at least this many, so the count check always compares two

#: Per-layer metrics on the last line of a traced run.  Self times are
#: listed only for layers every workload reaches, so none is always zero.
PER_LAYER_TIMES = (
    "cli.main.s",
    "fileio.dump_json.s",
    "core.TripleSystem.s",
    "core.min_positive_codegree.s",
    "patterns.closing_pairs.s",
    "patterns.search_maps.s",
    "patterns.find_embedding.s",
)
PER_LAYER_COUNTS = (
    "cli.main.calls",
    "cli.exit_nonzero",
    "cli.stats_min_codegree_mismatch",
    "fileio.read_hypergraph.calls",
    "fileio.read_hypergraph.bytes",
    "fileio.write_hypergraph.calls",
    "fileio.dump_json.calls",
    "core.TripleSystem.calls",
    "core.min_positive_codegree.calls",
    "core.build_codegree_table.calls",
    "patterns.closing_pairs.calls",
    "patterns.search_maps.calls",
    "patterns.find_embedding.calls",
    "patterns.find_embedding.hits",
    "patterns.embeds_through_edge.calls",
    "patterns.embeds_through_edge.hits",
    "search.decide_exists.calls",
    "search.nodes_explored",
    "search.local_search_lower_bound.calls",
    "search.local_steps",
    "witness.find_c5_witness.calls",
    "witness.find_c5minus_witness.calls",
    "witness.analyze_half_degree.calls",
    "witness.structure_certificates",
    "witness.facts_exercised",
)

PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import triplesys; print(time.perf_counter() - t)"
)


def load_package():
    """Import triplesys from this checkout's ``src`` and nowhere else, then
    the workload definitions that depend on it; (cli module, workloads module)."""
    init = SRC / "triplesys" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a triplesys checkout")
    sys.path.insert(0, str(SRC))
    import triplesys.cli

    if Path(triplesys.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported triplesys from {triplesys.__file__}, not {init}")
    import workloads

    return triplesys.cli, workloads


# ---------------------------------------------------------------------------
# Running and checking operations
# ---------------------------------------------------------------------------


def run_command(cli, argv: list[str], probe=None):
    """(exit code or None, stdout, traceback or None, seconds).  With a
    SpeedProbe, the probe samples the speed during the command, and the
    seconds exclude the time the probe took."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err), probe or nullcontext():
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code, failure = None, traceback.format_exc()
    seconds = time.perf_counter() - t0 - (probe.spent_s if probe else 0.0)
    return code, out.getvalue(), failure, seconds


class Ledger:
    """Checks each operation's output and keeps the failure counts.

    ``attempted`` and ``failed`` count distinct operations, not samples: an
    operation is one command of the workload, and its repeats are timing
    samples that must print the same bytes as its first run.  So the counts
    do not depend on how many repeats fit in the run.  ``defects`` counts
    known-defect samples, which the traced run reports per pass."""

    def __init__(self, known_defects):
        self.known_defects = known_defects
        self.seen: set[str] = set()
        self.failed_ops: set[str] = set()
        self.defect_ops: dict[str, set[str]] = {name: set() for name in known_defects}
        self.unexpected = 0
        self.errors: list[str] = []
        self.defects: Counter = Counter()
        self._first: dict[str, tuple] = {}

    @property
    def attempted(self) -> int:
        return len(self.seen)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def record(self, op, code, stdout: str, failure) -> None:
        self.seen.add(op.key)
        if failure is not None:
            problems = [("error", failure.strip().splitlines()[-1])]
        elif code != 0:
            problems = [("error", f"exit code {code}")]
        else:
            problems = self._check(op, stdout)
        if problems:
            self.failed_ops.add(op.key)
        for kind, message in problems:
            if kind in self.known_defects:
                self.defects[kind] += 1
                self.defect_ops[kind].add(op.key)
            else:
                self.error(f"{op.key}: {message}")

    def error(self, message: str) -> None:
        self.unexpected += 1
        if len(self.errors) < 50:
            self.errors.append(message)

    def _check(self, op, stdout: str) -> list:
        try:
            fingerprint = (stdout, tuple(Path(p).read_bytes() for p in op.outputs))
        except OSError as exc:
            return [("error", f"output file unreadable: {exc}")]
        for key, label in ((op.key, "an earlier run"), (op.same_as, f"'{op.same_as}'")):
            if key in self._first:
                first, problems = self._first[key]
                if fingerprint != first:
                    return [("error", f"output differs from {label}")]
                self._first.setdefault(op.key, (first, problems))
                return problems
        try:
            problems = op.check(stdout)
        except Exception:
            problems = [("error", "check raised " + traceback.format_exc().strip().splitlines()[-1])]
        self._first[op.key] = (fingerprint, problems)
        return problems


def run_op(cli, op, ledger: Ledger, tracer=None, probe=None) -> float:
    """Run and check one operation; its wall time."""
    if tracer is not None:
        tracer.active = op.traced
    code, stdout, failure, seconds = run_command(cli, op.argv, probe)
    if tracer is not None:
        tracer.active = False
    ledger.record(op, code, stdout, failure)
    return seconds


def run_pass(cli, ops, ledger: Ledger, tracer=None) -> dict[str, float]:
    return {op.key: run_op(cli, op, ledger, tracer) for op in ops}


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------


def import_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def set_up(cli, wl, inputs, workdir: str, ledger: Ledger):
    """Import probe, host files written through the package, and warm-up
    commands.  Only program code runs in the timed part.  Returns its
    seconds, its time in reference runs (see speed.py) and the speed
    samples taken."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    before = between_speeds()
    imported = import_seconds()
    between = between_speeds()
    probe = SpeedProbe()
    t0 = time.perf_counter()
    with probe:
        wl.write_hosts(inputs)
        for argv in inputs.warmup:
            code, _, failure, _ = run_command(cli, argv)
            if code != 0:
                ledger.error(f"warm-up {' '.join(argv)}: {failure or f'exit code {code}'}")
    own = time.perf_counter() - t0 - probe.spent_s
    after = between_speeds()
    in_reference_runs = (imported * statistics.fmean(before + between)
                         + own * statistics.fmean(between + probe.speeds + after))
    return imported + own, in_reference_runs, before + between + probe.speeds + after


def op_means(samples: dict[str, list[float]], ops, group=None) -> float:
    """Sum over operations (of one group) of each one's mean time: the
    time of one pass, estimated from every sample the run took.

    A mean rather than a median: the machine this was tuned on switches
    between two speeds, and a mean of wall times moves smoothly with the
    share of the run spent at each."""
    return sum(statistics.fmean(samples[op.key]) for op in ops if group is None or op.group == group)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it: (value, percentile, count)."""
    ordered = sorted(samples)
    rank = max(len(ordered) - 10, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def named_metrics(workload: str, ops, samples) -> dict[str, tuple[float, str]]:
    """The named metrics of this workload (see README.md)."""
    out: dict[str, tuple[float, str]] = {}
    if workload == "exact":
        out["exact_s"] = (op_means(samples, ops, "exact_jobs1"), "s")
        out["exact_jobs2_s"] = (op_means(samples, ops, "exact_jobs2"), "s")
    elif workload == "localsearch-24":
        steps = sum(op.steps for op in ops)
        out["localsearch_steps_per_s"] = (steps / op_means(samples, ops, "localsearch"), "1/s")
    elif workload == "hosts-64":
        out["free_s"] = (op_means(samples, ops, "free"), "s")
        certify = [t for op in ops if op.group == "certify" for t in samples[op.key]]
        value, pct, count = tail(certify)
        out["certify_s"] = (op_means(samples, ops, "certify"), "s")
        out["certify_ops_per_s"] = (len(certify) / sum(certify), "1/s")
        out["certify_ms_p50"] = (1000 * statistics.median(certify), "ms")
        out["certify_ms_tail"] = (1000 * value, "ms")
        out["certify_tail_percentile"] = (pct, "%")
        out["certify_samples"] = (count, "count")
    return out


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_untraced(cli, wl, workload, inputs, seconds, workdir, ledger):
    """One full pass, then more samples while the time lasts.  The repeats
    go longest operation first, because the long operations dominate a pass
    time and their means gain most from a second sample; an operation that
    would end past ``seconds`` is skipped.  The set-up repeats every
    SETUP_EVERY_S seconds, so its samples spread over the run like the
    operations do.

    Each operation's time is also taken in reference runs (see speed.py),
    at the mean of the speed samples taken during it and just before and
    after it.  ``setup_s`` is the median set-up in reference runs, in
    seconds at REFERENCE_RUN_S per reference run."""
    setups: list[tuple[float, float]] = []  # (seconds, reference runs)
    speeds: list[float] = []

    def do_set_up():
        seconds_taken, in_reference_runs, set_up_speeds = set_up(cli, wl, inputs, workdir, ledger)
        setups.append((seconds_taken, in_reference_runs))
        speeds.extend(set_up_speeds)

    do_set_up()
    start = last_set_up = time.perf_counter()
    samples: dict[str, list[float]] = {op.key: [] for op in inputs.ops}
    relative: dict[str, list[float]] = {op.key: [] for op in inputs.ops}
    probe = SpeedProbe()
    before = between_speeds()

    def sample(op):
        nonlocal last_set_up, before
        seconds_taken = run_op(cli, op, ledger, probe=probe)
        after = between_speeds()
        samples[op.key].append(seconds_taken)
        relative[op.key].append(seconds_taken * statistics.fmean(before + probe.speeds + after))
        speeds.extend(probe.speeds + after)
        before = after
        if time.perf_counter() - last_set_up >= SETUP_EVERY_S:
            do_set_up()
            last_set_up = time.perf_counter()
            before = between_speeds()

    for op in inputs.ops:
        sample(op)
    ran = True
    while ran:
        ran = False
        for op in sorted(inputs.ops, key=lambda op: -samples[op.key][0]):
            if time.perf_counter() - start + samples[op.key][-1] <= seconds:
                sample(op)
                ran = True
    while len(setups) < SETUP_REPEATS:
        do_set_up()
    setup_ref = statistics.median(r for _, r in setups)
    metrics = {
        "setup_s": (setup_ref * REFERENCE_RUN_S, "s"),
        "pass_ref": (op_means(relative, inputs.ops), "ref"),
        "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_SELF), "MB"),
    }
    report = dict(metrics)
    report["pass_s"] = (op_means(samples, inputs.ops), "s")
    report["setup_wall_s"] = (statistics.fmean(s for s, _ in setups), "s")
    report["setup_ref"] = (setup_ref, "ref")
    report["reference_ms"] = (1000 / statistics.median(speeds), "ms")
    report["fastest_reference_ms"] = (1000 / max(speeds), "ms")
    report["speed_samples"] = (len(speeds), "count")
    report.update(named_metrics(workload, inputs.ops, samples))
    for group in dict.fromkeys(op.group for op in inputs.ops):
        report[f"{group}_ref"] = (op_means(relative, inputs.ops, group), "ref")
    report["op_samples"] = (sum(len(v) for v in samples.values()), "count")
    report["children_peak_rss_mb"] = (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    details = {"setups": setups, "samples": samples, "relative": relative, "speeds": speeds}
    return metrics, report, details


def run_traced(cli, wl, workload, inputs, seconds, workdir, ledger):
    """Traced passes of the traced operations: at least TRACED_PASSES, more
    while the time lasts.  Counts come from the first pass and must repeat
    in every later one; self times are medians over the passes."""
    set_up(cli, wl, inputs, workdir, ledger)
    ops = [op for op in inputs.ops if op.traced]
    tracer = Tracer()
    tracer.install()
    try:
        per_pass = []
        traced_passes = []
        start = time.perf_counter()
        while True:
            mark = tracer.mark()
            defects_before = sum(ledger.defects.values())
            t1 = time.perf_counter()
            traced_passes.append(run_pass(cli, ops, ledger, tracer))
            last = time.perf_counter() - t1
            counts, times, inclusive = tracer.summarize(mark)
            counts["cli.stats_min_codegree_mismatch"] = sum(ledger.defects.values()) - defects_before
            per_pass.append((counts, times, inclusive))
            if len(per_pass) >= TRACED_PASSES and time.perf_counter() - start + last > seconds:
                break
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{workload}.bin"))
    counts = per_pass[0][0]
    if any(other != counts for other, _, _ in per_pass[1:]):
        ledger.error("per-layer counts differ between traced passes")
    times = {k: statistics.median(p[1][k] for p in per_pass) for k in per_pass[0][1]}
    inclusive = {k: statistics.median(p[2][k] for p in per_pass) for k in per_pass[0][2]}
    metrics = {k: (times[k], "s") for k in PER_LAYER_TIMES}
    metrics.update({k: (counts.get(k, 0), "bytes" if k.endswith(".bytes") else "count")
                    for k in PER_LAYER_COUNTS})
    report = dict(metrics)
    report.update({k: (v, "s") for k, v in times.items() if k not in metrics})
    report.update({k: (v, "count") for k, v in counts.items() if k not in metrics})
    decide_s = inclusive.get("search.decide_exists.s", 0.0)
    report["search.nodes_per_s"] = (counts["search.nodes_explored"] / decide_s if decide_s else 0.0, "1/s")
    report["trace.passes"] = (len(per_pass), "count")
    report["trace.traced_s"] = (statistics.median(sum(p.values()) for p in traced_passes), "s")
    report["trace.spans"] = (len(tracer.span_name), "count")
    details = {"traced_passes": traced_passes}
    return metrics, report, details


# ---------------------------------------------------------------------------
# Environment, reporting, entry point
# ---------------------------------------------------------------------------


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        done = None
    if done is None or done.returncode != 0:
        return "unknown (not a git checkout)"
    return done.stdout.strip()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload, seed, seconds, trace, size_name) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size_name,
    }


def run_workload(cli, wl, workload, seed, seconds, trace, size_name) -> dict:
    workdir = str(OUT / f"work-{workload}-{os.getpid()}")
    # Inputs and check references are made once per run, outside any timing.
    inputs = wl.WORKLOADS[workload](workdir, random.Random(f"{workload}:{seed}"), wl.SIZES[size_name])
    ledger = Ledger(wl.KNOWN_DEFECTS)
    runner = run_traced if trace else run_untraced
    try:
        metrics, report, details = runner(cli, wl, workload, inputs, seconds, workdir, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(workload, seed, seconds, trace, size_name)
    report["ops_failed_frac"] = (ledger.failed / ledger.attempted, "ratio")
    for name in wl.KNOWN_DEFECTS:
        report[f"known_defect.{name}"] = (len(ledger.defect_ops[name]), "count")
    result = {
        "correct": ledger.unexpected == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "environment": env,
        "inputs": [{"key": op.key, "argv": op.argv} for op in inputs.ops],
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "errors": ledger.errors,
        "result": result,
        **details,
    }
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"# workload {workload}  seed {seed}  seconds {seconds}  trace {trace}  size {size_name}")
    print("# environment " + " ".join(f"{k}={v}" for k, v in env.items() if k not in ("workload", "seed")))
    for name, (value, unit) in report.items():
        print(f"{name} {value:.6g} {unit}" if isinstance(value, float) else f"{name} {value} {unit}")
    print(f"ops {ledger.failed} failed of {ledger.attempted} attempted")
    for name, keys in ledger.defect_ops.items():
        if keys:
            print(f"# known defect, {len(keys)} operations: {wl.KNOWN_DEFECTS[name]}")
    for message in ledger.errors:
        print(f"# FAILED {message}")
    return result


def run_children(args, pairs) -> dict:
    """Each (workload, trace) pair in a child process of its own, so each
    has its own peak memory; their output passes through, and the result
    lines merge into one."""
    results = {}
    for workload, trace in pairs:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(trace), "--size", args.size],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0:
            raise SystemExit(f"error: {workload} trace {trace} exited with code {child.returncode}")
        results[workload, trace] = json.loads(lines[-1])
    for workload in dict.fromkeys(w for w, t in pairs if t == 1 and (w, 0) in results):
        print(tracing_overhead(workload, args.seed))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for (w, _), r in results.items() for k, v in r["metrics"].items()},
    }


def tracing_overhead(workload: str, seed: int) -> str:
    """Traced minus untraced wall time over the traced commands, from the
    records the two runs of one workload wrote."""
    untraced = json.loads((OUT / f"{workload}-seed{seed}-trace0.json").read_text())["samples"]
    traced = json.loads((OUT / f"{workload}-seed{seed}-trace1.json").read_text())["traced_passes"]
    plain = sum(statistics.fmean(untraced[key]) for key in traced[0])
    overhead = statistics.median(sum(p.values()) for p in traced) - plain
    return f"{workload}.trace.overhead_s {overhead:.6g} s (untraced {plain:.6g} s)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="1: per-layer metrics from a traced run; both: an untraced, then a traced run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    cli, wl = load_package()
    if args.workload != "all" and args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)} or all")
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    pairs = [(w, t) for w in names for t in traces]
    if len(pairs) == 1:
        final = run_workload(cli, wl, names[0], args.seed, args.seconds, traces[0], args.size)
    else:
        final = run_children(args, pairs)
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
