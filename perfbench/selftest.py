"""Quick self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks, in under a minute:

1. every workload's last line, traced and untraced, has exactly the keys
   and the metric names and units that BENCHMARK.json declares, and its
   only failed operations are the known defect;
2. every output check accepts the program's real output and rejects each
   single-field change to it;
3. a traced run of each operation prints the same bytes as an untraced one;
4. a repeated operation that prints different bytes is flagged, and
   counts once in ``attempted`` and ``failed``;
5. the speed probe samples during a command, takes its own time out of the
   command's, prints nothing and leaves no timer running;
6. the benchmark exits non-zero, printing no result, where the program's
   sources are missing.

Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import signal
import subprocess
import sys

import run
from speed import PROBE_INTERVAL_S, SpeedProbe
from tracer import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
FAILURES: list[str] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILURES.append(name)


def result_line(args, cwd) -> tuple[int, str]:
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout


def check_schema() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            code, out = result_line(["--workload", workload, "--seed", "1", "--seconds", "1",
                                     "--trace", str(trace), "--size", "tiny"], run.ROOT)
            name = f"schema {workload} trace {trace}"
            if code != 0:
                report(name, False, f"exit code {code}")
                continue
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            units = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            defects = sum(int(ln.split()[1]) for ln in lines if ln.startswith("known_defect."))
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(result)}")
            if got != units:
                problems.append(f"metrics differ: {sorted(set(got) ^ set(units))}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append("a metric value is not a number")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"correct={result['correct']} attempted={result['attempted']}")
            if result["failed"] != defects:
                problems.append(f"{result['failed']} failed but {defects} known-defect failures")
            report(name, not problems, "; ".join(problems))


def mutations(value, path=()):
    """Every single-leaf change to a JSON value: ints +1, booleans flipped."""
    if isinstance(value, bool):
        yield path, not value
    elif isinstance(value, int):
        yield path, value + 1
    elif isinstance(value, dict):
        for key in sorted(value):
            yield from mutations(value[key], path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from mutations(item, path + (i,))


def mutated(doc, path, new):
    doc = copy.deepcopy(doc)
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = new
    return doc


#: Top-level fields a check cannot reject from the output alone; a change
#: to them shows as a changed repeat instead.  The node count has no
#: reference (--jobs 1 and --jobs 2 are compared).  Moving a structure
#: certificate's base vertex to another vertex of the same part gives an
#: equally valid certificate.
UNCHECKED = {"nodesExplored", "base"}


def check_output_checks(cli, wl) -> None:
    workdir = str(run.OUT / "selftest-checks")
    for workload, build in wl.WORKLOADS.items():
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        inputs = build(workdir, random.Random(1), wl.SIZES["tiny"])
        wl.write_hosts(inputs)
        escaped, wrong_on_real = [], []
        for op in inputs.ops:
            if op.same_as:
                continue
            code, stdout, failure, _ = run.run_command(cli, op.argv)
            real = [p for p in op.check(stdout) if p[0] not in wl.KNOWN_DEFECTS]
            if code != 0 or real:
                wrong_on_real.append(f"{op.key}: {failure or code} {real}")
                continue
            variants = []
            if stdout.startswith("{"):
                doc = json.loads(stdout)
                variants = [(p, json.dumps(mutated(doc, p, v))) for p, v in mutations(doc)
                            if p[0] not in UNCHECKED]
            else:
                lines = stdout.splitlines()
                for i, line in enumerate(lines):
                    key, val = line.split(" ", 1)
                    if val.isdigit():
                        changed = lines[:i] + [f"{key} {int(val) + 1}"] + lines[i + 1:]
                        variants.append(((key,), "\n".join(changed) + "\n"))
            for path, text in variants:
                try:
                    errors = [p for p in op.check(text) if p[0] not in wl.KNOWN_DEFECTS]
                except Exception:
                    errors = ["raised"]
                if not errors:
                    escaped.append(f"{op.key} {path}")
        report(f"checks accept real output ({workload})", not wrong_on_real, "; ".join(wrong_on_real[:3]))
        report(f"checks reject changed output ({workload})", not escaped, "; ".join(escaped[:5]))
    shutil.rmtree(workdir, ignore_errors=True)


def check_traced_bytes(cli, wl) -> None:
    workdir = str(run.OUT / "selftest-trace")
    for workload, build in wl.WORKLOADS.items():
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        inputs = build(workdir, random.Random(2), wl.SIZES["tiny"])
        wl.write_hosts(inputs)
        ops = [op for op in inputs.ops if op.traced]

        def outputs(tracer=None):
            seen = []
            for op in ops:
                if tracer is not None:
                    tracer.active = True
                _, stdout, _, _ = run.run_command(cli, op.argv)
                if tracer is not None:
                    tracer.active = False
                files = []
                for path in op.outputs:
                    with open(path, "rb") as fh:
                        files.append(fh.read())
                seen.append((stdout, files))
            return seen

        plain = outputs()
        tracer = Tracer()
        tracer.install()
        try:
            traced = outputs(tracer)
        finally:
            tracer.uninstall()
        counts, _, _ = tracer.summarize((0, {}))
        same = plain == traced and counts["cli.main.calls"] == len(ops)
        report(f"traced output identical ({workload})", same,
               f"{counts['cli.main.calls']} spans for {len(ops)} ops")
    shutil.rmtree(workdir, ignore_errors=True)


def check_repeat_flagged(wl) -> None:
    op = wl.Op("probe", "probe", [], lambda stdout: [])
    ledger = run.Ledger(wl.KNOWN_DEFECTS)
    ledger.record(op, 0, "a\n", None)
    ledger.record(op, 0, "a\n", None)
    ledger.record(op, 0, "b\n", None)
    report("changed repeat is flagged", ledger.unexpected == 1 and ledger.failed == 1
           and ledger.attempted == 1)


def check_speed_probe(cli) -> None:
    """A ``localsearch`` long enough for several probe ticks."""
    path = str(run.OUT / "selftest-probe.txt")
    argv = ["localsearch", "--n", "24", "--pattern", "c5", "--budget", "200", "--seed", "1", "-o", path]
    plain = run.run_command(cli, argv)
    probe = SpeedProbe()
    probed = run.run_command(cli, argv, probe)
    os.remove(path)
    ticks = probed[3] / PROBE_INTERVAL_S
    ok = (probed[:3] == plain[:3] and len(probe.speeds) >= max(1, ticks // 2) and probe.spent_s > 0
          and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
          and signal.getsignal(signal.SIGALRM) == signal.SIG_DFL)
    report("speed probe samples during a command", ok,
           f"{len(probe.speeds)} samples in {probed[3]:.3f} s, {probe.spent_s:.4f} s in the probe")


def check_bare_directory() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    code, out = result_line(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare, ignore_errors=True)
    report("refuses to run without the sources", code != 0 and '"correct"' not in out,
           f"exit code {code}")


def main() -> int:
    cli, wl = run.load_package()
    run.OUT.mkdir(exist_ok=True)
    check_repeat_flagged(wl)
    check_speed_probe(cli)
    check_bare_directory()
    check_output_checks(cli, wl)
    check_traced_bytes(cli, wl)
    check_schema()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
