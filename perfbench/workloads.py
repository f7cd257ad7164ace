"""The benchmark's workloads: inputs made from a seed, the CLI commands run
on them, and the check of every command's output.

Each workload's ``build`` makes its inputs and the references its checks
need, and returns the operations one pass runs with the host files the
set-up writes.  An operation is one in-process CLI command.  Its
check returns problems as (kind, message) pairs.  A kind named in
KNOWN_DEFECTS marks a known defect the benchmark reports and counts as a
failed operation without calling the run incorrect; every other kind is an
error.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles
from triplesys.core import TripleSystem, known_extremal_value, min_codegree
from triplesys.fileio import result_from_json, write_hypergraph

#: Patterns whose extremal value the paper gives in closed form.
CLOSED_FORMS = ("c5", "c5minus", "k4minus")

#: Seed values of the patterns without a closed form, measured once and
#: kept as a regression reference: (pattern, n) -> exact value.
MEASURED_VALUES = {("k4", 6): 2, ("k4", 7): 3, ("f32", 6): 2, ("f32", 7): 3}

#: Known defects, reported under their own count and as failed operations,
#: but not treated as an incorrect run.  ``stats`` prints the minimum
#: co-degree over support pairs as ``min_codegree``; the minimum over all
#: pairs is what ``core.min_codegree`` returns.
KNOWN_DEFECTS = {"stats_min_codegree": "stats prints min positive co-degree as min_codegree"}

#: Problem sizes: "full" is what the benchmark measures, "tiny" is the self-test.
SIZES = {
    "full": {"exact_n": (6, 7), "host_n": 64, "certify_rounds": 7, "local_n": 24, "local_budget": 300},
    "tiny": {"exact_n": (6,), "host_n": 16, "certify_rounds": 2, "local_n": 10, "local_budget": 20},
}

Problem = tuple[str, str]


@dataclass
class Op:
    key: str
    group: str
    argv: list[str]
    check: Callable[[str], list[Problem]]
    traced: bool = True  # False for work done in child processes
    steps: int = 0  # local-search steps the command performs
    outputs: tuple[str, ...] = ()  # files whose bytes join the determinism check
    same_as: str | None = None  # another op whose output this must equal byte for byte


@dataclass
class Inputs:
    """What ``build`` makes from the seed: the operations of one pass, the
    host files the set-up writes through the package, and warm-up commands.
    Building computes every reference a check needs, so the timed set-up
    runs program code only."""

    ops: list[Op]
    hosts: list[tuple[str, int, list]] = field(default_factory=list)  # (path, n, edges)
    warmup: list[list[str]] = field(default_factory=list)


def write_hosts(inputs: Inputs) -> None:
    for path, n, edges in inputs.hosts:
        write_hypergraph(path, TripleSystem(n, edges))


def _json(stdout: str) -> dict:
    return json.loads(stdout)


def _errors(messages) -> list[Problem]:
    return [("error", m) for m in messages]


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _load_host(path: str):
    """(host, edge set) read back for a check, so no host stays in memory
    between checks."""
    n, edges = oracles.parse_host(_read(path))
    return TripleSystem(n, edges), set(edges)


def _perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# exact: exact values at n = 6 and 7, with --jobs 1, then with --jobs 2
# ---------------------------------------------------------------------------


def build_exact(workdir: str, rng: random.Random, size: dict) -> Inputs:
    """The (n, pattern) grid is fixed; the seed only orders the patterns."""
    patterns = list(oracles.PATTERN_NAMES)
    rng.shuffle(patterns)
    ops = []
    for jobs in (1, 2):
        for n in size["exact_n"]:
            for pattern in patterns:
                sidecar = os.path.join(workdir, f"extremal_n{n}_{pattern}.txt")
                key = f"exact n={n} {pattern}"
                ops.append(
                    Op(
                        key=f"{key} jobs={jobs}",
                        group=f"exact_jobs{jobs}",
                        argv=["exact", "--n", str(n), "--pattern", pattern,
                              "--jobs", str(jobs), "--extremal-out", sidecar],
                        check=_exact_check(n, pattern, sidecar),
                        traced=jobs == 1,
                        outputs=(sidecar,),
                        same_as=None if jobs == 1 else f"{key} jobs=1",
                    )
                )
    warm = os.path.join(workdir, "warmup.txt")
    warmup = [["exact", "--n", "5", "--pattern", p, "--jobs", "2", "--extremal-out", warm]
              for p in ("k4", "c5")]
    return Inputs(ops, warmup=warmup)


def _exact_check(n: int, pattern: str, sidecar: str):
    if pattern in CLOSED_FORMS:
        expected = known_extremal_value(n, pattern)
    else:
        expected = MEASURED_VALUES[(pattern, n)]

    def check(stdout: str) -> list[Problem]:
        out = _json(stdout)
        problems = []
        want = {"kind": "search-outcome", "n": n, "pattern": pattern,
                "value": expected, "extremalFile": sidecar}
        problems += [f"{k} is {out.get(k)!r}, expected {v!r}" for k, v in want.items() if out.get(k) != v]
        if not isinstance(out.get("nodesExplored"), int) or out["nodesExplored"] <= 0:
            problems.append(f"nodesExplored is {out.get('nodesExplored')!r}")
        hn, edges = oracles.parse_host(_read(sidecar))
        stats = oracles.codegree_stats(hn, edges)
        if hn != n or stats["min_positive_codegree"] != expected:
            problems.append(f"extremal host has n={hn}, min positive co-degree "
                            f"{stats['min_positive_codegree']}, expected {expected}")
        if oracles.contains(hn, edges, pattern):
            problems.append(f"extremal host contains {pattern}")
        return _errors(problems)

    return check


# ---------------------------------------------------------------------------
# hosts-64: containment decisions, then certify commands, on 64-vertex hosts
# ---------------------------------------------------------------------------


def build_hosts(workdir: str, rng: random.Random, size: dict) -> Inputs:
    """``free`` decisions, then ``certify_rounds`` rounds of the certify
    commands.  The rounds make the certify commands a share of a pass
    comparable to the decisions (about a third at n = 64), so a change to
    either part moves ``pass_ref``, and they give the latency percentiles
    more samples."""
    hosts: list[tuple[str, int, list]] = []
    ops = _free_ops(workdir, rng, size["host_n"], hosts)
    certify = _certify_ops(workdir, rng, size["host_n"], hosts)
    for r in range(size["certify_rounds"]):
        for op in certify:
            ops.append(Op(f"{op.key} #{r}", op.group, op.argv, op.check,
                          same_as=None if r == 0 else f"{op.key} #0"))
    small = os.path.join(workdir, "warmup.txt")
    hosts.append((small, 8, oracles.k_partite_edges([2, 2, 2, 2], list(range(8)))))
    warmup = [["free", small, "--pattern", "c5"], ["stats", small], ["analyze", small]]
    return Inputs(ops, hosts, warmup)


def _free_ops(workdir: str, rng: random.Random, n: int, hosts: list) -> list[Op]:
    """Three host kinds: a relabeled balanced 3-partite host (free of all
    five), a relabeled balanced 4-partite host (free of c5 and f32), and one
    3-partite host per pattern with a copy of it planted on seeded vertices."""
    ops = []
    for k in (3, 4):
        sizes = oracles.part_sizes(n, k)
        path = os.path.join(workdir, f"partite{k}.txt")
        hosts.append((path, n, oracles.k_partite_edges(sizes, _perm(rng, n))))
        for pattern in oracles.PATTERN_NAMES:
            expected_free = not oracles.partite_contains(sizes, pattern)
            ops.append(Op(f"free {k}-partite {pattern}", "free",
                          ["free", path, "--pattern", pattern],
                          _free_check(path, pattern, expected_free)))
    sizes = oracles.part_sizes(n, 3)
    for pattern in oracles.PATTERN_NAMES:
        edges = set(oracles.k_partite_edges(sizes, _perm(rng, n)))
        p, pedges = oracles.PATTERNS[pattern]
        spot = rng.sample(range(n), p)
        edges |= {tuple(sorted((spot[a], spot[b], spot[c]))) for a, b, c in pedges}
        path = os.path.join(workdir, f"planted_{pattern}.txt")
        hosts.append((path, n, sorted(edges)))
        ops.append(Op(f"free planted {pattern}", "free",
                      ["free", path, "--pattern", pattern],
                      _free_check(path, pattern, False)))
    return ops


def _free_check(path: str, pattern: str, expected_free: bool):
    def check(stdout: str) -> list[Problem]:
        out = _json(stdout)
        if out.get("pattern") != pattern or out.get("free") is not expected_free:
            return _errors([f"free={out.get('free')!r} for {out.get('pattern')!r}, "
                            f"expected free={expected_free} for {pattern}"])
        if expected_free:
            return _errors([] if out.get("embedding") is None else ["free host with an embedding"])
        host, edge_set = _load_host(path)
        try:
            result_from_json(out["embedding"], host)
        except (ValueError, KeyError, TypeError) as exc:
            return _errors([f"embedding rejected on reload: {exc}"])
        return _errors(oracles.embedding_problems(edge_set, out["embedding"], pattern))

    return check


def _certify_ops(workdir: str, rng: random.Random, n: int, hosts: list) -> list[Op]:
    """stats, witness and analyze on relabeled complete balanced k-partite
    hosts for k = 4, 5, 6.  At k = 4 the co-degree is exactly n/2, so
    ``analyze`` returns a structure certificate and ``witness --pattern c5``
    is out of its range."""
    ops = []
    for k in (4, 5, 6):
        sizes = oracles.part_sizes(n, k)
        edges = oracles.k_partite_edges(sizes, _perm(rng, n))
        path = os.path.join(workdir, f"certify{k}.txt")
        hosts.append((path, n, edges))
        reference = oracles.codegree_stats(n, edges)
        if reference["min_codegree"] != min_codegree(TripleSystem(n, edges)):
            raise RuntimeError("co-degree references disagree")
        ops.append(Op(f"stats k={k}", "certify", ["stats", path], _stats_check(reference)))
        witness_patterns = ("c5minus", "c5") if reference["min_positive_codegree"] > n // 2 else ("c5minus",)
        for pattern in witness_patterns:
            ops.append(Op(f"witness k={k} {pattern}", "certify",
                          ["witness", path, "--pattern", pattern],
                          _witness_check(path, pattern)))
        structure = reference["min_positive_codegree"] == n // 2
        ops.append(Op(f"analyze k={k}", "certify", ["analyze", path],
                      _analyze_check(path, structure)))
    return ops


def _stats_check(reference: dict):
    def check(stdout: str) -> list[Problem]:
        fields = dict(line.split(" ", 1) for line in stdout.splitlines())
        problems: list[Problem] = []
        for name, value in reference.items():
            printed = fields.get(name)
            if printed == str(value):
                continue
            message = f"{name} printed {printed!r}, expected {value}"
            defect = name == "min_codegree" and printed == str(reference["min_positive_codegree"])
            problems.append(("stats_min_codegree" if defect else "error", message))
        if set(fields) != set(reference):
            problems.append(("error", f"fields {sorted(fields)}"))
        return problems

    return check


def _witness_check(path: str, pattern: str):
    def check(stdout: str) -> list[Problem]:
        out = _json(stdout)
        host, edge_set = _load_host(path)
        try:
            result_from_json(out, host)
        except (ValueError, KeyError, TypeError) as exc:
            return _errors([f"witness rejected on reload: {exc}"])
        return _errors(oracles.embedding_problems(edge_set, out, pattern))

    return check


def _analyze_check(path: str, structure: bool):
    def check(stdout: str) -> list[Problem]:
        out = _json(stdout)
        kind = "structure" if structure else "embedding"
        if out.get("kind") != kind:
            return _errors([f"analyze gave {out.get('kind')!r}, expected {kind}"])
        host, edge_set = _load_host(path)
        try:
            result_from_json(out, host)
        except (ValueError, KeyError, TypeError) as exc:
            return _errors([f"certificate rejected on reload: {exc}"])
        if structure:
            return _errors([] if host.n % 4 == 0 else ["structure certificate with 4 not dividing n"])
        return _errors(oracles.embedding_problems(edge_set, out, "c5"))

    return check


# ---------------------------------------------------------------------------
# localsearch-24: hill climbing at n = 24 for every pattern
# ---------------------------------------------------------------------------


def build_local(workdir: str, rng: random.Random, size: dict) -> Inputs:
    """One command per pattern, its ``--seed`` drawn from ``rng``."""
    n, budget = size["local_n"], size["local_budget"]
    ops = []
    for pattern in oracles.PATTERN_NAMES:
        seed = rng.randrange(2**31)
        path = os.path.join(workdir, f"local_{pattern}.txt")
        ops.append(Op(f"localsearch {pattern}", "localsearch",
                      ["localsearch", "--n", str(n), "--pattern", pattern, "--budget", str(budget),
                       "--seed", str(seed), "-o", path],
                      _local_check(n, pattern, path), steps=budget, outputs=(path,)))
    warm = os.path.join(workdir, "warmup.txt")
    warmup = [["localsearch", "--n", "8", "--pattern", "c5", "--budget", "5",
               "--seed", "0", "-o", warm]]
    return Inputs(ops, warmup=warmup)


def _local_check(n: int, pattern: str, path: str):
    def check(stdout: str) -> list[Problem]:
        out = _json(stdout)
        hn, edges = oracles.parse_host(_read(path))
        stats = oracles.codegree_stats(hn, edges)
        want = {"kind": "local-search", "n": n, "pattern": pattern, "outputFile": path,
                "edges": len(edges), "minPositiveCodegree": stats["min_positive_codegree"]}
        problems = [f"{k} is {out.get(k)!r}, expected {v!r}" for k, v in want.items() if out.get(k) != v]
        if hn != n:
            problems.append(f"output host has n={hn}")
        if oracles.contains(hn, edges, pattern):
            problems.append(f"output host contains {pattern}")
        if pattern in CLOSED_FORMS:
            bound = known_extremal_value(n, pattern)
            if (stats["min_positive_codegree"] or 0) > bound:
                problems.append(f"min positive co-degree {stats['min_positive_codegree']} above {bound}")
        return _errors(problems)

    return check


#: Workload name, as given to --workload -> builder.
WORKLOADS = {
    "exact": build_exact,
    "hosts-64": build_hosts,
    "localsearch-24": build_local,
}
