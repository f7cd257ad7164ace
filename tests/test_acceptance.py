"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance (exact values, runtime caps, 100% rates) is asserted as stated.
"""

import itertools
import random
import time

import pytest

from triplesys import (
    CATALOG,
    StructureCertificate,
    TripleSystem,
    check_fact,
    complete_triple_system,
    construct_complete_k_partite,
    exact_copos_ex,
    find_c5_witness,
    find_c5minus_witness,
    find_embedding,
    is_free,
    known_extremal_value,
    local_search_lower_bound,
    min_positive_codegree,
    naive_find_embedding,
    pattern_by_name,
    validate_embedding,
    analyze_half_degree,
)
from triplesys.cli import main

from conftest import random_host, random_host_above, scan_min_positive_codegree


def _report(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion {criterion}: {status} ({detail})")
    assert ok, detail


def test_criterion_1_lower_bound_constructions():
    start = time.perf_counter()
    for n in range(6, 31):
        three, _ = construct_complete_k_partite(n, 3)
        assert is_free(three, pattern_by_name("c5minus")), n
        assert min_positive_codegree(three) == n // 3, n
        four, _ = construct_complete_k_partite(n, 4)
        assert is_free(four, pattern_by_name("c5")), n
        assert min_positive_codegree(four) == known_extremal_value(n, "c5"), n
    elapsed = time.perf_counter() - start
    _report(1, elapsed < 5.0, f"n in [6,30] both families exact, {elapsed:.2f}s < 5s")


def test_criterion_2_exact_values_at_desk_scale():
    runs = [
        (6, "c5minus", 2, 60.0),
        (6, "c5", 2, 60.0),
        (6, "k4minus", 2, 60.0),
        (7, "c5", 3, 1800.0),
        (7, "c5minus", 2, 1800.0),
    ]
    details = []
    for n, pattern, expected, budget in runs:
        start = time.perf_counter()
        outcome = exact_copos_ex(n, pattern)
        elapsed = time.perf_counter() - start
        assert outcome.value == expected, (n, pattern, outcome.value)
        assert elapsed < budget, (n, pattern, elapsed)
        details.append(f"co+ex({n},{pattern})={outcome.value} in {elapsed:.1f}s")
    _report(2, True, "; ".join(details))


def test_criterion_3_witness_soundness_sweep():
    start = time.perf_counter()
    rng = random.Random(987654321)
    runs = 0
    for n in (6, 7, 8, 9):
        for _ in range(200):
            host = random_host_above(n, n // 3 + 1, rng)
            emb = find_c5minus_witness(host)
            assert emb.pattern.name == "c5minus" and validate_embedding(emb)
            host = random_host_above(n, n // 2 + 1, rng)
            emb = find_c5_witness(host)
            assert emb.pattern.name == "c5" and validate_embedding(emb)
            runs += 2
    elapsed = time.perf_counter() - start
    _report(3, elapsed < 120.0, f"{runs} extractions all valid, {elapsed:.1f}s < 120s")


def test_criterion_4_structure_certificates():
    cases = [(complete_triple_system(4), None)]
    for n in (8, 12, 16):
        host, parts = construct_complete_k_partite(n, 4)
        cases.append((host, parts))
    checked = 0
    for host, parts in cases:
        cert = analyze_half_degree(host)
        assert isinstance(cert, StructureCertificate)
        assert all(not b for b in cert.b_sets)
        assert cert.q == host.n // 4 and cert.r0 == 0
        if parts is not None:
            assert set(cert.a_sets) == {frozenset(p) for p in parts}
        for fact_id in range(1, 11):
            report = check_fact(host, cert.base, fact_id)
            assert report.holds, (host.n, fact_id, report)
        checked += 1
    _report(4, True, f"{checked} hosts certified, all ten facts hold where applicable")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(13579)
    hosts = 0
    for _ in range(500):
        n = rng.randint(3, 7)
        host = random_host(n, rng, density=rng.uniform(0.15, 0.95))
        assert min_positive_codegree(host) == scan_min_positive_codegree(host)
        for pattern in CATALOG.values():
            fast = find_embedding(host, pattern)
            slow = naive_find_embedding(host, pattern)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast.map == slow.map
        hosts += 1
    _report(5, hosts == 500, f"{hosts}/500 hosts agree on all catalog patterns")


def test_criterion_6_falsification_guard():
    violations = 0
    runs = 0
    for n in range(8, 17):
        for pattern in sorted(CATALOG):
            bounded = pattern in ("c5", "c5minus", "k4minus")
            for seed in range(10):
                host = local_search_lower_bound(n, pattern, budget=30, seed=seed)
                assert is_free(host, pattern_by_name(pattern))
                if bounded:
                    delta = min_positive_codegree(host)
                    if delta is not None and delta > known_extremal_value(n, pattern):
                        violations += 1
                runs += 1
    _report(6, violations == 0, f"{runs} runs, {violations} bound violations")


def test_criterion_7_cli_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    from triplesys import write_hypergraph

    host_path = tmp_path / "k6.txt"
    write_hypergraph(str(host_path), complete_triple_system(6))
    boundary_path = tmp_path / "h8.txt"
    write_hypergraph(str(boundary_path), construct_complete_k_partite(8, 4)[0])
    commands = [
        ("construct", "--n", "12", "--k", "4", "-o", "c.txt"),
        ("stats", str(host_path)),
        ("free", str(host_path), "--pattern", "c5minus"),
        ("witness", str(host_path), "--pattern", "c5"),
        ("witness", str(host_path), "--pattern", "c5minus"),
        ("analyze", str(boundary_path)),
        ("exact", "--n", "6", "--pattern", "c5", "--extremal-out", "e.txt"),
        ("localsearch", "--n", "12", "--pattern", "c5", "--budget", "40",
         "--seed", "5", "-o", "l.txt"),
    ]
    for argv in commands:
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        files1 = {p.name: p.read_bytes() for p in tmp_path.glob("*.txt")}
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        files2 = {p.name: p.read_bytes() for p in tmp_path.glob("*.txt")}
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv
        assert files1 == files2, argv
    _report(7, True, f"{len(commands)} commands byte-identical across repeated runs")
