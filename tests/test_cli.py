import json

import pytest

from triplesys import (
    InternalContradiction,
    construct_complete_k_partite,
    serialize_hypergraph,
    write_hypergraph,
)
from triplesys import cli
from triplesys.cli import main
from triplesys.fileio import read_hypergraph, result_from_json

from conftest import FANO_LINES, complete_triple_system, steiner_join


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_writes_host_and_reports(self, tmp_path, capsys):
        out = tmp_path / "h9.txt"
        code, stdout, _ = run(capsys, "construct", "--n", "9", "--k", "3", "-o", str(out))
        assert code == 0
        assert "min_positive_codegree 3" in stdout
        assert "edges 27" in stdout
        assert read_hypergraph(str(out)).edge_count == 27

    def test_single_k4(self, tmp_path, capsys):
        out = tmp_path / "h4.txt"
        code, stdout, _ = run(capsys, "construct", "--n", "4", "--k", "4", "-o", str(out))
        assert code == 0 and "edges 4" in stdout

    def test_bad_range_is_a_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "construct", "--n", "2", "--k", "3", "-o", str(tmp_path / "x")
        )
        assert code == 2 and "precondition" in err

    def test_unwritable_path(self, capsys):
        code, _, err = run(capsys, "construct", "--n", "6", "--k", "3", "-o", "/nonexistent/h")
        assert code == 1 and "cannot write" in err

    def test_more_than_64_vertices_is_a_usage_error(self, tmp_path, capsys):
        code, stdout, err = run(
            capsys, "construct", "--n", "65", "--k", "3", "-o", str(tmp_path / "h65")
        )
        assert code == 2 and stdout == ""
        assert err == "precondition violated: need n <= 64, got n=65\n"
        assert list(tmp_path.iterdir()) == []


class TestStats:
    def test_four_partite_seven(self, tmp_path, capsys):
        path = tmp_path / "h7.txt"
        write_hypergraph(str(path), construct_complete_k_partite(7, 4)[0])
        code, stdout, _ = run(capsys, "stats", str(path))
        assert code == 0
        assert "min_positive_codegree 3" in stdout

    def test_min_codegree_is_over_all_pairs(self, tmp_path, capsys):
        # Pairs inside a part have co-degree 0, so the minimum over all
        # pairs is 0 even though every support pair has co-degree 3.
        path = tmp_path / "h7.txt"
        write_hypergraph(str(path), construct_complete_k_partite(7, 4)[0])
        code, stdout, _ = run(capsys, "stats", str(path))
        assert code == 0
        assert "min_codegree 0" in stdout.splitlines()
        path.write_text("n 4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n")
        code, stdout, _ = run(capsys, "stats", str(path))
        assert code == 0
        assert "min_codegree 2" in stdout.splitlines()

    def test_edgeless(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("n 6\n")
        code, stdout, _ = run(capsys, "stats", str(path))
        assert code == 0
        assert "min_positive_codegree undefined" in stdout

    def test_duplicate_edge_line_fails_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "dup.txt"
        path.write_text("n 4\n0 1 2\n0 1 2\n")
        code, stdout, err = run(capsys, "stats", str(path))
        assert (code, stdout) == (1, "")
        assert err == f"error: {path}: line 3: duplicate edge '0 1 2'\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "line 1: missing header 'n <count>'"),
            ("0 1 2\n", "line 1: expected header 'n <count>', got '0 1 2'"),
            ("n 70\n", "line 1: vertex count 70 exceeds the cap of 64"),
            ("n 4\n0 1 x\n", "line 2: expected three space-separated integers, got '0 1 x'"),
            ("n 4\n2 1 0\n", "line 2: vertices must be distinct and ascending: '2 1 0'"),
            ("n 4\n0 1 9\n", "line 2: vertex 9 out of range 0..3"),
        ],
    )
    def test_malformed_file_names_its_line(self, tmp_path, capsys, text, message):
        # every other kind of parse error; the duplicate edge is the test above
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, stdout, err = run(capsys, "stats", str(path))
        assert (code, stdout) == (1, "")
        assert err == f"error: {path}: {message}\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "stats", "/nonexistent/h.txt")
        assert code == 1 and "cannot read" in err

    def test_non_ascii_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes("n 4\n0 1 2 \n".encode("utf-8"))
        code, _, err = run(capsys, "stats", str(path))
        assert code == 1


class TestFree:
    def test_free_host(self, tmp_path, capsys):
        path = tmp_path / "h9.txt"
        write_hypergraph(str(path), construct_complete_k_partite(9, 3)[0])
        code, stdout, _ = run(capsys, "free", str(path), "--pattern", "c5minus")
        assert code == 0
        payload = json.loads(stdout)
        assert payload == {"pattern": "c5minus", "free": True, "embedding": None}

    def test_containing_host(self, tmp_path, capsys):
        path = tmp_path / "h12.txt"
        write_hypergraph(str(path), construct_complete_k_partite(12, 4)[0])
        code, stdout, _ = run(capsys, "free", str(path), "--pattern", "k4")
        payload = json.loads(stdout)
        assert code == 0 and payload["free"] is False
        assert len(payload["embedding"]["map"]) == 4


@pytest.fixture
def complete6(tmp_path):
    path = tmp_path / "k6.txt"
    write_hypergraph(str(path), complete_triple_system(6))
    return str(path)


class TestWitness:
    def test_emits_validating_certificate(self, complete6, tmp_path, capsys):
        code, stdout, _ = run(capsys, "witness", complete6, "--pattern", "c5")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["kind"] == "embedding" and len(payload["edges"]) == 5
        host = read_hypergraph(complete6)
        result_from_json(payload, host)  # re-validates

    def test_below_threshold_exits_two(self, tmp_path, capsys):
        path = tmp_path / "h8.txt"
        write_hypergraph(str(path), construct_complete_k_partite(8, 4)[0])
        code, stdout, err = run(capsys, "witness", str(path), "--pattern", "c5")
        assert code == 2 and stdout == "" and "precondition" in err

    def test_c5minus_on_extremal_host_exits_two(self, tmp_path, capsys):
        path = tmp_path / "h9.txt"
        write_hypergraph(str(path), construct_complete_k_partite(9, 3)[0])
        code, _, err = run(capsys, "witness", str(path), "--pattern", "c5minus")
        assert code == 2

    @pytest.mark.parametrize("pattern", ["c5", "c5minus"])
    def test_calls_the_extractor_of_its_pattern(self, complete6, capsys, monkeypatch, pattern):
        # the command reads the extractor off the cli module when it runs, so
        # a wrapper patched there, as a tracer patches it, sees the call
        calls = []
        for name in ("find_c5_witness", "find_c5minus_witness"):
            def recording(host, name=name, extract=getattr(cli, name)):
                calls.append(name)
                return extract(host)

            monkeypatch.setattr(cli, name, recording)
        code, _, _ = run(capsys, "witness", complete6, "--pattern", pattern)
        assert code == 0 and calls == [f"find_{pattern}_witness"]

    def test_pattern_without_extractor_is_a_usage_error(self, complete6, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["witness", complete6, "--pattern", "k4"])
        assert exc.value.code == 2
        assert "invalid choice: 'k4'" in capsys.readouterr().err


class TestAnalyze:
    def test_structure_certificate(self, tmp_path, capsys):
        path = tmp_path / "h8.txt"
        write_hypergraph(str(path), construct_complete_k_partite(8, 4)[0])
        code, stdout, err = run(capsys, "analyze", str(path))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["kind"] == "structure"
        assert payload["q"] == 2 and payload["r0"] == 0
        assert all(not b for b in payload["B"])
        assert "fact:" in err  # exercised facts go to stderr

    def test_classes_certificate_of_the_fano_join(self, tmp_path, capsys):
        # the Fano plane joined to five independent vertices: a nonempty apex
        # B-cell, so the class and pairing steps run on four secondary bases
        path = tmp_path / "j12.txt"
        write_hypergraph(str(path), steiner_join(FANO_LINES, 12))
        code, stdout, err = run(capsys, "analyze", str(path))
        assert code == 0
        payload = json.loads(stdout)
        assert (payload["kind"], payload["q"], payload["r0"]) == ("structure", 1, 4)
        assert err.splitlines() == [
            "fact: pair-codegrees-half",
            "fact: pairing-complement",
            "fact: balanced-difference",
            "fact: cross-pair-neighborhoods",
            "fact: apex-neighborhood-exclusion",
            "fact: size-arithmetic",
            "fact: equivalence-classes",
            "fact: inherited-nonempty",
            "fact: empty-pair-characterization",
        ]

    def test_above_half_returns_embedding(self, complete6, capsys):
        code, stdout, _ = run(capsys, "analyze", complete6)
        payload = json.loads(stdout)
        assert code == 0 and payload["kind"] == "embedding" and payload["pattern"] == "c5"

    def test_below_half_exits_two(self, tmp_path, capsys):
        path = tmp_path / "h6.txt"
        write_hypergraph(str(path), construct_complete_k_partite(6, 3)[0])
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2

    def test_edgeless_host_says_undefined(self, tmp_path, capsys):
        path = tmp_path / "e7.txt"
        path.write_text("n 7\n")
        code, stdout, err = run(capsys, "analyze", str(path))
        assert code == 2 and stdout == ""
        assert err == (
            "precondition violated: need min positive co-degree n/2 (n even) or above,"
            " got undefined at n=7\n"
        )


class TestExact:
    def test_six_c5minus(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(capsys, "exact", "--n", "6", "--pattern", "c5minus")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["value"] == 2
        assert "elapsed" in err  # timing goes to stderr, stdout stays reproducible
        sidecar = read_hypergraph(payload["extremalFile"])
        assert sidecar.n == 6

    def test_nine_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "exact", "--n", "9", "--pattern", "c5")
        assert code == 2

    def test_jobs_flag_accepted(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, stdout, _ = run(capsys, "exact", "--n", "4", "--pattern", "c5", "--jobs", "2")
        assert code == 0 and json.loads(stdout)["value"] == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, monkeypatch, jobs):
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(capsys, "exact", "--n", "4", "--pattern", "c5", "--jobs", jobs)
        assert code == 2 and stdout == "" and "--jobs" in err
        assert list(tmp_path.iterdir()) == []

    def test_contradiction_exits_three_and_lists_the_state_once(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)

        def contradict(*args, **kwargs):
            raise InternalContradiction(
                "decision search returned an invalid witness",
                {"n": 6, "pattern": "c5", "k": 3},
            )

        monkeypatch.setattr(cli, "exact_copos_ex", contradict)
        code, stdout, err = run(capsys, "exact", "--n", "6", "--pattern", "c5")
        assert code == 3 and stdout == ""
        assert err == (
            "internal contradiction: decision search returned an invalid witness\n"
            "  k = 3\n"
            "  n = 6\n"
            "  pattern = 'c5'\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_sidecar(self, capsys):
        code, stdout, err = run(
            capsys, "exact", "--n", "4", "--pattern", "c5", "--extremal-out", "/nonexistent/h"
        )
        assert code == 1 and stdout == "" and "cannot write" in err


class TestLocalSearch:
    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["localsearch", "--n", "9", "--pattern", "c5", "--budget", "5"])
        assert exc.value.code == 2

    def test_writes_host(self, tmp_path, capsys):
        out = tmp_path / "ls.txt"
        code, stdout, _ = run(
            capsys,
            "localsearch", "--n", "9", "--pattern", "c5minus",
            "--budget", "0", "--seed", "7", "-o", str(out),
        )
        assert code == 0
        assert json.loads(stdout)["minPositiveCodegree"] == 3
        assert read_hypergraph(str(out)) == construct_complete_k_partite(9, 3)[0]

    def test_unwritable_path(self, capsys):
        code, stdout, err = run(
            capsys,
            "localsearch", "--n", "9", "--pattern", "c5minus",
            "--budget", "0", "--seed", "7", "-o", "/nonexistent/h",
        )
        assert code == 1 and stdout == "" and "cannot write" in err


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        host_path = tmp_path / "k6.txt"
        write_hypergraph(str(host_path), complete_triple_system(6))
        commands = [
            ("construct", "--n", "10", "--k", "4", "-o", "c.txt"),
            ("stats", str(host_path)),
            ("free", str(host_path), "--pattern", "c5"),
            ("witness", str(host_path), "--pattern", "c5minus"),
            ("analyze", str(host_path)),
            ("exact", "--n", "5", "--pattern", "c5", "--extremal-out", "e.txt"),
            ("localsearch", "--n", "10", "--pattern", "c5", "--budget", "30",
             "--seed", "11", "-o", "l.txt"),
        ]
        for argv in commands:
            first_code, first_out, _ = run(capsys, *argv)
            first_files = {
                p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix == ".txt"
            }
            second_code, second_out, _ = run(capsys, *argv)
            second_files = {
                p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix == ".txt"
            }
            assert first_code == second_code == 0, argv
            assert first_out == second_out, argv
            assert first_files == second_files, argv


class TestParser:
    def test_one_parser_serves_every_call_unchanged(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.build_parser() is cli.build_parser()
        usage = ["exact", "--n", "5", "--pattern", "c6"]
        with pytest.raises(SystemExit) as exc:
            main(usage)
        assert exc.value.code == 2
        first_error = capsys.readouterr().err
        assert "invalid choice: 'c6'" in first_error

        jobs = []
        exact = cli.exact_copos_ex

        def recording(*args, **kwargs):
            jobs.append(kwargs["jobs"])
            return exact(*args, **kwargs)

        monkeypatch.setattr(cli, "exact_copos_ex", recording)
        argv = ("exact", "--n", "5", "--pattern", "c5minus", "--jobs", "2", "--extremal-out", "e.txt")
        first = run(capsys, *argv)[:2]
        second = run(capsys, *argv)[:2]
        assert first == second and first[0] == 0
        # no option of an earlier call carries over to a later one
        code, stdout, _ = run(capsys, "exact", "--n", "5", "--pattern", "c5minus")
        assert code == 0 and json.loads(stdout)["extremalFile"] == "extremal_n5_c5minus.txt"
        assert jobs == [2, 2, 1]
        with pytest.raises(SystemExit) as exc:
            main(usage)
        assert exc.value.code == 2
        assert capsys.readouterr().err == first_error
