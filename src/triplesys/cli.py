"""Command-line driver.

Standard output carries results (plain key-value lines or JSON); standard
error carries progress and diagnostics.  Exit codes are a stable contract:
0 success, 1 I/O or parse failure, 2 violated precondition or usage error,
3 internal contradiction (a state the underlying theory rules out).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .core import (
    TripleSystem,
    _codegree_text,
    construct_complete_k_partite,
    min_codegree,
    min_positive_codegree,
)
from .errors import InternalContradiction, PreconditionViolated
from .fileio import (
    ParseError,
    dump_json,
    read_hypergraph,
    result_to_json,
    write_hypergraph,
)
from .patterns import CATALOG, find_embedding, is_free, pattern_by_name
from .search import EXACT_MAX_N, EXACT_MIN_N, LOCAL_MAX_N, LOCAL_MIN_N
from .search import exact_copos_ex, local_search_lower_bound
from .witness import analyze_half_degree, find_c5_witness, find_c5minus_witness

EXIT_OK = 0
EXIT_IO = 1
EXIT_PRECONDITION = 2
EXIT_CONTRADICTION = 3

PATTERN_CHOICES = tuple(CATALOG)


def _load(path: str) -> TripleSystem:
    try:
        return read_hypergraph(path)
    except OSError as exc:
        raise _CliFailure(EXIT_IO, f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _CliFailure(EXIT_IO, f"{path}: not an ASCII host file ({exc})") from exc
    except ParseError as exc:
        raise _CliFailure(EXIT_IO, f"{path}: {exc}") from exc


def _save(path: str, host: TripleSystem) -> None:
    try:
        write_hypergraph(path, host)
    except OSError as exc:
        raise _CliFailure(EXIT_IO, f"cannot write {path}: {exc}") from exc


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def cmd_construct(args) -> int:
    host, _ = construct_complete_k_partite(args.n, args.k)
    _save(args.output, host)
    print(f"min_positive_codegree {min_positive_codegree(host)}")  # n >= k >= 3: never None
    print(f"edges {host.edge_count}")
    return EXIT_OK


def cmd_stats(args) -> int:
    host = _load(args.input)
    table = host.codegree_table  # every figure below reads this one scan
    top = max((c for c, count in enumerate(table) if c and count), default=None)
    print(f"n {host.n}")
    print(f"edges {host.edge_count}")
    print(f"min_positive_codegree {_codegree_text(min_positive_codegree(host))}")
    print(f"support_pairs {sum(table[1:])}")
    print(f"min_codegree {min_codegree(host)}")
    print(f"max_codegree {_codegree_text(top)}")
    return EXIT_OK


def cmd_free(args) -> int:
    host = _load(args.input)
    pattern = pattern_by_name(args.pattern)
    emb = None if is_free(host, pattern) else find_embedding(host, pattern)
    payload = {
        "pattern": pattern.name,
        "free": emb is None,
        "embedding": None if emb is None else result_to_json(emb),
    }
    sys.stdout.write(dump_json(payload))
    return EXIT_OK


def cmd_witness(args) -> int:
    host = _load(args.input)
    emb = find_c5_witness(host) if args.pattern == "c5" else find_c5minus_witness(host)
    sys.stdout.write(dump_json(result_to_json(emb)))
    return EXIT_OK


def cmd_analyze(args) -> int:
    host = _load(args.input)
    n = host.n
    delta = min_positive_codegree(host)
    if delta is not None and delta >= n // 2 + 1:
        result = find_c5_witness(host)
    elif delta is not None and n % 2 == 0 and delta == n // 2:
        exercised: list[str] = []
        result = analyze_half_degree(host, on_fact=exercised.append)
        for name in dict.fromkeys(exercised):
            print(f"fact: {name}", file=sys.stderr)
    else:
        raise PreconditionViolated(
            "need min positive co-degree n/2 (n even) or above,"
            f" got {_codegree_text(delta)} at n={n}"
        )
    sys.stdout.write(dump_json(result_to_json(result)))
    return EXIT_OK


def cmd_exact(args) -> int:
    if args.jobs < 1:
        raise _CliFailure(EXIT_PRECONDITION, f"--jobs must be at least 1, got {args.jobs}")
    start = time.perf_counter()
    outcome = exact_copos_ex(
        args.n,
        args.pattern,
        jobs=args.jobs,
        on_progress=lambda line: print(line, file=sys.stderr),
    )
    sidecar = args.extremal_out or f"extremal_n{args.n}_{args.pattern}.txt"
    _save(sidecar, outcome.extremal)
    payload = {
        "kind": "search-outcome",
        "n": outcome.n,
        "pattern": outcome.pattern,
        "value": outcome.value,
        "nodesExplored": outcome.nodes_explored,
        "extremalFile": sidecar,
    }
    sys.stdout.write(dump_json(payload))
    print(f"elapsed: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return EXIT_OK


def cmd_localsearch(args) -> int:
    host = local_search_lower_bound(args.n, args.pattern, args.budget, args.seed)
    if args.output:
        _save(args.output, host)
    payload = {
        "kind": "local-search",
        "n": args.n,
        "pattern": args.pattern,
        "minPositiveCodegree": min_positive_codegree(host),
        "edges": host.edge_count,
        "outputFile": args.output,
    }
    sys.stdout.write(dump_json(payload))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing never changes it, and each command reads what it
    calls from this module's globals when it runs."""
    parser = argparse.ArgumentParser(
        prog="triplesys",
        description="Positive co-degree toolkit for 3-uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write a complete balanced k-partite host")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--k", type=int, required=True, help="number of parts (>= 3)")
    p.add_argument("--output", "-o", required=True, help="host file to write")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("stats", help="co-degree statistics of a host file")
    p.add_argument("input", help="host file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("free", help="decide containment of a catalog pattern")
    p.add_argument("input", help="host file")
    p.add_argument("--pattern", required=True, choices=PATTERN_CHOICES)
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("witness", help="extract a forbidden configuration")
    p.add_argument("input", help="host file")
    p.add_argument("--pattern", required=True, choices=("c5", "c5minus"))
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("analyze", help="boundary analysis at co-degree n/2")
    p.add_argument("input", help="host file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("exact", help="exact extremal value by exhaustive search")
    p.add_argument("--n", type=int, required=True, help=f"vertex count ({EXACT_MIN_N}..{EXACT_MAX_N})")
    p.add_argument("--pattern", required=True, choices=PATTERN_CHOICES)
    p.add_argument("--jobs", type=int, default=1, help="parallel branch workers")
    p.add_argument("--extremal-out", help="sidecar file for the extremal host")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("localsearch", help="stochastic lower-bound construction")
    p.add_argument("--n", type=int, required=True, help=f"vertex count ({LOCAL_MIN_N}..{LOCAL_MAX_N})")
    p.add_argument("--pattern", required=True, choices=PATTERN_CHOICES)
    p.add_argument("--budget", type=int, required=True, help="number of proposal steps")
    p.add_argument("--seed", type=int, required=True, help="random seed (mandatory)")
    p.add_argument("--output", "-o", help="host file to write")
    p.set_defaults(func=cmd_localsearch)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except PreconditionViolated as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalContradiction as exc:
        # the message alone: str(exc) would repeat the state listed below
        print(f"internal contradiction: {exc.args[0]}", file=sys.stderr)
        for key, value in sorted(exc.state.items()):
            print(f"  {key} = {value!r}", file=sys.stderr)
        return EXIT_CONTRADICTION


if __name__ == "__main__":
    sys.exit(main())
