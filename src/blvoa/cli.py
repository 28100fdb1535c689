"""Command-line driver: classification, singular-vector checks, polynomial
extraction, admissibility certificates and the identity suite.

Exit codes: 0 success, 1 usage error, 2 resource guard exhausted,
3 internal inconsistency (an equality the engine is supposed to reproduce
failed, e.g. oracle span vs explicit span at n = 1).
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .affine import AffineWeight, check_singular, is_admissible, level_of
from .classify import (
    certify,
    classify_category_o,
    classify_finite_dim,
    merge_results,
)
from .liealg import LieAlgebra
from .rootsys import build_root_system, weight_from_fundamental
from .uea import (
    DEFAULT_TERM_GUARD,
    UEA,
    TermGuardExceeded,
    identity_suite,
    spans_equal,
)
from .zero_weight import (
    DEFAULT_DIM_CEILING,
    OracleCeilingExceeded,
    explicit_polys,
    p0_basis,
    verify_membership,
)


class UsageError(Exception):
    pass


class InconsistencyError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # treat "-1/2" and "-3/2,1" as values, not flags
        self._negative_number_matcher = re.compile(
            r"^-\d+(/\d+)?(,-?\d+(/\d+)?)*$"
        )

    def error(self, message: str):   # argparse defaults to exit code 2
        raise UsageError(message)


def frac(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}") from exc


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_weight(text: str, rank: int):
    parts = [frac(p) for p in text.split(",")]
    if len(parts) != rank:
        raise UsageError(f"weight needs {rank} fundamental coordinates")
    return weight_from_fundamental(parts)


def build_parser(command: Optional[str] = None) -> _Parser:
    """The parser with only the subparser of ``command`` when it names one
    (a call parses one command, so it builds only that one), else with all
    six, which every help and usage message that lists them needs."""
    p = _Parser(prog="blvoa", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        """The subparser of ``name``, or None when this parser leaves it out."""
        if command in COMMANDS and command != name:
            return None
        return sub.add_parser(name, help=help_text)

    def common(sp, n_flag=True, guard=False):
        sp.add_argument("--rank", type=int, required=True)
        if n_flag:
            sp.add_argument("--n", type=int, default=1)
        sp.add_argument("--json", action="store_true")
        if guard:
            sp.add_argument("--guard", type=int, default=None)

    if sp := add("classify", "enumerate classified highest weights"):
        common(sp)
        sp.add_argument("--category-o", action="store_true")
        sp.add_argument("--finite-dim", action="store_true")

    if sp := add("check-singular", "annihilation test for the null vector"):
        common(sp, guard=True)
        sp.add_argument("--level", type=str, default=None)

    if sp := add("p0", "zero-weight polynomial span"):
        common(sp, guard=True)
        sp.add_argument("--oracle-ceiling", type=int, default=DEFAULT_DIM_CEILING)
        sp.add_argument("--compare", action="store_true")

    if sp := add("admissible", "certify one affine weight"):
        common(sp, n_flag=False)
        sp.add_argument("--mmax", type=int, default=None)
        sp.add_argument("--level", type=str, required=True)
        sp.add_argument("--weight", type=str, required=True)

    if sp := add("dim", "Weyl dimension of a dominant weight"):
        common(sp, n_flag=False)
        sp.add_argument("--weight", type=str, required=True)

    if sp := add("identities", "run the rewriting-identity suite"):
        common(sp, guard=True)
    return p


def at_least_one(value: int, name: str) -> int:
    if value < 1:
        raise UsageError(f"{name} must be at least 1")
    return value


def default_guard(args) -> int:
    if args.guard is not None:
        return at_least_one(args.guard, "--guard")
    return DEFAULT_TERM_GUARD


def check_args(args) -> None:
    """Rank at least 2 and, for the commands that take --n, n at least 1."""
    if args.rank < 2:
        raise UsageError("rank must be at least 2")
    if getattr(args, "n", 1) < 1:
        raise UsageError("n must be at least 1")


def emit(args, level: Fraction, status: str, lines: Iterable[str], entries=()) -> None:
    """Print the table lines, or the JSON schema shared by every command.

    entries are (weight, tags, admissible) triples; admissible and dim take
    no --n and report n = 0.
    """
    if not args.json:
        for line in lines:
            print(line)
        return
    payload = {
        "command": args.command,
        "rank": args.rank,
        "n": getattr(args, "n", 0),
        "level": frac_str(level),
        "entries": [
            {
                "weight_fundamental": [frac_str(c) for c in mu.fundamental()],
                "tags": list(tags),
                "admissible": bool(admissible),
            }
            for mu, tags, admissible in entries
        ],
        "status": status,
    }
    print(json.dumps(payload, indent=2))


def fmt_weight(w) -> str:
    return ",".join(str(c) for c in w.fundamental())


def cmd_classify(args) -> int:
    rs = build_root_system(args.rank)
    want_o = args.category_o or not args.finite_dim
    want_fd = args.finite_dim or not args.category_o
    result = None
    if want_o:
        result = classify_category_o(rs, args.n)
    if want_fd:
        fd = classify_finite_dim(rs, args.n)
        result = merge_results(result, fd) if result is not None else fd
    result = certify(result, rs)
    rows = (   # made only when emit prints them
        f"  mu=({fmt_weight(e.weight)})"
        f"  eps=({','.join(str(c) for c in e.weight.eps)})"
        f"  tags={'+'.join(e.tags)}"
        + (f"  {e.s_label}" if e.s_label else "")
        + f"  admissible={'yes' if e.admissible else 'NO'}"
        for e in result.entries
    )
    lines = itertools.chain(
        [f"level {frac_str(result.level)}  rank {args.rank}  n {args.n}"
         + ("" if result.complete else "  [candidate list]")],
        rows,
        [f"{len(result.entries)} weights"],
    )
    status = "ok" if result.complete else "candidate-list"
    entries = [(e.weight, e.tags, e.admissible) for e in result.entries]
    emit(args, result.level, status, lines, entries)
    if any(not e.admissible for e in result.entries):
        raise InconsistencyError("a classified weight failed admissibility")
    return 0


def cmd_check_singular(args) -> int:
    lie = LieAlgebra(args.rank)
    level = frac(args.level) if args.level is not None else None
    report = check_singular(lie, args.n, level, default_guard(args))
    lines = [
        f"{'PASS' if report.ok else 'FAIL'}: level {frac_str(report.level)},"
        f" residual terms {report.residual_terms}"
    ]
    status = "PASS" if report.ok else f"FAIL:{report.residual_terms}"
    emit(args, report.level, status, lines)
    return 0


def cmd_p0(args) -> int:
    lie = LieAlgebra(args.rank)
    engine = UEA(lie, term_guard=default_guard(args))
    ceiling = at_least_one(args.oracle_ceiling, "--oracle-ceiling")
    oracle = p0_basis(engine, args.n, ceiling=ceiling)
    polys = (f"  {p}" for p in oracle)   # made only when emit prints them
    compared = []
    status = f"dim={len(oracle)}"
    consistent = True
    if args.compare:
        explicit = explicit_polys(lie, args.n)
        member = verify_membership(lie, args.n, oracle)
        # the oracle span must equal span(p_1..p_l) at n = 1
        equal = spans_equal(oracle, explicit)
        compared = [
            f"explicit p_i, q in oracle span: {str(member).lower()}",
            f"oracle span == explicit span: {str(equal).lower()}",
        ]
        status += f",member={str(member).lower()},equal={str(equal).lower()}"
        consistent = member and (equal or args.n != 1)
    lines = itertools.chain([f"oracle span dimension {len(oracle)}"], polys, compared)
    emit(args, level_of(args.rank, args.n), status, lines)
    if not consistent:
        raise InconsistencyError("explicit polynomials escape the oracle span")
    return 0


def cmd_admissible(args) -> int:
    rs = build_root_system(args.rank)
    mu = parse_weight(args.weight, args.rank)
    lam = AffineWeight(frac(args.level), mu)
    try:
        result = is_admissible(lam, rs, m_max=args.mmax)
    except ValueError as exc:   # k + h^vee <= 0, or --mmax < 0
        raise UsageError(str(exc)) from exc
    names = result.simple_names(rs)
    lines = [
        f"admissible: {str(result.ok).lower()}; Pi_check: {{{', '.join(names)}}}",
        f"window m <= {result.m_max}, integral coroots {result.integral_count},"
        f" span rank {result.span_rank}",
    ]
    emit(args, lam.level, "ok", lines, [(mu, names, result.ok)])
    return 0


def cmd_dim(args) -> int:
    rs = build_root_system(args.rank)
    mu = parse_weight(args.weight, args.rank)
    if not rs.is_dominant_integral(mu):
        raise UsageError("weight is not dominant integral")
    d = rs.weyl_dim(mu)
    emit(args, Fraction(0), f"dim={d}", [str(d)], [(mu, [], True)])
    return 0


def cmd_identities(args) -> int:
    lie = LieAlgebra(args.rank)
    engine = UEA(lie, term_guard=default_guard(args))
    bound = args.n if args.n > 1 else 3
    records = identity_suite(engine, bound)
    passed = sum(1 for _, _, s in records if s == "pass")
    skipped = sum(1 for _, _, s in records if s == "skip")
    failed = [(i, p) for i, p, s in records if s == "FAIL"]
    lines = [f"{passed} passed, {skipped} skipped, {len(failed)} failed"]
    for ident, params in failed:
        lines.append(f"  FAIL identity {ident} {params}")
    status = f"pass={passed},skip={skipped},fail={len(failed)}"
    emit(args, level_of(args.rank, args.n), status, lines)
    if failed:
        raise InconsistencyError("identity suite failed")
    return 0


COMMANDS = {
    "classify": cmd_classify,
    "check-singular": cmd_check_singular,
    "p0": cmd_p0,
    "admissible": cmd_admissible,
    "dim": cmd_dim,
    "identities": cmd_identities,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        check_args(args)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (TermGuardExceeded, OracleCeilingExceeded) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
