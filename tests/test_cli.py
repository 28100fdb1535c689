"""Command-line surface: outputs, JSON schema and round-trip, exit codes,
guard overrides."""

import argparse
import functools
import importlib
import json
import pkgutil

import pytest

import blvoa
from blvoa.cli import COMMANDS, build_parser, main
from blvoa.liealg import LieAlgebra
from blvoa.rootsys import RootSystem


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_category_o_rows(capsys):
    code, out, _ = run(capsys, "classify", "--rank", "2", "--n", "1", "--category-o")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("  mu=")]
    assert len(rows) == 4
    assert "4 weights" in out


def test_classify_finite_dim_rows(capsys):
    code, out, _ = run(capsys, "classify", "--rank", "2", "--n", "2", "--finite-dim")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("  mu=")]
    assert len(rows) == 6


def test_classify_usage_error(capsys):
    code, _, err = run(capsys, "classify", "--rank", "1", "--n", "1")
    assert code == 1
    assert "rank" in err


def test_bad_flag_exits_1(capsys):
    code, _, _ = run(capsys, "classify", "--rank", "two")
    assert code == 1


def test_check_singular_pass_and_fail(capsys):
    code, out, _ = run(capsys, "check-singular", "--rank", "2", "--n", "1")
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(
        capsys, "check-singular", "--rank", "2", "--n", "1", "--level", "0"
    )
    assert code == 0 and out.startswith("FAIL")
    assert "residual terms 0" not in out


def test_check_singular_rank3(capsys):
    code, out, _ = run(capsys, "check-singular", "--rank", "3", "--n", "1")
    assert code == 0 and out.startswith("PASS")


def test_p0_compare(capsys):
    code, out, _ = run(capsys, "p0", "--rank", "2", "--n", "1", "--compare")
    assert code == 0
    assert "oracle span == explicit span: true" in out
    assert "explicit p_i, q in oracle span: true" in out


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "--rank", "2", "--weight", "2,0")
    assert code == 0
    assert out.strip() == "14"


def test_dim_rejects_bad_weight(capsys):
    code, _, err = run(capsys, "dim", "--rank", "2", "--weight", "-1,0")
    assert code == 1
    assert "dominant" in err


def test_admissible(capsys):
    code, out, _ = run(
        capsys, "admissible", "--rank", "2", "--level", "-1/2", "--weight", "0,0"
    )
    assert code == 0
    assert "admissible: true" in out
    assert "(d-e1)^" in out and "alpha_1^" in out and "alpha_2^" in out


def test_identities(capsys):
    code, out, _ = run(capsys, "identities", "--rank", "2")
    assert code == 0
    assert "0 failed" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--rank", "2", "--n", "1"),
        ("check-singular", "--rank", "2", "--n", "1"),
        ("p0", "--rank", "2", "--n", "1", "--compare"),
        ("admissible", "--rank", "2", "--level", "-1/2", "--weight", "0,0"),
        ("dim", "--rank", "2", "--weight", "2,0"),
        ("identities", "--rank", "2"),
    ],
)
def test_every_command_emits_schema_json(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["command", "rank", "n", "level", "entries", "status"]
    for entry in payload["entries"]:
        assert list(entry) == ["weight_fundamental", "tags", "admissible"]
    assert json.dumps(payload, indent=2) + "\n" == out


def test_json_schema_and_round_trip(capsys):
    code, out, _ = run(capsys, "classify", "--rank", "2", "--n", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["command", "rank", "n", "level", "entries", "status"]
    assert payload["level"] == "-1/2"
    for entry in payload["entries"]:
        assert list(entry) == ["weight_fundamental", "tags", "admissible"]
        for c in entry["weight_fundamental"]:
            num, den = c.split("/")
            assert int(den) > 0
    again = json.dumps(payload, indent=2) + "\n"
    assert again == out


# p0's guard bounds each U(g) normal form: at rank 3, n = 1 the product
# that builds the singular image reaches 3 terms
def test_guard_flag_exits_2(capsys):
    code, _, err = run(capsys, "p0", "--rank", "3", "--n", "1", "--guard", "2")
    assert code == 2
    assert "U(g) normalization reached 3 terms, over the guard 2" in err


# check-singular's guard bounds the words of one vacuum-module apply result:
# at (2, 2) some result has more than one word
def test_check_singular_guard_exits_2(capsys):
    code, _, err = run(
        capsys, "check-singular", "--rank", "2", "--n", "2", "--guard", "1"
    )
    assert code == 2
    assert "N(k, 0) apply reached 2 terms, over the guard 1" in err


# a guard or ceiling below 1 can bound nothing: a usage error, not exit 2
@pytest.mark.parametrize(
    "argv,message",
    [
        (("p0", "--n", "1", "--guard", "0"), "--guard"),
        (("p0", "--n", "1", "--guard", "-5"), "--guard"),
        (("check-singular", "--n", "1", "--guard", "-1"), "--guard"),
        (("p0", "--n", "1", "--oracle-ceiling", "-1"), "--oracle-ceiling"),
        (("p0", "--n", "1", "--oracle-ceiling", "0"), "--oracle-ceiling"),
    ],
)
def test_guard_and_ceiling_below_1_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, argv[0], "--rank", "2", *argv[1:])
    assert code == 1
    assert out == ""
    assert err == f"usage error: {message} must be at least 1\n"


@pytest.mark.parametrize("n", ["0", "-3"])
def test_identities_rejects_n_below_1(capsys, n):
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "identities", "--rank", "2", "--n", n, *extra)
        assert code == 1
        assert out == ""
        assert err == "usage error: n must be at least 1\n"


def test_oracle_ceiling_exits_2(capsys):
    code, _, err = run(capsys, "p0", "--rank", "2", "--n", "1", "--oracle-ceiling", "3")
    assert code == 2


# the ceiling bounds the vectors the oracle words build: at (2, 1), one per
# distinct prefix of f_{eps_1}^2 and f_{eps_1+eps_2} f_{eps_1-eps_2}, 4 in all
@pytest.mark.parametrize("ceiling,code", [("4", 0), ("3", 2)])
def test_oracle_ceiling_counts_the_pruned_descent(capsys, ceiling, code):
    got, _, err = run(
        capsys, "p0", "--rank", "2", "--n", "1", "--oracle-ceiling", ceiling
    )
    assert got == code
    assert ("oracle words build 4 vectors, over ceiling 3" in err) == (code == 2)


# (5, 3) was out of reach of the descent through the weights >= 0 (2,695
# vectors, over the default ceiling); the 35 words build 160
def test_p0_compare_reaches_rank5_n3(capsys):
    code, out, err = run(
        capsys, "p0", "--rank", "5", "--n", "3", "--compare", "--json"
    )
    assert code == 0 and err == ""
    assert json.loads(out)["status"] == "dim=35,member=true,equal=false"


def test_inconsistency_exits_3(capsys, monkeypatch):
    import blvoa.cli as cli_mod

    monkeypatch.setattr(cli_mod, "spans_equal", lambda *a, **k: False)
    code, _, err = run(capsys, "p0", "--rank", "2", "--n", "1", "--compare")
    assert code == 3
    assert "inconsistency" in err


def test_mmax_override(capsys):
    code, out, _ = run(
        capsys,
        "admissible",
        "--rank",
        "2",
        "--level",
        "-1/2",
        "--weight",
        "0,0",
        "--mmax",
        "6",
    )
    assert code == 0
    assert "m <= 6" in out


# k + h^vee = -6 leaves no loop-mode window to certify, and a window
# needs m_max >= 0: both are usage errors, not tracebacks
@pytest.mark.parametrize(
    "argv,message",
    [
        (("--level", "-9", "--weight", "-3/2,1"), "k + h^vee must be positive"),
        (("--level", "-1/2", "--weight", "0,0", "--mmax", "-1"), "m_max"),
    ],
)
def test_admissible_rejects_bad_level_and_window(capsys, argv, message):
    code, out, err = run(capsys, "admissible", "--rank", "2", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and message in err


# every flag a command stopped accepting
REMOVED_FLAG_ARGVS = [
    ("classify", "--rank", "2", "--guard", "5"),
    ("classify", "--rank", "2", "--oracle-ceiling", "5"),
    ("classify", "--rank", "2", "--mmax", "3"),
    ("check-singular", "--rank", "2", "--oracle-ceiling", "5"),
    ("check-singular", "--rank", "2", "--mmax", "3"),
    ("p0", "--rank", "2", "--mmax", "2"),
    ("admissible", "--rank", "2", "--level", "-1/2", "--weight", "0,0",
     "--guard", "5"),
    ("admissible", "--rank", "2", "--level", "-1/2", "--weight", "0,0",
     "--oracle-ceiling", "5"),
    ("dim", "--rank", "2", "--weight", "2,0", "--guard", "5"),
    ("dim", "--rank", "2", "--weight", "2,0", "--oracle-ceiling", "5"),
    ("dim", "--rank", "2", "--weight", "2,0", "--mmax", "3"),
    ("identities", "--rank", "2", "--oracle-ceiling", "5"),
    ("identities", "--rank", "2", "--mmax", "3"),
]


@pytest.mark.parametrize("argv", REMOVED_FLAG_ARGVS)
def test_removed_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "usage error" in err


def _subcommands(parser) -> list[str]:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_parser_builds_only_the_named_command(command):
    assert _subcommands(build_parser(command)) == [command]


@pytest.mark.parametrize("command", [None, "-h", "frobnicate"])
def test_parser_builds_every_command_for_any_other_first_argument(command):
    assert _subcommands(build_parser(command)) == list(COMMANDS)


@pytest.mark.parametrize(
    "argv,lie_algebras",
    [
        (("identities", "--rank", "2"), 2),
        (("dim", "--rank", "3", "--weight", "1,0,0"), 0),
        (("admissible", "--rank", "3", "--level", "-1/2", "--weight", "0,0,0"), 0),
        (("classify", "--rank", "2", "--n", "2"), 0),
    ],
)
def test_consecutive_calls_share_no_construction(capsys, monkeypatch, argv, lie_algebras):
    """Each call builds its own LieAlgebra and RootSystem, as separate CLI
    processes do: nothing a call builds is reused by the next."""
    built = []
    for cls in (LieAlgebra, RootSystem):
        def counted(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            built.append(_cls)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    for _ in range(2):
        assert run(capsys, *argv)[0] == 0
    assert built.count(LieAlgebra) == lie_algebras
    assert built.count(RootSystem) == 2


def test_no_blvoa_module_holds_a_functools_cache():
    """No cache outlives a call: every table is built by the call that
    uses it, on the objects it passes down."""
    modules = [blvoa] + [
        importlib.import_module(f"blvoa.{info.name}")
        for info in pkgutil.iter_modules(blvoa.__path__)
    ]
    for module in modules:
        for name, value in vars(module).items():
            owners = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
            for obj in owners:
                cached = hasattr(obj, "cache_info") or isinstance(obj, functools.cached_property)
                assert not cached, f"{module.__name__}.{name} holds a functools cache"
