"""Command-line interface: exit codes, output formats, robustness."""

import hashlib
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from lotkacenter.cli import main


def run_cli(argv):
    try:
        return main(list(argv))
    except SystemExit as err:
        return 0 if err.code is None else int(err.code)


CANON = ["--a1", "0", "--b1", "1", "--a3", "1", "--b3", "0", "--K", "3"]


def test_classify_center_exits_zero(capsys):
    assert run_cli(["classify", *CANON]) == 0
    out = capsys.readouterr().out
    assert "verdict=Center" in out
    assert "cases=I" in out


def test_classify_focus_exits_one(capsys):
    code = run_cli(["classify", "--a1", "1", "--b1", "2", "--a3", "1", "--b3", "1", "--K", "1"])
    assert code == 1
    assert "verdict=FocusStable" in capsys.readouterr().out


def test_classify_degenerate_exits_two(capsys):
    code = run_cli(["classify", "--a1", "1", "--b1", "1", "--a3", "1", "--b3", "1", "--K", "1"])
    assert code == 2
    assert "verdict=DegenerateDetZero" in capsys.readouterr().out


def test_classify_not_elliptic_exits_two(capsys):
    code = run_cli(["classify", "--a1", "2", "--b1", "1", "--a3", "1", "--b3", "1", "--K", "1"])
    assert code == 2
    assert "verdict=NotElliptic" in capsys.readouterr().out


def test_classify_accepts_exponent_notation_negatives(capsys):
    argv = ["classify", "--a1", "-1e-3", "--b1", "1", "--a3", "1", "--b3", "-1e-3", "--K", "1"]
    assert run_cli(argv) == 0
    assert "cases=R1" in capsys.readouterr().out


def test_classify_raw_form_matches_canonical(capsys):
    raw = [
        "classify",
        *("--k1", "1", "--k2", "1", "--k3", "1", "--k4", "1"),
        *("--alpha1", "1", "--beta1", "0", "--alpha2", "1", "--beta2", "1"),
        *("--alpha3", "0", "--beta3", "1"),
    ]
    assert run_cli(raw) == 0
    raw_out = capsys.readouterr().out
    canon = ["classify", "--a1", "0", "--b1", "-1", "--a3", "-1", "--b3", "0", "--K", "1"]
    assert run_cli(canon) == 0
    assert capsys.readouterr().out == raw_out


def test_usage_errors_exit_64(capsys):
    assert run_cli(["classify", "--a1", "1", "--b1", "2"]) == 64
    assert "missing canonical flags" in capsys.readouterr().err
    assert run_cli(["classify", *CANON, "--k1", "2"]) == 64
    assert run_cli(["classify", "--a1", "zz", "--b1", "2", "--a3", "1", "--b3", "1", "--K", "1"]) == 64
    assert run_cli(["no-such-command"]) == 64
    assert run_cli([]) == 64
    assert run_cli(["sweep", "--K", "1", "--a1-steps", "1"]) == 64
    assert run_cli(["sweep", "--K", "1", "--a1-range", "2", "1"]) == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--a1", "2", "--b1", "-1", "--a3", "-3", "--b3", "1", "--K", "2", "--l1-tol", "1e3"],
        ["classify", *CANON, "--l2-tol", "1e-10"],
        ["classify", *CANON, "--match-tol", "0"],
        ["sweep", "--K", "1", "--a1-steps", "2", "--b1-steps", "2", "--a3-steps", "2", "--match-tol", "0"],
    ],
    ids=["classify-l1-tol", "classify-l2-tol", "classify-match-tol", "sweep-match-tol"],
)
def test_tolerance_flags_are_gone(capsys, argv):
    # the thresholds are fixed module constants; the CLI sets none of them
    assert run_cli(argv) == 64
    assert "unrecognized arguments" in capsys.readouterr().err


BAUTIN = ["bautin", "--b1", "-2", "--a3", "-3", "--dK", "0.02"]
CYCLES = ["cycles", "--a1", "0.98", "--b1", "2", "--a3", "1", "--b3", "1", "--K", "0.98"]


@pytest.mark.parametrize(
    "argv",
    [
        [*BAUTIN, "--dA1", "3e-4"],
        [*BAUTIN, "--r-min", "0.02"],
        [*BAUTIN, "--r-max", "1.5"],
        [*BAUTIN, "--n-scan", "30"],
        [*BAUTIN, "--rel-tol", "1e-8"],
        [*BAUTIN, "--refine-tol", "1e-10"],
        [*CYCLES, "--rel-tol", "1e-8"],
        [*CYCLES, "--refine-tol", "1e-10"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_cycle_flags_are_gone(capsys, argv):
    # the cycle layer's scan window and tolerances are fixed module constants
    assert run_cli(argv) == 64
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("points", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify-reversible", "--family", "r1", "--a1", "1", "--b1", "2", "--a3", "1", "--b3", "1", "--K", "1"],
        ["verify-integral", "--case", "i", *CANON],
    ],
    ids=["reversible", "integral"],
)
def test_verify_needs_at_least_one_point(capsys, argv, points):
    # a check over no points would print PASS without testing anything
    assert run_cli([*argv, "--points", points]) == 64
    captured = capsys.readouterr()
    assert "--points must be at least 1" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-reversible", "--family", "r1", "--a1", "0.5", "--b1", "2", "--a3", "2", "--b3", "0.5", "--K", "1"],
        ["verify-integral", "--case", "i", *CANON],
    ],
    ids=["reversible", "integral"],
)
def test_verify_rejects_negative_seed(capsys, argv):
    assert run_cli([*argv, "--seed", "-1"]) == 64
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be non-negative, got -1\n"
    assert captured.out == ""


def test_numeric_errors_exit_65(capsys):
    assert run_cli(["classify", "--a1", "1", "--b1", "2", "--a3", "1", "--b3", "1", "--K", "-1"]) == 65
    assert "K must be positive" in capsys.readouterr().err
    code = run_cli(
        ["poincare", "--a1", "2", "--b1", "-1", "--a3", "-3", "--b3", "1", "--K", "1", "--x0", "1.8"]
    )
    assert code == 65
    capsys.readouterr()
    assert run_cli(["simulate", *CANON, "--x0", "0", "--y0", "1", "--t-max", "1"]) == 65
    assert "not strictly positive" in capsys.readouterr().err
    # the trace a1 - K*b3 overflows to inf
    overflow = ["--a1", "5e-324", "--b1", "0", "--a3", "0", "--b3", "-1e300", "--K", "1e300"]
    assert run_cli(["classify", *overflow]) == 65
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "params",
    [
        ("0", "5e-324", "2e22", "0", "1e300"),
        ("1.781859745773466e-06", "5e-324", "1e300", "2.0664483524121656e-28", "8.622812874531806e21"),
    ],
)
def test_classify_underflowing_focal_divisor_exits_65(capsys, params):
    # omega*b1, which divides L1, underflows to 0 for a subnormal b1
    argv = ["classify", *itertools.chain(*zip(("--a1", "--b1", "--a3", "--b3", "--K"), params))]
    assert run_cli(argv) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_sweep_grid(tmp_path, capsys):
    out_file = tmp_path / "grid.jsonl"
    argv = [
        "sweep",
        *("--K", "1.5"),
        *("--a1-range", "-1", "1", "--a1-steps", "2"),
        *("--b1-range", "-2", "2", "--b1-steps", "3"),
        *("--a3-range", "-1", "1", "--a3-steps", "2"),
        *("--out", str(out_file)),
    ]
    assert run_cli(argv) == 0
    assert "12 records" in capsys.readouterr().err
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert len(records) == 12
    for rec in records:
        assert rec["b3"] == pytest.approx(rec["a1"] / 1.5, abs=1e-15)
        assert rec["verdict"] in {
            "Center",
            "FocusStable",
            "FocusUnstable",
            "NotElliptic",
            "DegenerateDetZero",
            "Error",
        }
        if rec["L1"] is not None:
            assert math.isfinite(rec["L1"])


def test_sweep_is_deterministic(tmp_path):
    args = [
        "sweep",
        *("--K", "0.7"),
        *("--a1-range", "-2", "2", "--a1-steps", "3"),
        *("--b1-range", "-2", "2", "--b1-steps", "3"),
        *("--a3-range", "-2", "2", "--a3-steps", "3"),
    ]
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    assert run_cli([*args, "--out", str(first)]) == 0
    assert run_cli([*args, "--out", str(second)]) == 0
    assert first.read_text() == second.read_text()


#: (grid flags, sha256 of the records) of each golden sweep at K = 1
_SWEEP_GOLDEN = (
    (
        ("--a1-steps", "7", "--b1-steps", "7", "--a3-steps", "7"),
        "104d6cab9ed0fdc7527a5ece1637eb9121299e854066e9e9fb37fa1bfc294159",
    ),
    (
        (
            *("--a1-range", "-1", "1", "--a1-steps", "2"),
            *("--b1-range", "-1e200", "1e200", "--b1-steps", "2"),
            *("--a3-range", "-1e200", "1e200", "--a3-steps", "2"),
        ),
        "c5058a5f7d480a874b11d3878250613ccfea4f608ae8218b3441c3d6605c8c92",
    ),
)


def test_sweep_golden_output(tmp_path):
    # a 7x7x7 grid over the default ranges reaches all five verdicts; on
    # the 2x2x2 grid every determinant overflows, so all eight records are
    # "verdict": "Error"
    out_file = tmp_path / "golden.jsonl"
    for grid, digest in _SWEEP_GOLDEN:
        assert run_cli(["sweep", "--K", "1", *grid, "--out", str(out_file)]) == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest, grid


@pytest.mark.parametrize(
    "argv, flag",
    [(["--K", "1e-310"], "--K"), (["--K", "1", "--a1-range", "-1e308", "1e308"], "--a1-range")],
    ids=["b3-overflows", "span-overflows"],
)
def test_sweep_rejects_unwritable_grid(capsys, argv, flag):
    # b3 = a1/K or the axis span is not a float, so no record could be written
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["sweep", *argv]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag} ")


def test_simulate_writes_tsv(tmp_path, capsys):
    out_file = tmp_path / "orbit.tsv"
    argv = [
        "simulate",
        *("--a1", "0", "--b1", "1", "--a3", "1", "--b3", "0", "--K", "1"),
        *("--x0", "1.3", "--y0", "1.0", "--t-max", "2.0"),
        *("--out", str(out_file)),
    ]
    assert run_cli(argv) == 0
    assert "termination = TimeLimit" in capsys.readouterr().err
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t\tx\ty"
    t, x, y = (float(v) for v in lines[1].split("\t"))
    assert (t, x, y) == (0.0, 1.3, 1.0)
    assert all(len(line.split("\t")) == 3 for line in lines[1:])


def test_poincare_record_output(capsys):
    argv = [
        "poincare",
        *("--a1", "1", "--b1", "2", "--a3", "1", "--b3", "1", "--K", "1"),
        *("--x0", "1.05"),
    ]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert "start_x = 1.05" in out
    assert "crossings = 2" in out
    assert "displacement = " in out
    assert "\nerror_bound = " in out


def test_cycles_output(capsys):
    argv = [
        "cycles",
        *("--a1", "0.98", "--b1", "2", "--a3", "1", "--b3", "1", "--K", "0.98"),
        *("--r-min", "0.3", "--r-max", "1.4", "--n-scan", "10"),
    ]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert "cycles = 1" in out
    assert "stability = Stable" in out


def test_verify_integral_pass_and_fail(capsys):
    ok = ["verify-integral", "--case", "i", *("--a1", "0", "--b1", "1", "--a3", "1", "--b3", "0", "--K", "1")]
    assert run_cli(ok) == 0
    assert "PASS" in capsys.readouterr().out
    tight = [
        "verify-integral",
        *("--case", "iv"),
        *("--a1", "1", "--b1", "-1", "--a3", "-3", "--b3", "2", "--K", "0.5"),
        *("--tol", "1e-30"),
    ]
    assert run_cli(tight) == 1
    assert "FAIL" in capsys.readouterr().out
    mismatched = ["verify-integral", "--case", "ii", *CANON]
    assert run_cli(mismatched) == 65


def test_verify_reversible_families(capsys):
    r1 = ["verify-reversible", "--family", "r1", *("--a1", "0.5", "--b1", "2", "--a3", "2", "--b3", "0.5", "--K", "1")]
    assert run_cli(r1) == 0
    assert "PASS" in capsys.readouterr().out
    k = repr(1.0 / 3.0)
    r2 = ["verify-reversible", "--family", "r2", *("--a1", k, "--b1", "-3", "--a3", "-1", "--b3", "1", "--K", k)]
    assert run_cli(r2) == 0
    # classify calls this an R2 center: the check measures it instead of raising
    k = repr((1.0 / 3.0) * (1.0 + 1e-10))
    r2_off = ["verify-reversible", "--family", "r2", *("--a1", k, "--b1", "-3", "--a3", "-1", "--b3", "1", "--K", k)]
    capsys.readouterr()
    assert run_cli(r2_off) == 1
    out = capsys.readouterr().out
    assert "max scaled r2 residual over 1000 points = 4.124e-10" in out
    assert "FAIL" in out
    bad = ["verify-reversible", "--family", "r1", *("--a1", "1", "--b1", "2", "--a3", "1", "--b3", "1", "--K", "1")]
    assert run_cli(bad) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--K", "1", "--a1-steps", "2", "--b1-steps", "2", "--a3-steps", "2"],
        ["simulate", *CANON, *("--x0", "1.3", "--y0", "1.0", "--t-max", "0.1")],
    ],
)
def test_unopenable_out_is_a_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    assert run_cli([*argv, "--out", str(target)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: cannot open --out ")
    assert len(err.splitlines()) == 1


def test_bautin_two_cycles(capsys):
    argv = ["bautin", "--b1", "-2", "--a3", "-3", "--dK", "0.02"]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert "stage 1" in out
    assert "stage 2" in out
    assert "cycles = 2" in out
    assert "Unstable" in out and "Stable" in out


def test_bautin_bad_base_exits_numeric(capsys):
    # dK of the wrong sign gives stage 1 no cycle to start from
    assert run_cli(["bautin", "--b1", "-2", "--a3", "-3", "--dK", "-0.02"]) == 65
    assert capsys.readouterr().err.startswith("error: ")


def test_argument_fuzz_never_crashes(capsys):
    rng = random.Random(20240817)
    subcommands = [
        "classify",
        "sweep",
        "simulate",
        "poincare",
        "cycles",
        "verify-integral",
        "verify-reversible",
        "bautin",
    ]
    flags = [
        "--a1", "--b1", "--a3", "--b3", "--K", "--k1", "--alpha2", "--x0", "--y0",
        "--t-max", "--r-min", "--case", "--family", "--tol", "--seed", "--points",
        "--bogus", "-q", "--", "",
    ]
    values = [
        "1", "0", "-2", "0.5", "1e3", "nan", "inf", "-inf", "x", "1e400", "", "i", "r1",
        "5e-324", "1e300", "-1e300",
    ]
    allowed = {0, 1, 2, 64, 65}

    # malformed tier: random token soup must fail cleanly
    for i in range(8000):
        n = rng.randrange(0, 6)
        argv = [rng.choice(subcommands)] if rng.random() < 0.9 else []
        for _ in range(n):
            argv.append(rng.choice(flags) if rng.random() < 0.6 else rng.choice(values))
        # pair a flag with a value sometimes so parses get further
        if rng.random() < 0.5 and len(argv) > 1:
            argv.append(rng.choice(values))
        # a drawn sweep runs a 2x2x2 grid, not the default 125k points
        if argv[:1] == ["sweep"]:
            argv[1:1] = ["--a1-steps", "2", "--b1-steps", "2", "--a3-steps", "2"]
        code = run_cli(argv)
        assert code in allowed, f"iteration {i}: {argv!r} -> {code}"

    # complete classify invocations with adversarial numerics
    for i in range(2000):
        argv = ["classify"]
        for flag in ("--a1", "--b1", "--a3", "--b3", "--K"):
            argv.extend([flag, rng.choice(values)])
        code = run_cli(argv)
        assert code in allowed, f"iteration {i}: {argv!r} -> {code}"
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["cycles", "--a1", "0.98", "--b1", "2", "--a3", "1", "--b3", "1", "--K", "0.98"],
            "ec867c074656d288f0f45517c91bae59eb37803ac8cbf0c2e4dc8cf795ebdf77",
        ),
        (
            ["bautin", "--b1", "-2", "--a3", "-3", "--dK", "0.02"],
            "07a450a0834dcb6fcd55209caa3dd3c5a233e78c28b2e60a5a2c07381bfa8c52",
        ),
    ],
    ids=["cycles", "bautin"],
)
def test_cycle_commands_golden_output(capsys, argv, digest):
    # the README's cycles and bautin examples, sha256 of stdout
    assert run_cli(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


_K3 = repr(1.0 / 3.0)
_K3_OFF = repr((1.0 / 3.0) * (1.0 + 1e-10))
#: a second-family center whose transformed field is (-inf, inf) at some
#: sample points, so its residual is NaN there
_K300 = repr(1.0 / 300.0)
_SIMULATE_ERR = "termination = TimeLimit  accepted = 101  rejected = 0\n"


@pytest.mark.parametrize(
    "argv, code, digest, err",
    [
        pytest.param(
            ["classify", *CANON],
            0, "ae6a4948ecbdc917f0426c5e36f369d8fbf4957671b24351418d301128283274", "",
            id="classify-center",
        ),
        pytest.param(
            ["classify", "--a1", "1", "--b1", "2", "--a3", "1", "--b3", "1", "--K", "1"],
            1, "9aaaf2af3297f90ad4d96b6ffa2bfa32667a54e1fb2bf4ce316909b818dd5056", "",
            id="classify-focus",
        ),
        pytest.param(
            ["classify", "--a1", "2", "--b1", "-1", "--a3", "-3", "--b3", "1", "--K", "2"],
            1, "ebd72a3f0390d24844d645a9b1ef28e689744a34cb56bc9d90764dc3b959fff4", "",
            id="classify-L2-none",
        ),
        pytest.param(
            ["classify", "--a1", "1", "--b1", "1", "--a3", "1", "--b3", "1", "--K", "1"],
            2, "549d49bb0563dd02e6284a1a6474a4f1fce059b65f31cf8044d0f51420b6c861", "",
            id="classify-degenerate",
        ),
        pytest.param(
            ["classify", "--a1", "2", "--b1", "1", "--a3", "1", "--b3", "1", "--K", "1"],
            2, "56e9e2c88e86b5e51572d215b2ee06517607bdf587cf78c7390565582a05754c", "",
            id="classify-not-elliptic",
        ),
        pytest.param(
            ["classify", "--a1", "0.5", "--b1", "-0.42857142857142855", "--a3", "-3", "--b3", "2", "--K", "0.25"],
            1, "2fc431db5360fd38eb83eb78a1984ef7ed15b731c91082d8ff4f85706cad0000", "",
            id="classify-focus-generic-branch",
        ),
        pytest.param(
            [
                "classify",
                *("--k1", "1", "--k2", "1", "--k3", "1", "--k4", "1"),
                *("--alpha1", "1", "--beta1", "0", "--alpha2", "1", "--beta2", "1"),
                *("--alpha3", "0", "--beta3", "1"),
            ],
            0, "302ddae9fac6c983fdeaa88f713fdb1782b5cfa9334beffeebfeb153e13e8fb4", "",
            id="classify-raw",
        ),
        pytest.param(
            ["poincare", "--a1", "1", "--b1", "2", "--a3", "1", "--b3", "1", "--K", "1", "--x0", "1.05"],
            0, "66efc9e401d6b4082d705885c92e9b6e651f7e4a71bd03e117e21093d3cfc47d", "",
            id="poincare",
        ),
        pytest.param(
            [
                "simulate",
                *("--a1", "0", "--b1", "1", "--a3", "1", "--b3", "0", "--K", "1"),
                *("--x0", "1.3", "--y0", "1.0", "--t-max", "2.0"),
            ],
            0, "d0c8efe5155f9bd6744d00dd8fc631c651482ad9a06f72d5368c599d5fd3e2e0", _SIMULATE_ERR,
            id="simulate",
        ),
        pytest.param(
            ["verify-integral", "--case", "i", "--a1", "0", "--b1", "1", "--a3", "1", "--b3", "0", "--K", "2"],
            0, "76a1ce268c11cd55c05160b5d00fd6f4a0027649ff9a8905ab5672ec6af26bf8", "",
            id="verify-integral-i",
        ),
        pytest.param(
            ["verify-integral", "--case", "ii", "--a1", "0.3", "--b1", "-0.6", "--a3", "-0.7", "--b3", "0.4", "--K", "0.75"],
            0, "cb8b61da80fa573ae7c431dbfb9ee4b0113b5abc6f31b12ec5078654005a5da1", "",
            id="verify-integral-ii",
        ),
        pytest.param(
            ["verify-integral", "--case", "iii", "--a1", "1", "--b1", "-2", "--a3", "-1", "--b3", "1", "--K", "1"],
            0, "52d5c0ab03f6e61671929fdc39551084f0cc83434223463ae2170cce8478b820", "",
            id="verify-integral-iii",
        ),
        pytest.param(
            ["verify-integral", "--case", "iv", "--a1", "1", "--b1", "-1", "--a3", "-3", "--b3", "2", "--K", "0.5"],
            0, "320a2eb414edf6180cd057d74265bd784dd9153d4846b607e3f246747f85d541", "",
            id="verify-integral-iv",
        ),
        pytest.param(
            [
                "verify-integral",
                *("--case", "iv", "--a1", "1", "--b1", "-1", "--a3", "-3", "--b3", "2", "--K", "0.5"),
                *("--tol", "1e-30"),
            ],
            1, "9e9f2a0880c737b83cadf3093b12cb7e0df624dbdbd5402ac45557cbaf597c87", "",
            id="verify-integral-iv-fail",
        ),
        pytest.param(
            ["verify-integral", "--case", "r1r2", "--a1", "0.5", "--b1", "-1.5", "--a3", "-1.5", "--b3", "0.5", "--K", "1"],
            0, "c08666452a921da4e82c4dac4aabc05f24b9ee6d07d31c00310498d596abc1a9", "",
            id="verify-integral-r1r2",
        ),
        pytest.param(
            ["verify-reversible", "--family", "r1", "--a1", "0.5", "--b1", "2", "--a3", "2", "--b3", "0.5", "--K", "1"],
            0, "8206f4621467481effb10998bab08122d354e9e65021b4cfcc40dcc569a54a80", "",
            id="verify-reversible-r1",
        ),
        pytest.param(
            ["verify-reversible", "--family", "r2", "--a1", _K3, "--b1", "-3", "--a3", "-1", "--b3", "1", "--K", _K3],
            0, "ff7f261f62d37a187f401caccd4dc71ea5125185ade331ab8e05e8ca1ab02d85", "",
            id="verify-reversible-r2",
        ),
        pytest.param(
            ["verify-reversible", "--family", "r2", "--a1", _K3_OFF, "--b1", "-3", "--a3", "-1", "--b3", "1", "--K", _K3_OFF],
            1, "07229cca64ab8d0a2a5544ab26a5f993f0b928dca297fc91186d89afc739ad4d", "",
            id="verify-reversible-r2-fail",
        ),
        pytest.param(
            ["verify-reversible", "--family", "r2", "--a1", _K300, "--b1", "-300", "--a3", "-1", "--b3", "1", "--K", _K300],
            1, "033099276ab884bf489f169fb1e44b509e3f6ef19090e2d9cea38fce791a7d72", "",
            id="verify-reversible-r2-nan",
        ),
        pytest.param(
            ["verify-integral", "--case", "i", "--a1", "0", "--b1", "700", "--a3", "1", "--b3", "0", "--K", "1"],
            65, hashlib.sha256(b"").hexdigest(),
            "error: first integral gradient not evaluable at (3.1144664338609847, 3.8135692671401467)\n",
            id="verify-integral-i-overflow",
        ),
    ],
)
def test_text_commands_golden_output(capsys, argv, code, digest, err):
    # sha256 of stdout, the exact stderr and the exit code of every other
    # text-emitting command, pinned before the renderers moved into the CLI
    assert run_cli(argv) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == err


def _loaded_by_cli_import(package):
    """Modules of ``package`` in ``sys.modules`` of a fresh interpreter after
    ``import lotkacenter.cli``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, lotkacenter.cli; "
        f"print([m for m in sys.modules if m.split('.')[0] == {package!r}])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    # scipy's import alone used to double the CLI's start-up time
    assert _loaded_by_cli_import("scipy") == "[]"


def test_cli_import_leaves_numpy_unloaded():
    # the package has no runtime dependency; numpy's import was about half
    # of the CLI's start-up time
    assert _loaded_by_cli_import("numpy") == "[]"


def _readme_invocations():
    """Each documented command with the ``# `` lines right below it, the
    stdout the README shows for it (empty when it shows none)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.sub(r"\\\n\s*", " ", text)  # join backslash-continued lines
    lines = [line.strip() for line in text.splitlines()]
    invocations = []
    for i, line in enumerate(lines):
        if line.startswith("lotkacenter "):
            shown = itertools.takewhile(lambda s: s.startswith("# "), lines[i + 1 :])
            invocations.append((shlex.split(line)[1:], [s[2:] for s in shown]))
    return invocations


def test_readme_invocations_run(capsys):
    # every documented command parses and reaches a verdict or a verification,
    # and prints exactly the output the README shows below it
    invocations = _readme_invocations()
    assert len(invocations) >= 9
    # the raw-form example continues over two lines
    assert any("--k1" in argv and "--beta3" in argv for argv, _ in invocations)
    assert any(shown for _, shown in invocations)
    for argv, shown in invocations:
        assert run_cli(argv) in {0, 1, 2}, argv
        out = capsys.readouterr().out
        if shown:
            assert out.splitlines() == shown, argv


def test_simulate_rejects_nan_t_max(capsys):
    argv = [
        "simulate",
        *("--a1", "1", "--b1", "2", "--a3", "1", "--b3", "1", "--K", "1"),
        *("--x0", "1.2", "--y0", "1.0", "--t-max", "nan"),
    ]
    assert run_cli(argv) == 65
    assert "t_max" in capsys.readouterr().err


def test_simulate_rejects_infinite_t_max(capsys):
    argv = [
        "simulate",
        *("--a1", "1", "--b1", "2", "--a3", "1", "--b3", "1", "--K", "1"),
        *("--x0", "1.2", "--y0", "1.0", "--t-max", "inf", "--max-steps", "5"),
    ]
    assert run_cli(argv) == 65
    captured = capsys.readouterr()
    assert "t_max" in captured.err
    assert captured.out == ""


def test_cycles_rejects_infinite_r_max(capsys):
    argv = [
        "cycles",
        *("--a1", "0.98", "--b1", "2", "--a3", "1", "--b3", "1", "--K", "0.98"),
        *("--r-min", "0.1", "--r-max", "inf", "--n-scan", "5"),
    ]
    assert run_cli(argv) == 65
    captured = capsys.readouterr()
    assert "r_max" in captured.err
    assert "cycles =" not in captured.out


@pytest.mark.parametrize("max_steps", ["0", "-5"])
def test_simulate_rejects_non_positive_max_steps(capsys, max_steps):
    argv = [
        "simulate",
        *("--a1", "1", "--b1", "2", "--a3", "1", "--b3", "1", "--K", "1"),
        *("--x0", "1.2", "--y0", "1.0", "--t-max", "1", "--max-steps", max_steps),
    ]
    assert run_cli(argv) == 65
    captured = capsys.readouterr()
    assert "step_budget" in captured.err
    assert "termination" not in captured.err
