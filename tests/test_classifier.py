"""Six-case matching and the center/focus verdict."""

import dis
import enum
import hashlib
import itertools
import math
import pickle
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from lotkacenter import (
    CanonicalParams,
    CaseMismatch,
    CenterCase,
    CenterClassification,
    FocalBranch,
    FocalValues,
    JacobianSummary,
    LotkaError,
    PreconditionViolated,
    Verdict,
    build_integral,
    classify,
    closed_form_focal,
    jacobian,
    lyapunov_numeric,
    match_table_cases,
    taylor_expand,
)
from lotkacenter import classifier, conserved, focal, model
from lotkacenter.classifier import CASE_CONSTRAINTS
from lotkacenter.cli import _witness, main

ALL_CASES = (
    CenterCase.I,
    CenterCase.II,
    CenterCase.III,
    CenterCase.IV,
    CenterCase.R1,
    CenterCase.R2,
)


def test_match_single_rows():
    assert match_table_cases(CanonicalParams(0.0, 1.0, 1.0, 0.0, 7.0)) == {CenterCase.I}
    assert match_table_cases(CanonicalParams(1.0, -1.0, -3.0, 2.0, 0.5)) == {CenterCase.IV}


def test_match_overlapping_rows():
    cases = match_table_cases(CanonicalParams(-0.5, -1.5, -1.5, -0.5, 1.0))
    assert cases == {CenterCase.II, CenterCase.R1}


def test_match_reversible_intersection():
    assert match_table_cases(CanonicalParams(0.0, -2.0, -2.0, 0.0, 1.0)) == {
        CenterCase.I,
        CenterCase.R1,
        CenterCase.R2,
    }
    assert match_table_cases(CanonicalParams(-1.0, -3.0, -3.0, -1.0, 1.0)) == {
        CenterCase.R1,
        CenterCase.R2,
    }


def test_match_empty_for_weak_focus():
    assert match_table_cases(CanonicalParams(1.0, 2.0, 1.0, 1.0, 1.0)) == frozenset()


def test_match_rows_by_construction():
    for row_index, case in enumerate(ALL_CASES):
        for i, c in enumerate(helpers.center_row_draws(100 + row_index, case, 25)):
            assert case in match_table_cases(c), f"{case} draw {i}"
            assert jacobian(c).determinant > 0.0, f"{case} draw {i}"


def test_row_draws_digest():
    # the samplers' draws, bit for bit, as captured before they were built
    # through the family table
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        for case in ALL_CASES:
            for c in helpers.center_row_draws(seed, case, 100):
                h.update(struct.pack("<5d", c.a1, c.b1, c.a3, c.b3, c.K))
    assert h.hexdigest() == "d9654d7d9655ea2fc27136f0d6035dda40768797c7d4a060a0750fa84a1e56c0"


def _near_family_base() -> list[CanonicalParams]:
    """2,400 draws: 300 on each family, then on the C2 and case B strata."""
    base = []
    for row_index, case in enumerate(ALL_CASES):
        base += helpers.center_row_draws(10 + row_index, case, 300)
    return base + helpers.c2_stratum_draws(99, 300) + helpers.case_b_stratum_draws(98, 300)


def _near_family_draws() -> list[CanonicalParams]:
    """The 2,400 base draws moved off their families at five scales s, a
    fresh default_rng(7) per scale: a1, b1, a3 get N(0, s) added, K is
    scaled by 1 + N(0, s), and b3 = a1/K puts the trace at zero."""
    base = _near_family_base()
    out = []
    for s in (1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
        noise = np.random.default_rng(7).normal(0.0, s, (len(base), 4))
        for c, (da1, db1, da3, dk) in zip(base, noise.tolist()):
            a1, K = c.a1 + da1, c.K * (1.0 + dk)
            out.append(CanonicalParams(a1, c.b1 + db1, c.a3 + da3, a1 / K, K))
    return out


def test_match_sets_near_the_families_digest():
    # the matched sets of the near-family draws, as captured before the
    # families moved into one table
    case_sets = [match_table_cases(d) for d in _near_family_draws()]
    assert len(case_sets) == 12_000
    masks = bytes(sum(1 << i for i, case in enumerate(ALL_CASES) if case in cs) for cs in case_sets)
    assert hashlib.sha256(masks).hexdigest() == (
        "c00ac5c290d18c2c977a0cabc094f5dcc762f28fc0a3b59f466931ba8f43e6b0"
    )


def test_family_points_are_exact_over_the_rationals():
    # rational free parameters next to the samplers' draws: through
    # ``point`` every equality pair is equal in Q, every guard holds and the
    # determinant is positive, and the float image of the point matches its
    # family
    for row_index, case in enumerate(ALL_CASES):
        fam = CASE_CONSTRAINTS[case]
        for i, c in enumerate(helpers.center_row_draws(700 + row_index, case, 12)):
            free = [Fraction(getattr(c, name)).limit_denominator(1000) for name in fam.free]
            p = fam.point(*free)
            assert all(type(x) in (int, Fraction) for x in p), f"{case} draw {i}: {p}"
            pairs = []
            # an ``eq`` that records each pair and lets every test run
            assert fam.holds(lambda u, v: pairs.append((u, v)) or True, *p), f"{case} draw {i}"
            a1, b1, a3, b3, K = p
            assert K * (a3 * b1 - a1 * b3) > 0, f"{case} draw {i}: {p}"
            assert pairs and all(u == v for u, v in pairs), f"{case} draw {i}: {pairs}"
            assert case in match_table_cases(CanonicalParams(*p)), f"{case} draw {i}"


def test_each_family_closes_with_a_positive_determinant():
    # det = K(a3*b1 - a1*b3) through each family's ``point``, in its free
    # parameters: under the guards of ``holds`` each product is positive
    # exactly on the strict inequality noted beside it, so the families
    # need no ellipticity test beside ``jacobian``'s
    import sympy

    names = ("a1", "b1", "a3", "b3", "K")
    a1, b1, a3, b3, K = sym = sympy.symbols(names)
    expected = {
        CenterCase.I: K * a3 * b1,  # K > 0: a3*b1 > 0
        CenterCase.II: -a1 * (a1 + b3 - 1) / b3,  # a1/b3 > 0: a1 + b3 < 1
        CenterCase.III: -a1 * (a1 + b1),  # a1 > 0: a1 + b1 < 0
        CenterCase.IV: -(a3 + b3) / b3,  # b3 > 0: a3 + b3 < 0
        CenterCase.R1: b1**2 - a1**2,  # |a1| < |b1|
        CenterCase.R2: (b1**2 - b3**2) / (b1 - b3 + 1) ** 2,  # |b3| < |b1|
    }
    for case, fam in CASE_CONSTRAINTS.items():
        pa1, pb1, pa3, pb3, pK = fam.point(*(sym[names.index(n)] for n in fam.free))
        assert sympy.cancel(pK * (pa3 * pb1 - pa1 * pb3) - expected[case]) == 0, case


def test_matcher_leaves_ellipticity_to_jacobian(capsys):
    # a saddle (det = -1) on family I's equalities: the matcher lists the
    # family, and the callers that need ellipticity refuse it
    c = CanonicalParams(0.0, 1.0, -1.0, 0.0, 1.0)
    assert match_table_cases(c) == {CenterCase.I}
    assert classify(c) == CenterClassification(Verdict.NOT_ELLIPTIC, frozenset(), None)
    message = f"{c} does not satisfy the case I constraints"
    with pytest.raises(CaseMismatch) as err:
        build_integral(CenterCase.I, c)
    assert str(err.value) == message
    argv = ["verify-integral", "--case", "i", "--a1", "0", "--b1", "1", "--a3", "-1", "--b3", "0", "--K", "1"]
    assert main(argv) == 65
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_classify_center_examples():
    r = classify(CanonicalParams(0.0, 1.0, 1.0, 0.0, 3.0))
    assert r.verdict is Verdict.CENTER
    assert r.cases == {CenterCase.I}
    assert _witness(r) == "b3 = 0"


def test_classify_stable_focus_second_order():
    r = classify(CanonicalParams(1.0, 2.0, 1.0, 1.0, 1.0))
    assert r.verdict is Verdict.FOCUS_STABLE
    assert r.cases == frozenset()
    assert r.focal.L2 < 0.0
    r = classify(CanonicalParams(1.0, -2.0, -3.0, 1.0, 1.0))
    assert r.verdict is Verdict.FOCUS_STABLE
    assert r.focal.branch is FocalBranch.CASE_C2


def test_classify_unstable_focus_first_order():
    r = classify(CanonicalParams(2.0, -1.0, -3.0, 1.0, 2.0))
    assert r.verdict is Verdict.FOCUS_UNSTABLE
    assert _witness(r) == "L1 != 0"
    assert r.focal.L1 > 0.0


def test_classify_degenerate_determinant():
    r = classify(CanonicalParams(1.0, 1.0, 1.0, 1.0, 1.0))
    assert r.verdict is Verdict.DEGENERATE_DET_ZERO
    assert r.cases == frozenset()


def test_classify_not_elliptic():
    assert classify(CanonicalParams(2.0, 1.0, 1.0, 1.0, 1.0)).verdict is Verdict.NOT_ELLIPTIC
    assert classify(CanonicalParams(1.0, 2.0, 1.0, 1.0, 2.0)).verdict is Verdict.NOT_ELLIPTIC


@pytest.mark.parametrize(
    "c",
    [
        CanonicalParams(2e-7, 1e-6, 1e-6, 2e-7, 1.0),
        CanonicalParams(1.0 + 1e-10, 2.0, 1.0, 1.0, 1.0),
        CanonicalParams(1e-12, 0.0, 1.0, -1e-12, 1.0),
        CanonicalParams(0.0, 1.0, 1.0, 0.0, 3.0),
        CanonicalParams(1.0, 2.0, 1.0, 1.0, 1.0),
        CanonicalParams(2.0, -1.0, -3.0, 1.0, 2.0),
    ],
    ids=["det-in-tolerance", "trace-1e-10", "b1-zero", "linear", "weak-focus", "first-order"],
)
def test_focal_routes_share_the_ellipticity_decision(c):
    # both focal routes refuse exactly what classify calls degenerate or not elliptic
    refused = classify(c).verdict in (Verdict.DEGENERATE_DET_ZERO, Verdict.NOT_ELLIPTIC)
    routes = (closed_form_focal, lambda c: lyapunov_numeric(taylor_expand(c, 5), 1))
    for route in routes:
        if refused:
            with pytest.raises(PreconditionViolated):
                route(c)
        else:
            route(c)


#: zeros, subnormals, tiny, unit and near-overflow magnitudes
EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-12, 1.0, -1.0, 2.0, 1e300, -1e300, 1.7e308)


def _totality_fault(c: CanonicalParams) -> str | None:
    """What is wrong with ``classify(c)``: None when it refuses with
    PreconditionViolated, or answers and each focus has the sign of a
    finite, nonzero deciding value (L2, or L1 where L2 is None)."""
    try:
        r = classify(c)
    except PreconditionViolated:
        return None
    except Exception as exc:
        return type(exc).__name__
    if r.verdict in (Verdict.FOCUS_STABLE, Verdict.FOCUS_UNSTABLE):
        deciding = r.focal.L1 if r.focal.L2 is None else r.focal.L2
        if not 0.0 < abs(deciding) < math.inf:
            return f"focus decided by {deciding}"
        if (deciding < 0.0) is not (r.verdict is Verdict.FOCUS_STABLE):
            return f"{r.verdict} decided by {deciding}"
    return None


def test_classify_is_total_on_extreme_magnitudes():
    faults = []
    for a1, b1, a3, b3 in itertools.product(EXTREMES, repeat=4):
        for K in (5e-324, 1e-300, 1.0, 1e300, 1.7e308):
            try:
                c = CanonicalParams(a1, b1, a3, b3, K)
            except ValueError:
                continue
            fault = _totality_fault(c)
            if fault is not None:
                faults.append((c, fault))
    assert not faults, f"{len(faults)} faults, first {faults[:3]}"


@pytest.mark.parametrize(
    "c",
    [CanonicalParams(1.0, 1.0, 1e300, 1.0, 1.0), CanonicalParams(1.0, 1e-12, 1.7e308, 1.0, 1.0)],
)
def test_classify_refuses_an_overflowed_l2_without_a_family(c):
    # b3 = K = 1 and a1 = 1: L1 is 0 in Q, but D rounds to -1, not 0, so
    # the float L1 is nonzero round-off; the corner L2 overflows to inf
    assert closed_form_focal(c).L2 == math.inf
    assert not match_table_cases(c)
    with pytest.raises(PreconditionViolated, match="signs a focus"):
        classify(c)


@pytest.mark.parametrize(
    "c",
    [
        CanonicalParams(0.0, 5e-324, 2e22, 0.0, 1e300),
        CanonicalParams(
            1.781859745773466e-06, 5e-324, 1e300, 2.0664483524121656e-28, 8.622812874531806e21
        ),
    ],
)
def test_classify_refuses_underflowing_focal_divisor(c):
    # elliptic, but omega*b1, which divides L1, underflows to 0
    assert jacobian(c).determinant > 0.0
    with pytest.raises(PreconditionViolated):
        classify(c)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_FINITE, _FINITE, _FINITE, st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_classify_is_total_on_trace_free_floats(a1, b1, a3, K):
    # subnormals included; b3 = a1/K puts the trace at zero
    try:
        c = CanonicalParams(a1, b1, a3, a1 / K, K)
    except ValueError:
        return
    assert _totality_fault(c) is None


def test_row_boundary_meets_degeneracy():
    # pushing a row-II inequality to equality kills the determinant
    r = classify(CanonicalParams(0.6, -0.6, -0.4, 0.4, 1.5))
    assert r.verdict is Verdict.DEGENERATE_DET_ZERO


def test_classify_rows_give_center():
    for row_index, case in enumerate(ALL_CASES):
        for i, c in enumerate(helpers.center_row_draws(200 + row_index, case, 25)):
            r = classify(c)
            assert r.verdict is Verdict.CENTER, f"{case} draw {i}: {r.verdict}"
            assert case in r.cases, f"{case} draw {i}"


def test_center_witness_names_vanishing_factor():
    # witness token -> the algebraic factor it claims vanishes
    factors = {
        "b3 = 0": lambda c: c.b3,
        "1+a3-b3*K = 0": lambda c: 1.0 + c.a3 - c.b3 * c.K,
        "1-b3*K = 0": lambda c: 1.0 - c.b3 * c.K,
        "1-K = 0": lambda c: 1.0 - c.K,
        "1+a3+K-b3*K = 0": lambda c: 1.0 + c.a3 + c.K - c.b3 * c.K,
        "a3 = -1": lambda c: c.a3 + 1.0,
        "b1 = -1": lambda c: c.b1 + 1.0,
        "a3 = b1": lambda c: c.a3 - c.b1,
    }
    for row_index, case in enumerate(ALL_CASES):
        for i, c in enumerate(helpers.center_row_draws(300 + row_index, case, 15)):
            r = classify(c)
            witness = _witness(r)
            branch = r.focal.branch
            if branch is FocalBranch.CASE_A_B3_ZERO:
                assert witness == "b3 = 0"
                assert factors["b3 = 0"](c) == 0.0
            elif branch is FocalBranch.CASE_C1:
                assert witness.startswith("b3 = 1, a3 = -1")
                assert abs(factors["a3 = -1"](c)) <= 1e-10
            elif branch is FocalBranch.CASE_C2:
                tokens = witness.removeprefix("b3 = 1, K = 1; ").split("; ")
                assert tokens, f"{case} draw {i}"
                scale = 1.0 + abs(c.a3) + abs(c.b1)
                for t in tokens:
                    assert abs(factors[t](c)) <= 1e-9 * scale, f"{case} {t}"
            else:
                tokens = witness.split("; ")
                assert tokens, f"{case} draw {i}"
                scale = 1.0 + abs(c.a3) + abs(c.b3) * c.K + c.K
                for t in tokens:
                    assert abs(factors[t](c)) <= 1e-9 * scale, f"{case} {t}"


@pytest.mark.parametrize(
    "c, case, token",
    [
        (
            CanonicalParams(
                0.04249295525249398,
                -2.7686397650078893,
                -1.4988875214951147,
                0.07849000252926733,
                0.5413804801018987,
            ),
            CenterCase.R2,
            "1+a3+K-b3*K = 0",
        ),
        (
            CanonicalParams(
                0.16048996303651086,
                -1.6452340083009256,
                -2.140603949598932,
                0.12335002267398111,
                1.3010939078681165,
            ),
            CenterCase.R2,
            "1+a3+K-b3*K = 0",
        ),
        (
            CanonicalParams(
                0.03688374703199085,
                0.3418439725338183,
                0.34184397287889307,
                0.03688374712078356,
                0.9999999975926331,
            ),
            CenterCase.R1,
            "1-K = 0",
        ),
    ],
    ids=["R2-a", "R2-b", "R1"],
)
def test_witness_names_the_factor_of_each_matched_family(c, case, token):
    # each point matches its family within CLOSE_TOL while the family's
    # factor lies just outside CLOSE_TOL*(1+|a3|+|b3|K+K); the witness
    # names the factor of the matched family and tests nothing again
    r = classify(c)
    assert r.verdict is Verdict.CENTER
    assert r.cases == {case}
    assert _witness(r) == token


def test_verdict_matches_case_membership():
    # center verdict and nonempty case set are the same event
    for i, c in enumerate(helpers.elliptic_draws(53, 400)):
        r = classify(c)
        if r.verdict is Verdict.CENTER:
            assert r.cases, f"draw {i}"
        else:
            assert not r.cases, f"draw {i}"


def test_classification_record_text(capsys):
    # the CLI renders the record
    assert main(["classify", "--a1", "0", "--b1", "1", "--a3", "1", "--b3", "0", "--K", "3"]) == 0
    text = capsys.readouterr().out
    assert "verdict=Center" in text
    assert "cases=I" in text
    assert "witness=b3 = 0" in text
    assert main(["classify", "--a1", "2", "--b1", "-1", "--a3", "-3", "--b3", "1", "--K", "2"]) == 1
    text = capsys.readouterr().out
    assert "verdict=FocusUnstable" in text


#: two of the near-family draws (scales 1e-9 and 1e-8) on which L1 vanishes
#: within its window where the algebra rules L1 = 0 out: D ~ 0 with b3 not
#: 1, and b3 ~ 1 with neither K = 1 nor a3 = -1.  L1 decides there, where
#: closed_form_focal's branch split once raised
FOCAL_BRANCH_RAISES = (
    CanonicalParams(
        0.2269037879504446, -4.663676679216955, -0.9999999991623714,
        1.0000000030417742, 0.2269037872602545,
    ),
    CanonicalParams(
        1.0122266302638014, -1.9157034385843585, -0.9999999952402949,
        0.9999999989428641, 1.0122266313338626,
    ),
)


#: one input per return of classify: degenerate, not elliptic, a focus that
#: L2 decides (on the b3 = K = 1 corner), Center, two where L1 decides off
#: every L2 branch, a focus that L1 decides beyond its window, and a
#: near-family draw whose L2 of 0 (b3 ~ 0) hands the focus to L1
CLASSIFY_RETURNS = {
    "degenerate": (CanonicalParams(1.0, 1.0, 1.0, 1.0, 1.0), Verdict.DEGENERATE_DET_ZERO),
    "not-elliptic": (CanonicalParams(2.0, 1.0, 1.0, 1.0, 1.0), Verdict.NOT_ELLIPTIC),
    "focus": (CanonicalParams(1.0, 2.0, 1.0, 1.0, 1.0), Verdict.FOCUS_STABLE),
    "center": (CanonicalParams(0.0, 1.0, 1.0, 0.0, 3.0), Verdict.CENTER),
    # both L1 are positive in Q on b3 := a1/K
    "raise-d-zero": (FOCAL_BRANCH_RAISES[0], Verdict.FOCUS_UNSTABLE),
    "raise-b3-one": (FOCAL_BRANCH_RAISES[1], Verdict.FOCUS_UNSTABLE),
    "l1-focus": (CanonicalParams(1.0, 2.0, 1.0, 0.5, 2.0), Verdict.FOCUS_STABLE),
    "l2-zero-l1-focus": (
        CanonicalParams(
            1.1661277761902228e-09, 3.6349367239807155, 0.7521494933013428,
            4.86181565215746e-10, 2.3985437943800823,
        ),
        Verdict.FOCUS_STABLE,
    ),
}


@pytest.mark.parametrize("c, outcome", CLASSIFY_RETURNS.values(), ids=CLASSIFY_RETURNS.keys())
def test_classify_linearizes_once(monkeypatch, c, outcome):
    # one jacobian call per classify, whether the focal values are needed,
    # or L1 decides off every L2 branch
    calls = []

    def counted(arg):
        calls.append(arg)
        return jacobian(arg)

    monkeypatch.setattr("lotkacenter.classifier.jacobian", counted)
    monkeypatch.setattr("lotkacenter.focal.jacobian", counted)
    assert classify(c).verdict is outcome
    assert calls == [c]


def _hot_path_records(c):
    """jacobian's, closed_form_focal's and classify's records for ``c``,
    with the class each must be an instance of, nested records included."""
    summary = jacobian(c)
    out = [(summary, JacobianSummary)]
    result = classify(c)
    out.append((result, CenterClassification))
    if result.focal is not None:
        out += [(result.focal, FocalValues), (closed_form_focal(c), FocalValues)]
        out.append((closed_form_focal(c, summary=summary), FocalValues))
    return result, out


@pytest.mark.parametrize("c, outcome", CLASSIFY_RETURNS.values(), ids=CLASSIFY_RETURNS.keys())
def test_hot_path_builds_records_as_their_constructors_would(monkeypatch, c, outcome):
    # classify, jacobian and closed_form_focal build their records through
    # tuple.__new__, never through the slower __new__ of the class; each
    # record must still be the object that the class would build
    def refuse(cls, *args, **kwargs):
        raise AssertionError(f"{cls.__name__} built through its class")

    with monkeypatch.context() as patch:
        for cls in (JacobianSummary, FocalValues, CenterClassification):
            patch.setattr(cls, "__new__", refuse)
        result, records = _hot_path_records(c)
    assert result.verdict is outcome
    assert (result.focal is None) is (outcome in (Verdict.DEGENERATE_DET_ZERO, Verdict.NOT_ELLIPTIC))
    for record, cls in records:
        assert type(record) is cls
        assert record == cls(*record)
        assert record._asdict() == dict(zip(cls._fields, record))
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is cls and back == record


def _focal_bits(fv):
    return (
        fv.L1.hex(),
        None if fv.L2 is None else fv.L2.hex(),
        fv.d_value.hex(),
        fv.branch,
    )


def _outcome(fn, c):
    try:
        return fn(c)
    except LotkaError as exc:
        return exc


def _same_error(got, want):
    return type(got) is type(want) and str(got) == str(want)


def test_classify_focal_values_are_closed_form_focal_bits():
    # the near-family draws of test_match_sets_near_the_families_digest at
    # 1e-9 to 1e-6, each trace-free and once more with b3 moved off a1/K:
    # classify, which hands its summary on, gives closed_form_focal's bits
    # or its exact error, with L2 = None where an L2 of 0 leaves L1 to
    # decide a focus; where the point is not elliptic, closed_form_focal
    # raises the same message with the summary as without it
    base = _near_family_base()
    seen = {"focal": 0, "l1-decides": 0, "refused": 0}
    bad = []
    for s in (1e-9, 1e-8, 1e-7, 1e-6):
        noise = np.random.default_rng(7).normal(0.0, s, (len(base), 4))
        tilt = np.random.default_rng(8).normal(0.0, s, len(base))
        for i, (c, (da1, db1, da3, dk), db3) in enumerate(zip(base, noise.tolist(), tilt.tolist())):
            a1, K = c.a1 + da1, c.K * (1.0 + dk)
            for b3 in (a1 / K, a1 / K + db3):
                d = CanonicalParams(a1, c.b1 + db1, c.a3 + da3, b3, K)
                want, got = _outcome(closed_form_focal, d), _outcome(classify, d)
                if isinstance(got, CenterClassification) and got.focal is not None:
                    seen["focal"] += 1
                    focus = got.verdict is not Verdict.CENTER
                    if focus and isinstance(want, FocalValues) and want.L2 == 0.0:
                        seen["l1-decides"] += 1
                        want = want._replace(L2=None)
                    ok = isinstance(want, FocalValues) and _focal_bits(got.focal) == _focal_bits(want)
                elif isinstance(got, CenterClassification):
                    seen["refused"] += 1
                    again = _outcome(lambda d: closed_form_focal(d, summary=jacobian(d)), d)
                    ok = isinstance(want, PreconditionViolated) and _same_error(again, want)
                else:
                    ok = isinstance(want, LotkaError) and _same_error(got, want)
                if not ok:
                    bad.append((s, i, d, want, got))
    assert not bad, f"{len(bad)} differ, first {bad[:2]}"
    assert all(seen.values()), seen


def _exact_sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _exact_deciding_sign(d: CanonicalParams, fv: FocalValues) -> int:
    """Sign in Q, on the trace-projected input (b3 := a1/K), of the closed
    form that decided a focus: L1 where ``fv.L2`` is None, else the L2 of
    ``fv.branch``.  pi, omega and K are positive factors and drop out."""
    a1, b1, a3, K = map(Fraction, (d.a1, d.b1, d.a3, d.K))
    b3 = a1 / K
    D = 1 + a3 - a3 * K - b3 * K
    if fv.L2 is None:
        # L1 = (pi/8) K b3 (b1 D - a3 (1 - b3) K) / (omega b1)
        return _exact_sign(b3 * (b1 * D - a3 * (1 - b3) * K) * b1)
    if fv.branch is FocalBranch.CASE_C2:
        # L2 = (pi/288) a3 (1 + a3) (1 + b1) (a3 - b1) / (omega b1)
        return _exact_sign(a3 * (1 + a3) * (1 + b1) * (a3 - b1) * b1)
    assert fv.branch is FocalBranch.CASE_B_D_NONZERO, fv
    numerator = (
        (a3 + b3) ** 2 * b3 * (1 + a3 - b3 * K) * (1 - b3 * K) * (1 - K) * (1 + a3 + K - b3 * K)
    )
    return _exact_sign(numerator * D * (1 - b3))


def test_near_family_foci_have_the_exact_sign_of_their_deciding_closed_form():
    # the 12,000 near-family draws at 1e-10 to 1e-6: classify raises
    # nothing, and every focus, whichever of L1 and L2 decided it and on
    # either side of a tolerance, has its deciding closed form's sign in Q
    seen = {"L1": 0, "L2": 0}
    bad = []
    for i, d in enumerate(_near_family_draws()):
        r = classify(d)
        if r.verdict in (Verdict.FOCUS_STABLE, Verdict.FOCUS_UNSTABLE):
            seen["L1" if r.focal.L2 is None else "L2"] += 1
            want = -1 if r.verdict is Verdict.FOCUS_STABLE else 1
            if _exact_deciding_sign(d, r.focal) != want:
                bad.append((i, d, r))
    assert not bad, f"{len(bad)} foci of the wrong sign, first {bad[:2]}"
    assert all(seen.values()), seen


#: free (b1, b3) of exact R2 points whose a1 and a3 are near -700: round-off
#: leaves L2 near -1.1e-10 to -1.4e-10, and the family match alone decides
R2_LARGE_EXPONENTS = (
    (-13.812608418989228, -12.793679406261568),
    (-19.826063157537085, -18.803491748694437),
    (-17.268905357052375, -16.24885984740604),
)


@pytest.mark.parametrize("b1, b3", R2_LARGE_EXPONENTS)
def test_exact_r2_points_with_large_exponents_are_centers(b1, b3):
    r = classify(CanonicalParams(*CASE_CONSTRAINTS[CenterCase.R2].point(b1, b3)))
    assert r.verdict is Verdict.CENTER
    assert CenterCase.R2 in r.cases


def _classify_argv(c: CanonicalParams) -> list[str]:
    names = ("a1", "b1", "a3", "b3", "K")
    return ["classify", *itertools.chain(*((f"--{n}", repr(getattr(c, n))) for n in names))]


def test_cli_classify_exits_on_the_single_decision(capsys):
    # an exact R2 point with large exponents is a center (exit 0); where L1
    # decides off every L2 branch, a focus (exit 1) with L1's witness
    r2 = CanonicalParams(*CASE_CONSTRAINTS[CenterCase.R2].point(*R2_LARGE_EXPONENTS[0]))
    assert main(_classify_argv(r2)) == 0
    assert "verdict=Center" in capsys.readouterr().out
    assert main(_classify_argv(FOCAL_BRANCH_RAISES[1])) == 1
    text = capsys.readouterr().out
    assert "verdict=FocusUnstable" in text
    assert "witness=L1 != 0" in text


@pytest.mark.parametrize(
    "c",
    [
        CanonicalParams(1.0, 1.0, 1.0, 1.0, 1.0),
        CanonicalParams(2.0, 1.0, 1.0, 1.0, 1.0),
        CanonicalParams(1.0, 2.0, 1.0, 1.0, 2.0),
    ],
    ids=["degenerate", "saddle", "trace-nonzero"],
)
def test_closed_form_focal_refuses_a_non_elliptic_summary(c):
    with pytest.raises(PreconditionViolated) as without:
        closed_form_focal(c)
    with pytest.raises(PreconditionViolated) as given:
        closed_form_focal(c, summary=jacobian(c))
    assert str(given.value) == str(without.value)


def _enum_member_reads(fn):
    """``EnumClass.MEMBER`` reads in ``fn``'s bytecode: a global bound to
    an Enum subclass followed by an attribute load."""
    ins = list(dis.get_instructions(fn))
    for this, nxt in zip(ins, ins[1:]):
        if this.opname == "LOAD_GLOBAL" and nxt.opname in ("LOAD_ATTR", "LOAD_METHOD"):
            bound = fn.__globals__.get(this.argval)
            if isinstance(bound, type) and issubclass(bound, enum.Enum):
                yield f"{this.argval}.{nxt.argval}"


@pytest.mark.parametrize(
    "fn",
    [
        classify,
        jacobian,
        closed_form_focal,
        focal._require_elliptic,
        conserved._term_value,
        conserved._term_gradient,
    ],
    ids=lambda fn: fn.__name__,
)
def test_hot_path_reads_no_enum_member_through_its_class(fn):
    # on Python 3.11 EnumType.__getattr__ makes EnumClass.MEMBER about four
    # times the cost of a module constant, once per verdict or branch
    assert list(_enum_member_reads(fn)) == []


def test_enum_member_constants_are_their_namesakes():
    # the hot paths' member constants are unpacked from their enums in
    # definition order; each must be the member it is named after, and each
    # module with a hot path holds some
    for module in (model, focal, classifier, conserved):
        seen = 0
        for name, value in vars(module).items():
            if name.startswith("_") and isinstance(value, enum.Enum):
                assert value.name == name[1:], (module.__name__, name)
                seen += 1
        assert seen, module.__name__
