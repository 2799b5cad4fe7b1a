"""The record types' contract: constructor parameters, equality by value and
immutability of the read-only records, validation messages, and pickling."""

import inspect
import math
import pickle
import time

import pytest

from lntlab import _dop853, exponents, ode, params, reports, shooting, singular, spectral
from lntlab._dop853 import Column
from lntlab.errors import DegenerateEventError, IntegrationError, ParameterError
from lntlab.ode import PointKind

REQUIRED = inspect.Parameter.empty
FACTORY = object()  # optional, with a fresh value built per record

# every record's constructor parameters in order; a pair is (name, default)
SIGNATURES = {
    _dop853.Field: ("t", "state", "consts", "body", "rates"),
    params.ProblemParams: ("N", "p", ("R", None)),
    params.DerivedConstants: ("N", "p", "theta", "A", "m", "alpha", "beta", "Dp", "pJL",
                              "regime"),
    params.AsymptoticLimits: ("N", "beta_over_sqrt_p", "p_theta", "A", "alpha_over_sqrt_p",
                              "m_over_sqrt_p", "Dp"),
    params.LemmaConstants: ("N", "p", "ctilde", "rtilde_p", "PN", "PN_threshold"),
    ode.RadialState: ("r", "u", "du"),
    singular.CriticalRadii: ("radii", "kinds"),
    singular.SingularSolution: ("params", "constants", "lemma", "seed_radius",
                                "seed_truncation", "trajectory", "r_p", "critical_radii"),
    singular.SeedWindow: ("constants", "lemma", "certified_radius", "radius"),
    singular.OriginBoundsReport: ("lower_margin", "upper_margin", "tol", "passed"),
    singular.DerivativeBoundReport: ("du_at_rtilde", "du_scaled", "u_at_rtilde",
                                     "sup_remainder_ratio"),
    shooting.ShootingResult: ("gamma", "params", "trajectory", "critical_radii"),
    shooting.ConvergenceReport: ("gammas", "distances", "statuses", "passed", "complete"),
    exponents.ExponentSolution: ("i", "R", "p_i", "residual", "crossings", "solves",
                                 "bracket"),
    exponents.ContinuityReport: ("refined_grid", "refined_values", "modulus_coarse",
                                 "modulus_fine", "ratio", "max_jump_factor", "passed"),
    spectral.TridiagonalForm: ("diag", "offdiag", ("mass", None)),
    spectral.AssembledOperator: ("form",),
    spectral.SpectrumReport: ("negative_count", "smallest_eigenvalues", "cutoff",
                              "grid_size"),
    spectral.MorseScanResult: ("reports", "classification"),
    spectral.SampledRadialFunction: ("N", "log_r", "scaled", "scaled_d"),
    spectral.ThresholdReport: ("limit_computed", "limit_closed_form", "hardy_constant",
                               "margin", "side", "passed"),
    # the mutable records
    _dop853.Run: ("t", "y", "t_events", "rises", "status", "message", "dense", "nfev",
                "n_accepted", "n_rejected"),
    ode.RadialTrajectory: ("params", "r", "u", "du", "unit_crossings", "critical_points",
                           "critical_kinds", ("rtol", 1e-10), ("atol", 1e-12),
                           ("status", "ok"), ("message", ""), ("dense", None), ("nfev", 0),
                           ("n_accepted", 0), ("n_rejected", 0)),
    ode.DifferencePath: ("r", "status", ("dense", None)),
    reports.CheckRecord: ("name", "status", "claim", ("margins", FACTORY),
                          ("fixtures", FACTORY), ("message", "")),
    reports.ReportBundle: ("command", "config", "tolerances"),
}
MUTABLE = (_dop853.Run, ode.RadialTrajectory, ode.DifferencePath, reports.CheckRecord,
           reports.ReportBundle)
FROZEN = [cls for cls in SIGNATURES if cls not in MUTABLE]

# arguments that pass the records' checks; the others take any values
VALID = {
    params.ProblemParams: lambda: dict(N=5, p=20.0, R=1.0),
    ode.RadialState: lambda: dict(r=0.5, u=2.0, du=-1.0),
    singular.CriticalRadii: lambda: dict(radii=[0.5, 1.5], kinds=(PointKind.MIN, PointKind.MAX)),
    spectral.TridiagonalForm: lambda: dict(diag=[2.0, 2.0], offdiag=[-1.0], mass=[1.0, 0.5]),
    spectral.SampledRadialFunction: lambda: dict(N=5, log_r=[-1.0, 0.0], scaled=[1.0, 2.0],
                                                 scaled_d=[0.5, 0.25]),
    ode.RadialTrajectory: lambda: dict(
        params=params.ProblemParams(5, 20.0), r=Column([0.5, 1.0]), u=Column([2.0, 1.0]),
        du=Column([-1.0, -0.5]), unit_crossings=Column([1.0]), critical_points=Column(),
        critical_kinds=()),
}


def _names(cls):
    return [s if isinstance(s, str) else s[0] for s in SIGNATURES[cls]]


def _arguments(cls):
    if cls in VALID:
        return VALID[cls]()
    return {name: (name, k + 0.5) for k, name in enumerate(_names(cls))}


def _values(record):
    return [getattr(record, name) for name in _names(type(record))]


def _changed(value):
    if isinstance(value, list):
        return [v + 1.0 for v in value]
    return value + 1 if isinstance(value, (int, float)) else (*value, "changed")


def _ids(cls):
    return cls.__name__


def test_every_record_is_pinned():
    assert len(SIGNATURES) == 26 and len(FROZEN) == 21


@pytest.mark.parametrize("cls", SIGNATURES, ids=_ids)
def test_constructor_parameters(cls):
    got = list(inspect.signature(cls).parameters.values())
    want = [(s, REQUIRED) if isinstance(s, str) else s for s in SIGNATURES[cls]]
    assert [p.name for p in got] == [name for name, _ in want]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in got)
    for p, (_, default) in zip(got, want):
        if default is FACTORY:
            assert p.default is not REQUIRED
        else:
            assert p.default == default


@pytest.mark.parametrize("cls", SIGNATURES, ids=_ids)
def test_positional_and_keyword_construction_agree(cls):
    kwargs = _arguments(cls)
    assert list(kwargs) == _names(cls)[:len(kwargs)]
    by_name, by_place = cls(**kwargs), cls(*kwargs.values())
    assert _values(by_name) == _values(by_place)


@pytest.mark.parametrize("cls", FROZEN, ids=_ids)
def test_frozen_records_equal_by_value(cls):
    a, b = cls(**_arguments(cls)), cls(**_arguments(cls))
    assert a is not b and a == b and not a != b
    try:
        key = hash(tuple(_values(a)))
    except TypeError:  # fields held in arrays
        key = None
    if key is not None:
        assert hash(a) == hash(b)
    name = _names(cls)[0]
    assert a != cls(**{**_arguments(cls), name: _changed(_arguments(cls)[name])})


@pytest.mark.parametrize("cls", FROZEN, ids=_ids)
def test_frozen_records_refuse_assignment(cls):
    record = cls(**_arguments(cls))
    before = _values(record)
    for name in _names(cls):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
    assert _values(record) == before


@pytest.mark.parametrize("cls", MUTABLE, ids=_ids)
def test_mutable_records_take_assignment(cls):
    record, name = cls(**_arguments(cls)), _names(cls)[0]
    setattr(record, name, "changed")
    assert getattr(record, name) == "changed"


@pytest.mark.parametrize("cls", SIGNATURES, ids=_ids)
def test_pickle_round_trip(cls):
    record = cls(**_arguments(cls))
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and _values(back) == _values(record)
    if cls in FROZEN:
        assert back == record


def test_converting_records_hold_columns():
    radii = singular.CriticalRadii(**VALID[singular.CriticalRadii]())
    form = spectral.TridiagonalForm(**VALID[spectral.TridiagonalForm]())
    sampled = spectral.SampledRadialFunction(**VALID[spectral.SampledRadialFunction]())
    held = [radii.radii, form.diag, form.offdiag, form.mass, sampled.log_r, sampled.scaled,
            sampled.scaled_d]
    assert all(type(col) is Column and col.typecode == "d" for col in held)
    assert spectral.TridiagonalForm([1.0], []).mass is None
    assert len(radii) == 2 and radii[1] == 1.5


def test_factory_defaults_are_fresh():
    first, second = reports.CheckRecord("a", "PASS", "c"), reports.CheckRecord("b", "PASS", "c")
    assert first.margins == first.fixtures == {} and first.message == ""
    assert first.margins is not second.margins and first.fixtures is not second.fixtures
    t0 = time.time()
    one, two = reports.ReportBundle("x", {}, {}), reports.ReportBundle("y", {}, {})
    assert one.checks == one.artifacts == [] and one.checks is not two.checks
    assert one.artifacts is not two.artifacts
    assert t0 <= one.timestamp <= two.timestamp <= time.time()


def test_trajectory_energy_is_computed_once():
    traj = ode.RadialTrajectory(**VALID[ode.RadialTrajectory]())
    assert traj.energy is traj.energy
    assert list(traj.energy) == list(ode.energy_values(traj.u, traj.du, 20.0))


_INVALID = [
    (ode.RadialState, (0.0, 1.0, 0.0), ParameterError, "radius must be positive, got r=0.0"),
    (ode.RadialState, (1.0, math.inf, 0.0), ParameterError, "state values must be finite"),
    (params.ProblemParams, (5, math.nan), ParameterError, "power must be finite, got p=nan"),
    (params.ProblemParams, (5, 1.0), ParameterError,
     "supercritical power required: p=1.0 < (N+2)/(N-2)=2.3333333333333335 at N=5"),
    (params.ProblemParams, (5, 10.0, -1.0), ParameterError,
     "ball radius must be positive and finite, got R=-1.0"),
    (params.ProblemParams, (2, 10.0), ParameterError, None),
    (singular.CriticalRadii, ([1.0], ()), ParameterError,
     "one kind per critical radius required"),
    (singular.CriticalRadii, ([2.0, 1.0], (PointKind.MIN, PointKind.MAX)), ParameterError,
     "critical radii must be strictly increasing"),
    (singular.CriticalRadii, ([1.0, 2.0], (PointKind.MIN, PointKind.MIN)),
     DegenerateEventError, "critical points at r=1.0 and r=2.0 are both of kind min: "
     "u' touched zero without crossing"),
    (spectral.TridiagonalForm, ([1.0, 2.0], []), ParameterError,
     "offdiagonal must be one shorter than the diagonal"),
    (spectral.TridiagonalForm, ([1.0, 2.0], [0.5], [1.0]), ParameterError,
     "mass must match the diagonal size"),
    (spectral.TridiagonalForm, ([1.0, 2.0], [0.5], [1.0, 0.0]), ParameterError,
     "mass must be positive and finite"),
    (spectral.SampledRadialFunction, (5, [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]), ParameterError,
     "log-radius samples must be strictly increasing"),
]


@pytest.mark.parametrize("cls, args, error, message", _INVALID,
                         ids=[f"{c.__name__}-{k}" for k, (c, *_) in enumerate(_INVALID)])
def test_validation_messages(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    if message is not None:
        assert str(info.value) == message


@pytest.mark.parametrize("change, message", [
    (dict(r=Column([0.5])), "trajectory must contain at least two samples"),
    (dict(r=Column([0.5, 0.5])), "trajectory samples must be strictly increasing in r"),
    (dict(unit_crossings=Column([1.0, 0.5])), "event radii must be strictly increasing"),
])
def test_trajectory_validation_messages(change, message):
    with pytest.raises(IntegrationError) as info:
        ode.RadialTrajectory(**{**VALID[ode.RadialTrajectory](), **change})
    assert str(info.value) == message


def test_equal_fields_share_one_loop():
    # a Field keys the caches of the generated code: two declarations built
    # apart, with equal parts, compile one stepping loop between them
    def declare():
        return _dop853.Field(t="s", state=tuple(f"w{k}" for k in range(2)), consts=("kk",),
                           body=(), rates=("w1", "-kk * w0"))

    first, second = declare(), declare()
    assert first is not second and first == second and hash(first) == hash(second)
    exprs, scan = ("w0 - 0.25",), ((True, True),)
    size = _dop853._loop.cache_info().currsize
    loop = _dop853._loop(first, exprs, scan)
    assert _dop853._loop(second, exprs, scan) is loop
    assert _dop853._loop.cache_info().currsize == size + 1
    run = _dop853.solve(second, {"kk": 4.0}, 0.0, (1.0, 0.0), 1.0, 1e-10, 1e-12,
                      [_dop853.Event("w0 - 0.25")])
    # w0 = cos(2 s) crosses 1/4 once on [0, 1]
    assert run.status == "finished" and len(run.t_events[0]) == 1
    assert abs(run.t_events[0][0] - 0.5 * math.acos(0.25)) < 1e-8
    assert _dop853._loop.cache_info().currsize == size + 1
