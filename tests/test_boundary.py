"""The public boundary: each callable of `linexsel.__all__` refuses what it cannot compute.

A hypothesis property puts nan, +inf or -inf into one float of a public
callable's valid arguments at a time, nested floats (observations, means, a
dataset's rows) included, every other argument left valid. The call must
raise a `LinexError` (or, reading a dataset, a `DatasetError`), or return a
value that is not None and whose floats are all finite: every registered
call answers at its valid arguments, so a None at a bad one is a bad value
that went unnoticed. A name has at most 17 floats, so each (float, value)
pair is drawn: hypothesis stops once it has tried every one.

Each public callable is either in `REGISTRY`, with valid arguments, or in
`EXEMPT`, with the reason, and `test_every_public_callable_is_registered_or_exempt`
keeps each in exactly one of the two, so a new public name cannot skip the
property. The forms behind the boundary (the array kernels, `clip_band`,
`bayes_posterior`, `sample_batch`) are importable from their modules alone;
the records and `select` in front of them refuse non-finite input.
"""

import importlib
import itertools
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linexsel
from linexsel import (
    CovarianceSpec,
    EstimatorSpec,
    DatasetError,
    GroupedDataset,
    LinexError,
    LinexParams,
    MeanVectorPair,
    ObservationPair,
    PriorSpec,
    SimConfig,
    TableSpec,
    ThetaStar,
)
from linexsel.core import Record

COV = (2.0, 1.5, 0.5)
Z = ((0.3, 1.2), (-0.4, 0.7))
MEANS = ((0.2, 2.0), (2.0, 0.2))
PRIOR = (0.0, 0.5, 2.0)
GROUPS = (((1.0, 2.0), (1.5, 2.5), (0.5, 1.0)), ((2.0, 1.0), (2.5, 0.5), (3.0, 2.0)))
BASES = (EstimatorSpec.n1(), EstimatorSpec.n2(), EstimatorSpec.n3())

#: the values that no estimate of a finite observation can be built from
NON_FINITE = (math.nan, math.inf, -math.inf)


def _model(a, cov):
    return LinexParams(a), CovarianceSpec(*cov)


def _summary(z):
    return linexsel.select(ObservationPair(*z))


def _specs(c, d, prior):
    bases = (*BASES, EstimatorSpec.n4(c))
    return (*bases, EstimatorSpec.shift(d), EstimatorSpec.bayes(PriorSpec(*prior)),
            *map(EstimatorSpec.improved, bases))


def _config(means, cov, a):
    a, cov = _model(a, cov)
    return SimConfig(MeanVectorPair(*means), cov, a, reps=4, master_seed=1, estimators=BASES)


def _table(a, cov, means):
    return TableSpec(99, *_model(a, cov), tuple((spec.kind, spec) for spec in BASES),
                     (MeanVectorPair(*means),))


def _csv_rows(group1, group2):
    """A dataset file of the two groups' rows, each value written as repr writes it (nan, inf)."""
    fd, path = tempfile.mkstemp(suffix=".csv")
    with os.fdopen(fd, "w") as fh:
        fh.write("group,weight,cholesterol\n")
        for label, group in (("A", group1), ("B", group2)):
            fh.writelines(f"{label},{x!r},{y!r}\n" for x, y in group)
    try:
        return linexsel.load_dataset(path)
    finally:
        os.remove(path)


def _finite_bound(bounds):
    # off its condition set a bound is infinite by contract; at the valid
    # arguments below one bound is finite, and that one is checked
    return min(bounds, key=abs)


#: each registered public callable: a call of it, and the valid arguments the call takes
REGISTRY = {
    "CovarianceSpec": (CovarianceSpec, COV),
    "EstimatorSpec": (lambda c, d: (EstimatorSpec("N4", c=c), EstimatorSpec("Shift", d=d)), (1.0, 0.3)),
    "LinexParams": (LinexParams, (1.0,)),
    "MeanVectorPair": (MeanVectorPair, MEANS),
    "ObservationPair": (ObservationPair, Z),
    "PriorSpec": (PriorSpec, PRIOR),
    "SimConfig": (_config, (MEANS, COV, 1.0)),
    "TableSpec": (_table, (1.0, COV, MEANS)),
    "ThetaStar": (ThetaStar, (0.5, 1.0)),
    "analyze": (lambda groups, a, c, prior: linexsel.analyze(
        linexsel.fit(GroupedDataset(*groups, ("A", "B"))), LinexParams(a), c, PriorSpec(*prior)),
        (GROUPS, -1.0, 1.0, PRIOR)),
    "applicable_case": (linexsel.applicable_case, ("N1", 1.0, 0.5)),
    "base_phi": (lambda z, a, cov, c: [linexsel.base_phi(spec, _summary(z), *_model(a, cov))
                                       for spec in (*BASES, EstimatorSpec.n4(c))], (Z, 1.0, COV, 1.0)),
    "bounds": (lambda a, cov: linexsel.bounds(*_model(a, cov)), (1.0, COV)),
    "bundled_dataset_path": (linexsel.bundled_dataset_path, ()),
    "case_label": (linexsel.case_label, (7,)),
    "classify": (lambda d, a, cov: linexsel.classify(d, *_model(a, cov)), (0.2, 1.0, COV)),
    "est_bayes": (lambda z, prior, a, cov: linexsel.est_bayes(
        _summary(z), PriorSpec(*prior), *_model(a, cov)), (Z, PRIOR, 1.0, COV)),
    "estimate_rows": (lambda z, a, cov, c, prior, d: linexsel.estimate_rows(
        _summary(z), *_model(a, cov), c, PriorSpec(*prior), d), (Z, 1.0, COV, 1.0, PRIOR, 0.3)),
    "evaluate": (lambda z, a, cov, c, d, prior: [linexsel.evaluate(spec, _summary(z), *_model(a, cov))
                                                 for spec in _specs(c, d, prior)],
                 (Z, 1.0, COV, 1.0, 0.3, PRIOR)),
    "fit": (lambda groups: linexsel.fit(GroupedDataset(*groups, ("A", "B"))), (GROUPS,)),
    "h_a": (lambda theta_x, a, cov: linexsel.h_a(theta_x, *_model(a, cov)), (0.5, 1.0, COV)),
    "improve": (lambda z, a, cov, c: [linexsel.improve(EstimatorSpec.improved(spec), _summary(z),
                                                       *_model(a, cov))
                                      for spec in (*BASES, EstimatorSpec.n4(c))], (Z, 1.0, COV, 1.0)),
    "linex_loss": (lambda delta, theta, a: linexsel.linex_loss(delta, theta, LinexParams(a)),
                   (0.75, -0.25, 1.0)),
    "load_dataset": (_csv_rows, GROUPS),
    "paired_risk_difference": (lambda means, cov, a: linexsel.paired_risk_difference(
        _config(means, cov, a), EstimatorSpec.n1(), EstimatorSpec.improved(EstimatorSpec.n1())),
        (MEANS, COV, 1.0)),
    "phi_bounds": (lambda t1, t2, a, cov: _finite_bound(linexsel.phi_bounds(t1, t2, *_model(a, cov))),
                   (-0.5, -1.0, 1.0, COV)),
    "psi": (lambda gaps, a, cov: linexsel.psi(ThetaStar(*gaps), *_model(a, cov)),
            ((0.5, 1.0), 1.0, COV)),
    "risk_grid": (lambda a, cov, means: linexsel.risk_grid(_table(a, cov, means), 4, 1, 1),
                  (1.0, COV, MEANS)),
    "rng_stream": (linexsel.rng_stream, (42, 7, 3, 2)),
    "select": (_summary, (Z,)),
    "shift_risk": (lambda d, gaps, a, cov: linexsel.shift_risk(d, ThetaStar(*gaps), *_model(a, cov)),
                   (0.2, (0.5, 1.0), 1.0, COV)),
    "simulate_all": (lambda means, cov, a: linexsel.simulate_all(_config(means, cov, a)),
                     (MEANS, COV, 1.0)),
    "simulate_risk": (lambda means, cov, a: linexsel.simulate_risk(_config(means, cov, a),
                                                                   EstimatorSpec.n3()),
                      (MEANS, COV, 1.0)),
}

_ERROR = "an error type, what the boundary raises"
_FORMS = "takes and gives +-inf by contract: Phi(-inf) = 0, log Phi(-inf) = -inf, log_sum_exp([]) = -inf"

#: each public callable the property leaves out, and why
EXEMPT = {
    "DatasetError": _ERROR,
    "InvalidParameterError": _ERROR,
    "LinexError": _ERROR,
    "LinexOverflowError": _ERROR,
    "SingularCovarianceError": _ERROR,
    "std_normal_cdf": _FORMS,
    "std_normal_pdf": _FORMS,
    "log_std_normal_cdf": _FORMS,
    "log_sum_exp": _FORMS,
    "AdmissibilityBounds": "a result record; `bounds` refuses an end that is not finite",
    "AnalysisReport": "a result record; `analyze` builds it from refused inputs",
    "FittedModel": "a result record; `fit` refuses a dataset it cannot fit",
    "GroupedDataset": "a dataset record; `load_dataset` refuses a non-finite row, `fit` a non-finite dataset",
    "ImprovementOutcome": "a result record; `improve` reads a `select` summary",
    "RiskEstimate": "a result record; the runner refuses a risk that is not finite",
    "RiskTable": "a result record; `risk_grid` refuses a risk that is not finite",
    "SelectionSummary": "a result record; `select` refuses differences that overflowed",
    "estimates_csv": "formats `estimate_rows`, which refuses a row that is not finite",
}

#: the forms behind the boundary, and the module each is imported from
BEHIND = {
    "base_phi_batch": "kernels", "evaluate_batch": "kernels", "improve_batch": "kernels",
    "select_batch": "kernels", "clip_band": "oracles", "bayes_posterior": "estimators",
    "sample_batch": "core",
}


def _slots(args) -> int:
    """How many floats `args` holds, nested tuples included."""
    if isinstance(args, tuple):
        return sum(_slots(arg) for arg in args)
    return type(args) is float


def _put(args, slot: int, value: float):
    """`args` with its float number `slot` (depth first) replaced by `value`."""
    floats = itertools.count()

    def put(arg):
        if isinstance(arg, tuple):
            return tuple(map(put, arg))
        return value if type(arg) is float and next(floats) == slot else arg

    return put(args)


def _floats(value):
    """Every float in a result: in records (derived values too), containers and arrays."""
    if isinstance(value, Record):
        value = vars(value)
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, float):
        yield value


def _answer(name: str, args):
    """The call's result, or None where it refused; AssertionError where it let a bad value through."""
    call, _ = REGISTRY[name]
    try:
        result = call(*args)
    except (LinexError, DatasetError):
        return None
    assert result is not None, f"{name}{args} gave None"
    bad = [v for v in _floats(result) if not math.isfinite(v)]
    assert not bad, f"{name}{args} gave {bad}"
    return result


def _public_callables() -> set[str]:
    return {name for name in linexsel.__all__ if callable(getattr(linexsel, name))}


def test_every_public_callable_is_registered_or_exempt():
    public = _public_callables()
    assert not set(REGISTRY) & set(EXEMPT)
    unlisted = sorted(public - set(REGISTRY) - set(EXEMPT))
    assert not unlisted, f"public callables neither registered nor exempt: {unlisted}"
    assert set(REGISTRY) | set(EXEMPT) == public, "registered or exempt names that are not public"


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_valid_arguments_give_an_answer(name):
    assert _answer(name, REGISTRY[name][1]) is not None


@pytest.mark.parametrize("name", sorted(n for n, (_, args) in REGISTRY.items() if _slots(args)))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_non_finite_float_is_refused(name, data):
    _, args = REGISTRY[name]
    slot = data.draw(st.integers(0, _slots(args) - 1), label="slot")
    value = data.draw(st.sampled_from(NON_FINITE), label="value")
    _answer(name, _put(args, slot, value))


@pytest.mark.parametrize("name, module", sorted(BEHIND.items()))
def test_forms_behind_the_boundary_are_served_by_their_modules_alone(name, module):
    assert name not in linexsel.__all__
    with pytest.raises(AttributeError):
        getattr(linexsel, name)
    assert callable(getattr(importlib.import_module(f"linexsel.{module}"), name))
