"""The record contract: every record of the package behaves as the dataclass it replaced.

Each record builds by position and by keyword with the signature it had as a
dataclass, prints as `Name(field=value, ...)`, equals only records of its own
class with equal fields, hashes by its fields unless one is a dict or a list,
refuses assignment and deletion (RiskTable and AnalysisReport too, which were
mutable dataclasses), and survives `copy.copy` and a pickle round trip; `replace`
validates its result as a new record. The pinned signatures are the
parameter lists that `inspect.signature` printed for the dataclasses,
without the `-> None` their generated constructors carried.
"""

import copy
import inspect
import math
import pickle

import pytest

from linexsel import (
    AdmissibilityBounds,
    AnalysisReport,
    CovarianceSpec,
    EstimatorSpec,
    FittedModel,
    GroupedDataset,
    ImprovementOutcome,
    InvalidParameterError,
    LinexParams,
    MeanVectorPair,
    ObservationPair,
    PriorSpec,
    RiskEstimate,
    RiskTable,
    SelectionSummary,
    SimConfig,
    TableSpec,
    ThetaStar,
)
from linexsel.core import replace
from linexsel.risksim import THETA_CONFIGS

COV = CovarianceSpec(2.0, 1.0, 0.5)
MEANS = MeanVectorPair((0.2, 2.0), (2.0, 0.2))
A = LinexParams(1.0)
SUMMARY = SelectionSummary(1, 2.0, 1.0, 3.0, 4.0, -1.0, 1.0)
MODEL = FittedModel((1.0, 2.0), (3.0, 4.0), COV, ("a", "b"), 10, False)
TABLE = TableSpec(5, A, COV, (("N1", EstimatorSpec("N1")),), THETA_CONFIGS[:2])

#: name -> (class, positional arguments, a valid change of one field, signature text);
#: ThetaStar, AdmissibilityBounds and RiskEstimate hold equal values, which
#: only their classes tell apart
RECORDS = {
    "CovarianceSpec": (
        CovarianceSpec, (2.0, 1.0, 0.5), {"sigma_xx": 3.0},
        "(sigma_xx: 'float', sigma_yy: 'float', sigma_xy: 'float')",
    ),
    "MeanVectorPair": (
        MeanVectorPair, ((0.2, 2.0), (2.0, 0.2)), {"theta1": (0.4, 1.8)},
        "(theta1: 'tuple[float, float]', theta2: 'tuple[float, float]')",
    ),
    "ThetaStar": (ThetaStar, (0.5, 1.0), {"theta_x": 0.25}, "(theta_x: 'float', theta_y: 'float')"),
    "LinexParams": (LinexParams, (-1.0,), {"a": 1.0}, "(a: 'float')"),
    "ObservationPair": (
        ObservationPair, ((1.0, 2.0), (0.5, 3.0)), {"z1": (1.0, 2.5)},
        "(z1: 'tuple[float, float]', z2: 'tuple[float, float]')",
    ),
    "SelectionSummary": (
        SelectionSummary, (1, 2.0, 1.0, 3.0, 4.0, -1.0, 1.0), {"selected": 2},
        "(selected: 'int', x_max: 'float', x_min: 'float', y_sel: 'float', y_other: 'float', "
        "t1: 'float', t2: 'float')",
    ),
    "PriorSpec": (
        PriorSpec, (0.0, 1.0, 2.0), {"m": 3.0}, "(mu1: 'float', mu2: 'float', m: 'float')",
    ),
    "EstimatorSpec": (
        EstimatorSpec, ("N4", 0.5), {"c": 1.0},
        "(kind: 'str', c: 'Optional[float]' = None, d: 'Optional[float]' = None, "
        "prior: 'Optional[PriorSpec]' = None, base: \"Optional['EstimatorSpec']\" = None)",
    ),
    "ImprovementOutcome": (
        ImprovementOutcome, (1.5, "none", 0.5), {"truncated": "lower"},
        "(value: 'float', truncated: 'str', base_phi: 'float')",
    ),
    "AdmissibilityBounds": (
        AdmissibilityBounds, (0.5, 1.0), {"d1": 2.0}, "(d0: 'float', d1: 'float')",
    ),
    "GroupedDataset": (
        GroupedDataset, (((1.0, 2.0), (1.5, 2.5)), ((3.0, 4.0), (3.5, 4.5)), ("a", "b"), True),
        {"cleaned": False},
        "(group1: 'tuple[tuple[float, float], ...]', group2: 'tuple[tuple[float, float], ...]', "
        "labels: 'tuple[str, str]', cleaned: 'bool' = False)",
    ),
    "FittedModel": (
        FittedModel, ((1.0, 2.0), (3.0, 4.0), COV, ("a", "b"), 10, False), {"n_per_group": 11},
        "(theta_hat_1: 'tuple[float, float]', theta_hat_2: 'tuple[float, float]', "
        "cov_hat: 'CovarianceSpec', labels: 'tuple[str, str]', n_per_group: 'int', "
        "cleaned: 'bool')",
    ),
    # the dataclass printed `estimates: 'list[tuple[str, float, str]]' = <factory>`;
    # None stands for the fresh empty list now
    "AnalysisReport": (
        AnalysisReport, (MODEL, 1.0, 1.0, SUMMARY, [("N1", 3.0, "")]), {"c": 2.0},
        "(model: 'FittedModel', a: 'float', c: 'float', summary: 'SelectionSummary', "
        "estimates: 'Optional[list[tuple[str, float, str]]]' = None)",
    ),
    "SimConfig": (
        SimConfig, (MEANS, COV, A, 100, 3, (EstimatorSpec("N1"),)), {"reps": 200},
        "(means: 'MeanVectorPair', cov: 'CovarianceSpec', a: 'LinexParams', reps: 'int' = 20000, "
        "master_seed: 'int' = 0, estimators: 'tuple[EstimatorSpec, ...]' = ())",
    ),
    "RiskEstimate": (
        RiskEstimate, (0.5, 1.0), {"std_error": None},
        "(mean_risk: 'float', std_error: 'Optional[float]')",
    ),
    "TableSpec": (
        TableSpec, (5, A, COV, (("N1", EstimatorSpec("N1")),), THETA_CONFIGS[:2]), {"table_id": 6},
        "(table_id: 'int', a: 'LinexParams', cov: 'CovarianceSpec', "
        "columns: 'tuple[tuple[str, EstimatorSpec], ...]', "
        f"rows: 'tuple[MeanVectorPair, ...]' = {THETA_CONFIGS!r})",
    ),
    # as AnalysisReport: the dataclass printed `= <factory>` for a fresh empty dict
    "RiskTable": (
        RiskTable, (TABLE, 100, 3, {(0, 0): RiskEstimate(0.5, 0.1)}), {"master_seed": 4},
        "(spec: 'TableSpec', reps: 'int', master_seed: 'int', "
        "estimates: 'Optional[dict[tuple[int, int], RiskEstimate]]' = None)",
    ),
}
#: records with a dict or list field, which cannot hash
UNHASHABLE = {"AnalysisReport", "RiskTable"}
HASHABLE = sorted(RECORDS.keys() - UNHASHABLE)
FROZEN = sorted(RECORDS)


def build(name):
    cls, args, _, _ = RECORDS[name]
    return cls(*args)


def fields(name):
    """Each field of the record `build(name)` makes, defaults included, by name."""
    cls, args, _, _ = RECORDS[name]
    bound = inspect.signature(cls).bind(*args)
    bound.apply_defaults()
    return bound.arguments


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_signature(name):
    cls, _, _, text = RECORDS[name]
    sig = inspect.signature(cls)
    assert str(sig.replace(return_annotation=inspect.Signature.empty)) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_builds_by_position_and_by_keyword(name):
    cls, args, _, _ = RECORDS[name]
    by_position, by_keyword = cls(*args), cls(**fields(name))
    for field, value in fields(name).items():
        assert getattr(by_position, field) is value
        assert getattr(by_keyword, field) is value


def test_defaults():
    assert EstimatorSpec("N1") == EstimatorSpec("N1", None, None, None, None)
    assert GroupedDataset((), (), ("a", "b")).cleaned is False
    config = SimConfig(MEANS, COV, A)
    assert (config.reps, config.master_seed, config.estimators) == (20000, 0, ())
    assert TableSpec(5, A, COV, TABLE.columns).rows is THETA_CONFIGS
    # each record gets its own empty container
    assert RiskTable(TABLE, 1, 0).estimates == {}
    assert RiskTable(TABLE, 1, 0).estimates is not RiskTable(TABLE, 1, 0).estimates
    assert AnalysisReport(MODEL, 1.0, 1.0, SUMMARY).estimates == []


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_lists_the_fields(name):
    listed = ", ".join(f"{field}={value!r}" for field, value in fields(name).items())
    assert repr(build(name)) == f"{name}({listed})"


def test_repr_examples():
    assert repr(COV) == "CovarianceSpec(sigma_xx=2.0, sigma_yy=1.0, sigma_xy=0.5)"
    assert repr(EstimatorSpec.improved(EstimatorSpec.n4(0.5))) == (
        "EstimatorSpec(kind='Improved', c=None, d=None, prior=None, "
        "base=EstimatorSpec(kind='N4', c=0.5, d=None, prior=None, base=None))"
    )


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_only_within_a_class(name):
    record = build(name)
    assert record == build(name)
    assert not record != build(name)
    for other in sorted(RECORDS.keys() - {name}):
        assert record != build(other)
    assert record != tuple(fields(name).values())
    change = RECORDS[name][2]
    assert record != type(record)(**{**fields(name), **change})


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_frozen_records_hash_equal(name):
    assert hash(build(name)) == hash(build(name))
    assert len({build(name), build(name)}) == 1


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_records_with_a_container_field_are_unhashable(name):
    with pytest.raises(TypeError, match="unhashable"):
        hash(build(name))


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment_and_deletion(name):
    record = build(name)
    for field, value in fields(name).items():
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_replace(name):
    record = build(name)
    same = replace(record)
    assert same == record and same is not record and type(same) is type(record)
    change = RECORDS[name][2]
    changed = replace(record, **change)
    assert changed == type(record)(**{**fields(name), **change})
    assert changed != record
    with pytest.raises(TypeError):
        replace(record, no_such_field=1)


def test_replace_validates_again():
    config = SimConfig(MEANS, COV, A, 100, 3)
    with pytest.raises(InvalidParameterError, match="reps must be >= 1, got 0"):
        replace(config, reps=0)
    with pytest.raises(InvalidParameterError, match="variances must be positive"):
        replace(COV, sigma_yy=-1.0)
    with pytest.raises(InvalidParameterError, match="N1 spec must not set c"):
        replace(EstimatorSpec.n4(1.0), kind="N1")
    assert replace(COV, sigma_xy=-0.5).rho == -COV.rho


def test_covariance_derivations_stay_outside_the_fields():
    cov = CovarianceSpec(4.0, 1.0, 1.0)
    assert (cov.rho, cov.xi) == (0.5, 0.5)
    assert cov == CovarianceSpec.from_correlation(4.0, 1.0, 0.5)
    assert hash(cov) == hash((4.0, 1.0, 1.0))
    assert "rho" not in repr(cov) and "xi" not in repr(cov)
    # equality reads the three entries alone: an entry-equal spec with other
    # derived values (which no constructor makes) still compares equal
    twin = CovarianceSpec(4.0, 1.0, 1.0)
    twin.__dict__["rho"] = 0.0
    assert twin == cov and hash(twin) == hash(cov)


@pytest.mark.parametrize("cov", [
    COV,
    CovarianceSpec(4.0, 9.0, 6.0),  # rho = 1
    CovarianceSpec(4.0, 9.0, -6.0),  # rho = -1
    CovarianceSpec.from_correlation(3.0, 5.0, -1.0),
    CovarianceSpec(0.3, 7.0, 0.0),
    CovarianceSpec(1e-150, 1e150, 0.9),
    CovarianceSpec(1e300, 1e-300, 0.1),
])
def test_sd_dx_is_sqrt_two_sigma_xx_bit_for_bit(cov):
    assert cov.sd_dx.hex() == math.sqrt(2.0 * cov.sigma_xx).hex()


def test_sd_dx_stays_outside_the_fields():
    cov = CovarianceSpec(4.0, 1.0, 1.0)
    assert "sd_dx" not in cov._fields and "sd_dx" not in repr(cov)
    assert hash(cov) == hash((4.0, 1.0, 1.0))
    twin = CovarianceSpec(4.0, 1.0, 1.0)
    twin.__dict__["sd_dx"] = 0.0
    assert twin == cov and hash(twin) == hash(cov)
    assert replace(COV, sigma_xx=8.0).sd_dx == 4.0


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copy_and_pickle(name):
    record = build(name)
    for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record
        assert vars(twin) == vars(record)
    if name in HASHABLE:
        assert hash(pickle.loads(pickle.dumps(record))) == hash(record)


def test_copies_keep_the_covariance_derivations():
    for twin in (copy.copy(COV), copy.deepcopy(COV), pickle.loads(pickle.dumps(COV))):
        assert (twin.rho, twin.xi) == (COV.rho, COV.xi)
