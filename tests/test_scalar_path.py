"""Guards on the per-observation (scalar) API: its values and its cost.

The digests pin every value the scalar path returns over seeded reports,
and every psi and shift_risk value over seeded gaps and shifts, bit for
bit, so a speed change to either cannot move a single ulp. The import
scan keeps `import` statements out of the functions a report calls once per
observation; each costs ~0.2 us even when the module is already loaded.
The remembered constants (`core.remember_last` on the admissible interval,
the clip band's edges, the Bayes posterior's prior terms and shift_risk's
per-gap terms) must give each model and gap its own bits whatever came
before, on any thread.
"""

import dis
import hashlib
import math
import random
import sys
import threading

import pytest

from linexsel import admissibility, estimators, improvement, oracles, selection
from linexsel.core import (
    CovarianceSpec, LinexError, LinexOverflowError, LinexParams, ObservationPair,
    SingularCovarianceError, ThetaStar, remember_last,
)
from linexsel.estimators import EstimatorSpec, PriorSpec

RHOS = (-1.0, -0.6, 0.0, 0.5, 1.0)
AS = (-2.0, -1.0, 1.0, 3.0)
VARIANCES = ((2.0, 2.0), (1.5, 2.5))
OBS_PER_SET = 150
SHIFT_D = -1.0

#: SHA-256 of `scalar_report_tokens()`, taken on the code before the scalar
#: path dropped its per-call imports, derived-constant recomputation and
#: throwaway outcome objects; those changes had to leave it as it was
SCALAR_DIGEST = "675c18aafeb29188649337a7adf184e229857662cbf9d8fd6c788a43f1f1ec89"


def _report_specs() -> list[EstimatorSpec]:
    """The scalar report's ten estimators, as perfbench/layers.py::scalar_specs builds them."""
    bases = [EstimatorSpec.n1(), EstimatorSpec.n2(), EstimatorSpec.n3(), EstimatorSpec.n4(1.0)]
    return [
        *bases,
        EstimatorSpec.bayes(PriorSpec(0.0, 0.0, 4.0)),
        EstimatorSpec.shift(SHIFT_D),
        *(EstimatorSpec.improved(b) for b in bases),
    ]


def _token(v) -> str:
    return v.hex() if isinstance(v, float) else str(v)


def scalar_report_tokens():
    """Every value of select, evaluate, improve, classify, bounds, rho and xi over seeded reports."""
    specs = _report_specs()
    for k, ((sxx, syy), rho, a_val) in enumerate(
        (v, r, a) for v in VARIANCES for r in RHOS for a in AS
    ):
        cov = CovarianceSpec.from_correlation(sxx, syy, rho)
        a = LinexParams(a_val)
        yield from (_token(cov.rho), _token(cov.xi))
        b = admissibility.bounds(a, cov)
        yield from (_token(b.d0), _token(b.d1))
        for d in (b.d0, b.d1, math.nextafter(b.d0, -math.inf), math.nextafter(b.d1, math.inf),
                  b.d0 - 1.0, b.d1 + 1.0, SHIFT_D):
            yield admissibility.classify(d, a, cov)
        usable = [sp for sp in specs if not (sp.kind == "Bayes" and cov.is_singular)]
        l_xx, l_yx, l_yy = cov.cholesky_factors()
        gen = random.Random(1000 + k)
        for i in range(OBS_PER_SET):
            m = [gen.uniform(-2.0, 2.0) for _ in range(4)]
            g = [gen.gauss(0.0, 1.0) for _ in range(4)]
            x1 = m[0] + l_xx * g[0]
            x2 = x1 if i % 25 == 0 else m[2] + l_xx * g[2]  # a tie every 25th pair
            z1 = (x1, m[1] + l_yx * g[0] + l_yy * g[1])
            z2 = (x2, m[3] + l_yx * g[2] + l_yy * g[3])
            s = selection.select(ObservationPair(z1, z2))
            yield from map(_token, (s.selected, s.x_max, s.x_min, s.y_sel, s.y_other, s.t1, s.t2))
            for sp in usable:
                yield _token(estimators.evaluate(sp, s, a, cov))
                if sp.kind == "Improved":
                    o = improvement.improve(sp, s, a, cov)
                    yield from (_token(o.value), o.truncated, _token(o.base_phi))
            yield admissibility.classify(s.t1 + s.t2, a, cov)


def scalar_digest() -> str:
    return hashlib.sha256("\n".join(scalar_report_tokens()).encode()).hexdigest()


def test_scalar_values_are_bit_identical():
    assert scalar_digest() == SCALAR_DIGEST


GAPS_PER_MODEL = 5
D_POINTS = 9

#: SHA-256 of `shift_risk_tokens()`, taken on the code before `shift_risk`
#: remembered its per-gap terms; that change had to leave it as it was
SHIFT_RISK_DIGEST = "72a236f8e1acce9db73b4c14099ee5a42841a394537a2d346db350c26e5f413c"


def _shift_risk_rows() -> list[tuple]:
    """(a, cov, theta*, shifts) rows: each model's zero gap and seeded gaps, with d on a
    grid over [d0 - 1, d1 + 1] and psi(theta*) as the last shift."""
    rows = []
    for k, ((sxx, syy), rho, a_val) in enumerate(
        (v, r, a) for v in VARIANCES for r in RHOS for a in AS
    ):
        cov = CovarianceSpec.from_correlation(sxx, syy, rho)
        a = LinexParams(a_val)
        b = admissibility.bounds(a, cov)
        gen = random.Random(3000 + k)
        gaps = [0.0] + sorted(gen.uniform(0.0, 3.0) for _ in range(GAPS_PER_MODEL - 1))
        for theta_x in gaps:
            ts = ThetaStar(theta_x, gen.uniform(0.0, 1.0))
            grid = [b.d0 - 1.0 + (b.d1 - b.d0 + 2.0) * j / (D_POINTS - 1) for j in range(D_POINTS)]
            rows.append((a, cov, ts, grid + [admissibility.psi(ts, a, cov)]))
    return rows


def _finite_token(v: float) -> str:
    assert math.isfinite(v), v
    return v.hex()


def _risk_or_refusal(d, ts, a, cov) -> str:
    try:
        return _finite_token(admissibility.shift_risk(d, ts, a, cov))
    except LinexOverflowError as exc:
        return f"{exc.exponent.hex()} {exc}"


def shift_risk_tokens():
    """Every psi and shift_risk value over `_shift_risk_rows()`, each row in order, then again
    with the model and the gap switched on every call, then the a = 40 overflow branch."""
    rows = _shift_risk_rows()
    for a, cov, ts, shifts in rows:
        yield _finite_token(admissibility.psi(ts, a, cov))
        for d in shifts:
            yield _finite_token(admissibility.shift_risk(d, ts, a, cov))
    # consecutive rows of one model follow each other, so the stride moves to another model
    stride = GAPS_PER_MODEL + 2
    assert math.gcd(stride, len(rows)) == 1
    order = [(i * stride) % len(rows) for i in range(len(rows))]
    for j in range(D_POINTS + 1):
        for i in order:
            a, cov, ts, shifts = rows[i]
            yield _finite_token(admissibility.shift_risk(shifts[j], ts, a, cov))
            yield _finite_token(admissibility.psi(ts, a, cov))
    # a = 40: e^{a^2 syy/2} = e^800 overflows; a tiny h_a brings some of it back into range
    a = LinexParams(40.0)
    for cov in (CovarianceSpec(1.0, 1.0, -1.0), CovarianceSpec(1.0, 1.0, 0.0),
                CovarianceSpec(1.0, 1.0, 0.5)):
        for theta_x in (0.0, 0.5, 1.8, 30.0):
            for d in (-30.0, -20.0, -10.0, -1.0, 0.0, 1.0):
                yield _risk_or_refusal(d, ThetaStar(theta_x, 0.0), a, cov)


def shift_risk_digest() -> str:
    return hashlib.sha256("\n".join(shift_risk_tokens()).encode()).hexdigest()


def test_shift_risk_values_are_bit_identical():
    assert shift_risk_digest() == SHIFT_RISK_DIGEST


#: the functions a scalar report calls once per observation
PER_CALL = {
    "selection.select": selection.select,
    "estimators.evaluate": estimators.evaluate,
    "estimators.base_phi": estimators.base_phi,
    "estimators.n3_offset": estimators.n3_offset,
    "estimators.est_bayes": estimators.est_bayes,
    "improvement.improve": improvement.improve,
    "oracles.clip_band": oracles.clip_band,
    "oracles.clip_component": oracles.clip_component,
    "oracles.phi_bounds": oracles.phi_bounds,
    "admissibility.bounds": admissibility.bounds,
    "admissibility.classify": admissibility.classify,
    "admissibility.psi": admissibility.psi,
    "admissibility.shift_risk": admissibility.shift_risk,
    "admissibility._gap_terms": admissibility._gap_terms,
    "admissibility._gap_terms.__wrapped__": admissibility._gap_terms.__wrapped__,
}


def _import_lines(code) -> list[int]:
    """Lines of IMPORT_NAME in a code object and the code objects nested in it."""
    hits = [ins.positions.lineno for ins in dis.get_instructions(code) if ins.opname == "IMPORT_NAME"]
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            hits += _import_lines(const)
    return hits


@pytest.mark.parametrize("name", sorted(PER_CALL))
def test_scalar_call_runs_no_import(name):
    code = PER_CALL[name].__code__
    lines = _import_lines(code)
    assert not lines, f"{name} executes an import at " + ", ".join(
        f"{code.co_filename}:{line}" for line in lines
    )


A1 = LinexParams(1.0)
PRIOR = PriorSpec(0.5, -0.25, 4.0)
GAP = ThetaStar(0.8, 0.25)
#: shares no record with any model below: a call on it makes every helper compute anew
OTHER = (LinexParams(2.0), CovarianceSpec(1.0, 1.0, 0.25), PriorSpec(0.0, 0.0, 1.0),
         ThetaStar(1.5, 0.0))


def _model_bits(a, cov, prior, gap=GAP) -> list[str]:
    """The scalar path's values that rest on the remembered constants, for one model and gap."""
    b = admissibility.bounds(a, cov)
    value, lo, hi = oracles.clip_band(-0.3, 0.7, a, cov)
    p_star, q_star = estimators.bayes_posterior((0.4, -1.2), prior, cov)
    risks = [admissibility.shift_risk(d, gap, a, cov) for d in (-1.0, 0.5)]
    return [*map(_token, (b.d0, b.d1, value, p_star, q_star, *risks)), str(lo), str(hi),
            admissibility.classify(b.d1, a, cov)]


def _fresh_bits(a, cov, prior, gap=GAP) -> list[str]:
    """`_model_bits` with nothing remembered from an earlier call on any of its records."""
    _model_bits(*OTHER)
    return _model_bits(a, cov, prior, gap)


class TestRememberedConstants:
    def test_models_that_share_a_but_not_sigma_in_turn(self):
        covs = [CovarianceSpec.from_correlation(2.0, 2.0, 0.5),
                CovarianceSpec.from_correlation(1.0, 3.0, -0.7)]
        expected = [_fresh_bits(A1, cov, PRIOR) for cov in covs]
        assert expected[0] != expected[1]
        for _ in range(3):
            assert [_model_bits(A1, cov, PRIOR) for cov in covs] == expected

    def test_models_that_share_sigma_but_not_the_prior_in_turn(self):
        cov = CovarianceSpec.from_correlation(2.0, 2.0, 0.5)
        priors = [PRIOR, PriorSpec(0.5, -0.25, 0.5)]
        expected = [_fresh_bits(A1, cov, prior) for prior in priors]
        assert expected[0] != expected[1]
        for _ in range(3):
            assert [_model_bits(A1, cov, prior) for prior in priors] == expected

    def test_equal_but_distinct_records_give_the_same_bits(self):
        models = [(LinexParams(-1.5), CovarianceSpec(2.0, 3.0, 1.0), PriorSpec(0.0, 1.0, 2.0))
                  for _ in range(2)]
        assert models[0] == models[1] and models[0][1] is not models[1][1]
        expected = _fresh_bits(*models[0])
        for _ in range(2):
            for model in models:
                assert _model_bits(*model) == expected

    def test_gaps_in_turn_at_one_model(self):
        cov = CovarianceSpec.from_correlation(2.0, 2.0, 0.5)
        gaps = [ThetaStar(0.0, 0.0), GAP, ThetaStar(2.5, 0.0)]
        expected = [_fresh_bits(A1, cov, PRIOR, gap) for gap in gaps]
        assert len({tuple(bits) for bits in expected}) == len(gaps)
        for _ in range(3):
            assert [_model_bits(A1, cov, PRIOR, gap) for gap in gaps] == expected

    def test_models_that_share_the_gap_but_not_a_or_sigma_in_turn(self):
        cov = CovarianceSpec.from_correlation(2.0, 2.0, 0.5)
        models = [(A1, cov), (LinexParams(-2.0), cov),
                  (A1, CovarianceSpec.from_correlation(1.0, 3.0, -0.7))]
        expected = [_fresh_bits(a, cov, PRIOR) for a, cov in models]
        assert len({tuple(bits) for bits in expected}) == len(models)
        for _ in range(3):
            assert [_model_bits(a, cov, PRIOR) for a, cov in models] == expected

    def test_equal_but_distinct_gaps_give_the_same_bits(self):
        cov = CovarianceSpec.from_correlation(2.0, 2.0, 0.5)
        gaps = [ThetaStar(1.25, 0.5) for _ in range(2)]
        assert gaps[0] == gaps[1] and gaps[0] is not gaps[1]
        expected = _fresh_bits(A1, cov, PRIOR, gaps[0])
        for _ in range(2):
            for gap in gaps:
                assert _model_bits(A1, cov, PRIOR, gap) == expected

    def test_a_gap_that_overflows_raises_on_every_call(self):
        # at a = 40, e^{a^2 syy/2} = e^800: h_a = 2 Phi(-28.3) at a zero gap brings
        # the risk back into range, h_a ~ Phi(-7.07) at theta_x = 30 does not
        a, cov = LinexParams(40.0), CovarianceSpec(1.0, 1.0, -1.0)
        over, good = ThetaStar(30.0, 0.0), ThetaStar(0.0, 0.0)
        _model_bits(*OTHER)
        expected = admissibility.shift_risk(0.0, good, a, cov)
        for _ in range(2):
            for _ in range(2):
                with pytest.raises(LinexOverflowError, match=r"h_a\]$"):
                    admissibility.shift_risk(0.0, over, a, cov)
            # a good gap in between leaves the refusal as it was
            assert admissibility.shift_risk(0.0, good, a, cov) == expected

    def test_a_singular_covariance_raises_on_every_call(self):
        singular = CovarianceSpec.from_correlation(2.0, 2.0, 1.0)
        for _ in range(2):
            with pytest.raises(SingularCovarianceError):
                estimators.bayes_posterior((0.4, -1.2), PRIOR, singular)
        # a nonsingular model in between leaves the refusal as it was
        estimators.bayes_posterior((0.4, -1.2), PRIOR, CovarianceSpec(2.0, 2.0, 1.0))
        with pytest.raises(SingularCovarianceError):
            estimators.bayes_posterior((0.4, -1.2), PRIOR, singular)

    def test_an_interval_end_that_is_not_finite_raises_on_every_call(self):
        # -a*syy/2 = -2e308 leaves the double range
        a, cov = LinexParams(1e308), CovarianceSpec(2.0, 4.0, 1.0)
        for _ in range(2):
            with pytest.raises(LinexError, match="^d0 = -inf is not finite"):
                admissibility.bounds(a, cov)
        admissibility.bounds(A1, cov)
        with pytest.raises(LinexError, match="^d0 = -inf is not finite"):
            admissibility.classify(0.0, a, cov)

    def test_threads_each_on_their_own_model_get_one_threads_bits(self):
        # more threads than cores; models that share a, Sigma, the prior or the gap
        cov = CovarianceSpec.from_correlation(2.0, 2.0, 0.5)
        models = [(A1, cov, PRIOR, GAP),
                  (A1, CovarianceSpec.from_correlation(1.0, 3.0, -0.7), PRIOR, GAP),
                  (A1, cov, PriorSpec(0.0, 0.0, 1.0), ThetaStar(2.5, 0.0)),
                  (LinexParams(-2.0), cov, PRIOR, GAP)]
        expected = [_fresh_bits(*model) for model in models]
        start = threading.Barrier(len(models), timeout=60)
        seen = [set() for _ in models]

        def loop(i):
            start.wait()
            for _ in range(2000):
                seen[i].add(tuple(_model_bits(*models[i])))

        threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(models))]
        # switch threads as often as the interpreter allows, so their calls interleave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [{tuple(bits)} for bits in expected]

    def test_helper_compares_by_identity_and_never_keeps_a_raise(self):
        calls = []

        def divide(x, y):
            calls.append((x, y))
            return x[0] / y[0]

        remembered = remember_last(divide)
        one, two, zero = [1.0], [2.0], [0.0]
        assert remembered(one, two) == remembered(one, two) == 0.5
        assert remembered(one, [2.0]) == 0.5  # equal, not the same: computed again
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                remembered(one, zero)
        assert len(calls) == 4
        assert remembered.__wrapped__ is divide and remembered.__name__ == "divide"

    def test_three_record_helper_compares_each_by_identity(self):
        calls = []

        def weigh(x, y, z):
            calls.append((x, y, z))
            return x[0] * y[0] / z[0]

        remembered = remember_last(weigh)
        one, two, four = [1.0], [2.0], [4.0]
        assert remembered(one, two, four) == remembered(one, two, four) == 0.5
        # each record equal, not the same, in turn: computed again each time
        assert remembered([1.0], two, four) == remembered(one, [2.0], four) == 0.5
        assert remembered(one, two, [4.0]) == 0.5
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                remembered(one, two, [0.0])
        assert len(calls) == 6
        assert remembered.__wrapped__ is weigh and remembered.__name__ == "weigh"
