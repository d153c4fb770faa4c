import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzlab import (
    MEASURE_KINDS,
    RiskMeasureConfig,
    TargetCurveSpec,
    cvar_weights,
    gmd_pairwise,
    gmd_weights,
    measure_report,
    measure_value,
)
from lorenzlab.errors import (
    BadParameter,
    BadSpec,
    EmptySample,
    NonPositiveMean,
    OutOfDomain,
)
from lorenzlab.rng import Xoshiro256pp

from oracles import (
    GS2_TARGET_AT_09,
    GS2_TARGET_INTEGRAL,
    PHI,
    TARGET_AT_BETA_DOWN,
    TARGET_AT_BETA_UP,
    TARGET_AT_HALF,
    TARGET_INTEGRAL_DEFAULT,
)

VARIANCE = RiskMeasureConfig("variance")
MAD = RiskMeasureConfig("mad")
GMD = RiskMeasureConfig("gmd")
GINI = RiskMeasureConfig("extended_gini", v=2.0)
DIAGONAL = TargetCurveSpec(beta_down=0.0, beta_up=1.0)


def seeded_samples(seed, count, n_max=50, positive=False):
    """positive=True keeps every draw above zero, for the measures that
    need a positive sample total."""
    rng = Xoshiro256pp(seed)
    out = []
    for _ in range(count):
        n = 2 + rng.next_u64() % (n_max - 1)
        if positive:
            out.append([math.exp(0.5 * rng.normal()) for _ in range(n)])
        else:
            out.append([rng.normal() + 0.1 for _ in range(n)])
    return out


# ---------------------------------------------------------------- dispersion


def test_variance_and_mad_small_cases():
    assert measure_value([0.0, 2.0], VARIANCE) == pytest.approx(1.0)
    assert measure_value([0.0, 2.0], MAD) == pytest.approx(1.0)
    assert measure_value([1.0, 2.0, 3.0], MAD) == pytest.approx(2.0 / 3.0)
    # (0.7*3)/3 rounds one ulp off 0.7; variance squares that dust away,
    # mad keeps it first order
    assert measure_value([0.7, 0.7, 0.7], VARIANCE) == pytest.approx(0.0, abs=1e-30)
    assert measure_value([0.7, 0.7, 0.7], MAD) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(EmptySample):
        measure_value([], VARIANCE)


def test_cvar_examples():
    sample = [-0.04, -0.01, 0.00, 0.02]
    cvar = {p: RiskMeasureConfig("cvar", tail_fraction=p) for p in (0.25, 0.5, 0.4)}
    assert measure_value(sample, cvar[0.25]) == pytest.approx(0.04)
    assert measure_value(sample, cvar[0.5]) == pytest.approx(0.025)
    assert measure_value([0.03] * 7, cvar[0.4]) == pytest.approx(-0.03)


def test_cvar_weights_sum_to_minus_one_exactly():
    for n in (1, 2, 3, 7, 64, 250, 1000):
        for p in (0.01, 0.05, 0.25, 0.5, 1.0 / 3.0, 0.999):
            w = cvar_weights(n, p)
            assert math.fsum(w) == -1.0, (n, p)
            i = math.ceil(p * n)
            assert np.all(w[i:] == 0.0)


def test_cvar_rejects_bad_tail():
    with pytest.raises(BadParameter):
        measure_value([1.0, 2.0], RiskMeasureConfig("cvar", tail_fraction=0.0))
    with pytest.raises(BadParameter):
        measure_value([1.0, 2.0], RiskMeasureConfig("cvar", tail_fraction=1.0))


@given(
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=25),
    st.floats(-5, 5, allow_nan=False),
    st.floats(0.01, 0.99),
)
@settings(max_examples=60)
def test_cvar_translation_and_homogeneity(xs, c, p):
    config = RiskMeasureConfig("cvar", tail_fraction=p)
    base = measure_value(xs, config)
    shifted = measure_value([x + c for x in xs], config)
    assert shifted == pytest.approx(base - c, abs=1e-10)
    doubled = measure_value([2.0 * x for x in xs], config)
    assert doubled == pytest.approx(2.0 * base, abs=1e-10)


def test_gmd_examples_and_weights():
    assert measure_value([0.0, 1.0], GMD) == pytest.approx(1.0)
    assert measure_value([1.0, 2.0, 4.0], GMD) == pytest.approx(2.0)
    assert measure_value([3.0, 3.0, 3.0, 3.0], GMD) == pytest.approx(0.0, abs=1e-15)
    for n in (2, 3, 10, 47):
        assert math.fsum(gmd_weights(n)) == 0.0
    with pytest.raises(EmptySample):
        measure_value([1.0], GMD)


def test_gmd_matches_pairwise_oracle():
    for sample in seeded_samples(11, 25):
        assert measure_value(sample, GMD) == pytest.approx(gmd_pairwise(sample), abs=1e-12)


def test_gini_small_case_and_invariance():
    assert measure_value([1.0, 2.0, 4.0], GINI) == pytest.approx(3.0 / 7.0, abs=1e-12)
    assert measure_value([5.0, 5.0], GINI) == 0.0
    sample = [0.3, 1.2, 0.7, 2.4]
    scaled = measure_value([10.0 * x for x in sample], GINI)
    assert scaled == pytest.approx(measure_value(sample, GINI), abs=1e-12)
    with pytest.raises(NonPositiveMean):
        measure_value([-1.0, 0.5], GINI)


def test_extended_gini_reductions():
    # v = 2 is the Gini coefficient GMD/(2*mean), and v = 1 gives 0
    for sample in seeded_samples(12, 10, positive=True):
        gini = measure_value(sample, GMD) / (2.0 * np.mean(sample))
        assert measure_value(sample, GINI) == pytest.approx(gini, abs=1e-9)
        assert measure_value(sample, RiskMeasureConfig("extended_gini", v=1.0)) == 0.0
    assert measure_value([1.0, 2.0, 4.0], GINI) == pytest.approx(3.0 / 7.0, abs=1e-12)
    with pytest.raises(BadParameter):
        measure_value([1.0, 2.0], RiskMeasureConfig("extended_gini", v=0.5))


# ---------------------------------------------------------------- target curve


def test_default_target_values_match_oracles():
    spec = TargetCurveSpec()
    assert spec.evaluate(0.25) == pytest.approx(TARGET_AT_BETA_DOWN, abs=1e-15)
    assert spec.evaluate(0.75) == pytest.approx(TARGET_AT_BETA_UP, abs=1e-15)
    assert spec.evaluate(0.5) == pytest.approx(TARGET_AT_HALF, abs=1e-15)
    assert spec.integral() == pytest.approx(TARGET_INTEGRAL_DEFAULT, abs=1e-15)
    assert spec.evaluate(0.0) == 0.0
    assert spec.evaluate(1.0) == 1.0


def test_junction_continuity():
    spec = TargetCurveSpec()
    kuma = lambda x: 1.0 - (1.0 - x) ** (1.0 / PHI)
    power = lambda x: x**PHI
    down = 0.3 * kuma(0.25) + 0.7 * power(0.25)
    up = 0.8 * kuma(0.75) + 0.2 * power(0.75)
    assert abs(spec.evaluate(0.25) - down) < 1e-12
    assert abs(spec.evaluate(0.75) - up) < 1e-12


def test_gs2_shape_values():
    spec = TargetCurveSpec.gs2_shape()
    assert spec.is_gs2_shape
    assert spec.evaluate(0.9) == pytest.approx(GS2_TARGET_AT_09, abs=1e-15)
    assert spec.integral() == pytest.approx(GS2_TARGET_INTEGRAL, abs=1e-14)


def test_diagonal_target_integral_is_exactly_half():
    spec = DIAGONAL
    assert spec.integral() == 0.5
    assert spec.evaluate(0.37) == 0.37


# SHA-256 of .curve(4096).values, and .integral(), recorded before the tail
# mixture was written once; the tails go through numpy's float64 `power`, so
# these bits belong to the numpy build and CPU they were recorded on (numpy
# 2.4, x86-64).
TARGET_DIGESTS = {
    "default": ("9858c0dc96d406ba75039ace7e7eca1324ed4ebe395c6dd5286db3cf19d4e97e", 0.37831366377825054),
    "gs2_shape": ("f0464d18370c4df9ffbf9f41e64fc287d5e62302f7231b94fb8eb61622963581", 0.40020875334438905),
    "diagonal": ("818e307fee696baa22036a579eca9d38ff1f2044191369306fdf580c56dc5697", 0.5),
}


def test_target_bits_are_pinned():
    specs = {
        "default": TargetCurveSpec(),
        "gs2_shape": TargetCurveSpec.gs2_shape(),
        "diagonal": DIAGONAL,
    }
    got = {
        name: (hashlib.sha256(spec.curve(4096).values.tobytes()).hexdigest(), spec.integral())
        for name, spec in specs.items()
    }
    assert got == TARGET_DIGESTS


def test_target_spec_validation():
    with pytest.raises(BadSpec):
        TargetCurveSpec(beta_down=0.75, beta_up=0.25)
    with pytest.raises(BadSpec):
        TargetCurveSpec(down_kuma=0.5, down_power=0.6)
    with pytest.raises(BadSpec):
        TargetCurveSpec(down_kuma=-0.1, down_power=1.1)
    # narrow belly whose junction values invert the chord
    with pytest.raises(BadSpec):
        TargetCurveSpec(
            beta_down=0.49,
            beta_up=0.51,
            down_kuma=1.0,
            down_power=0.0,
            up_kuma=0.0,
            up_power=1.0,
        )


@pytest.mark.parametrize("x", [1.5, -0.5, math.nan, [0.5, 1.5], [0.5, math.nan]])
def test_target_evaluate_rejects_points_outside_the_unit_interval(x):
    with pytest.raises(OutOfDomain, match="target curve argument outside"):
        TargetCurveSpec().evaluate(x)


def test_target_evaluate_absorbs_endpoint_dust():
    spec = TargetCurveSpec()
    assert spec.evaluate(-1e-13) == spec.evaluate(0.0)
    assert spec.evaluate(1.0 + 1e-13) == spec.evaluate(1.0) == 1.0


def test_target_curve_is_classical():
    curve = TargetCurveSpec().curve(256)
    x = curve.grid
    assert np.all(curve.values <= x + 1e-12)
    assert np.all(curve.values >= -1e-15)
    assert not curve.convex


# ---------------------------------------------------------------- gs measures


def test_gs_zero_when_polyline_meets_target():
    config = RiskMeasureConfig("gs1", v=2.5, target=DIAGONAL)
    assert measure_value([2.0, 2.0, 2.0, 2.0], config) == pytest.approx(0.0, abs=1e-15)


def test_gs_identity_target_recovers_gmd():
    config = RiskMeasureConfig("gs1", v=2.0, target=DIAGONAL)
    for sample in seeded_samples(13, 20, positive=True):
        want = measure_value(sample, GMD)
        assert measure_value(sample, config) == pytest.approx(want, abs=1e-9)


def test_gs_identity_target_matches_extended_gini_at_any_v():
    rng = Xoshiro256pp(14)
    sample = [rng.normal() * 0.3 + 1.0 for _ in range(40)]
    mu = np.mean(sample)
    for v in (2.0, 2.5, 3.7):
        want = 2.0 * mu * measure_value(sample, RiskMeasureConfig("extended_gini", v=v))
        got = measure_value(sample, RiskMeasureConfig("gs1", v=v, target=DIAGONAL))
        assert got == pytest.approx(want, abs=1e-9)


def test_gs_positive_homogeneity():
    config = RiskMeasureConfig("gs1", v=2.5, target=TargetCurveSpec())
    rng = Xoshiro256pp(15)
    sample = [rng.normal() * 0.02 + 0.01 for _ in range(60)]
    one = measure_value(sample, config)
    two = measure_value([2.0 * x for x in sample], config)
    assert two == pytest.approx(2.0 * one, abs=1e-12 * max(1.0, two))


def test_gs_v2_reduces_to_the_unweighted_sum():
    spec = TargetCurveSpec()
    sample = np.array([0.02, -0.01, 0.05, 0.03, 0.01])
    x = np.sort(sample)
    t = x.size
    knots = np.cumsum(x) / np.sum(x)
    xi = np.arange(1, t + 1) / t
    hand = (
        np.mean(sample)
        * 2.0
        / spec.integral()
        / (t - 1)
        * np.sum(np.abs(knots[:-1] - spec.evaluate(xi[:-1])))
    )
    got = measure_value(sample, RiskMeasureConfig("gs1", v=2.0, target=spec))
    assert got == pytest.approx(hand, abs=1e-12)


def test_gs_absolute_variant_folds_the_sample():
    spec = TargetCurveSpec.gs2_shape()
    sample = [0.04, -0.03, 0.02, -0.01, 0.05]
    folded = [abs(x) for x in sample]
    assert measure_value(sample, RiskMeasureConfig("gs2", v=2.5, target=spec)) == pytest.approx(
        measure_value(folded, RiskMeasureConfig("gs1", v=2.5, target=spec)), abs=1e-15
    )


def test_gs_absolute_variant_keeps_the_gs2_shape():
    with pytest.raises(BadSpec, match="gs2 requires the restricted target"):
        RiskMeasureConfig("gs2", target=TargetCurveSpec())


def test_gs_accepts_negative_entries_with_positive_total():
    config = RiskMeasureConfig("gs1", v=2.5, target=TargetCurveSpec())
    value = measure_value([-0.02, 0.01, 0.05, 0.03], config)
    assert math.isfinite(value) and value >= 0.0
    with pytest.raises(NonPositiveMean):
        measure_value([-0.05, 0.01], config)


def test_gs_measure_refuses_what_measure_value_refuses():
    # the mean is 0 up to rounding: the sorted sum is positive, np.mean is not
    sample = [0.3, 0.4, -0.7]
    with pytest.raises(NonPositiveMean):
        measure_value(sample, RiskMeasureConfig("gs1"))


def test_gs1_is_defined_only_where_every_mean_it_reads_is_positive():
    # Samples with a mean of zero up to rounding: the sorted sum, the
    # cumulative total and np.mean of the sample as given can each round to
    # either sign. A value gs1 returns is never negative, and its sample's
    # reported mean is positive.
    rng = Xoshiro256pp(21)
    gs1 = RiskMeasureConfig("gs1")
    refused = 0
    for _ in range(2000):
        x = np.round([rng.normal() for _ in range(12)], 3)
        x -= x.mean()
        try:
            value = measure_value(x, gs1)
        except NonPositiveMean:
            refused += 1
            continue
        assert value >= 0.0 and np.mean(x) > 0.0
        assert measure_report(x, gs1)["mu"] > 0.0
    assert 0 < refused < 2000


def test_gs_rejects_a_target_that_is_not_a_spec():
    with pytest.raises(BadSpec):
        RiskMeasureConfig("gs1", target="diagonal")


# ---------------------------------------------------------------- config


def test_config_validation_and_defaults():
    assert MEASURE_KINDS == (
        "variance",
        "mad",
        "cvar",
        "gmd",
        "extended_gini",
        "gs1",
        "gs2",
    )
    with pytest.raises(BadParameter):
        RiskMeasureConfig(kind="gini")
    with pytest.raises(BadParameter):
        RiskMeasureConfig(kind="cvar", tail_fraction=1.5)
    with pytest.raises(BadParameter):
        RiskMeasureConfig(kind="gs1", v=0.5)
    assert RiskMeasureConfig(kind="gs1").target is not None
    assert RiskMeasureConfig(kind="gs2").target.is_gs2_shape
    with pytest.raises(BadSpec):
        RiskMeasureConfig(kind="gs2", target=TargetCurveSpec())


def test_measure_value_dispatch_and_report():
    sample = [0.01, 0.03, -0.02, 0.05, 0.02]
    cfg = RiskMeasureConfig(kind="variance")
    assert measure_value(sample, cfg) == pytest.approx(np.var(sample))
    report = measure_report(sample, RiskMeasureConfig(kind="gs2", v=2.5))
    assert set(report) == {"kind", "value", "mu", "knots", "integral_target"}
    assert report["knots"] == 5
    assert report["mu"] == pytest.approx(np.mean(np.abs(sample)))
    assert report["integral_target"] == pytest.approx(GS2_TARGET_INTEGRAL)
