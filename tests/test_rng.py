import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorenzlab.rng import (
    _P_LOW,
    Xoshiro256pp,
    _acklam,
    _erfc,
    _log,
    acklam_array,
    exp_array,
    halley_step_array,
    next_u64_array,
    normal_cdf,
    normal_cdf_array,
    normal_inverse_cdf,
    normal_inverse_cdf_array,
    normals_from_states,
    splitmix64_stream,
    substream_states,
)

from oracles import NORMINV, SPLITMIX64_SEED0, XOSHIRO_STATE1234


def test_splitmix64_known_answers():
    assert tuple(splitmix64_stream(0, 3)) == SPLITMIX64_SEED0


def test_xoshiro_known_answers():
    rng = Xoshiro256pp.from_state([1, 2, 3, 4])
    assert rng.next_u64() == XOSHIRO_STATE1234[0]
    assert rng.next_u64() == XOSHIRO_STATE1234[1]


def test_the_all_zero_state_is_replaced():
    zero, fallback = Xoshiro256pp.from_state([0, 0, 0, 0]), Xoshiro256pp.from_state([1, 2, 3, 4])
    assert [zero.next_u64() for _ in range(4)] == [fallback.next_u64() for _ in range(4)]


def test_seeding_is_deterministic():
    a = Xoshiro256pp(12345)
    b = Xoshiro256pp(12345)
    assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]


def test_substreams_are_reproducible_and_distinct():
    a = [Xoshiro256pp.substream(7, 3).random() for _ in range(2)]
    assert a[0] == a[1]
    streams = [Xoshiro256pp.substream(7, i).next_u64() for i in range(64)]
    assert len(set(streams)) == 64


def test_random_is_in_unit_interval():
    rng = Xoshiro256pp(99)
    xs = [rng.random() for _ in range(4096)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(np.mean(xs) - 0.5) < 0.02


def test_normal_cdf_basics():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-16)
    assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
    for x in (-3.0, -0.7, 0.4, 2.5):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)


def test_normal_inverse_cdf_table():
    for p, want in NORMINV.items():
        got = normal_inverse_cdf(p)
        assert got == pytest.approx(want, abs=5e-13), p


def test_normal_inverse_cdf_rejects_boundary():
    for p in (0.0, 1.0, -0.2, 1.5, math.nan):
        with pytest.raises(ValueError):
            normal_inverse_cdf(p)


@given(st.floats(1e-10, 1.0 - 1e-10))
def test_normal_round_trip(p):
    assert normal_cdf(normal_inverse_cdf(p)) == pytest.approx(p, abs=1e-11)


def test_normal_draws_have_sane_moments():
    rng = Xoshiro256pp(2718)
    xs = np.array([rng.normal() for _ in range(20000)])
    assert abs(xs.mean()) < 0.03
    assert abs(xs.std() - 1.0) < 0.03


# -- the array generator and inverse against the scalar reference ---------------


def same_bits(got, want) -> bool:
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 7, 4242, 2**64 - 1])
def test_substream_arrays_match_the_scalar_streams(seed):
    states = substream_states(seed, range(1000))
    work = states.copy()
    raw = np.stack([next_u64_array(work) for _ in range(3)], axis=1)
    normals = normals_from_states(states, 4)
    for i in range(1000):
        rng = Xoshiro256pp.substream(seed, i)
        assert [rng.next_u64() for _ in range(3)] == raw[i].tolist(), i
        rng = Xoshiro256pp.substream(seed, i)
        assert same_bits(normals[i], [rng.normal() for _ in range(4)]), i


def test_zero_draw_falls_back_to_the_scalar_redraw():
    # s0 = s3 = 0 makes the next output 0, so normal() must redraw
    crafted = [0, 0x0123456789ABCDEF, 0xFEDCBA9876543210, 0]
    assert Xoshiro256pp.from_state(crafted).next_u64() == 0
    rows = [[1, 2, 3, 4], crafted, [5, 6, 7, 8]]
    states = np.array(rows, dtype=np.uint64).T
    before = states.copy()
    got = normals_from_states(states, 6)
    assert np.array_equal(states, before)
    for r, state in enumerate(rows):
        rng = Xoshiro256pp.from_state(state)
        assert same_bits(got[r], [rng.normal() for _ in range(6)]), r


def test_normal_inverse_cdf_array_at_branch_edges():
    below, above = np.nextafter(_P_LOW, 0.0), np.nextafter(_P_LOW, 1.0)
    points = [
        _P_LOW, below, above,
        1.0 - _P_LOW, 1.0 - below, 1.0 - above,
        np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
        2.0**-53, 1.0 - 2.0**-53,
    ]
    want = [normal_inverse_cdf(p) for p in points]
    assert same_bits(normal_inverse_cdf_array(points), want)
    assert same_bits(normal_cdf_array(want), [normal_cdf(x) for x in want])


@given(st.lists(st.floats(1e-300, 1.0, exclude_max=True), min_size=1, max_size=64))
def test_normal_inverse_cdf_array_matches_the_scalar(ps):
    want = [normal_inverse_cdf(p) for p in ps]
    assert same_bits(normal_inverse_cdf_array(ps), want)
    assert same_bits(normal_cdf_array(want), [normal_cdf(x) for x in want])


@given(st.lists(st.floats(1e-300, 1.0, exclude_max=True), min_size=1, max_size=64))
def test_acklam_array_is_the_scalar_rational_value(ps):
    # the lower half as `_acklam`, the upper half reflected as the scalar
    # inverse reflects it; the Halley step from there is the full inverse
    want = [_acklam(p) if p <= 0.5 else -_acklam(1.0 - p) for p in ps]
    x0 = acklam_array(ps)
    assert same_bits(x0, want)
    assert same_bits(halley_step_array(x0, ps), [normal_inverse_cdf(p) for p in ps])
    assert acklam_array(np.empty((0, 2))).shape == (0, 2)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5, math.nan])
def test_normal_inverse_cdf_array_rejects_like_the_scalar(bad):
    with pytest.raises(ValueError) as scalar:
        normal_inverse_cdf(bad)
    with pytest.raises(ValueError) as array:
        normal_inverse_cdf_array([0.3, bad, 0.7])
    assert str(array.value) == str(scalar.value)


def test_normal_inverse_cdf_at_the_smallest_p():
    # the Halley step's exp(x**2 / 2) overflows below about 1e-310, where
    # the rational approximation is returned unrefined
    ps = [5e-324, 1e-320, 1e-315, 1e-310]
    got = [normal_inverse_cdf(p) for p in ps]
    assert all(math.isfinite(x) for x in got)
    assert got == sorted(got) and len(set(got)) == len(got)
    assert same_bits(normal_inverse_cdf_array(ps), got)
    mixed = [0.3, 5e-324, 0.99, 1e-315, 2.0**-53]
    want = [normal_inverse_cdf(p) for p in mixed]
    assert same_bits(normal_inverse_cdf_array(mixed), want)


# -- the `math` helpers, element by element -------------------------------------

MATH_HELPERS = [
    (_log, math.log, st.floats(0.0, exclude_min=True)),
    (_erfc, math.erfc, st.floats(allow_nan=False)),
    (exp_array, math.exp, st.floats(max_value=709.0, allow_nan=False)),
]


@pytest.mark.parametrize("helper, scalar, values", MATH_HELPERS, ids=["log", "erfc", "exp"])
@given(data=st.data())
def test_math_helpers_are_the_scalar_calls(helper, scalar, values, data):
    x = np.array(data.draw(st.lists(values, max_size=24)), dtype=float)
    rows = data.draw(st.sampled_from([None, 1, 2, 3]))
    if rows is not None and x.size % rows == 0:
        x = x.reshape(rows, -1)  # a 2-d block keeps its shape
    got = helper(x)
    assert got.shape == x.shape and got.dtype == float
    assert same_bits(got.ravel(), [scalar(v) for v in x.ravel().tolist()])
    assert helper(np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize(
    "helper, scalar, bad",
    [(_log, math.log, 0.0), (_log, math.log, -1.0), (exp_array, math.exp, 710.0)],
)
def test_math_helpers_raise_as_the_scalar_call(helper, scalar, bad):
    with pytest.raises((ValueError, OverflowError)) as want:
        scalar(bad)
    with pytest.raises(want.type) as got:
        helper(np.array([[0.5, bad], [1.0, 2.0]]))
    assert got.type is want.type
    assert str(got.value) == str(want.value)
