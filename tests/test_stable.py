import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from levypassage.rng import Cursor, stream
from levypassage.stable import (StableParams, cms_transform,
                                positivity_parameter, sample_stable,
                                subordinator_unit_scale)

# two-sample KS critical value at the 1% level: c(0.01) * sqrt(2/n)
KS_CRIT_1PCT = 1.628


def ks_threshold(n: int, m: int | None = None) -> float:
    m = m or n
    return KS_CRIT_1PCT * math.sqrt((n + m) / (n * m))


def test_params_validation():
    with pytest.raises(ValueError):
        StableParams(2.0, 0.0)
    with pytest.raises(ValueError):
        StableParams(0.5, 1.5)
    with pytest.raises(ValueError):
        StableParams(0.5, 0.0, -1.0)
    with pytest.raises(ValueError, match="alpha = 1"):
        StableParams(1.0, 0.5)
    with pytest.raises(ValueError):
        sample_stable(StableParams(0.5, 0.0), 0, stream(0, 0))


def test_cauchy_symmetry_and_cdf():
    z = sample_stable(StableParams(1.0, 0.0), 10 ** 6, stream(42, 0))
    assert np.mean(z <= 0.0) == pytest.approx(0.5, abs=0.002)
    # Cauchy CDF at 1 is 1/2 + arctan(1)/pi = 3/4
    assert np.mean(z <= 1.0) == pytest.approx(0.75, abs=0.002)


def test_cauchy_skew_unsupported():
    with pytest.raises(ValueError):
        sample_stable(StableParams(1.0, 0.5), 10, stream(0, 0))
    with pytest.raises(ValueError):
        positivity_parameter(StableParams(1.0, -0.3))


def test_one_sided_draws_strictly_positive():
    z = sample_stable(StableParams(0.5, 1.0), 10 ** 5, stream(7, 0))
    assert np.all(z > 0)


def test_subordinator_laplace_normalization():
    # unit scale: E exp(-Z) = exp(-1)
    alpha = 0.5
    params = StableParams(alpha, 1.0, subordinator_unit_scale(alpha))
    z = sample_stable(params, 10 ** 6, stream(1, 0))
    assert np.mean(np.exp(-z)) == pytest.approx(math.exp(-1.0), abs=3e-3)


def test_positivity_parameter_closed_forms():
    assert positivity_parameter(StableParams(0.7, 0.0)) == 0.5
    assert positivity_parameter(StableParams(0.5, 1.0)) == pytest.approx(1.0, abs=1e-15)
    assert positivity_parameter(StableParams(1.0, 0.0)) == 0.5


def test_positivity_parameter_against_sampler():
    params = StableParams(0.7, 0.5)
    rho = positivity_parameter(params)
    n = 10 ** 6
    freq = np.mean(sample_stable(params, n, stream(3, 0)) > 0)
    assert abs(freq - rho) < 3.0 * math.sqrt(rho * (1 - rho) / n)


@given(st.floats(0.05, 1.95).filter(lambda a: abs(a - 1.0) > 1e-6),
       st.floats(-1.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_positivity_reflection_identity(alpha, beta):
    p1 = positivity_parameter(StableParams(alpha, beta))
    p2 = positivity_parameter(StableParams(alpha, -beta))
    assert p1 + p2 == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("c", [2.0, 8.0])
def test_self_similarity_ks(c):
    # Z(ct)/c**(1/alpha) should match Z(t) in law
    params = StableParams(0.7, 0.0)
    n = 10 ** 5
    z1 = (c * 1.0) ** (1 / 0.7) * sample_stable(params, n, stream(5, 0))
    z2 = 1.0 ** (1 / 0.7) * sample_stable(params, n, stream(5, 1))
    stat = ks_2samp(z1 / c ** (1 / 0.7), z2).statistic
    assert stat < ks_threshold(n)


def test_streams_are_reproducible_and_distinct():
    params = StableParams(0.7, 0.0)
    a = sample_stable(params, 64, stream(123, 5))
    b = sample_stable(params, 64, stream(123, 5))
    c = sample_stable(params, 64, stream(123, 6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("make", [
    lambda: stream(-1, 3), lambda: stream(2 ** 64 + 5, 3), lambda: stream(5, -3),
    lambda: stream(5, 3, 2 ** 64), lambda: Cursor().place(-1, 0)])
def test_out_of_range_stream_keys_raise(make):
    """A seed, path index or phase outside [0, 2**64) would alias another
    stream if it were wrapped, so it is refused."""
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        make()


@pytest.mark.parametrize("offset", [0, 1, 3, 4, 161, 16464])
def test_cursor_places_like_a_skipped_stream(offset):
    """A reused cursor placed at raw draw `offset` yields the uniforms and
    exponentials of the plain stream after `offset` raw draws."""
    cur = Cursor()
    for seed, path, phase in [(123, 5, 0), (2 ** 63 + 11, 7, 2), (123, 6, 1)]:
        want = stream(seed, path, phase)
        if offset:
            want.bit_generator.random_raw(offset)
        g = cur.place(seed, path, phase, offset)
        lo, hi = -math.pi / 2.0, math.pi / 2.0
        assert np.array_equal(g.uniform(lo, hi, 37), want.uniform(lo, hi, 37))
        assert np.array_equal(g.standard_exponential(37),
                              want.standard_exponential(37))


@pytest.mark.parametrize("dirty, left", [
    (lambda g: g.bit_generator.random_raw(3), lambda s: s["buffer_pos"] == 3),
    (lambda g: g.integers(0, 2 ** 32, size=5, dtype=np.uint32),
     lambda s: s["has_uint32"] == 1)], ids=["partly-used-buffer", "cached-uint32-half"])
@pytest.mark.parametrize("offset", [0, 3, 161])
def test_cursor_places_cleanly_after_any_draw(dirty, left, offset):
    """Placing replaces the whole generator state: a partly used Philox
    buffer or a cached 32-bit half left by earlier draws never leaks into
    the placed stream, with key words and phase up to 2**64 - 1."""
    cur = Cursor()
    top = 2 ** 64 - 1
    for seed, path, phase in [(top, top, top), (top, 5, 0), (123, top, 2)]:
        dirty(cur.place(99, 1))
        assert left(cur.bits.state)
        want = stream(seed, path, phase)
        if offset:
            want.bit_generator.random_raw(offset)
        g = cur.place(seed, path, phase, offset)
        assert np.array_equal(g.random(37), want.random(37))
        assert np.array_equal(g.standard_exponential(37), want.standard_exponential(37))


@pytest.mark.parametrize("alpha, beta, scale", [
    (0.7, 0.0, 1.0), (0.7, -0.6, 1.5), (0.5, 1.0, 0.3), (1.0, 0.0, 2.0),
    (1.5, 0.9, 2.0)])
def test_cms_transform_matches_the_formula(alpha, beta, scale):
    """The in-place transform rounds exactly as the formula written out."""
    params = StableParams(alpha, beta, scale)
    rng = stream(17, 3)
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=5000)
    w = rng.standard_exponential(size=5000)
    if alpha == 1.0:
        want = scale * np.tan(u)
    else:
        tb = beta * math.tan(math.pi * alpha / 2.0)
        B = math.atan(tb) / alpha
        S = (1.0 + tb * tb) ** (1.0 / (2.0 * alpha))
        want = scale * (S * np.sin(alpha * (u + B)) / np.cos(u) ** (1.0 / alpha)
                        * (np.cos(u - alpha * (u + B)) / w) ** ((1.0 - alpha) / alpha))
    assert np.array_equal(sample_stable(params, 5000, stream(17, 3)), want)
    rng = stream(17, 3)
    d = rng.random((50, 100))
    got = cms_transform(params, d, rng.standard_exponential((50, 100)))
    assert np.array_equal(got.ravel(), want)
