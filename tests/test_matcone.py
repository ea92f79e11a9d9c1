import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conedeg.matcone import (
    ConeClass,
    ConeSpec,
    Spectrum,
    SymMatrix,
    _sym_eigvals,
    _symmetrized,
    axiom_check,
    classify,
    cone_margin,
    eigen_sym,
    format_cone,
    in_cone,
    parse_cone,
    sigma_all,
    sigma_k,
)


def sigma_k_bruteforce(lam: np.ndarray, k: int) -> float:
    """Subset-enumeration oracle for sigma_k; exponential, intended for n <= 8."""
    lam = np.asarray(lam, dtype=float)
    if k == 0:
        return 1.0
    total = 0.0
    for idx in itertools.combinations(range(len(lam)), k):
        total += float(np.prod(lam[list(idx)]))
    return total


# ---------------------------------------------------------------------------
# SymMatrix / Spectrum plumbing


def test_symmatrix_roundtrip():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 16):
        m = rng.normal(size=(n, n))
        m = m + m.T
        sm = SymMatrix.from_dense(m)
        assert sm.n == n and sm.dense().shape == (n, n)
        np.testing.assert_allclose(sm.dense(), m, atol=1e-15)
        assert sm.trace() == pytest.approx(np.trace(m), rel=1e-14)


def test_symmatrix_rejects_bad_input():
    bad = [
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.eye(17),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[1.0, np.nan], [np.nan, 2.0]]),
    ]
    # eigen_sym takes raw arrays through the same checks; LAPACK alone
    # would hand back a spectrum (zeros for NaN entries)
    for m in bad:
        for build in (SymMatrix.from_dense, eigen_sym):
            with pytest.raises(ValueError):
                build(m)
    # arithmetic that overflows is refused like an infinite entry
    big = SymMatrix.eye(2, 1e307)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        big.scale(1e2)
    # 1x1 is allowed: it carries the scalar case of the grid checks
    assert SymMatrix.from_dense(np.array([[2.0]])).trace() == 2.0


def test_symmatrix_near_float_max_builds_without_overflow():
    # entries above half the largest double: 0.5 (M + M^T) must halve before
    # adding, or the sum overflows and a finite matrix is refused
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        big = SymMatrix.eye(2, 1e308)
        spec = eigen_sym(np.diag([1e308, -1e308]))
    assert not caught
    assert np.array_equal(big.dense(), np.diag([1e308, 1e308]))
    assert np.array_equal(spec.values, [-1e308, 1e308])
    # for normal magnitudes the halved sum is bitwise the summed half
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rng.normal(size=(3, 3)) * 10.0 ** rng.integers(-100, 100)
        m = m + m.T + 1e-14 * np.abs(m).max() * rng.normal(size=(3, 3))
        assert np.array_equal(_symmetrized(m), 0.5 * (m + m.T))


def test_symmatrix_arithmetic():
    a = SymMatrix.eye(3, 2.0)
    b = SymMatrix.outer(np.array([1.0, 0.0, -1.0]))
    np.testing.assert_allclose((a + b).dense(), 2 * np.eye(3) + np.outer([1, 0, -1], [1, 0, -1]))
    np.testing.assert_allclose((a - b).scale(0.5).dense(), np.eye(3) - 0.5 * np.outer([1, 0, -1], [1, 0, -1]))


def test_symmatrix_storage_is_read_only_and_exactly_symmetric():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 7, 16):
        a, b = rng.normal(size=(2, n, n))
        # within the symmetry tolerance but not symmetric bitwise
        a = a + a.T + 1e-14 * rng.normal(size=(n, n))
        sa, sb = SymMatrix.from_dense(a), SymMatrix.from_dense(b + b.T)
        for sm in (sa, sb, sa + sb, sa - sb, sa.scale(-0.3), (sa - sb).scale(1e3)):
            d = sm.dense()
            assert not d.flags.writeable
            with pytest.raises(ValueError):
                d[0, 0] = 1.0
            assert np.array_equal(d.view(np.int64), d.T.view(np.int64))  # zero signs too


def test_symmetrization_keeps_entries_equal_to_their_mirror():
    # an exactly symmetric matrix is stored as it is: halving and adding
    # would round the odd subnormal 1.5e-323 (3 ulps) up to 2e-323
    m = np.array([[1.5e-323, 1.0], [1.0, 2.0]])
    stored = SymMatrix.from_dense(m).dense()
    assert stored.tobytes() == m.tobytes()
    assert m.flags.writeable and stored is not m  # the caller's array stays writeable
    m[0, 0] = 3.0
    assert stored[0, 0] == 1.5e-323
    # a +-0 mirror pair differs bitwise and is averaged to +0 twice
    z = SymMatrix.from_dense(np.array([[1.0, -0.0], [0.0, 2.0]])).dense()
    assert np.array_equal(z, np.diag([1.0, 2.0])) and not np.signbit(z).any()
    # within tolerance but not bitwise symmetric: the pair is averaged, and
    # every entry already equal to its mirror is kept
    rng = np.random.default_rng(3)
    for n in (2, 3, 7):
        a = rng.normal(size=(n, n))
        a = a + a.T
        a[0, 1] += 1e-14
        expect = 0.5 * a + 0.5 * a.T
        assert _symmetrized(a).tobytes() == expect.tobytes()
        a[1, 1] = 5e-324
        assert _symmetrized(a)[1, 1] == 5e-324 and (0.5 * a + 0.5 * a.T)[1, 1] == 0.0


def test_spectrum_sorts():
    s = Spectrum(np.array([3.0, -1.0, 2.0]))
    np.testing.assert_array_equal(s.values, [-1.0, 2.0, 3.0])
    assert s.min() == -1.0 and s.max() == 3.0 and s.n == 3


# ---------------------------------------------------------------------------
# sigma_k: frozen cases, then the brute-force oracle


def test_sigma_k_frozen():
    assert sigma_k(np.array([1.0, 2.0, 3.0]), 1) == 6.0
    assert sigma_k(np.array([1.0, 2.0, 3.0]), 2) == 11.0
    assert sigma_k(np.array([1.0, 1.0, 1.0]), 3) == 1.0


def test_sigma_k_range_errors():
    with pytest.raises(ValueError):
        sigma_k(np.array([1.0, 2.0]), 3)
    with pytest.raises(ValueError):
        sigma_k(np.array([1.0, 2.0]), -1)


def test_sigma_k_matches_bruteforce():
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        for _ in range(20):
            lam = rng.normal(scale=3.0, size=n)
            for k in range(0, n + 1):
                ref = sigma_k_bruteforce(lam, k)
                got = sigma_k(lam, k)
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_sigma_all_consistent():
    lam = np.array([2.0, -1.0, 0.5, 4.0])
    e = sigma_all(lam)
    assert e[0] == 1.0
    for k in range(5):
        assert e[k] == pytest.approx(sigma_k(lam, k), rel=1e-14)


# ---------------------------------------------------------------------------
# eigen_sym: trivial cases, planted spectra against the numpy oracle


def test_eigen_diagonal():
    for m in (SymMatrix.from_dense(np.diag([3.0, 1.0, 2.0])), np.diag([3.0, 1.0, 2.0])):
        np.testing.assert_allclose(eigen_sym(m).values, [1.0, 2.0, 3.0], atol=1e-14)


def test_eigen_offdiag_pair():
    s = eigen_sym(SymMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]])))
    np.testing.assert_allclose(s.values, [-1.0, 1.0], atol=1e-14)


def test_eigen_planted_spectrum():
    rng = np.random.default_rng(23)
    for n in (2, 3, 6, 10, 16):
        planted = np.sort(rng.normal(scale=5.0, size=n))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        m = SymMatrix.from_dense(q @ np.diag(planted) @ q.T)
        s = eigen_sym(m)
        np.testing.assert_allclose(s.values, planted, atol=1e-10 * (1 + np.abs(planted).max()))


def test_eigen_matches_numpy_oracle():
    rng = np.random.default_rng(31)
    for n in (2, 4, 8, 16):
        for _ in range(5):
            a = rng.normal(size=(n, n))
            m = SymMatrix.from_dense(a + a.T)
            ref = np.linalg.eigh(m.dense())[0]
            got = eigen_sym(m).values
            np.testing.assert_allclose(got, ref, atol=1e-10 * (1 + np.abs(ref).max()))


def test_eigen_conjugation_invariance():
    rng = np.random.default_rng(47)
    a = rng.normal(size=(5, 5))
    m = a + a.T
    base = eigen_sym(SymMatrix.from_dense(m)).values
    for _ in range(10):
        q, r = np.linalg.qr(rng.normal(size=(5, 5)))
        q = q * np.sign(np.diag(r))
        rot = eigen_sym(SymMatrix.from_dense(q @ m @ q.T)).values
        np.testing.assert_allclose(rot, base, atol=1e-10)


# ---------------------------------------------------------------------------
# cone membership


def test_in_cone_frozen():
    assert in_cone(np.array([1.0, 1.0, 1.0]), ConeSpec.gamma(3))
    # sigma_2(2,2,-1) = 4 - 2 - 2 = 0: boundary, so not in the open cone
    assert not in_cone(np.array([2.0, 2.0, -1.0]), ConeSpec.gamma(2))
    assert in_cone(np.array([-1.0, -1.0, 5.0]), ConeSpec.gamma(1))


def test_in_cone_kinds():
    lam = np.array([0.5, 1.0, 2.0])
    assert in_cone(lam, ConeSpec.posdef())
    assert in_cone(lam, ConeSpec.trace())
    assert in_cone(lam, ConeSpec.one_pos())
    assert not in_cone(-lam, ConeSpec.posdef())
    assert in_cone(-lam, ConeSpec.negated(ConeSpec.posdef()))
    # one negative eigenvalue defeats posdef but not one_pos
    assert in_cone(np.array([-3.0, 1.0, 1.0]), ConeSpec.one_pos())
    assert not in_cone(np.array([-3.0, -1.0, -1.0]), ConeSpec.one_pos())


def test_neg_gamma_complement_equals_one_pos_at_k_n():
    # for k = n the complement of the negated closed positive cone is exactly
    # "at least one positive eigenvalue"
    rng = np.random.default_rng(3)
    spec_c = ConeSpec.neg_gamma_complement(3)
    spec_p = ConeSpec.one_pos()
    for _ in range(200):
        lam = rng.normal(scale=2.0, size=3)
        if np.min(np.abs(lam)) < 1e-6:
            continue
        assert in_cone(lam, spec_c) == in_cone(lam, spec_p)


def test_gamma_nesting():
    rng = np.random.default_rng(5)
    for _ in range(200):
        lam = rng.normal(scale=2.0, size=4)
        for k in range(2, 5):
            if in_cone(lam, ConeSpec.gamma(k)):
                for j in range(1, k):
                    assert in_cone(lam, ConeSpec.gamma(j))


def test_gamma_monotonicity():
    rng = np.random.default_rng(13)
    for _ in range(200):
        lam = rng.normal(scale=2.0, size=4)
        for k in (1, 2, 3, 4):
            if in_cone(lam, ConeSpec.gamma(k)):
                mu = lam + rng.uniform(0.0, 2.0, size=4)
                assert in_cone(mu, ConeSpec.gamma(k))


def test_gamma_segment_connectivity():
    # the sigma_j > 0 characterization: sampled members connect to the
    # all-ones vector along a straight segment without leaving the set
    rng = np.random.default_rng(17)
    ones = np.ones(3)
    for k in (1, 2, 3):
        spec = ConeSpec.gamma(k)
        found = 0
        for _ in range(500):
            lam = rng.normal(scale=2.0, size=3)
            if not in_cone(lam, spec):
                continue
            found += 1
            for t in np.linspace(0.0, 1.0, 21):
                assert in_cone((1 - t) * lam + t * ones, spec)
        assert found > 20


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        in_cone(np.array([1.0, 1.0]), ConeSpec.gamma(2, n=3))
    with pytest.raises(ValueError):
        ConeSpec.gamma(4, n=3)


def test_cone_order_above_the_spectrum_length_raises():
    # gamma_4 and its complement on 3-vectors were scored on sigma_1..sigma_3
    specs = (ConeSpec.gamma(4), ConeSpec.neg_gamma_complement(4), ConeSpec.negated(ConeSpec.gamma(4)))
    for spec in specs:
        for lam in (np.ones(3), np.ones((5, 3))):
            with pytest.raises(ValueError, match="k=4 exceeds the spectrum's length 3"):
                cone_margin(lam, spec)


# ---------------------------------------------------------------------------
# classify


def test_classify_frozen():
    for k in (1, 2, 3):
        verdict, margin = classify(SymMatrix.from_dense(np.zeros((3, 3))), ConeSpec.gamma(k), tol=1e-9)
        assert verdict is ConeClass.BOUNDARY
        assert margin == pytest.approx(0.0, abs=1e-12)
    verdict, _ = classify(SymMatrix.eye(3), ConeSpec.posdef(), tol=1e-9)
    assert verdict is ConeClass.INTERIOR
    verdict, margin = classify(SymMatrix.eye(3, -1.0), ConeSpec.trace(), tol=1e-9)
    assert verdict is ConeClass.OUTSIDE
    assert margin == pytest.approx(-3.0, abs=1e-12)


def test_classify_scale_invariant_verdict():
    rng = np.random.default_rng(29)
    specs = [ConeSpec.gamma(2), ConeSpec.posdef(), ConeSpec.trace(), ConeSpec.one_pos()]
    for _ in range(50):
        a = rng.normal(size=(3, 3))
        m = SymMatrix.from_dense(a + a.T)
        for spec in specs:
            v0, m0 = classify(m, spec, tol=1e-12)
            if v0 is ConeClass.BOUNDARY or abs(m0) < 1e-6:
                continue  # scaling can cross the tol band right at the edge
            for c in (0.5, 2.0, 7.3):
                v1, _ = classify(m.scale(c), spec, tol=1e-12)
                assert v1 is v0


def test_classify_verdict_never_drops_when_adding_posdef():
    # degenerate ellipticity at the cone level: adding B > 0 cannot move the
    # verdict down the Outside < Boundary < Interior order
    rng = np.random.default_rng(41)
    order = {ConeClass.OUTSIDE: 0, ConeClass.BOUNDARY: 1, ConeClass.INTERIOR: 2}
    specs = [ConeSpec.gamma(2), ConeSpec.posdef(), ConeSpec.trace(), ConeSpec.one_pos(),
             ConeSpec.neg_gamma_complement(2)]
    for _ in range(50):
        a = rng.normal(size=(3, 3))
        m = SymMatrix.from_dense(a + a.T)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        b = SymMatrix.from_dense(q @ np.diag(rng.uniform(0.1, 2.0, size=3)) @ q.T)
        for spec in specs:
            v0, _ = classify(m, spec, tol=1e-9)
            v1, _ = classify(m + b, spec, tol=1e-9)
            assert order[v1] >= order[v0]


# ---------------------------------------------------------------------------
# axiom_check


def test_axiom_gamma2_all_pass():
    report = axiom_check(ConeSpec.gamma(2, n=3), samples=200, seed=0)
    assert report.ok()
    for name, (flag, witness) in report.results.items():
        assert flag, name
        assert witness is None


def test_axiom_one_pos_trace_fails():
    report = axiom_check(ConeSpec.one_pos(n=3), samples=300, seed=1)
    assert report.results["add_posdef"][0]
    ok, witness = report.results["trace_positive"]
    assert not ok
    lam = np.array(witness["lam"])
    assert in_cone(lam, ConeSpec.one_pos()) and lam.sum() <= 0.0


def test_axiom_trace_cone_all_pass():
    report = axiom_check(ConeSpec.trace(n=3), samples=200, seed=2)
    assert report.ok()


def test_axiom_neg_gamma_complement_trace_fails():
    # for 1 < k < n the set leaks into tr <= 0: e.g. (-1,-1,5) negated is
    # (1,1,-5), sigma_2(1,1,-5) = 1-5-5 < 0, so (-1,-1,5)-like points with
    # trace pushed negative stay inside
    report = axiom_check(ConeSpec.neg_gamma_complement(2, n=3), samples=300, seed=3)
    assert report.results["add_posdef"][0]
    assert report.results["scale_pos"][0]
    ok, witness = report.results["trace_positive"]
    assert not ok
    lam = np.array(witness["lam"])
    assert in_cone(lam, ConeSpec.neg_gamma_complement(2)) and lam.sum() <= 0.0


def test_axiom_check_rejects_zero_samples():
    with pytest.raises(ValueError):
        axiom_check(ConeSpec.posdef(), samples=0)


# ---------------------------------------------------------------------------
# textual forms


def test_cone_text_roundtrip():
    for text in ["posdef", "one_pos", "trace", "gamma_k:2", "neg_gamma_c:3", "neg:gamma_k:1", "neg:posdef"]:
        assert format_cone(parse_cone(text)) == text
    with pytest.raises(ValueError):
        parse_cone("garbage")


def test_margin_matches_kind():
    lam = np.array([-0.5, 1.0, 2.0])
    assert cone_margin(lam, ConeSpec.posdef()) == pytest.approx(-0.5)
    assert cone_margin(lam, ConeSpec.trace()) == pytest.approx(2.5)
    assert cone_margin(lam, ConeSpec.one_pos()) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# properties (hypothesis): 50 derandomized examples each, so a run repeats

_PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def _symmetric(max_n: int, bound: float = 1e3):
    entries = st.floats(-bound, bound, allow_nan=False, allow_infinity=False)
    return (
        st.integers(1, max_n)
        .flatmap(lambda n: hnp.arrays(np.float64, (n, n), elements=entries))
        .map(lambda a: a + a.T)
    )


def _bundled_cones(n: int) -> list[ConeSpec]:
    plain = [ConeSpec.posdef(), ConeSpec.one_pos(), ConeSpec.trace()]
    plain += [ConeSpec.gamma(k) for k in range(1, n + 1)]
    plain += [ConeSpec.neg_gamma_complement(k) for k in range(1, n + 1)]
    return plain + [ConeSpec.negated(c) for c in plain]


def _member_by_definition(lam: np.ndarray, spec: ConeSpec) -> bool:
    """Open-cone membership straight from the kind table, sigma_j by subsets."""
    if spec.kind == "posdef":
        return bool(np.all(lam > 0.0))
    if spec.kind == "one_pos":
        return bool(lam.max() > 0.0)
    if spec.kind == "trace":
        return bool(lam.sum() > 0.0)
    if spec.kind == "gamma_k":
        return all(sigma_k_bruteforce(lam, j) > 0.0 for j in range(1, spec.k + 1))
    if spec.kind == "neg_gamma_c":
        return not all(sigma_k_bruteforce(-lam, j) >= 0.0 for j in range(1, spec.k + 1))
    return _member_by_definition(-lam, spec.inner)


@_PROPERTY
@given(lam=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8))
def test_sigma_all_matches_bruteforce_property(lam):
    lam = np.array(lam)
    e = sigma_all(lam)
    for k in range(len(lam) + 1):
        # rounding scales with the size of sigma_k's terms, not with sigma_k
        terms = sigma_k_bruteforce(np.abs(lam), k)
        assert abs(e[k] - sigma_k_bruteforce(lam, k)) <= 1e-12 * (1.0 + terms)


@_PROPERTY
@given(m=_symmetric(16))
def test_eigen_sym_matches_lapack_property(m):
    ref = np.sort(np.linalg.eigvalsh(m))
    np.testing.assert_allclose(eigen_sym(m).values, ref, atol=1e-12 * (1.0 + np.abs(m).max()))


@_PROPERTY
@given(m=_symmetric(6, bound=10.0))
def test_classify_verdict_is_margin_sign_property(m):
    lam = np.linalg.eigvalsh(m)
    for spec in _bundled_cones(len(m)):
        verdict, margin = classify(m, spec)
        assert margin == pytest.approx(cone_margin(lam, spec), rel=1e-9, abs=1e-9)
        if margin > 1e-9:
            assert verdict is ConeClass.INTERIOR and in_cone(lam, spec)
        elif margin < -1e-9:
            assert verdict is ConeClass.OUTSIDE and not in_cone(lam, spec)
        else:
            assert verdict is ConeClass.BOUNDARY


@_PROPERTY
@given(lam=st.lists(st.integers(-4, 4), min_size=1, max_size=6))
def test_margin_sign_matches_cone_definition_property(lam):
    # integer spectra keep every sigma_j exact, so boundary points sit at margin 0
    lam = np.array(lam, dtype=float)
    for spec in _bundled_cones(len(lam)):
        verdict, margin = classify(np.diag(lam), spec)
        member = _member_by_definition(lam, spec)
        assert (margin > 0.0) == member
        assert (verdict is ConeClass.INTERIOR) == member
        assert (verdict is ConeClass.BOUNDARY) == (margin == 0.0)


@_PROPERTY
@given(
    stack=st.integers(1, 6).flatmap(
        lambda n: hnp.arrays(
            np.float64, st.tuples(st.integers(0, 8), st.just(n), st.just(n)),
            elements=st.integers(-3, 3).map(float) | st.floats(-10.0, 10.0, width=32),
        )
    )
)
def test_stacked_margins_match_lone_calls_property(stack):
    # integer entries give exact zeros and ties among eigenvalues and sigma_j
    m = stack + np.swapaxes(stack, -1, -2)
    lam = _sym_eigvals(m)
    assert lam.shape == m.shape[:-1]
    for row, mat in zip(lam, m):
        assert row.tobytes() == eigen_sym(mat).values.tobytes()
    for spec in _bundled_cones(m.shape[-1]):
        margins = cone_margin(lam, spec)
        assert margins.shape == lam.shape[:-1]
        lone = np.array([cone_margin(row, spec) for row in lam])
        assert margins.tobytes() == lone.tobytes()  # bitwise, signed zeros included
