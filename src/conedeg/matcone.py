"""Symmetric matrices, elementary symmetric polynomials, and open matrix cones.

The cones handled here are the admissible sets U for equations of the form
F[psi] in dU: open sets of symmetric matrices that are invariant under
positive scaling and stable under adding a positive definite matrix.  The
bundled kinds cover the sigma_k (Garding) cones, the positive definite cone,
the "at least one positive eigenvalue" set, the trace half-space, complements
of negated closed cones, and negations of any of these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "SymMatrix",
    "Spectrum",
    "ConeSpec",
    "ConeClass",
    "sigma_k",
    "sigma_all",
    "eigen_sym",
    "in_cone",
    "cone_margin",
    "classify",
    "axiom_check",
    "parse_cone",
    "format_cone",
]

_MIN_N = 1
_MAX_N = 16
_SYM_TOL = 1e-12  # relative asymmetry a matrix may have


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """0.5 (M + M^T) per matrix of an (..., n, n) stack; ValueError unless each
    is square, n in [_MIN_N, _MAX_N], finite and symmetric to _SYM_TOL (1 + max |M|).

    Entries bitwise equal to their mirror are kept (halving and adding would
    round an odd subnormal), and a stack with no other entry is returned as is.
    """
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    n = m.shape[-1]
    if not (_MIN_N <= n <= _MAX_N):
        raise ValueError(f"dimension must be in [{_MIN_N}, {_MAX_N}], got {n}")
    mt = np.swapaxes(m, -1, -2)
    same = m.view(np.int64) == mt.view(np.int64)  # bitwise, so +0 and -0 differ
    if same.all():
        return m
    skew = np.abs(m - mt).max(axis=(-2, -1))
    bad = skew > _SYM_TOL * (1.0 + np.abs(m).max(axis=(-2, -1)))
    if bad.any():
        raise ValueError(f"matrix is not symmetric (asymmetry {np.max(skew * bad):.3e})")
    # halve before adding: M + M^T overflows for finite entries above ~8.99e307
    return np.where(same, m, 0.5 * m + 0.5 * mt)


@dataclass(frozen=True)
class SymMatrix:
    """Symmetric matrix, stored as its validated dense (n, n) array.

    from_dense checks the input (square, n in [1, 16], finite, symmetric to
    _SYM_TOL) and stores 0.5 (M + M^T), keeping each entry already bitwise
    equal to its mirror, so M[i, j] == M[j, i] holds bitwise; the arithmetic
    below keeps that.  dense() hands out the stored array, which is
    read-only (a copy, never the caller's array).
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        if not np.isfinite(self.mat).all():  # sums and scalings can overflow
            raise ValueError("matrix entries must be finite")
        self.mat.setflags(write=False)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_dense(cls, m: np.ndarray) -> "SymMatrix":
        m = np.asarray(m, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        sym = _symmetrized(m)
        return cls(sym.copy() if sym is m else sym)  # freezing must not reach the caller's array

    @classmethod
    def eye(cls, n: int, scale: float = 1.0) -> "SymMatrix":
        return cls.from_dense(scale * np.eye(n))

    @classmethod
    def outer(cls, p: np.ndarray) -> "SymMatrix":
        p = np.asarray(p, dtype=float)
        return cls.from_dense(np.outer(p, p))

    def dense(self) -> np.ndarray:
        return self.mat

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return SymMatrix(self.mat + other.mat)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return SymMatrix(self.mat - other.mat)

    def scale(self, c: float) -> "SymMatrix":
        return SymMatrix(c * self.mat)

    def trace(self) -> float:
        return float(np.trace(self.mat))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a symmetric matrix, sorted ascending."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.sort(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return len(self.values)

    def min(self) -> float:
        return float(self.values[0])

    def max(self) -> float:
        return float(self.values[-1])


class ConeClass(Enum):
    OUTSIDE = 0
    BOUNDARY = 1
    INTERIOR = 2


@dataclass(frozen=True)
class ConeSpec:
    """One of the admissible open matrix cones, by kind.

    kind        | meaning (on the eigenvalue vector lam)
    ------------|-----------------------------------------------------
    gamma_k     | sigma_j(lam) > 0 for all j <= k
    posdef      | all lam_i > 0
    one_pos     | max lam_i > 0
    trace       | sum lam_i > 0
    neg_gamma_c | complement of the negated closed gamma_k cone
    neg         | {M : -M in inner}
    """

    kind: str
    k: int = 0
    inner: "ConeSpec | None" = None
    n: int = 0  # ambient dimension; 0 = works at any dimension

    _KINDS = ("gamma_k", "posdef", "one_pos", "trace", "neg_gamma_c", "neg")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.kind in ("gamma_k", "neg_gamma_c"):
            if self.k < 1:
                raise ValueError("gamma_k cones need k >= 1")
            if self.n and self.k > self.n:
                raise ValueError(f"k={self.k} exceeds dimension n={self.n}")
        if self.kind == "neg" and self.inner is None:
            raise ValueError("neg cone needs an inner cone")

    @classmethod
    def gamma(cls, k: int, n: int = 0) -> "ConeSpec":
        return cls("gamma_k", k=k, n=n)

    @classmethod
    def posdef(cls, n: int = 0) -> "ConeSpec":
        return cls("posdef", n=n)

    @classmethod
    def one_pos(cls, n: int = 0) -> "ConeSpec":
        return cls("one_pos", n=n)

    @classmethod
    def trace(cls, n: int = 0) -> "ConeSpec":
        return cls("trace", n=n)

    @classmethod
    def neg_gamma_complement(cls, k: int, n: int = 0) -> "ConeSpec":
        return cls("neg_gamma_c", k=k, n=n)

    @classmethod
    def negated(cls, inner: "ConeSpec", n: int = 0) -> "ConeSpec":
        return cls("neg", inner=inner, n=n)


def parse_cone(text: str) -> ConeSpec:
    """Parse the textual cone form used by the CLI and by problem files."""
    text = text.strip()
    if text == "posdef":
        return ConeSpec.posdef()
    if text == "one_pos":
        return ConeSpec.one_pos()
    if text == "trace":
        return ConeSpec.trace()
    if text.startswith("gamma_k:"):
        return ConeSpec.gamma(int(text.split(":", 1)[1]))
    if text.startswith("neg_gamma_c:"):
        return ConeSpec.neg_gamma_complement(int(text.split(":", 1)[1]))
    if text.startswith("neg:"):
        return ConeSpec.negated(parse_cone(text.split(":", 1)[1]))
    raise ValueError(f"cannot parse cone spec {text!r}")


def format_cone(spec: ConeSpec) -> str:
    if spec.kind == "gamma_k":
        return f"gamma_k:{spec.k}"
    if spec.kind == "neg_gamma_c":
        return f"neg_gamma_c:{spec.k}"
    if spec.kind == "neg":
        return f"neg:{format_cone(spec.inner)}"
    return spec.kind


# ---------------------------------------------------------------------------
# elementary symmetric polynomials


def sigma_all(lam: np.ndarray | Spectrum) -> np.ndarray:
    """All elementary symmetric polynomials sigma_0..sigma_n of lam.

    Computed by the coefficient recurrence of prod_i (1 + lam_i t): after
    absorbing lam_i, e_k <- e_k + lam_i * e_{k-1}.  O(n^2), no cancellation
    beyond what the polynomial itself requires.  A stack (..., n) gives each
    spectrum the values it would get alone.
    """
    if isinstance(lam, Spectrum):
        lam = lam.values
    lam = np.asarray(lam, dtype=float).T  # spectrum on the first axis
    n = len(lam)
    e = np.zeros((n + 1,) + lam.shape[1:])
    e[0] = 1.0
    for i in range(n):
        for k in range(i + 1, 0, -1):
            e[k] += lam[i] * e[k - 1]
    return e.T


def sigma_k(lam: np.ndarray | Spectrum, k: int) -> float:
    """sigma_k(lam), the k-th elementary symmetric polynomial."""
    if isinstance(lam, Spectrum):
        lam = lam.values
    lam = np.asarray(lam, dtype=float)
    if not 0 <= k <= len(lam):
        raise ValueError(f"k={k} out of range for n={len(lam)}")
    return float(sigma_all(lam)[k])


# ---------------------------------------------------------------------------
# eigenvalues


def _sym_eigvals(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of symmetric matrices, (..., n, n) -> (..., n).

    Every matrix first passes the checks of SymMatrix.from_dense, so a bad
    one raises ValueError instead of reaching LAPACK (numpy.linalg.eigvalsh),
    which can return zeros for NaN entries without complaint.  Each matrix
    gets the values it would get alone.
    """
    return np.linalg.eigvalsh(_symmetrized(np.asarray(m, dtype=float)))


def eigen_sym(m: SymMatrix | np.ndarray) -> Spectrum:
    """Sorted eigenvalues of one symmetric matrix (see _sym_eigvals)."""
    if isinstance(m, SymMatrix):  # checked when it was built
        return Spectrum(np.linalg.eigvalsh(m.dense()))
    return Spectrum(_sym_eigvals(m))


# ---------------------------------------------------------------------------
# membership, classification, axioms


def cone_margin(lam: np.ndarray | Spectrum, spec: ConeSpec) -> float | np.ndarray:
    """Signed margin: positive inside U, negative outside, ~0 on dU.

    The margin is the minimum slack over the defining inequalities (a proxy
    for distance, not a calibrated distance).  One spectrum gives a float, a
    stack (..., n) an array of the margins each spectrum would get alone.
    """
    if isinstance(lam, Spectrum):
        lam = lam.values
    lam = np.asarray(lam, dtype=float)
    if spec.kind == "neg":
        return cone_margin(-lam, spec.inner)
    if spec.kind == "posdef":
        margin = lam.min(axis=-1)
    elif spec.kind == "one_pos":
        margin = lam.max(axis=-1)
    elif spec.kind == "trace":
        margin = lam.sum(axis=-1)
    elif spec.kind in ("gamma_k", "neg_gamma_c"):
        if spec.k > lam.shape[-1]:
            raise ValueError(f"k={spec.k} exceeds the spectrum's length {lam.shape[-1]}")
        if spec.kind == "gamma_k":
            margin = sigma_all(lam)[..., 1 : spec.k + 1].min(axis=-1)
        else:  # inside iff -lam violates some closed gamma_k inequality
            margin = (-sigma_all(-lam)[..., 1 : spec.k + 1]).max(axis=-1)
    else:
        raise ValueError(f"unknown cone kind {spec.kind!r}")
    return float(margin) if lam.ndim == 1 else margin


def in_cone(lam: np.ndarray | Spectrum, spec: ConeSpec) -> bool:
    """Open-cone membership of an eigenvalue vector."""
    m = lam.values if isinstance(lam, Spectrum) else np.asarray(lam)
    if spec.n and len(m) != spec.n:
        raise ValueError(f"spectrum has length {len(m)}, cone expects n={spec.n}")
    return cone_margin(lam, spec) > 0.0


def classify(m: SymMatrix | np.ndarray, spec: ConeSpec, tol: float = 1e-9) -> tuple[ConeClass, float]:
    """Classify a symmetric matrix against a cone at tolerance tol.

    Returns (verdict, margin).  BOUNDARY means |margin| <= tol; the verdict
    is scale-equivariant in the sense that classify(c*M) for c > 0 never
    jumps across the boundary band in the wrong direction (membership signs
    of all sigma_j are preserved under positive scaling).
    """
    _check_tol(tol)
    margin = cone_margin(eigen_sym(m), spec)
    return ConeClass(_margin_class(margin, tol)), margin


def _check_tol(tol: float) -> None:
    """ValueError unless 0 < tol < inf: the one rule for every margin tolerance."""
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")


def _margin_class(margin, tol: float):
    """The ConeClass value of a margin or of each in an array: INTERIOR (2)
    above tol, OUTSIDE (0) below -tol, BOUNDARY (1) between and for NaN."""
    return 1 + (margin > tol) - (margin < -tol)


@dataclass
class AxiomReport:
    """Outcome of sampling-based cone axiom checks."""

    cone: str
    n: int
    samples: int
    results: dict = field(default_factory=dict)  # axiom name -> (ok, witness or None)

    def ok(self) -> bool:
        return all(flag for flag, _ in self.results.values())


def _sample_member(rng: np.random.Generator, n: int, spec: ConeSpec) -> np.ndarray | None:
    """Rejection-sample an eigenvalue vector inside the open cone, in at most 2000 draws."""
    for _ in range(2000):
        lam = rng.normal(scale=2.0, size=n)
        if in_cone(lam, spec):
            return lam
    return None


def axiom_check(spec: ConeSpec, samples: int = 200, seed: int = 0, n: int | None = None) -> AxiomReport:
    """Sampling check of the cone axioms, with witnesses on failure.

    Checked, each on `samples` random draws:
      add_posdef     A in U, B > 0        =>  A + B in U
      scale_pos      A in U, c > 0        =>  c A in U
      scale_sub      A in U, c in (0,1)   =>  c A in U   (same statement, sub-unit range)
      scale_super    A in U, c > 1        =>  c A in U
      trace_positive A in U               =>  tr A > 0

    Failures are reported, not raised: several bundled kinds (one_pos,
    neg_gamma_c for k < n is fine, but e.g. trace_positive fails for
    neg_gamma_c with small k on purpose) genuinely violate some axiom and the
    report is the artifact.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = n or spec.n or 3
    rng = np.random.default_rng(seed)
    checks = {name: (True, None) for name in
              ("add_posdef", "scale_pos", "scale_sub", "scale_super", "trace_positive")}
    for _ in range(samples):
        lam = _sample_member(rng, n, spec)
        if lam is None:
            for name in checks:
                checks[name] = (False, {"reason": "no member found by sampling"})
            break
        if checks["add_posdef"][0]:
            # A + B mixes eigenbases, so this one needs dense matrices
            q = _random_orthogonal(rng, n)
            a_m = q @ np.diag(lam) @ q.T
            b_m = _random_spd(rng, n)
            s = eigen_sym(a_m + b_m)
            if not in_cone(s, spec):
                checks["add_posdef"] = (False, {"lam_a": lam.tolist(), "eig_sum": s.values.tolist()})
        for name, c in (
            ("scale_pos", float(rng.uniform(0.01, 100.0))),
            ("scale_sub", float(rng.uniform(0.01, 0.99))),
            ("scale_super", float(rng.uniform(1.01, 100.0))),
        ):
            if checks[name][0] and not in_cone(c * lam, spec):
                checks[name] = (False, {"lam": lam.tolist(), "c": c})
        if checks["trace_positive"][0] and not lam.sum() > 0.0:
            checks["trace_positive"] = (False, {"lam": lam.tolist(), "trace": float(lam.sum())})
    return AxiomReport(cone=format_cone(spec), n=n, samples=samples, results=checks)


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    q = _random_orthogonal(rng, n)
    return q @ np.diag(rng.uniform(0.05, 2.0, size=n)) @ q.T
