"""Independent-edge null model with node-pair weights.

A model on n nodes connects each unordered pair {i, j} independently with
probability

    mu_ij = p * w_ij,        p = n**(-alpha),  alpha in (0, 1),

where the symmetric weights w_ij live in [beta, 1] (beta > 0) and w_ii = 0.
Three weight structures are supported: a single constant (the homogeneous
Erdos-Renyi case), a rank-one product w_ij = w_i * w_j, and an explicit
dense symmetric matrix.

Each weight kind gives one row of its weights, w_i. with 0.0 at i
(`row(i, n)`), and every derived value reads the rows p * w_i. one at a
time (`ModelSpec.mu_row`): `mu_matrix` is filled row by row, the digest
`mu_sha1` hashes the rows in turn, `mu` sums each, and the pair vector
copies the part of each row right of the diagonal.  Constant weights
make the pair vector a zero-stride view of the one probability p*c,
which holds no memory per pair.  `validate` reads the range of the
pair probabilities from each kind's `pair_range`, the smallest and
largest off-diagonal weight, times p; p * w_ij is monotone in w_ij, so
that is the pair vector's range bit for bit.  So only `mu_matrix`
itself is n x n: sampling a model holds O(n) state beyond the pair
vector, and validating, hashing or summing it O(n) in all (a dense
model's own weights aside).

The model is immutable after construction and safe to share across
workers.  Its derived values are cached on first use and left out of
the pickled state, so a constant or rank-one model ships to a worker in
O(n) and is rebuilt there once, and a model is hashed once however many
runs report it.
Expected degrees mu_i = sum_j mu_ij must exceed 1 for the
variance theory downstream (several constants divide by (mu_i - 1));
`validate` flags, rather than forbids, models that violate this.
"""

from __future__ import annotations

import json
import numbers
import reprlib
from dataclasses import dataclass
from functools import cached_property
from hashlib import sha1
from pathlib import Path
from typing import ClassVar, Union

import numpy as np

from .pairs import n_pairs

__all__ = [
    "ConstantWeights",
    "RankOneWeights",
    "DenseWeights",
    "WeightSpec",
    "ModelSpec",
    "ValidationReport",
    "validate",
    "model_from_json",
    "load_dense_csv",
]


def _off_diagonal(m: np.ndarray) -> np.ndarray:
    """The n(n-1) off-diagonal entries of a square array as n-1 rows of n.

    In the flattened array, each run of n+1 entries after entry (0, 0)
    ends on the next diagonal entry, which the rows drop.  Flattening a C-
    or F-contiguous array (the diagonal sits at the same offsets in both)
    is a view, so the rows are one too and nothing n x n is copied.
    """
    n = m.shape[0]
    return m.ravel(order="A")[1:].reshape(n - 1, n + 1)[:, :n]


@dataclass(frozen=True)
class ConstantWeights:
    """All off-diagonal weights equal to a constant c in [beta, 1]."""

    kind: ClassVar[str] = "constant"
    c: float

    def row(self, i: int, n: int) -> np.ndarray:
        r = np.full(n, float(self.c))
        r[i] = 0.0
        return r

    def pair_range(self, n: int) -> tuple[float, float]:
        return float(self.c), float(self.c)

    def violations(self, n: int, beta: float) -> list[str]:
        if not (0.0 < self.c <= 1.0):
            return [f"constant weight c={self.c} outside (0, 1]"]
        if self.c < beta:
            return [f"constant weight c={self.c} below beta={beta}"]
        return []


@dataclass(frozen=True)
class RankOneWeights:
    """Product weights w_ij = w_i * w_j with each w_i in [beta, 1]."""

    kind: ClassVar[str] = "rank1"
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.float64))

    def row(self, i: int, n: int) -> np.ndarray:
        r = self.w[i] * self.w
        r[i] = 0.0
        return r

    def pair_range(self, n: int) -> tuple[float, float]:
        # a rounded product of positive floats is monotone in each factor,
        # so the two smallest and the two largest w_i give its range
        low, high = np.partition(self.w, 1)[:2], np.partition(self.w, n - 2)[-2:]
        return float(low[0] * low[1]), float(high[0] * high[1])

    def violations(self, n: int, beta: float) -> list[str]:
        out = []
        if self.w.shape != (n,):
            out.append(f"rank-one weight vector has shape {self.w.shape}, expected ({n},)")
            return out
        if not np.all((self.w >= beta) & (self.w <= 1.0)):
            out.append("rank-one weight entries must lie in [beta, 1]")
        return out


@dataclass(frozen=True)
class DenseWeights:
    """Explicit symmetric weight matrix, zero diagonal, entries in [beta, 1]."""

    kind: ClassVar[str] = "dense"
    matrix_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "matrix_values", np.asarray(self.matrix_values, dtype=np.float64)
        )

    def row(self, i: int, n: int) -> np.ndarray:
        return self.matrix_values[i]

    def pair_range(self, n: int) -> tuple[float, float]:
        off = _off_diagonal(self.matrix_values)
        return float(off.min()), float(off.max())

    def violations(self, n: int, beta: float) -> list[str]:
        w = self.matrix_values
        out = []
        if w.shape != (n, n):
            out.append(f"dense weight matrix has shape {w.shape}, expected ({n}, {n})")
            return out
        if not np.array_equal(w, w.T):
            bad = np.argwhere(w != w.T)
            i, j = bad[0]
            out.append(f"dense weight matrix is asymmetric (first mismatch at ({i}, {j}))")
        if np.any(np.diag(w) != 0.0):
            out.append("dense weight matrix must have zero diagonal")
        low, high = self.pair_range(n)
        if not (low >= beta and high <= 1.0):  # NaN fails both
            out.append("dense off-diagonal weights must lie in [beta, 1]")
        return out


WeightSpec = Union[ConstantWeights, RankOneWeights, DenseWeights]


@dataclass(frozen=True)
class ModelSpec:
    """Null model: node count, density exponent, weight floor, and weights."""

    n: int
    alpha: float
    beta: float
    weights: WeightSpec

    # derived values, rebuilt on first use after unpickling
    _CACHED = ("mu_matrix", "mu", "_mu_pairs", "mu_sha1")

    @property
    def p(self) -> float:
        """Baseline pair probability n**(-alpha)."""
        return float(self.n) ** (-self.alpha)

    @property
    def is_homogeneous(self) -> bool:
        return isinstance(self.weights, ConstantWeights)

    def mu_row(self, i: int) -> np.ndarray:
        """Row i of `mu_matrix`, p * w_i., built on its own."""
        return self.p * self.weights.row(i, self.n)

    @cached_property
    def mu_matrix(self) -> np.ndarray:
        """Symmetric matrix of pair probabilities mu_ij, zero diagonal."""
        m = np.empty((self.n, self.n))
        for i in range(self.n):
            m[i] = self.mu_row(i)
        m.flags.writeable = False
        return m

    @cached_property
    def mu_sha1(self) -> str:
        """SHA-1 hex digest of the bytes of `mu_matrix`, hashed row by row."""
        h = sha1()
        for i in range(self.n):
            h.update(self.mu_row(i))
        return h.hexdigest()

    @cached_property
    def mu(self) -> np.ndarray:
        """Expected degrees mu_i = sum_j mu_ij, one row sum each."""
        m = np.array([self.mu_row(i).sum() for i in range(self.n)])
        m.flags.writeable = False
        return m

    @cached_property
    def _mu_pairs(self) -> np.ndarray:
        n, w = self.n, self.weights
        if isinstance(w, ConstantWeights):
            # one float, the off-diagonal entry of mu_matrix, read with stride 0
            return np.broadcast_to(self.p * float(w.c), (n_pairs(n),))
        # row i holds the pairs (i, j), j > i, in canonical order
        v = np.empty(n_pairs(n))
        start = 0
        for i in range(n - 1):
            v[start : start + n - 1 - i] = self.mu_row(i)[i + 1 :]
            start += n - 1 - i
        v.flags.writeable = False
        return v

    def mu_pairs(self) -> np.ndarray:
        """Pair probabilities in canonical pair order (length n*(n-1)/2)."""
        return self._mu_pairs

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in self._CACHED}


@dataclass(frozen=True)
class ValidationReport:
    violations: list[str]
    flags: list[str]
    min_mu: float
    max_mu: float
    min_expected_degree: float

    @property
    def ok(self) -> bool:
        return not self.violations


def _hard_violations(model: ModelSpec) -> list[str]:
    """Node count, exponent, floor and weight checks; none builds mu_matrix."""
    n = model.n
    if not (isinstance(n, int) and n >= 3):
        return [f"node count n={n} must be an integer >= 3"]
    out = []
    if not (0.0 < model.alpha < 1.0):
        out.append(f"alpha={model.alpha} outside (0, 1)")
    if not (0.0 < model.beta <= 1.0):
        out.append(f"beta={model.beta} outside (0, 1]")
    out.extend(model.weights.violations(n, model.beta))
    return out


def _require_valid(model: ModelSpec) -> None:
    """Raise one-line `ValueError("invalid model: ...")` on a hard violation.

    Library entry points call this instead of `validate`: it skips the
    pair-probability scan and leaves the expected-degree flag to `validate`.
    """
    violations = _hard_violations(model)
    if violations:
        raise ValueError("invalid model: " + "; ".join(violations))


def validate(model: ModelSpec) -> ValidationReport:
    """Check every model invariant; returns a report instead of raising.

    Hard violations (shape, symmetry, bounds) make the model unusable;
    flags mark models that are well-formed but incompatible with parts of
    the variance theory (expected degree <= 1).
    """
    violations = _hard_violations(model)
    flags: list[str] = []
    if violations:
        return ValidationReport(violations, flags, np.nan, np.nan, np.nan)

    low, high = model.weights.pair_range(model.n)
    min_mu, max_mu = model.p * low, model.p * high
    if min_mu <= 0.0 or max_mu >= 1.0:
        violations.append(
            f"pair probabilities must lie in (0, 1); observed range [{min_mu}, {max_mu}]"
        )
    min_deg = float(model.mu.min())
    if min_deg <= 1.0:
        flags.append(
            f"expected degree <= 1 (min mu_i = {min_deg:.6g}); "
            "variance constants are undefined for such models"
        )
    return ValidationReport(violations, flags, min_mu, max_mu, min_deg)


def load_dense_csv(path: str | Path) -> np.ndarray:
    """Load an n x n weight matrix from a CSV file of n rows."""
    w = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    return w


def _number(cfg: dict, key: str, where: str) -> float:
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{where}model config key '{key}' must be a number, got {value!r}")
    return float(value)


def _weights_from_dict(spec: dict, n: int, base: Path | None, where: str) -> WeightSpec:
    if not isinstance(spec, dict):
        raise ValueError(f"{where}model config key 'weights' must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "constant":
        return ConstantWeights(_number(spec, "c", where))
    if kind == "rank1":
        if "grid" in spec:
            grid = spec["grid"]
            if not (
                isinstance(grid, list)
                and len(grid) == 2
                and all(isinstance(x, (int, float)) for x in grid)
            ):
                raise ValueError(
                    f"{where}model config key 'grid' must be a two-number list, got {grid!r}"
                )
            lo, hi = grid
            return RankOneWeights(np.linspace(float(lo), float(hi), n))
        w = spec["w"]
        try:
            numeric = np.asarray(w).dtype.kind in "iuf"  # not bool, None or text
        except ValueError:  # ragged nesting
            numeric = False
        if not numeric:
            got = reprlib.repr(w)  # at most a few entries of a long list
            raise ValueError(f"{where}model config key 'w' must be a list of numbers, got {got}")
        return RankOneWeights(np.asarray(w, dtype=np.float64))
    if kind == "dense":
        if "csv" in spec:
            p = Path(spec["csv"])
            if base is not None and not p.is_absolute():
                p = base / p
            return DenseWeights(load_dense_csv(p))
        return DenseWeights(np.asarray(spec["W"], dtype=np.float64))
    raise ValueError(f"{where}unknown weight kind: {kind!r}")


def model_from_json(source: str | Path | dict) -> ModelSpec:
    """Build a model from a JSON config file or an equivalent dict.

    Schema: {"n": int, "alpha": float, "beta": float,
             "weights": {"kind": "constant"|"rank1"|"dense", ...}}.
    Constant weights carry "c"; rank-one carry "w" (list) or "grid"
    [lo, hi] expanded to a uniform grid of length n; dense carry "W"
    (list of rows) or "csv" (path to an n-row CSV file).
    """
    base = None
    where = ""
    if isinstance(source, (str, Path)):
        base = Path(source).parent
        where = f"{source}: "
        with open(source) as fh:
            cfg = json.load(fh)
    else:
        cfg = source
    try:
        n = cfg["n"]
        integral = isinstance(n, (int, np.integer)) or isinstance(n, float) and n.is_integer()
        if isinstance(n, bool) or not integral:
            raise ValueError(f"{where}model config key 'n' must be an integer, got {n!r}")
        n = int(n)
        return ModelSpec(
            n=n,
            alpha=_number(cfg, "alpha", where),
            beta=_number(cfg, "beta", where),
            weights=_weights_from_dict(cfg["weights"], n, base, where),
        )
    except KeyError as exc:
        raise ValueError(f"{where}model config lacks key {exc.args[0]!r}") from None
