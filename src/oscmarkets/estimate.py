"""Inertial-coefficient estimation from weekly displacement samples.

The fitting protocol:

  1. collect the sample's displacement ratios x_w and take |x_w|,
  2. thresholds are the distinct nonzero |x_w| (ties collapse; zero
     displacements carry no threshold but still count in frequencies),
  3. empirical relative frequency at threshold X is the mean of the 0/1
     coding of |x_w| >= X over the whole sample,
  4. m_hat is the grid candidate whose theoretical tail curve
     Pr(|x| >= X) = erfc(X sqrt(m/(2t)))^2 best matches the empirical
     frequencies, scored by the squared Pearson correlation r^2.

The default grid is log-spaced with 2000 candidates and brackets the
analytic per-week inversions m_w = 2t (erfc_inv(sqrt(rho))/|x_w|)^2 by a
factor of 4 on each side, followed by one golden-section refinement around
the best candidate (all refinement evaluations are kept in the trace).
Ties resolve to the smallest candidate, so a fit is deterministic for
fixed inputs. A fit records whether the refined m_hat sits on the first or
the last candidate, within 1e-6 relative (`at_grid_edge`), the sign that
the optimum may lie outside the searched bracket.

The grid is scored in blocks of rows holding about 2^16 tail-matrix
elements each, so every temporary (about 512 KB) stays in a core's L2
cache and a fit needs O(block x T) memory rather than O(grid x T) for T
thresholds. Blocks are 8-row aligned: each starts at a multiple of 8, and a
trailing block shorter than 8 rows joins the one before it. The BLAS
matrix-vector product behind r^2 rounds the rows of a short trailing group
differently, so with this alignment every score equals, bit for bit, the
score of the whole grid in one product on one thread, whatever the number
of BLAS threads.

r^2 is the squared Pearson correlation, so it lies in [0, 1], and a
candidate whose tail curve is flat at float resolution scores exactly 0.
A fit whose best r^2 is 0 carries no information and raises DomainError.

A fit result holds read-only float64 record arrays: `table` with columns
x, rho, pr (one row per threshold, ascending in x, pr at m_hat) and `grid`
with columns m, r2 (every evaluated candidate, ascending in m; refinement
stays strictly inside the bracket, so the first and last rows are its ends).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, DomainError, finite, positive
from .ingest import DisplacementSeries
from .specfun import _erfc_core, erfc_inv

__all__ = [
    "GridSpec",
    "EstimationResult",
    "m_week",
    "fit_m_hat",
]

DEFAULT_GRID_POINTS = 2000
MAX_GRID_POINTS = 10 ** 6
BRACKET_FACTOR = 4.0
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class GridSpec:
    """Search grid for m. lo/hi of None auto-bracket from the sample."""

    lo: Optional[float] = None
    hi: Optional[float] = None
    n: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        if (self.lo is None) != (self.hi is None):
            raise DataError("grid bounds must be given together or not at all")
        if self.lo is not None and not 0.0 < self.lo < self.hi < math.inf:
            raise DataError(
                f"grid bounds must satisfy 0 < lo < hi < inf, "
                f"got [{self.lo}, {self.hi}]"
            )
        if not 2 <= self.n <= MAX_GRID_POINTS:
            raise DataError(f"grid needs 2 to {MAX_GRID_POINTS} candidates, "
                            f"got {self.n}")


def _columns(**columns) -> np.recarray:
    """A read-only record array of the named float64 columns."""
    table = np.rec.fromarrays(list(columns.values()), names=list(columns))
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class EstimationResult:
    m_hat: float
    r2: float
    table: np.recarray  # x, rho, pr
    grid: np.recarray  # m, r2
    sample_size: int
    at_grid_edge: bool = False  # m_hat is the first or last candidate

    def __post_init__(self):
        if not self.m_hat > 0.0:
            raise DomainError(f"m_hat must be > 0, got {self.m_hat}")
        if self.r2 != self.grid.r2.max():
            raise DomainError("r2 must equal the best r2 in the grid trace")
        x = self.table.x
        if not ((x >= 0.0).all() and (x[1:] >= x[:-1]).all()):
            raise DomainError("thresholds must be >= 0 and sorted ascending")
        # pr = erfc(z)^2 underflows to 0.0 for z beyond about 19.5
        for name in ("rho", "pr"):
            column = self.table[name]
            bad = column[~((column >= 0.0) & (column <= 1.0))]
            if bad.size:
                raise DomainError(f"{name} must lie in [0, 1], got {bad[0]}")


def _frequencies(abs_sorted: np.ndarray, thresholds) -> np.ndarray:
    """Fraction of the sorted |x| >= each threshold: an integer count / n."""
    n = abs_sorted.size
    return (n - np.searchsorted(abs_sorted, thresholds, side="left")) / n


def m_week(rho: float, x_w: float, t: float = 1.0) -> float:
    """Per-week inversion of the tail law: m_w = 2t (erfc_inv(sqrt(rho))/|x_w|)^2.

    rho = 0 would demand an infinite coefficient and is rejected, as are a
    zero displacement (the inversion divides by |x_w|), a non-finite one
    or t, and a displacement so small that m_w overflows.
    """
    t = positive("t", t)
    if rho == 0.0:
        raise DomainError("rho = 0 implies an infinite inertial coefficient")
    if not 0.0 < rho <= 1.0:
        raise DomainError(f"rho must lie in (0, 1], got {rho}")
    if x_w == 0.0:
        raise DomainError("zero displacement cannot be inverted")
    with np.errstate(over="ignore"):
        return finite("m_w", _invert(rho, finite("x_w", x_w), t))


def _invert(rho: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
    """The tail law solved for m at (rho, |x|), elementwise."""
    z = erfc_inv(np.sqrt(rho)) / np.abs(x)
    return 2.0 * t * z * z


def _tail_matrix(m_values: np.ndarray, thresholds: np.ndarray,
                 t: float) -> np.ndarray:
    """Pr(|x| >= X) for each (m, X) pair; shape (len(m), len(X)).

    Arguments are guaranteed finite and non-negative here, so this goes
    straight to the erfc core branch evaluation.
    """
    z = np.sqrt(m_values / (2.0 * t))[:, None] * thresholds[None, :]
    e = _erfc_core(z)
    e *= e
    return e


def _score_rows(pr: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Per-row r^2 of theoretical curves against the empirical curve.

    Rows whose curve is flat at float resolution (candidate m far outside
    the data's scale) score 0 rather than raising: they are legitimate
    grid members, just hopeless ones.
    """
    oc = rho - rho.mean()
    ss_o = float(oc @ oc)
    pc = pr - pr.mean(axis=1, keepdims=True)
    ss_p = np.einsum("ij,ij->i", pc, pc)
    num = pc @ oc
    with np.errstate(invalid="ignore", divide="ignore"):
        r2 = np.where(ss_p > 0.0, (num * num) / (ss_p * ss_o), 0.0)
    return np.minimum(r2, 1.0)


def _block_rows(n_thresholds: int) -> int:
    """Grid rows per scoring block: about _BLOCK_ELEMENTS, a multiple of 8."""
    return max(8, (_BLOCK_ELEMENTS // n_thresholds) // 8 * 8)


def _score_grid(candidates: np.ndarray, thresholds: np.ndarray,
                rho: np.ndarray, t: float) -> np.ndarray:
    """r^2 of every candidate, scored block by block (see module docstring)."""
    n = candidates.size
    step = _block_rows(thresholds.size)
    scores = np.empty(n)
    start = 0
    while start < n:
        stop = start + step
        if n - stop < 8:  # fold a short trailing block into this one
            stop = n
        pr = _tail_matrix(candidates[start:stop], thresholds, t)
        scores[start:stop] = _score_rows(pr, rho)
        start = stop
    return scores


def fit_m_hat(sample: DisplacementSeries, t: float = 1.0,
              grid_spec: Optional[GridSpec] = None) -> EstimationResult:
    """Fit the inertial coefficient by maximal r^2 over a log-spaced grid.

    Requires at least 10 sample weeks with at least 3 distinct nonzero
    |x| values; raises DomainError when the best r^2 is 0 (every evaluated
    curve is flat). The module docstring describes the result's columns.
    """
    t = positive("t", t)
    if grid_spec is None:
        grid_spec = GridSpec()
    n = len(sample)
    if n < 10:
        raise DataError(f"need at least 10 sample weeks, got {n}")
    abs_x = np.abs(sample.ratio)
    thresholds = np.unique(abs_x[abs_x > 0.0])
    if thresholds.size < 3:
        raise DataError(
            f"degenerate sample: need at least 3 distinct nonzero |x| "
            f"values, got {thresholds.size}"
        )
    rho = _frequencies(np.sort(abs_x), thresholds)

    # an overflow gives inf where it is checked or is the limit (pr = 0)
    with np.errstate(over="ignore"):
        if grid_spec.lo is not None:
            lo, hi = grid_spec.lo, grid_spec.hi
        else:
            keep = rho < 1.0
            m_w = _invert(rho[keep], thresholds[keep], t)
            lo = float(m_w.min()) / BRACKET_FACTOR
            hi = float(m_w.max()) * BRACKET_FACTOR
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise DomainError(f"t={t!r} puts the auto-bracketed grid "
                                  f"out of range: [{lo!r}, {hi!r}]")

        candidates = np.geomspace(lo, hi, grid_spec.n)
        scores = _score_grid(candidates, thresholds, rho, t)

        best = int(np.argmax(scores))  # first max = smallest m on a tie

        extra_m: list[float] = []
        extra_r2: list[float] = []

        def evaluate(log_m: float) -> float:  # traced r^2 at exp(log_m)
            m = math.exp(log_m)
            r2 = float(_score_grid(np.array([m]), thresholds, rho, t)[0])
            extra_m.append(m)
            extra_r2.append(r2)
            return r2

        # one golden-section pass around the best candidate, in log space
        a = math.log(candidates[max(best - 1, 0)])
        b = math.log(candidates[min(best + 1, grid_spec.n - 1)])
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc, fd = evaluate(c), evaluate(d)
        while b - a > 1e-9:
            if fc >= fd:  # keep the left interval on ties: smaller m wins
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = evaluate(c)
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = evaluate(d)

        m_all = np.concatenate([candidates, extra_m])
        order = np.argsort(m_all, kind="stable")
        grid = _columns(m=m_all[order],
                        r2=np.concatenate([scores, extra_r2])[order])
        # the first maximum in m order: the smallest m on a tie
        m_hat, best_r2 = grid[np.argmax(grid.r2)].tolist()
        if not best_r2 > 0.0:  # every evaluated curve is flat
            raise DomainError("no grid candidate fits the sample")

        pr_hat = _tail_matrix(np.array([m_hat]), thresholds, t)[0]
    edges = candidates[[0, -1]]
    return EstimationResult(
        m_hat=m_hat, r2=best_r2,
        table=_columns(x=thresholds, rho=rho, pr=pr_hat),
        grid=grid, sample_size=n,
        at_grid_edge=bool((np.abs(m_hat - edges) <= 1e-6 * edges).any()))

