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

The grid is scored in max(1, round(n T / 2^16)) near-equal blocks of
rows (`_block_count`), so a fit needs O(block x T) memory rather than
O(grid x T) for n candidates and T thresholds. A fit allocates one erfc
workspace (see the specfun module) for its largest block
(`_grid_workspace`): four float64 rows of about 512 KB each and two bool
rows. Every block, every refinement batch and the table's pr are computed
in it, and `_score_rows` centres each block in place, so no block
allocates a block-sized array. With fresh temporaries a block took about
2.5 MB of new pages (some 9,400 minor page faults per fit at N = 1000),
more than a core's 2 MiB L2 cache; the reused rows are the same pages from
block to block. r^2's sums are np.einsum rows, computed without BLAS, so a
row's score does not depend on the rows scored with it, on the BLAS kernel
or on the thread count.

The refinement scores its points ahead of need. One rule, `_step`, steps
the golden-section walk and its lookahead: a step's point depends only
on the comparisons before it, so on a miss one tail matrix scores it
and the points the next `depth` steps may reach (`_tree`):
2^(depth+1) - 1 rows, the most that fit in 2^12 tail elements, and at
least 3 (`_depth`). The walk traces only the points it visits, in order,
so its trace equals the one-point-at-a-time pass bit for bit. Each point
is math.exp of its log, as the sequential pass computed it (np.exp may
round differently).

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
from .specfun import _erfc_core, _workspace, erfc_inv

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
_TREE_ELEMENTS = 1 << 12
_TOL = 1e-9  # golden-section stop: bracket width in log m


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


def _tail_matrix(m_values: np.ndarray, thresholds: np.ndarray, t: float,
                 ws: tuple) -> np.ndarray:
    """Pr(|x| >= X) for each (m, X) pair; shape (len(m), len(X)).

    The result is a view of the erfc workspace `ws`, valid until its next
    use. Arguments are guaranteed finite and non-negative here, so this
    goes straight to the erfc core branch evaluation.
    """
    size = m_values.size * thresholds.size
    z = ws[0][0, :size].reshape(m_values.size, thresholds.size)
    np.multiply(np.sqrt(m_values / (2.0 * t))[:, None],
                thresholds[None, :], out=z)
    e = _erfc_core(z, ws)
    e *= e
    return e


def _centred(rho: np.ndarray) -> tuple:
    """The empirical curve centred, and its sum of squares: r^2's half that
    every candidate shares."""
    oc = rho - rho.mean()
    return oc, float(np.einsum("i,i->", oc, oc))


def _score_rows(pr: np.ndarray, oc: np.ndarray, ss_o: float) -> np.ndarray:
    """Per-row r^2 of theoretical curves against the centred empirical curve
    `oc`, whose sum of squares is `ss_o`.

    Centres `pr` in place. Rows whose curve is flat at float resolution
    (candidate m far outside the data's scale) score 0 rather than raising:
    they are legitimate grid members, just hopeless ones.
    """
    pr -= pr.mean(axis=1, keepdims=True)
    ss_p = np.einsum("ij,ij->i", pr, pr)
    num = np.einsum("ij,j->i", pr, oc)
    with np.errstate(invalid="ignore", divide="ignore"):
        r2 = np.where(ss_p > 0.0, (num * num) / (ss_p * ss_o), 0.0)
    return np.minimum(r2, 1.0)


def _block_count(n_rows: int, n_thresholds: int) -> int:
    """How many near-equal blocks of about _BLOCK_ELEMENTS tail elements,
    one row at least, score n_rows grid rows."""
    return min(n_rows, max(1, round(n_rows * n_thresholds / _BLOCK_ELEMENTS)))


def _depth(n_thresholds: int) -> int:
    """Golden-section steps scored ahead: the largest depth, at least 1,
    whose tree of 2^(depth+1) - 1 rows fits in _TREE_ELEMENTS."""
    return max(1, (_TREE_ELEMENTS // n_thresholds + 1).bit_length() - 2)


def _grid_workspace(n_rows: int, n_thresholds: int) -> tuple:
    """An erfc workspace for any tail matrix of a fit of n_rows grid rows:
    its largest block, a refinement tree, pr."""
    rows = max(-(-n_rows // _block_count(n_rows, n_thresholds)),
               2 ** (_depth(n_thresholds) + 1) - 1)
    return _workspace(rows * n_thresholds)


def _step(state: tuple, left: bool) -> tuple:
    """The state a < c < d < b after one golden-section step from `state`
    (a, b, c, d) that keeps [a, d] (left) or [c, b]."""
    a, b, c, d = state
    return ((a, d, d - _INVPHI * (d - a), c) if left
            else (c, b, d, c + _INVPHI * (b - c)))


def _tree(state: tuple, depth: int) -> list:
    """The points the next `depth` golden-section steps after `state` may
    evaluate, for every outcome of their comparisons."""
    if depth == 0 or state[1] - state[0] <= _TOL:
        return []
    left, right = _step(state, True), _step(state, False)
    return [left[2], right[3], *_tree(left, depth - 1),
            *_tree(right, depth - 1)]


def _score_grid(candidates: np.ndarray, thresholds: np.ndarray,
                oc: np.ndarray, ss_o: float, t: float,
                ws: tuple) -> np.ndarray:
    """r^2 of every candidate, scored block by block in the workspace `ws`
    (see module docstring)."""
    blocks = np.array_split(candidates,
                            _block_count(candidates.size, thresholds.size))
    return np.concatenate([
        _score_rows(_tail_matrix(block, thresholds, t, ws), oc, ss_o)
        for block in blocks])


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
        ws = _grid_workspace(grid_spec.n, thresholds.size)
        oc, ss_o = _centred(rho)
        scores = _score_grid(candidates, thresholds, oc, ss_o, t, ws)

        best = int(np.argmax(scores))  # first max = smallest m on a tie

        visited: list[float] = []  # log m of each refinement point, in order
        known: dict[float, float] = {}  # r^2 by log m, scored ahead of need

        def visit(state: tuple, left: bool) -> None:
            # trace the state's c (left) or d, the point a step to it adds;
            # on a miss, one tail matrix scores the state's unscored points
            # and the points the next steps may visit (see module docstring)
            visited.append(state[2 if left else 3])
            if visited[-1] not in known:
                new = [x for x in state[2:] if x not in known]
                new += _tree(state, _depth(thresholds.size) + 1 - len(new))
                m = np.array([math.exp(x) for x in new])
                r2 = _score_rows(_tail_matrix(m, thresholds, t, ws), oc, ss_o)
                known.update(zip(new, r2.tolist()))

        # one golden-section pass around the best candidate, in log space
        a = math.log(candidates[max(best - 1, 0)])
        b = math.log(candidates[min(best + 1, grid_spec.n - 1)])
        state = a, b, b - _INVPHI * (b - a), a + _INVPHI * (b - a)
        visit(state, True)
        visit(state, False)
        while state[1] - state[0] > _TOL:
            # keep the left interval on ties: smaller m wins
            left = known[state[2]] >= known[state[3]]
            state = _step(state, left)
            visit(state, left)

        m_all = np.concatenate([candidates, [math.exp(x) for x in visited]])
        order = np.argsort(m_all, kind="stable")
        grid = _columns(m=m_all[order], r2=np.concatenate(
            [scores, [known[x] for x in visited]])[order])
        # the first maximum in m order: the smallest m on a tie
        m_hat, best_r2 = grid[np.argmax(grid.r2)].tolist()
        if not best_r2 > 0.0:  # every evaluated curve is flat
            raise DomainError("no grid candidate fits the sample")

        pr_hat = _tail_matrix(np.array([m_hat]), thresholds, t, ws)[0]
    edges = candidates[[0, -1]]
    return EstimationResult(
        m_hat=m_hat, r2=best_r2,
        table=_columns(x=thresholds, rho=rho, pr=pr_hat),
        grid=grid, sample_size=n,
        at_grid_edge=bool((np.abs(m_hat - edges) <= 1e-6 * edges).any()))

