"""Reference computations the benchmark checks the program against.

Nothing here imports oscmarkets: the sampler, the weekly resampler, the
empirical tail frequencies, the tail law and r^2 are written again from
their definitions in numpy and scipy. Each check returns a list of
problems; an empty list means the output is correct.

Run ``python3 perfbench/checks.py`` to test the checkers themselves; the
benchmark also runs that self-test before every run.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc, erfcinv

# Probability that the Dvoretzky-Kiefer-Wolfowitz bound below is exceeded
# by a correct sampler; small enough that no seed trips it in practice.
DKW_ALPHA = 1e-9
BRACKET_FACTOR = 4.0


# ---------------------------------------------------------------- sampler

def draw(m: float, n: int, seed: int, t: float = 1.0) -> np.ndarray:
    """The documented sampler: |x| = sqrt(2t/m) erfc_inv(sqrt(u)), u on
    (0, 1], then a fair sign, both from one Philox stream."""
    rng = np.random.Generator(np.random.Philox(seed))
    u = 1.0 - rng.random(n)
    mags = math.sqrt(2.0 * t / m) * erfcinv(np.sqrt(u))
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return signs * mags


def tail_law(x, m: float, t: float = 1.0):
    e = erfc(np.asarray(x) * math.sqrt(m / (2.0 * t)))
    return e * e


def sup_gap(x: np.ndarray, m: float, t: float = 1.0) -> float:
    """Kolmogorov distance between the sample's |x| and the tail law."""
    a = np.sort(np.abs(x))
    n = a.size
    law = tail_law(a, m, t)
    # just below a[i] the empirical survival is (n - i)/n, at it (n-i-1)/n
    i = np.arange(n)
    return float(max(np.max(np.abs((n - i) / n - law)),
                     np.max(np.abs((n - i - 1) / n - law))))


def dkw_bound(n: int) -> float:
    return math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * n))


def check_sample(x_prog: np.ndarray, m: float, n: int, seed: int) -> list:
    """The program's sample equals the reference draw and obeys the law."""
    problems = []
    x_ref = draw(m, n, seed)
    if x_prog.shape != x_ref.shape:
        return [f"synth m={m} seed={seed}: {x_prog.size} draws, want {n}"]
    if not np.allclose(x_prog, x_ref, rtol=1e-9, atol=0.0):
        problems.append(f"synth m={m} seed={seed}: draws differ from the "
                        f"reference sampler")
    gap = sup_gap(x_prog, m)
    if gap > dkw_bound(n):
        problems.append(f"synth m={m} seed={seed}: sup-gap {gap:.4f} "
                        f"exceeds {dkw_bound(n):.4f}")
    return problems


# ---------------------------------------------------------------- fit

def empirical_tail(x: np.ndarray):
    """Distinct nonzero |x| and the share of the sample at or above each."""
    vals, counts = np.unique(np.abs(np.asarray(x, dtype=np.float64)),
                             return_counts=True)
    surv = np.cumsum(counts[::-1])[::-1] / counts.sum()
    keep = vals > 0.0
    return vals[keep], surv[keep]


def r2_at(m_values, xs: np.ndarray, rho: np.ndarray, t: float = 1.0,
          block: int = 64) -> np.ndarray:
    """Squared Pearson correlation of the tail law at each m against rho."""
    m_values = np.atleast_1d(np.asarray(m_values, dtype=np.float64))
    oc = rho - rho.mean()
    ss_o = float(oc @ oc)
    out = np.empty(m_values.size)
    for s in range(0, m_values.size, block):
        e = erfc(np.sqrt(m_values[s:s + block] / (2.0 * t))[:, None]
                 * xs[None, :])
        pr = e * e
        pc = pr - pr.mean(axis=1, keepdims=True)
        ss_p = np.sum(pc * pc, axis=1)
        num = pc @ oc
        with np.errstate(invalid="ignore", divide="ignore"):
            r2 = np.where(ss_p > 0.0, num * num / (ss_p * ss_o), 0.0)
        out[s:s + block] = np.minimum(r2, 1.0)
    return out


def bracket(xs: np.ndarray, rho: np.ndarray, t: float = 1.0):
    """Per-week tail-law inversions, widened by BRACKET_FACTOR each way."""
    keep = rho < 1.0
    z = erfcinv(np.sqrt(rho[keep])) / xs[keep]
    m_w = 2.0 * t * z * z
    return float(m_w.min()) / BRACKET_FACTOR, float(m_w.max()) * BRACKET_FACTOR


def check_fit(x: np.ndarray, m_hat: float, r2: float, label: str,
              r2_tol: float = 1e-9, grid_tol: float = 1e-9,
              points: int = 512, reported_bracket=None) -> list:
    """r^2 recomputed at m_hat matches the reported r2, and no point of an
    independent grid over the bracket scores higher. A reported bracket
    (the first and last candidate of a fit's trace) must match ours."""
    xs, rho = empirical_tail(x)
    problems = []
    if not (math.isfinite(m_hat) and m_hat > 0.0):
        return [f"{label}: m_hat {m_hat!r} is not a positive number"]
    mine = float(r2_at(m_hat, xs, rho)[0])
    if abs(mine - r2) > r2_tol:
        problems.append(f"{label}: r2 at m_hat={m_hat!r} is {mine!r}, "
                        f"reported {r2!r}")
    lo, hi = bracket(xs, rho)
    if reported_bracket is not None and not (
            math.isclose(reported_bracket[0], lo, rel_tol=1e-9)
            and math.isclose(reported_bracket[1], hi, rel_tol=1e-9)):
        problems.append(f"{label}: bracket {reported_bracket}, want "
                        f"({lo!r}, {hi!r})")
    local = np.geomspace(max(lo, m_hat / 1.02), min(hi, m_hat * 1.02), 65)
    grid = np.concatenate([np.geomspace(lo, hi, points), local])
    scores = r2_at(grid, xs, rho)
    k = int(np.argmax(scores))
    if scores[k] > r2 + grid_tol:
        problems.append(f"{label}: m={grid[k]!r} scores {scores[k]!r}, "
                        f"above the reported best {r2!r}")
    return problems


def check_equivariance(ratios: dict, label: str, tol: float = 1e-6) -> list:
    """m_hat / m_true must not depend on m_true for one seed's uniforms."""
    vals = list(ratios.values())
    spread = max(vals) - min(vals)
    if spread > tol * max(vals):
        return [f"{label}: m_hat/m_true spread {spread:.3g} across "
                f"m_true {sorted(ratios)}"]
    return []


# ---------------------------------------------------------------- prices

def iso_week_key(days: np.ndarray) -> np.ndarray:
    """ISO year * 100 + ISO week of each datetime64[D], by the Thursday
    rule: a Monday-to-Sunday week belongs to the year of its Thursday."""
    d = days.astype("datetime64[D]").astype(np.int64)  # 1970-01-01 = Thu
    weekday = (d + 3) % 7  # Monday = 0
    thursday = d - weekday + 3
    year = thursday.astype("datetime64[D]").astype("datetime64[Y]")
    jan1 = year.astype("datetime64[D]").astype(np.int64)
    week = (thursday - jan1) // 7 + 1
    return (year.astype(np.int64) + 1970) * 100 + week


def resample_weekly(days: np.ndarray, closes: np.ndarray):
    """Last row of each ISO week; the week keeps its last observed date."""
    key = iso_week_key(days)
    last = np.flatnonzero(np.append(key[1:] != key[:-1], True))
    return days[last], closes[last]


def weekly_displacements(days: np.ndarray, closes: np.ndarray):
    """(week_end, x_a, x_b, ratio) of consecutive weekly closes."""
    x_a, x_b = closes[:-1], closes[1:]
    return days[1:], x_a, x_b, x_b / x_a - 1.0


def displacement_csv(week_end, x_a, x_b, ratio) -> str:
    rows = [f"{d},{a!r},{b!r},{r!r}\n" for d, a, b, r in
            zip(week_end.astype(str).tolist(), x_a.tolist(), x_b.tolist(),
                ratio.tolist())]
    return "week_end,x_a,x_b,ratio\n" + "".join(rows)


def expected_backtest(week_end, x_a, x_b, ratio, start: int, count: int,
                      crash: int):
    """Reference values for a backtest, except m_hat and r2, which are
    checked through check_fit."""
    return {
        "prior_close": float(x_a[crash]),
        "actual_points": abs(float(x_b[crash]) - float(x_a[crash])),
        "actual_ratio": abs(float(ratio[crash])),
        "years_from_train_to_crash": round(
            int((week_end[crash] - week_end[start + count - 1])
                .astype(np.int64)) / 365.25, 1),
    }


def check_backtest(rec: dict, ref: dict, train_x: np.ndarray, t: float = 1.0,
                   label: str = "backtest") -> list:
    problems = check_fit(train_x, rec["m_hat"], rec["r2"], label)
    for key, want in ref.items():
        if rec[key] != want:
            problems.append(f"{label}: {key} {rec[key]!r}, want {want!r}")
    ratio = math.pi * math.sqrt(8.0 * t / rec["m_hat"])
    points = ratio * ref["prior_close"]
    if not math.isclose(rec["predicted_extreme_ratio"], ratio, rel_tol=1e-12):
        problems.append(f"{label}: predicted_extreme_ratio "
                        f"{rec['predicted_extreme_ratio']!r}, want {ratio!r}")
    predicted = rec["predicted_extreme_points"]
    if not math.isclose(predicted, points, rel_tol=1e-12):
        problems.append(f"{label}: predicted_extreme_points {predicted!r}, "
                        f"want {points!r}")
    if rec["violated"] != (rec["actual_points"] > predicted):
        problems.append(f"{label}: violated={rec['violated']} contradicts "
                        f"the point values")
    return problems


# ---------------------------------------------------------------- self-test

def self_test() -> list:
    """Each checker accepts a known-good case and rejects a broken one."""
    problems = []

    # ISO weeks across year ends: 2020 has a week 53 that ends on Sunday
    # 2021-01-03; Monday 2018-12-31 already belongs to 2019-W01.
    days = np.array(["2018-12-28", "2018-12-31", "2019-01-02",
                     "2020-12-28", "2020-12-31", "2021-01-01", "2021-01-03",
                     "2021-01-04", "2021-01-08", "2026-12-31", "2027-01-01"],
                    dtype="datetime64[D]")
    want = [201852, 201901, 201901, 202053, 202053, 202053, 202053,
            202101, 202101, 202653, 202653]
    got = iso_week_key(days).tolist()
    if got != want:
        problems.append(f"iso_week_key: {got}, want {want}")
    closes = np.arange(1.0, days.size + 1.0)
    wk_days, wk_close = resample_weekly(days, closes)
    want_days = ["2018-12-28", "2019-01-02", "2021-01-03", "2021-01-08",
                 "2027-01-01"]
    if wk_days.astype(str).tolist() != want_days or \
            wk_close.tolist() != [1.0, 3.0, 7.0, 9.0, 11.0]:
        problems.append(f"resample_weekly: {wk_days}, {wk_close}")
    body = displacement_csv(*weekly_displacements(wk_days, wk_close))
    if body.splitlines()[1] != "2019-01-02,1.0,3.0,2.0":
        problems.append(f"displacement_csv: {body.splitlines()[1]!r}")

    # r^2: the true optimum passes, a perturbed m_hat must fail.
    x = draw(977.73, 1000, seed=7)
    xs, rho = empirical_tail(x)
    lo, hi = bracket(xs, rho)
    grid = np.geomspace(lo, hi, 4001)
    scores = r2_at(grid, xs, rho)
    k = int(np.argmax(scores))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    fine = np.geomspace(a, b, 2001)
    fine_scores = r2_at(fine, xs, rho)
    j = int(np.argmax(fine_scores))
    m_best, r2_best = float(fine[j]), float(fine_scores[j])
    if check_fit(x, m_best, r2_best, "self-test", grid_tol=1e-9):
        problems.append("check_fit rejects the optimum")
    if not check_fit(x, m_best * 1.01, r2_best, "self-test"):
        problems.append("check_fit accepts a perturbed m_hat")
    if not check_fit(x, lo * 2.0, float(r2_at(lo * 2.0, xs, rho)[0]),
                     "self-test"):
        problems.append("check_fit accepts a point below the optimum")

    # The sampler check rejects draws at another m.
    if check_sample(x, 977.73, 1000, 7):
        problems.append("check_sample rejects the reference draw")
    if not check_sample(draw(977.73 * 1.5, 1000, 7), 977.73, 1000, 7):
        problems.append("check_sample accepts draws at the wrong m")
    return problems


if __name__ == "__main__":
    found = self_test()
    for line in found:
        print(line)
    print("checkers ok" if not found else f"{len(found)} checker faults")
    raise SystemExit(1 if found else 0)
