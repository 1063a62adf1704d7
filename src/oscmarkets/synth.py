"""Synthetic displacement samples drawn from the model's tail law.

Inverse-transform sampling: with u uniform on (0, 1],

    |x| = sqrt(2t/m) * erfc_inv(sqrt(u)),

which makes Pr(|x| >= X) = erfc(X sqrt(m/(2t)))^2 by construction; the
sign is a separate fair coin. The uniform source is numpy's Philox
counter-based generator seeded from SynthSpec.seed, so the uniforms and
the signs are the same on every platform, and parallel generation can
partition the index space by seed (never by sharing generator state). The
magnitudes are not: erfc_inv goes through numpy's float64 log and exp,
whose SIMD paths round differently with and without AVX-512, so a few
draws in ten thousand differ in the last bits between CPUs (ROADMAP item
14).

Weeks carry fabricated endpoints x_A = 100, x_B = 100 (1 + x) and
consecutive fabricated Friday week-end dates; the series is synthetic
plumbing for the estimator's closed loop, not a price path.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, at_least, positive, uint64
from .ingest import DisplacementSeries
from .specfun import erfc_inv

__all__ = ["SynthSpec", "sample_displacements"]

BASE_PRICE = 100.0
_EPOCH = dt.date(2000, 1, 7)  # a Friday
_MAX_N = (dt.date(9999, 12, 31) - _EPOCH).days // 7 + 1


@dataclass(frozen=True)
class SynthSpec:
    """True parameters and draw count for one synthetic sample."""

    m: float
    t: float = 1.0
    n: int = 100
    seed: int = 0

    def __post_init__(self):
        positive("m", self.m)
        positive("t", self.t)
        if at_least("sample count", self.n, 1) > _MAX_N:
            raise DataError(f"sample count {self.n} exceeds the fabricated "
                            f"calendar ({_MAX_N} weeks)")
        uint64("seed", self.seed)


def sample_displacements(spec: SynthSpec) -> DisplacementSeries:
    """Draw spec.n weekly displacements from the tail law at (m, t).

    Deterministic for a fixed seed; the magnitude stream and the sign
    stream are drawn in that order from a single Philox generator.
    """
    rng = np.random.Generator(np.random.Philox(spec.seed))
    u = 1.0 - rng.random(spec.n)  # uniform on (0, 1]: keeps sqrt in domain
    mags = math.sqrt(2.0 * spec.t / spec.m) * erfc_inv(np.sqrt(u))
    signs = np.where(rng.random(spec.n) < 0.5, -1.0, 1.0)
    x = signs * mags
    if float(x.min()) <= -1.0:
        # only reachable when m is so small that the law spills past a
        # total loss; such a draw has no positive-price representation
        raise DomainError(
            f"drawn displacement {x.min():g} is <= -1; m={spec.m:g} is too "
            f"small to fabricate positive prices"
        )
    week_end = np.datetime64(_EPOCH, "D") + 7 * np.arange(spec.n)
    return DisplacementSeries(f"synthetic-m{spec.m:g}", week_end,
                              np.full(spec.n, BASE_PRICE),
                              BASE_PRICE * (1.0 + x), x)
