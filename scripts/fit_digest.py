"""Print one SHA-256 digest of the 300 acceptance-criterion-5 fits.

The fits are those of tests/test_acceptance.py criterion 5: m_true in
{355.92, 977.73, 2513.76}, N in {100, 1000}, seeds 0-49, each
sample_displacements(SynthSpec(m, n, seed)) followed by fit_m_hat with the
default grid. The digest covers, for every fit in that order, the repr of
m_hat, r2, each threshold row (x, rho, pr) and each trace pair (m, r2),
all as Python floats. So two source trees give the same digest exactly when
all 300 fits are bit-identical, whatever container holds the table and the
trace.

The fit computes r^2 without BLAS, so the digest does not depend on the
BLAS kernel or the thread count; the tier-1 test
tests/test_cli.py::TestBlasThreads guards that. It does depend on the
numpy build and on the CPU: numpy's float64 exp and log take SIMD paths
that round differently with and without AVX-512 (sqrt is correctly
rounded on every path). So it compares two commits on one machine only,
and scripts/gates.py compares them under both dispatch settings, the
default and AVX-512 disabled; it is not a portable reference value.

    python scripts/fit_digest.py            # this checkout's src/
    python scripts/fit_digest.py OTHER/src  # another checkout's src/
"""

import hashlib
import pathlib
import sys

SRC = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                   pathlib.Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, str(SRC.resolve()))

import oscmarkets  # noqa: E402
from oscmarkets.estimate import fit_m_hat  # noqa: E402
from oscmarkets.synth import SynthSpec, sample_displacements  # noqa: E402

# an installed copy of the package must not stand in for SRC's
if not pathlib.Path(oscmarkets.__file__).resolve().is_relative_to(
        SRC.resolve()):
    sys.exit(f"error: imported oscmarkets from {oscmarkets.__file__}, "
             f"not from {SRC}")

M_TRUE = (355.92, 977.73, 2513.76)
SIZES = (100, 1000)
SEEDS = range(50)


def main() -> None:
    digest = hashlib.sha256()
    for m_true in M_TRUE:
        for n in SIZES:
            for seed in SEEDS:
                sample = sample_displacements(SynthSpec(m=m_true, n=n,
                                                        seed=seed))
                fit = fit_m_hat(sample)
                key = (float(fit.m_hat), float(fit.r2),
                       [(float(r.x), float(r.rho), float(r.pr))
                        for r in fit.table],
                       [(float(m), float(r)) for m, r in fit.grid])
                digest.update(repr(key).encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
