#!/usr/bin/env python3
"""Offline oracle computations for frozen test expectations.

Everything here is computed with mpmath at 40 significant digits, well past
double precision, and is independent of the package implementation.  Run it
to (re)generate tests/data/erfc_oracle.csv and to print the individual
constants that are frozen into the test modules.

Usage:
    python3 scripts/gen_oracle_values.py
"""

from pathlib import Path

import mpmath as mp

mp.mp.dps = 40

DATA_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"


def write_erfc_table() -> None:
    """erfc on a 0.05 grid over [-6, 6]: 241 points, 30 digits each."""
    rows = []
    for k in range(-120, 121):
        z = mp.mpf(k) / 20
        rows.append(f"{mp.nstr(z, 17)},{mp.nstr(mp.erfc(z), 30)}\n")
    out = DATA_DIR / "erfc_oracle.csv"
    with out.open("w", encoding="utf-8") as fh:
        fh.write("z,erfc\n")
        fh.writelines(rows)
    print(f"wrote {out} ({len(rows)} points)")


def erfc_inv(p: mp.mpf) -> mp.mpf:
    return mp.erfinv(1 - p)


def main() -> None:
    write_erfc_table()

    show = [
        ("erfc(1)", mp.erfc(1)),
        ("erfc(0.7)", mp.erfc(mp.mpf("0.7"))),
        ("erfc(2)", mp.erfc(2)),
        ("erfc(-3)", mp.erfc(-3)),
        ("erfc_inv(0.5)", erfc_inv(mp.mpf("0.5"))),
        ("erfc_inv(1.5)", erfc_inv(mp.mpf("1.5"))),
        ("erfc_inv(1e-12)", erfc_inv(mp.mpf("1e-12"))),
        # displacement ratio for the 200.01-point SPX drop from 1099.23
        ("899.22/1099.23 - 1", mp.mpf("899.22") / mp.mpf("1099.23") - 1),
        # action m*x^2/(2t)
        ("977.73*0.05^2/2", mp.mpf("977.73") * mp.mpf("0.05") ** 2 / 2),
        # tail law at m=2, t=1, X=1
        ("erfc(1)^2", mp.erfc(1) ** 2),
        # extreme displacement ratios
        ("pi*sqrt(8/977.73)", mp.pi * mp.sqrt(8 / mp.mpf("977.73"))),
        ("pi*sqrt(8/982.21)", mp.pi * mp.sqrt(8 / mp.mpf("982.21"))),
        ("pi*sqrt(8/977.73)*1099.23",
         mp.pi * mp.sqrt(8 / mp.mpf("977.73")) * mp.mpf("1099.23")),
        ("pi*sqrt(8/982.21)*10325.38",
         mp.pi * mp.sqrt(8 / mp.mpf("982.21")) * mp.mpf("10325.38")),
        # weekly inertial inversion at rho=0.25, x=0.03, t=1
        ("2*(erfc_inv(sqrt(0.25))/0.03)^2",
         2 * (erfc_inv(mp.sqrt(mp.mpf("0.25"))) / mp.mpf("0.03")) ** 2),
        # sampler survival check: erfc(0.05*sqrt(977.73/2))^2
        ("erfc(0.05*sqrt(977.73/2))^2",
         mp.erfc(mp.mpf("0.05") * mp.sqrt(mp.mpf("977.73") / 2)) ** 2),
        # action from phase at pi/2 and pi/6
        ("4*pi^2", 4 * mp.pi ** 2),
        ("pi^2", mp.pi ** 2),
    ]
    width = max(len(name) for name, _ in show)
    for name, value in show:
        print(f"{name:<{width}} = {mp.nstr(value, 22)}")


if __name__ == "__main__":
    main()
