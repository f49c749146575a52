#!/usr/bin/env python3
"""Grid-refinement study for the reference fixture.

Reports, per grid density:
  * the coarse Nystrom eigenvalue and its Richardson order,
  * the closed-form vs shooting deviation at a fixed lambda,
  * the omega identity defect |int q - int w_0|,
  * the reordered-vs-nested route deviation for the quadratic correction.
"""

import math

import numpy as np

from isobispec.charfn import compute_Q, eval_delta, make_evaluator
from isobispec.grid import PiecewiseFn, norm_l2
from isobispec.integral_op import build_nystrom, leading_real_eigenpair
from isobispec.potential import build_potential, make_family, omega
from isobispec.shooting import shoot


def main() -> None:
    lam = 60.0
    rows = []
    for grid_n in (512, 1024, 2048, 4096):
        fam = make_family(grid_n=grid_n)
        q = build_potential(fam, 1)
        ev = make_evaluator(q)
        cross = abs(shoot(q, lam, "S").value_at_pi - eval_delta(ev, 0, lam))
        om_def = abs(complex(ev.omega_w0) - complex(omega(q)))
        route = norm_l2(ev.Q[0] - compute_Q(q, "original")[0])
        rows.append((fam.grid.n_panels, cross, om_def, route))

    print(f"{'panels':>8} {'|shoot-closed|':>15} {'omega defect':>14} "
          f"{'route dev':>12}")
    for n, cross, om_def, route in rows:
        print(f"{n:>8} {cross:>15.3e} {om_def:>14.3e} {route:>12.3e}")
    for (n1, c1, o1, r1), (n2, c2, o2, r2) in zip(rows, rows[1:]):
        print(f"observed orders {n1}->{n2}: "
              f"cross {math.log2(c1 / c2):.2f}, omega {math.log2(o1 / o2):.2f},"
              f" route {math.log2(r1 / r2):.2f}")

    print("\nNystrom eigenvalue refinement (fixed 2048-panel working grid):")
    fam = make_family(grid_n=2048)
    h_raw = PiecewiseFn.constant(fam.grid, fam.grid.idx_5a2,
                                 fam.grid.n_panels, 1.0)
    etas = []
    for n in (32, 64, 128, 256, 512):
        pair = leading_real_eigenpair(build_nystrom(h_raw, n), refine=False)
        etas.append(pair.coarse_eta)
        print(f"  n={n:>4}: eta = {pair.coarse_eta:.12f}")
    d = np.diff(etas)
    orders = [math.log2(abs(d[i] / d[i + 1])) for i in range(len(d) - 1)]
    print("  Richardson orders:", ", ".join(f"{o:.3f}" for o in orders))


if __name__ == "__main__":
    main()
