# The alternation process behind the time-cost analysis.
#
# Take a timeline colored with two colors (and gaps).  A walker digests
# color-1 time until an exponential clock rings, then switches to color-2
# time, then back, and so on until the window ends.  Three laws make this
# process useful as an accounting device:
#
#   identity   E[total digested] = E[#meaningful switches] / rate
#   first bite E[G_1] = (1/rate) * (1 - exp(-rate * V_1))
#   hard cap   #switches <= #color discontinuities + 1, surely
#
# The law of the switch count is computed exactly, so the dominance by
# 1 + 2 Poisson is checked on it; the simulation is then tested against that
# exact law.  This script runs the process on a handful of colorings and
# prints each law next to its empirical value.

import argparse

import numpy as np

from delaymatch.altpoisson import Coloring, closed_form_digest, verify_digestion


def blocks(k: int, width: float) -> Coloring:
    segs = []
    t = 0.0
    for i in range(k):
        segs.append((t, t + width, 1 if i % 2 == 0 else 2))
        t += width
    return Coloring(tuple(segs))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=20000)
    ap.add_argument("--rate", type=float, default=1.2)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    colorings = {
        "constant-1 on [0,3)": Coloring(((0.0, 3.0, 1),)),
        "6 alternating blocks": blocks(6, 0.8),
        "blocks with a gap": Coloring(((0.0, 1.0, 1), (1.0, 2.0, None), (2.0, 3.0, 2), (3.0, 4.0, 1))),
    }

    for name, col in colorings.items():
        rep = verify_digestion(col, args.rate, args.trials, np.random.default_rng(args.seed))
        v1 = col.volume(1, col.t0, col.t1)
        print(name)
        print(f"  discontinuities K = {col.discontinuities}, color-1 volume = {v1:.2f}")
        print(f"  identity error      {rep.identity_rel_error:8.4f}  (-> 0 with more trials)")
        print(f"  first bite          closed form {closed_form_digest(v1, args.rate):.4f}, "
              f"empirical error {rep.first_digest_rel_error:.4f}")
        print(f"  hard cap N <= K+1   {rep.count_bound_violations} violations in {rep.trials} trials")
        print(f"  dominance vs 1+2*Poisson: {'ok' if rep.dominance_ok else 'FAILED'} "
              f"(exact margin {rep.dominance_margin:+.4f})")
        print(f"  sampled law vs exact: L1 distance {rep.law_distance:.4f} "
              f"({'ok' if rep.law_ok else 'FAILED'})")
        print()


if __name__ == "__main__":
    main()
