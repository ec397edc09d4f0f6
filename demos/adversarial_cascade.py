# Why the timers must be random.
#
# With deterministic timers every internal vertex fires after exactly its
# weight of effective time, and an adversary who knows the tree can script
# arrivals around those firings: keep a vertex effective, slip a burst of
# requests in just before it fires so the expiry connects two throwaway
# requests at full price, cancel the leftovers, and recurse into both
# halves.  Each round costs the player about one vertex weight while an
# offline matcher serves the same burst for pennies, and the stranded
# requests pile up linearly in n.
#
# This script builds that cascade for growing n and prints the cost ratio
# of the deterministic walker against an offline baseline, next to the mean
# ratio of the randomized walker on the same streams.  The deterministic
# column grows roughly linearly; the randomized one barely moves.

import argparse

import numpy as np

from delaymatch.core import total_cost
from delaymatch.experiment import offline_baseline
from delaymatch.instances import GammaConfig, gen_adversarial_gamma
from delaymatch.stiltwalker import TimerMode, run as run_online


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=100, help="randomized runs per n")
    args = ap.parse_args()

    print(f"{'n':>4s} {'requests':>8s} {'offline':>8s} {'det':>8s} {'det ratio':>9s} {'rand mean':>9s} {'rand ratio':>10s}")
    for n in (8, 16, 32):
        inst = gen_adversarial_gamma(GammaConfig(n))
        # offline baseline: exact optimum while tractable, greedy above that
        baseline = offline_baseline(inst.space, inst.requests).cost.total

        det = run_online(inst.tree, inst.requests, TimerMode.DETERMINISTIC, seed=0)
        det_cost = total_cost(inst.space, inst.requests, det.schedule).total

        totals = np.empty(args.seeds)
        for s in range(args.seeds):
            r = run_online(inst.tree, inst.requests, TimerMode.EXPONENTIAL, seed=s)
            totals[s] = total_cost(inst.space, inst.requests, r.schedule).total
        rand_mean = float(totals.mean())

        print(
            f"{n:4d} {len(inst.requests):8d} {baseline:8.3f} {det_cost:8.3f} "
            f"{det_cost / baseline:9.2f} {rand_mean:9.3f} {rand_mean / baseline:10.2f}"
        )

    print()
    print("the deterministic ratio scales with n; the randomized one stays flat,")
    print("because an exponential timer's firing time cannot be predicted from")
    print("how long the vertex has been effective")


if __name__ == "__main__":
    main()
