# How much does a random tree stretch a metric?
#
# The matcher never works on the raw metric: it samples a random weighted
# binary tree whose leaf distances dominate the true distances, pays tree
# distance when it connects two requests, and relies on the stretch being
# logarithmic *in expectation*.  A single sampled tree can be terrible for
# one particular pair; the guarantee only averages out over samples.
#
# This script makes that concrete.  It draws one random point set, samples
# many trees, and prints the empirical stretch per pair: min over samples
# (always >= 1, domination is a hard invariant), mean (the quantity the
# theory bounds), and max (routinely huge, which is exactly why one fixed
# tree is not enough).

import argparse

import numpy as np

from delaymatch.embedding import sample_hsbt, tree_metric
from delaymatch.instances import gen_random


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=10)
    ap.add_argument("--samples", type=int, default=500)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    space, _ = gen_random("square", args.points, 2, 1.0, rng)
    n = space.n

    stretch_min = np.full((n, n), np.inf)
    stretch_sum = np.zeros((n, n))
    stretch_max = np.zeros((n, n))
    for s in range(args.samples):
        tree = sample_hsbt(space, np.random.default_rng((args.seed, s)))
        tsp = tree_metric(tree)
        order = [tsp.index[p] for p in space.points]
        ratio = tsp.dist[np.ix_(order, order)] / np.where(space.dist > 0, space.dist, 1.0)
        stretch_min = np.minimum(stretch_min, ratio)
        stretch_sum += ratio
        stretch_max = np.maximum(stretch_max, ratio)

    mean = stretch_sum / args.samples
    off = ~np.eye(n, dtype=bool)
    print(f"{args.samples} sampled trees over {n} points in the unit square")
    print(f"  domination floor  min stretch = {stretch_min[off].min():.3f}  (>= 1 by invariant)")
    print(f"  mean stretch      avg {mean[off].mean():6.2f}   worst pair {mean[off].max():6.2f}")
    print(f"  single-tree tails max {stretch_max[off].max():6.2f}")
    print(f"  reference scale   8 ln n = {8 * np.log(n):.2f}")
    print()

    # the five worst pairs on average, with their true distance: short pairs
    # are the fragile ones, a coarse cut near the root costs them the most
    flat = [(mean[i, j], space.dist[i, j], i, j) for i in range(n) for j in range(i + 1, n)]
    flat.sort(reverse=True)
    print("worst pairs by mean stretch:")
    for ms, d, i, j in flat[:5]:
        print(f"  {space.points[i]:>4s} -- {space.points[j]:<4s} d = {d:7.4f}   mean stretch {ms:6.2f}")


if __name__ == "__main__":
    main()
