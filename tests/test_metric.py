import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaymatch.errors import (
    AsymmetricDistance,
    DegenerateSpace,
    InstanceLoadError,
    NegativeDistance,
    TriangleViolation,
)
from delaymatch.cli import load_bundle, save_bundle
from delaymatch.metric import MetricSpace, from_coords, stats


def square_metric():
    # unit square corners a, b, c, d (counterclockwise)
    names = ["a", "b", "c", "d"]
    coords = [(0, 0), (1, 0), (1, 1), (0, 1)]
    d = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            d[i, j] = math.dist(coords[i], coords[j])
    return names, d


def test_valid_space_distance_lookup():
    names, d = square_metric()
    space = MetricSpace(names, d)
    assert space.n == 4
    assert space.distance("a", "b") == 1.0
    assert space.distance("a", "c") == pytest.approx(math.sqrt(2))
    assert space.distance("c", "c") == 0.0


def test_asymmetry_detected():
    names, d = square_metric()
    d[0, 1] = 2.0
    with pytest.raises(AsymmetricDistance):
        MetricSpace(names, d)


def test_nonpositive_off_diagonal_detected():
    names, d = square_metric()
    d[0, 1] = d[1, 0] = 0.0
    with pytest.raises(NegativeDistance):
        MetricSpace(names, d)


def test_nonzero_diagonal_detected():
    names, d = square_metric()
    d[2, 2] = 0.5
    with pytest.raises(NegativeDistance):
        MetricSpace(names, d)


def test_triangle_violation_names_points():
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(TriangleViolation) as err:
        MetricSpace(["x", "y", "z"], d)
    assert "x" in str(err.value) and "z" in str(err.value)


def triangle_scan(names, d):
    """The plain triangle check: its message for the first bad (i, k, j).

    It walks the whole cube of triples, one row i at a time so that n = 300
    needs n^2 entries per temporary rather than n^3.
    """
    tol = 1e-9 * d.max()
    for i in range(len(d)):
        with np.errstate(over="ignore"):  # an overflowing sum bounds any distance
            slack = d[i][None, :] - (d[i][:, None] + d)  # [k, j]
        hits = np.argwhere(slack > tol)
        if len(hits):
            k, j = hits[0]
            return (
                f"d({names[i]},{names[j]})={d[i, j]} > "
                f"d({names[i]},{names[k]})+d({names[k]},{names[j]})={d[i, k] + d[k, j]}"
            )
    return None


@pytest.mark.parametrize(
    "n, planted",
    [
        (5, [(1, 3)]),
        (40, [(30, 2), (35, 33)]),
        (100, [(70, 71), (64, 99)]),
        (300, [(250, 12), (299, 298)]),
    ],
)
def test_triangle_violation_names_first_triple(n, planted):
    rng = np.random.default_rng(n)
    names = [f"q{i}" for i in range(n)]
    d = from_coords(rng.uniform(size=(n, 2))).dist.copy()
    for i, j in planted:
        d[i, j] = d[j, i] = 3.0 * d.max()
    want = triangle_scan(names, d)
    assert want is not None
    with pytest.raises(TriangleViolation) as err:
        MetricSpace(names, d)
    assert str(err.value) == want


def line_metric(n, huge=False):
    """n points on a line, where every triangle through a middle point is tight.

    The points are integers from 0 to 10^9, so every sum is exact and the
    tolerance is 1; with `huge` they are floats from 0 to 1.5e308, so the
    longer sums overflow.
    """
    rng = np.random.default_rng(n)
    if huge:
        x = np.concatenate([[0.0, 1.5e308], rng.uniform(0.0, 1.5e308, size=n - 2)])
    else:
        x = np.concatenate([[0.0, 1e9], rng.choice(10**9 - 1, size=n - 2, replace=False) + 1.0])
    x.sort()
    return np.abs(np.subtract.outer(x, x))


@pytest.mark.parametrize("n", [5, 12, 40, 100, 300])
@pytest.mark.parametrize("case", [
    "metric", "mirror", "slack-at-tol", "slack-above-tol", "overflow", "overflow-violation",
])
def test_triangle_scan_matches_the_plain_scan(n, case):
    # one block of rows at n <= 40, six rows per block at 100, one at 300
    d = line_metric(n, huge=case.startswith("overflow"))
    far, near = n - 2, 1  # a pair whose rows lie in different blocks at n >= 100
    if case == "mirror":  # the first hit is (near, k, far); (far, k, near) mirrors it
        d[far, near] = d[near, far] = d[far, near] + 2.0
    elif case == "slack-at-tol":
        assert 1e-9 * d.max() == 1.0
        d[far, near] = d[near, far] = d[far, near] + 1.0
    elif case == "slack-above-tol":
        d[far, near] = d[near, far] = np.nextafter(d[far, near] + 1.0, np.inf)
    elif case.startswith("overflow"):
        with np.errstate(over="ignore"):
            assert d.max() + d.max() == np.inf
        if case == "overflow-violation":
            mid = n // 2
            d[mid, near] = d[near, mid] = 1.5 * d[mid, near]
    names = [f"q{i}" for i in range(n)]
    want = triangle_scan(names, d)
    assert (want is None) == (case in ("metric", "slack-at-tol", "overflow"))
    if want is None:
        MetricSpace(names, d)
        return
    with pytest.raises(TriangleViolation) as err:
        MetricSpace(names, d)
    assert str(err.value) == want


VALIDATE_1000 = """
import resource
import numpy as np
from delaymatch.metric import MetricSpace

x = np.random.default_rng(0).uniform(size=1000)
d = np.subtract.outer(x, x)
np.abs(d, out=d)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
MetricSpace([f"p{i}" for i in range(1000)], d)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_validation_memory_stays_quadratic():
    # an n^3 scan would need 8 GB at n=1000; the matrix itself is 8 MB
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", VALIDATE_1000],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    growth_kb = int(out.stdout.strip())  # ru_maxrss is in KB on Linux
    assert growth_kb < 100 * 1024


def test_duplicate_names_rejected():
    with pytest.raises(InstanceLoadError):
        MetricSpace(["a", "a"], np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_shape_mismatch_rejected():
    with pytest.raises(InstanceLoadError):
        MetricSpace(["a", "b", "c"], np.zeros((2, 2)))


def test_empty_space_rejected():
    with pytest.raises(DegenerateSpace):
        MetricSpace([], np.zeros((0, 0)))


def test_from_coords_matches_hand_distances():
    # 3-4-5 right triangle
    space = from_coords([(0, 0), (3, 0), (0, 4)], ["o", "x", "y"])
    assert space.distance("o", "x") == 3.0
    assert space.distance("o", "y") == 4.0
    assert space.distance("x", "y") == 5.0


def test_from_coords_keeps_distances_whose_squares_overflow():
    coords = [(1e160, 0.0), (-1e160, 0.0), (0.0, 3.0), (0.0, 7.0)]
    space = from_coords(coords)
    assert space.dist[0, 1] == space.dist[1, 0] == 2e160
    assert space.dist[0, 2] == math.hypot(1e160, 3.0)
    # distances whose squares stay finite keep the plain formula's bits
    assert space.dist[2, 3] == 4.0
    # a difference that overflows by itself is still rejected
    with pytest.raises(InstanceLoadError, match="non-finite distance"):
        from_coords([[1e308], [-1e308]])


def test_from_coords_keeps_distances_near_the_float_maximum():
    space = from_coords([[0.0], [1e308]])
    assert space.dist[0, 1] == space.dist[1, 0] == 1e308


def test_triangle_scan_ignores_sums_past_the_float_maximum():
    # every d[i,k] + d[k,j] overflows to inf, which bounds any d[i,j]
    d = np.full((3, 3), 1e308)
    np.fill_diagonal(d, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        space = MetricSpace(["a", "b", "c"], d)
    assert space.distance("a", "c") == 1e308


def test_stats_min_max_aspect():
    names, d = square_metric()
    st_ = stats(MetricSpace(names, d))
    assert st_.d_min == 1.0
    assert st_.d_max == pytest.approx(math.sqrt(2))
    assert st_.aspect_ratio == pytest.approx(math.sqrt(2))


def test_stats_needs_two_points():
    space = MetricSpace(["a"], np.zeros((1, 1)))
    with pytest.raises(DegenerateSpace):
        stats(space)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-100, 100, allow_nan=False),
            st.floats(-100, 100, allow_nan=False),
        ),
        min_size=2,
        max_size=8,
        unique=True,
    )
)
def test_euclidean_coords_always_validate(points):
    arr = np.asarray(points)
    # coincident-after-rounding points would produce zero distances
    diff = arr[:, None, :] - arr[None, :, :]
    d = np.sqrt((diff**2).sum(axis=-1))
    if np.any((d + np.eye(len(points))) <= 1e-9):
        return
    space = from_coords(arr)
    assert space.n == len(points)


def test_instance_round_trip(tmp_path):
    names, d = square_metric()
    space = MetricSpace(names, d)
    path = str(tmp_path / "inst.json")
    save_bundle(space, None, path)
    back, _ = load_bundle(path)
    assert back.points == space.points
    assert np.allclose(back.dist, space.dist)


def test_load_instance_from_coords(tmp_path):
    path = tmp_path / "coords.json"
    path.write_text('{"coords": [[0, 0], [3, 0]], "points": ["a", "b"]}')
    space, _ = load_bundle(str(path))
    assert space.distance("a", "b") == 3.0


def test_load_instance_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(InstanceLoadError):
        load_bundle(str(path))
