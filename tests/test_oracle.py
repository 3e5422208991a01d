import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import mpmath
import numpy as np
import pytest

import reference_oracle as ref
import renyiquant
from renyiquant import (
    GridInstance,
    Interval,
    NEG_INF,
    POS_INF,
    PiecewiseConstantDensity,
    RenyiOrder,
    alpha_profile,
    brute_force_optimal,
    cell_distortion,
    empirical_limit_probe,
    instance_from_spec,
    instance_to_spec,
    optimal_codepoint,
    quantizer_entropy,
    uniform,
)
from renyiquant._quadrature import _normal_sums
from renyiquant.oracle import _entropies

PROFILE_ORDERS = (NEG_INF, RenyiOrder(-2.0), RenyiOrder(-1.0), RenyiOrder(0.0),
                  RenyiOrder(0.5), RenyiOrder(1.0), RenyiOrder(2.0), POS_INF)

# First-run regression baselines for the two fixed 24-point instances and the
# 17-point two-mass instance; any drift beyond rounding noise is a bug.
INSTANCE_ONE_BASELINE = [
    (0.0092114325068870517, 19),
    (0.0079021559788453322, 64),
    (0.0079021559788453322, 110),
    (0.0048796331079388935, 1562),
    (0.0048796331079388935, 4228),
    (0.0045492558405781543, 12045),
    (0.0033853887159672295, 20218),
    (0.0022852491860756319, 27639),
]
INSTANCE_TWO_BASELINE = [
    (0.0092592592592592605, 19),
    (0.0092592592592592605, 70),
    (0.0092592592592592605, 109),
    (0.0049202439596528263, 1351),
    (0.0049202439596528263, 2454),
    (0.0049202439596528263, 7183),
    (0.0044257469069499131, 13751),
    (0.0024565381708238844, 21172),
]
GRID17_ORDERS = (NEG_INF, RenyiOrder(-2.0), RenyiOrder(0.0), RenyiOrder(0.5),
                 RenyiOrder(2.0))
GRID17_BASELINE = [
    (0.02109966856060606, 5),
    (0.020833333333333332, 8),
    (0.0080682663690476199, 121),
    (0.0080682663690476199, 204),
    (0.0055257161458333332, 1015),
]


def instance_one(two_mass):
    grid = np.unique(np.concatenate((np.linspace(0.0, 1.0, 23), [0.5])))
    return GridInstance(two_mass, grid, 6)


def instance_two():
    f = PiecewiseConstantDensity([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0], [0.8, 1.4, 0.8])
    grid = np.unique(np.concatenate((np.linspace(0.0, 1.0, 22),
                                     [1.0 / 3.0, 2.0 / 3.0])))
    return GridInstance(f, grid, 6)


def test_instance_validation(two_mass):
    with pytest.raises(ValueError):
        GridInstance(two_mass, np.linspace(0.0, 1.0, 33), 4)   # grid too large
    with pytest.raises(ValueError):
        GridInstance(two_mass, np.linspace(0.0, 1.0, 9), 9)    # too many cells
    with pytest.raises(ValueError):
        GridInstance(two_mass, np.linspace(0.0, 0.9, 9), 4)    # misses support
    with pytest.raises(ValueError):
        GridInstance(two_mass, np.linspace(0.0, 1.0, 8), 4)    # misses 0.5


def test_uniform_two_cell_optimum():
    inst = GridInstance(uniform(0.0, 1.0), np.linspace(0.0, 1.0, 9), 4)
    res = brute_force_optimal(inst, RenyiOrder(0.0), math.log(2.0), 2.0)
    assert res.value == pytest.approx(1.0 / 48.0, rel=1e-14)
    assert np.allclose(res.argmin.boundaries, [0.0, 0.5, 1.0])
    same = brute_force_optimal(inst, RenyiOrder(-2.0), math.log(2.0), 2.0)
    assert same.value == pytest.approx(res.value, rel=1e-14)


def test_zero_rate_gives_one_cell():
    inst = GridInstance(uniform(0.0, 1.0), np.linspace(0.0, 1.0, 9), 4)
    res = brute_force_optimal(inst, RenyiOrder(0.5), 0.0, 2.0)
    assert len(res.argmin.codepoints) == 1
    assert res.value == pytest.approx(1.0 / 12.0, rel=1e-14)


def test_ties_go_to_the_first_row_in_enumeration_order():
    # [0, 0.25, 1] and its mirror [0, 0.75, 1] have the same distortion and
    # entropy, bit for bit; the first of them in partitions() order wins
    inst = GridInstance(uniform(0.0, 1.0), np.linspace(0.0, 1.0, 5), 3)
    res = brute_force_optimal(inst, RenyiOrder(0.5), 0.65, 2.0)
    assert res.value == 0.036458333333333336
    assert res.argmin.boundaries.tolist() == [0.0, 0.25, 1.0]
    assert res.feasible_count == 3


def test_negative_rate_is_rejected():
    inst = GridInstance(uniform(0.0, 1.0), np.linspace(0.0, 1.0, 9), 4)
    with pytest.raises(ValueError, match="rate must be nonnegative, got -0.5"):
        brute_force_optimal(inst, RenyiOrder(0.5), -0.5, 2.0)


def test_argmin_is_feasible(two_mass):
    inst = instance_one(two_mass)
    for alpha in (RenyiOrder(0.5), RenyiOrder(2.0), NEG_INF):
        res = brute_force_optimal(inst, alpha, math.log(3.0), 2.0)
        h = quantizer_entropy(res.argmin, two_mass, alpha)
        assert h <= math.log(3.0) + 1e-12


def test_values_nonincreasing_in_rate(two_mass):
    inst = instance_one(two_mass)
    rates = [0.0, math.log(2.0), math.log(3.0), math.log(4.0)]
    vals = [brute_force_optimal(inst, RenyiOrder(0.5), R, 2.0).value
            for R in rates]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_profile_regression_instance_one(two_mass):
    results = alpha_profile(instance_one(two_mass), PROFILE_ORDERS,
                            math.log(4.0), 2.0)
    for res, (value, count) in zip(results, INSTANCE_ONE_BASELINE):
        assert res.value == pytest.approx(value, rel=1e-12)
        assert res.feasible_count == count


def test_profile_regression_instance_two():
    results = alpha_profile(instance_two(), PROFILE_ORDERS, math.log(4.0), 2.0)
    for res, (value, count) in zip(results, INSTANCE_TWO_BASELINE):
        assert res.value == pytest.approx(value, rel=1e-12)
        assert res.feasible_count == count


def test_profile_regression_grid17(two_mass):
    inst = GridInstance(two_mass, np.linspace(0.0, 1.0, 17), 5)
    results = alpha_profile(inst, GRID17_ORDERS, math.log(3.0), 2.0)
    for res, (value, count) in zip(results, GRID17_BASELINE):
        assert res.value == pytest.approx(value, rel=1e-12)
        assert res.feasible_count == count
    assert np.allclose(results[2].argmin.boundaries, [0.0, 0.375, 0.75, 1.0])


def test_top_order_never_beats_order_two(two_mass):
    inst = instance_one(two_mass)
    v2 = brute_force_optimal(inst, RenyiOrder(2.0), math.log(4.0), 2.0).value
    vtop = brute_force_optimal(inst, POS_INF, math.log(4.0), 2.0).value
    assert vtop <= v2 + 1e-15


def test_profile_requires_sorted_orders(two_mass):
    inst = GridInstance(two_mass, np.linspace(0.0, 1.0, 17), 4)
    with pytest.raises(ValueError):
        alpha_profile(inst, (RenyiOrder(2.0), RenyiOrder(0.0)), math.log(2.0), 2.0)


def test_grid_refinement_never_hurts(two_mass):
    coarse = GridInstance(two_mass, np.linspace(0.0, 1.0, 13), 4)
    fine = GridInstance(two_mass, np.linspace(0.0, 1.0, 25), 4)
    for alpha in (RenyiOrder(0.5), RenyiOrder(0.0)):
        v_coarse = brute_force_optimal(coarse, alpha, math.log(3.0), 2.0).value
        v_fine = brute_force_optimal(fine, alpha, math.log(3.0), 2.0).value
        assert v_fine <= v_coarse + 1e-15


def test_probe_is_constant_on_uniform_sources():
    inst = GridInstance(uniform(0.0, 1.0), np.linspace(0.0, 1.0, 13), 4)
    rates = [math.log(n) for n in (1, 2, 3, 4)]
    probe = empirical_limit_probe(inst, RenyiOrder(0.0), 2.0, rates)
    assert np.allclose(probe, 1.0 / 12.0, rtol=1e-12)


def test_probe_stays_near_the_prediction(two_mass):
    from renyiquant import predicted_limit

    inst = instance_one(two_mass)
    pred = predicted_limit(two_mass, RenyiOrder(0.5), 2.0).value
    probe = empirical_limit_probe(inst, RenyiOrder(0.5), 2.0, [math.log(4.0)])[0]
    assert 0.5 * pred <= probe <= 2.0 * pred


def test_instance_spec_round_trip(two_mass):
    inst = instance_one(two_mass)
    copy = instance_from_spec(instance_to_spec(inst))
    assert copy.max_cells == inst.max_cells
    assert np.allclose(copy.grid, inst.grid)
    a = brute_force_optimal(inst, RenyiOrder(0.5), math.log(2.0), 2.0)
    b = brute_force_optimal(copy, RenyiOrder(0.5), math.log(2.0), 2.0)
    assert a.value == b.value


def test_extreme_negative_order_keeps_equal_cells_feasible():
    # (1/2)**-2000 overflows; the entropy of two equal cells must stay log 2
    inst = GridInstance(uniform(0.0, 1.0), np.linspace(0.0, 1.0, 9), 4)
    res = brute_force_optimal(inst, RenyiOrder(-2000.0), math.log(2.0), 2.0)
    assert res.value == pytest.approx(1.0 / 48.0, rel=1e-14)
    assert np.allclose(res.argmin.boundaries, [0.0, 0.5, 1.0])


def test_partition_rows(two_mass):
    inst = GridInstance(two_mass, np.linspace(0.0, 1.0, 17), 5)
    parts = inst.partitions()
    assert parts.shape == (sum(math.comb(15, k - 1) for k in range(1, 6)), 6)
    assert not parts.flags.writeable
    assert parts[0].tolist() == [0, 16, 16, 16, 16, 16]
    assert parts[1].tolist() == [0, 1, 16, 16, 16, 16]
    assert parts[-1].tolist() == [0, 12, 13, 14, 15, 16]
    masses = inst.mass_matrix()
    assert np.all(masses[0, 1:] == 0.0) and masses[0, 0] == 1.0
    assert np.allclose(masses.sum(axis=1), 1.0, rtol=1e-14)


def _random_instance():
    rng = np.random.default_rng(2024)
    grid = np.linspace(-1.0, 2.0, 10)
    grid[1:-1] += rng.uniform(-0.1, 0.1, 8)
    cuts = np.sort(rng.choice(np.arange(1, 9), 4, replace=False))
    breaks = np.concatenate(([grid[0]], grid[cuts], [grid[-1]]))
    heights = rng.uniform(0.2, 3.0, 5)
    heights /= float(np.dot(heights, np.diff(breaks)))
    return GridInstance(PiecewiseConstantDensity(breaks, heights), grid, 4)


# every cell of each instance, against the scalar bisection; the two 24-point
# instances split the exponents between them to keep the scalar loop short
@pytest.mark.parametrize("which, r", [
    ("one", 1.0), ("one", 2.0), ("two", 1.5), ("two", 3.0),
    ("random", 1.0), ("random", 1.5), ("random", 2.0), ("random", 3.0),
])
def test_cell_table_matches_the_scalar_solve(two_mass, which, r):
    inst = {"one": lambda: instance_one(two_mass), "two": instance_two,
            "random": _random_instance}[which]()
    table = inst.cell_table(r)
    g = inst.grid
    for i in range(len(g) - 1):
        for j in range(i + 1, len(g)):
            lo, hi = float(g[i]), float(g[j])
            c = optimal_codepoint(Interval(lo, hi), inst.density, r)
            assert table.points[i, j] == c
            assert table.distortions[i, j] == cell_distortion(inst.density, lo, hi, c, r)
    parts = inst.partitions()
    for row in (0, len(parts) // 2, len(parts) - 1):
        part = parts[row]
        assert table.partition_distortion[row] == sum(
            table.distortions[a, b] for a, b in zip(part[:-1], part[1:]))


def _seeded_instance(seed, n, max_cells, segments):
    # shaped like the benchmark's oracle instances: a jittered uniform grid
    # with the density's breakpoints on grid points
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, n)
    grid[1:-1] += rng.uniform(-0.3, 0.3, n - 2) / (n - 1)
    cuts = np.sort(rng.choice(np.arange(1, n - 1), segments - 1, replace=False))
    breaks = np.concatenate(([0.0], grid[cuts], [1.0]))
    heights = rng.uniform(0.3, 3.0, segments)
    heights /= float(np.dot(heights, np.diff(breaks)))
    return GridInstance(PiecewiseConstantDensity(breaks, heights), grid, max_cells)


@pytest.mark.parametrize("seed", [20, 21, 22])
def test_a_benchmark_sized_cell_table_takes_few_kernel_calls(monkeypatch, seed):
    # 28 points and 7 cells, as the benchmark's instances.  At r = 2 the
    # balance is linear, so the codepoints take one call at the cells' ends
    # and midpoints, a search step or two (a step's pair can miss the root by
    # a rounding) and one batch of replayed midpoints, and the distortions
    # one more call: 4 or 5 calls here, where bisection alone made 45.
    inst = _seeded_instance(seed, 28, 7, 7)
    calls = []
    kernel = PiecewiseConstantDensity._moment_terms

    def counted(self, *args):
        calls.append(len(args[0]))
        return kernel(self, *args)

    monkeypatch.setattr(PiecewiseConstantDensity, "_moment_terms", counted)
    inst.cell_table(2.0)
    assert len(calls) <= 6


REFERENCE_ORDERS = (NEG_INF, RenyiOrder(-500.0), RenyiOrder(-2.0), RenyiOrder(-1.0),
                    RenyiOrder(0.0), RenyiOrder(0.5), RenyiOrder(1.0), RenyiOrder(2.0),
                    RenyiOrder(500.0), POS_INF)


# (seed, grid points, max_cells, density segments); the last is the
# benchmark's 28-point, 7-cell shape (313,912 partitions)
@pytest.mark.parametrize("seed, n, max_cells, segments", [
    (11, 9, 8, 2), (12, 12, 5, 3), (13, 17, 4, 5), (14, 20, 6, 4), (15, 28, 7, 6),
    (16, 2, 1, 1), (17, 6, 2, 2), (18, 10, 3, 3), (19, 12, 8, 3),
])
def test_per_cell_search_matches_the_mass_matrix_reference(seed, n, max_cells, segments):
    inst = _seeded_instance(seed, n, max_cells, segments)
    idx = ref.partitions(n, max_cells)
    masses = ref.mass_matrix(inst.density.cdf(inst.grid), idx)
    for alpha in REFERENCE_ORDERS:
        got = _entropies(inst, alpha)
        assert np.array_equal(got, ref.entropies(masses, alpha)), alpha
    table = inst.cell_table(2.0)
    assert np.array_equal(table.partition_distortion,
                          ref.partition_distortion(table.distortions, idx))


def test_large_orders_reach_the_log_sum_exp_fallback():
    # the +-500 reference cases above must leave the normal range, or they
    # never test the fallback
    inst = _seeded_instance(12, 12, 5, 3)
    masses = ref.mass_matrix(inst.density.cdf(inst.grid), ref.partitions(12, 5))
    for v in (-500.0, 500.0):
        with np.errstate(over="ignore"):
            powered = np.power(masses, v, out=np.zeros_like(masses), where=masses > 0.0)
        assert not _normal_sums(powered.sum(axis=1)).all()


@pytest.mark.parametrize("n, max_cells", [
    (n, k) for n in range(2, 13) for k in range(1, min(n - 1, 8) + 1)
] + [(32, 8)])
def test_partition_table_matches_itertools(n, max_cells):
    inst = GridInstance(uniform(0.0, 1.0), np.linspace(0.0, 1.0, n), max_cells)
    parts = inst.partitions()
    expected = ref.partitions(n, max_cells)
    assert parts.dtype == expected.dtype
    assert np.array_equal(parts, expected)


@pytest.mark.parametrize("n, max_cells", [(2, 1), (9, 4), (12, 8)])
def test_tree_rows_are_the_partition_rows(n, max_cells):
    tree = GridInstance(uniform(0.0, 1.0), np.linspace(0.0, 1.0, n), max_cells)._tree()
    parts = ref.partitions(n, max_cells).astype(np.intp)
    cells = parts[:, :-1] * n + parts[:, 1:]
    assert np.array_equal(tree.cells(np.arange(len(parts))), cells)
    assert np.array_equal(tree.cells(np.arange(1, len(parts), 3)), cells[1::3])



def _in_a_new_thread(fn):
    """fn() run in a thread of its own, so on a partition tree of its own."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join()
    return out[0]


def test_instances_of_one_shape_share_the_tree_of_their_thread(two_mass):
    a = GridInstance(two_mass, np.linspace(0.0, 1.0, 9), 4)
    b = GridInstance(uniform(0.0, 1.0), np.linspace(0.0, 1.0, 9), 4)
    assert a._tree() is b._tree()
    # another thread builds its own, so it never shares a's buffers
    assert _in_a_new_thread(a._tree) is not a._tree()


def test_a_new_shape_replaces_the_tree_of_the_thread(two_mass):
    small = GridInstance(two_mass, np.linspace(0.0, 1.0, 9), 4)
    first = small._tree()
    other = GridInstance(two_mass, np.linspace(0.0, 1.0, 9), 3)._tree()
    assert other is not first and other.shape == (9, 3)
    again = small._tree()
    assert again is not first and again.shape == (9, 4)


def test_the_tree_index_arrays_are_read_only():
    tree = GridInstance(uniform(0.0, 1.0), np.linspace(0.0, 1.0, 9), 4)._tree()
    for arr in (tree.bounds, *tree.parents, *tree.steps):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def test_interleaved_instances_give_what_each_gives_alone():
    # two 20-point, 6-cell instances take turns on one tree, then a 12-point
    # instance replaces it and they take turns again; each search must keep
    # every bit it has alone
    insts = [_seeded_instance(31, 20, 6, 4), _seeded_instance(32, 12, 5, 3),
             _seeded_instance(33, 20, 6, 3)]

    def profile(inst):
        return [(res.value, res.feasible_count, res.argmin.boundaries.tolist(),
                 res.argmin.codepoints.tolist())
                for res in alpha_profile(inst, PROFILE_ORDERS, math.log(3.0), 2.0)]

    alone = [_in_a_new_thread(lambda inst=inst: profile(inst)) for inst in insts]
    order = [0, 2, 1, 0, 2]
    assert [profile(insts[i]) for i in order] == [alone[i] for i in order]

def test_the_largest_instance_stays_small():
    # a fresh interpreter, so the peak is this one search's over 2,804,012
    # partitions; one intp per partition and cell would be 179 MB alone.  The
    # child reads its own peak, VmHWM: on Linux its ru_maxrss carries the
    # peak of this process across fork and exec
    code = (
        "import re, resource, numpy as np\n"
        "from renyiquant import GridInstance, RenyiOrder, brute_force_optimal, uniform\n"
        "inst = GridInstance(uniform(0.0, 1.0), np.linspace(0.0, 1.0, 32), 8)\n"
        "res = brute_force_optimal(inst, RenyiOrder(0.5), 2.0, 2.0)\n"
        "assert res.feasible_count == 2492188, res.feasible_count\n"
        "try:\n"
        "    with open('/proc/self/status') as status:\n"
        "        hwm = re.search(r'VmHWM:\\s*(\\d+) kB', status.read())\n"
        "except OSError:\n"
        "    hwm = None\n"
        "print(hwm[1] if hwm else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = str(Path(renyiquant.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) / 1024 < 300.0


def test_max_cells_must_be_a_whole_number(two_mass):
    spec = instance_to_spec(GridInstance(two_mass, np.linspace(0.0, 1.0, 9), 7))
    assert instance_from_spec(dict(spec, max_cells=7.0)).max_cells == 7
    with pytest.raises(ValueError, match="whole number"):
        instance_from_spec(dict(spec, max_cells=2.7))


@pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
def test_a_grid_point_that_is_not_finite_is_refused_as_such(point):
    # np.diff(g) <= 0 is False at a NaN, so only this check refuses it
    with pytest.raises(ValueError, match="grid points must be finite"):
        GridInstance(uniform(0.0, 1.0), [0.0, point, 1.0], 1)


def test_profile_never_builds_the_mass_matrix(two_mass):
    inst = GridInstance(two_mass, np.linspace(0.0, 1.0, 17), 5)
    alpha_profile(inst, PROFILE_ORDERS, math.log(3.0), 2.0)
    assert inst._mass_matrix is None


def test_nan_rate_is_rejected_by_name():
    inst = GridInstance(uniform(0.0, 1.0), np.linspace(0.0, 1.0, 9), 4)
    with pytest.raises(ValueError, match="rate.*nan"):
        brute_force_optimal(inst, RenyiOrder(0.5), math.nan, 2.0)


def test_probe_keeps_the_plain_product():
    inst = GridInstance(PiecewiseConstantDensity([0.0, 0.5, 1.0], [0.5, 1.5]),
                        np.linspace(0.0, 1.0, 13), 4)
    rates = [0.0, 0.3, math.log(3.0), 2.0]
    probe = empirical_limit_probe(inst, RenyiOrder(0.5), 2.0, rates)
    assert probe == [math.exp(2.0 * R) * brute_force_optimal(inst, RenyiOrder(0.5), R, 2.0).value
                     for R in rates]


def test_probe_takes_the_scaled_value_in_logs_where_the_exponential_overflows(two_mass):
    inst = GridInstance(two_mass, np.linspace(0.0, 1.0, 17), 5)
    value = brute_force_optimal(inst, RenyiOrder(0.5), 356.0, 2.0).value
    with mpmath.workdps(50):
        exact = float(mpmath.exp(712) * mpmath.mpf(value))
    # e**712 overflows, while the scaled value, about 5.0568e306, does not
    assert exact == pytest.approx(5.0568e306, rel=1e-4)
    assert empirical_limit_probe(inst, RenyiOrder(0.5), 2.0, [356.0]) == [
        pytest.approx(exact, rel=1e-12)]
    # about 1.5e310: past the float range
    with pytest.raises(ValueError, match="rate 360.0 overflows"):
        empirical_limit_probe(inst, RenyiOrder(0.5), 2.0, [356.0, 360.0])


@pytest.mark.parametrize("rate", [400.0, math.inf])
def test_probe_overflow_names_the_rate(rate):
    inst = GridInstance(uniform(0.0, 1.0), np.linspace(0.0, 1.0, 9), 4)
    with pytest.raises(ValueError, match=f"rate {rate!r}"):
        empirical_limit_probe(inst, RenyiOrder(0.5), 2.0, [1.0, rate])
