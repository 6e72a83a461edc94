"""Hot numerical kernels against dense, closed-form and loop references."""

import tracemalloc

import numpy as np
import pytest

from rkhs_reach import (
    BoxSampler,
    BoxSet,
    ConstantPolicy,
    GaussianDisturbance,
    IntegratorChain,
    RBFKernel,
    _backend,
    generate_transitions,
)
from rkhs_reach.io import write_table


def test_chain_apply_matches_dense_matrix():
    rng = np.random.default_rng(10)
    coeffs = np.array([1.0, 0.5, 0.125, 1.0 / 48])
    x = rng.normal(size=(7, 9))
    dense = np.zeros((9, 9))
    for j, c in enumerate(coeffs):
        dense += c * np.eye(9, k=j)
    np.testing.assert_allclose(
        _backend.chain_apply(coeffs, x), x @ dense.T, atol=1e-13
    )


def test_chain_apply_short_vector():
    # state shorter than the coefficient band
    coeffs = np.array([1.0, 0.5, 0.125, 1.0 / 48])
    x = np.array([[2.0, -1.0]])
    got = _backend.chain_apply(coeffs, x)
    np.testing.assert_allclose(got, [[2.0 - 0.5, -1.0]])


def _one_pass_chain_apply(coeffs, x, u=None, bt=None, w=None):
    # all rows in one pass, one diagonal at a time, then the control
    # product and the disturbance over the whole array
    out = np.zeros_like(x)
    n = x.shape[1]
    for j in range(min(len(coeffs), n)):
        out[:, : n - j] += coeffs[j] * x[:, j:]
    if u is not None:
        out += u @ bt
    if w is not None:
        out += w
    return out


def test_chain_apply_row_blocks_match_one_pass_bitwise():
    rng = np.random.default_rng(12)
    coeffs = rng.uniform(0.0, 1.0, size=12)
    per_block = _backend.block_rows(1000)
    shapes = {
        "remainder block": (2 * per_block + 5, 1000),
        "single row": (1, 1000),
        "n = 1": (9, 1),
        "n shorter than the band": (9, 7),
        "one row per block": (3, _backend.block_rows(1) + 3),
    }
    for name, shape in shapes.items():
        x = rng.normal(size=shape)
        got = _backend.chain_apply(coeffs, x)
        assert got.tobytes() == _one_pass_chain_apply(coeffs, x).tobytes(), name
        # with the control product and the disturbance fused in
        u = rng.normal(size=(shape[0], 1))
        bt = rng.uniform(0.0, 1.0, size=(1, shape[1]))
        w = rng.normal(size=shape)
        # zero controls skip their product; the first block's alone, or
        # every one, and a product of -0.0 entries, must change no bit
        mixed = u.copy()
        mixed[:per_block] = 0.0
        zero = np.zeros_like(u)
        cases = (
            (u, bt, w), (u, bt, None), (None, None, w),
            (mixed, bt, w), (zero, bt, w), (zero, bt, None), (-zero, bt, None),
        )
        for fused in cases:
            got = _backend.chain_apply(coeffs, x, *fused)
            want = _one_pass_chain_apply(coeffs, x, *fused)
            assert got.tobytes() == want.tobytes(), name


def _blocked_results(path):
    """The outputs of every sweep sized by ``block_rows``, by name."""
    rng = np.random.default_rng(30)
    chain = IntegratorChain(3)
    sample = generate_transitions(
        chain, ConstantPolicy([0.3]), BoxSampler([-1.0] * 3, [1.0] * 3),
        GaussianDisturbance([0.1] * 3), 1000, 7,
    )
    kernel = RBFKernel(0.3)
    points = rng.uniform(-1.0, 1.0, (300, 2))
    wide = rng.uniform(-1.0, 1.0, (32, 4093)), rng.uniform(-1.0, 1.0, (32, 1))
    query = rng.uniform(-1.0, 1.0, (3, 4093)), rng.uniform(-1.0, 1.0, (3, 1))
    wide_kernel = RBFKernel(np.sqrt(4094 / 3.0))
    rows = rng.uniform(-1.2, 1.2, (500, 300))
    write_table(path, [f"c{i}" for i in range(7)], rng.standard_normal((2000, 7)))
    return {
        "states": sample.states,
        "controls": sample.controls,
        "successors": sample.successors,
        "gram": kernel.gram(points),
        "cross": kernel.cross(points, points[:5]),
        "wide gram": wide_kernel.gram(*wide),
        "wide cross": wide_kernel.cross(wide, *query),
        "box": BoxSet(-np.ones(300), np.ones(300)).contains(rows),
        "table": np.frombuffer(path.read_bytes(), dtype=np.uint8),
    }


@pytest.mark.parametrize("budget", [320, 64 * 2**20])
def test_outputs_do_not_depend_on_the_row_block_budget(budget, monkeypatch, tmp_path):
    # a few hundred bytes give blocks of one to a few dozen rows, 64 MiB
    # one block per sweep: the chain apply and sampler, the Gram matrix's
    # norm sums, the cross's lifted sample rows (2-D and 4094 wide), the
    # box masks on 300-wide rows and the CSV writer's text blocks
    want = _blocked_results(tmp_path / "t.csv")
    before = [_backend.block_rows(w) for w in (3, 300, 4096)]
    monkeypatch.setattr(_backend, "_CHAIN_BLOCK_BYTES", budget)
    assert [_backend.block_rows(w) for w in (3, 300, 4096)] != before
    got = _blocked_results(tmp_path / "t.csv")
    for name in want:
        if name == "wide cross" and budget == 320:
            # blocks of 3 rows, where the default budget gives 8: BLAS
            # runs a product's rows in groups (of 4 on OpenBLAS's SkylakeX
            # kernels) and a remainder rounds otherwise, here 38 of 96
            # entries by up to 3.3e-16 relative. The bound is the
            # exponent's round-off: two orders of a sum of 4096 terms whose
            # sizes add up to less than 2 differ by at most 2 * 4096 eps * 2
            np.testing.assert_allclose(
                got[name], want[name], rtol=4 * 4096 * np.finfo(float).eps,
                atol=0.0,
            )
        else:
            assert got[name].tobytes() == want[name].tobytes(), name


def _rule(n):
    return np.polynomial.legendre.leggauss(n)


def test_dp_backup_zero_outside_grid():
    values = np.ones((4, 4))
    glx, glw = _rule(7)
    # grid covers [0,3]x[0,3]; a faraway mean's window misses it entirely
    got = _backend.dp_backup(
        values,
        (0.0, 0.0),
        (1.0, 1.0),
        (0.1, 0.1),
        np.array([[10.0, 10.0], [1.5, 1.5]]),
        glx,
        glw,
    )
    np.testing.assert_allclose(got[0], 0.0)
    # interior mean on a constant field recovers the full probability mass
    np.testing.assert_allclose(got[1], 1.0, atol=1e-10)


def test_dp_backup_boundary_mass_not_renormalized():
    # mean on the grid edge: half the Gaussian mass lies outside and must
    # count as zero, not be scaled away
    values = np.ones((31, 31))
    glx, glw = _rule(25)
    got = _backend.dp_backup(
        values,
        (0.0, 0.0),
        (1.0, 1.0),
        (0.5, 0.5),
        np.array([[15.0, 0.0]]),
        glx,
        glw,
    )
    # one axis keeps full mass, the edge axis keeps half
    np.testing.assert_allclose(got, [0.5], atol=1e-6)


def test_dp_backup_small_sd_approaches_interpolation():
    # as sd shrinks the backup collapses to the bilinear field value;
    # f(x, y) = x + 2y is exact under bilinear interpolation
    ax = np.arange(4.0)
    vals = ax[:, None] + 2.0 * ax[None, :]
    glx, glw = _rule(25)
    got = _backend.dp_backup(
        vals,
        (0.0, 0.0),
        (1.0, 1.0),
        (1e-6, 1e-6),
        np.array([[1.25, 2.5]]),
        glx,
        glw,
    )
    np.testing.assert_allclose(got, [1.25 + 5.0], rtol=1e-9)


def test_dp_backup_matches_gaussian_closed_form():
    # linear field under Gaussian smoothing stays linear: E[f(m+w)] = f(m)
    # once the window stays inside the grid
    ax = np.linspace(0.0, 10.0, 41)
    vals = 0.3 * ax[:, None] + 0.1 * ax[None, :]
    glx, glw = _rule(25)
    got = _backend.dp_backup(
        vals,
        (0.0, 0.0),
        (0.25, 0.25),
        (0.4, 0.7),
        np.array([[5.0, 5.0], [4.1, 6.3]]),
        glx,
        glw,
    )
    np.testing.assert_allclose(got, [2.0, 0.3 * 4.1 + 0.63], rtol=1e-7)


def test_dp_backup_dead_rows_read_zero_and_leave_the_live_rows_bits():
    # means whose window misses the grid on an axis read 0 with no
    # warning, and their cells widen no band product: every live mean
    # keeps the bits it has in a block of its own
    rng = np.random.default_rng(5)
    vals = rng.uniform(size=(81, 81))
    live = rng.uniform(-0.3, 0.3, size=(300, 2))
    dead = np.array([[1e20, 0.0], [-1e200, 0.1], [0.2, 1e200], [3.0, -3.0]])
    glx, glw = _rule(25)
    args = (vals, (-1.0, -1.0), (0.025, 0.025), (0.05, 0.05))
    want = _backend.dp_backup(*args, live, glx, glw)
    got = _backend.dp_backup(*args, np.concatenate([live, dead]), glx, glw)
    assert got[:300].tobytes() == want.tobytes()
    assert not got[300:].any()
    # a block of dead means alone
    assert not _backend.dp_backup(*args, dead, glx, glw).any()
    # the dead means take cells among the live means' own
    m = np.concatenate([live[:, 0], dead[:, 0]])
    rule = _backend._axis_rule(m, 0.05, -1.0, 1.0, glx, glw)
    i = _backend._cells(*rule, -1.0, 0.025, 81)[0]
    assert i[:300].min() <= i[300:].min() and i[300:].max() <= i[:300].max()


def _brute_force_backup(values, origin, steps, sds, means, glx, glw):
    # per-node bilinear gathers over the same per-axis rules
    n1, n2 = values.shape
    (a1, a2), (h1, h2) = origin, steps
    t1, w1 = _backend._axis_rule(
        means[:, 0], sds[0], a1, a1 + h1 * (n1 - 1), glx, glw
    )
    t2, w2 = _backend._axis_rule(
        means[:, 1], sds[1], a2, a2 + h2 * (n2 - 1), glx, glw
    )
    f1 = (t1 - a1) / h1
    f2 = (t2 - a2) / h2
    i1 = np.clip(f1.astype(np.int64), 0, n1 - 2)
    i2 = np.clip(f2.astype(np.int64), 0, n2 - 2)
    r1 = f1 - i1
    r2 = f2 - i2
    out = np.zeros(means.shape[0])
    for j in range(t1.shape[1]):
        ja, jr = i1[:, j], r1[:, j]
        for k in range(t2.shape[1]):
            ka, kr = i2[:, k], r2[:, k]
            v = (
                (1.0 - jr) * (1.0 - kr) * values[ja, ka]
                + jr * (1.0 - kr) * values[ja + 1, ka]
                + (1.0 - jr) * kr * values[ja, ka + 1]
                + jr * kr * values[ja + 1, ka + 1]
            )
            out += w1[:, j] * w2[:, k] * v
    return out


def test_distinct_keeps_each_bit_pattern_apart():
    x = np.array([0.0, -0.0, np.nan, 1.5, 1.5, -0.0, np.inf, -np.inf, 5e-324])
    values, at = _backend.distinct(x)
    assert values[at].tobytes() == x.tobytes()
    assert values.shape == (7,)
    # with no entry repeated too, values sorted by bit pattern
    values, at = _backend.distinct(x[:4])
    assert values[at].tobytes() == x[:4].tobytes()
    bits = values.view(np.int64)
    assert np.all(bits[:-1] < bits[1:])
    # other float types are taken as float64
    x32 = np.array([0.1, 0.1, -2.5], dtype=np.float32)
    values, at = _backend.distinct(x32)
    assert values[at].tobytes() == x32.astype(np.float64).tobytes()
    values, at = _backend.distinct(np.empty(0))
    assert values[at].shape == (0,)


def _per_query_backup(values, origin, steps, sds, means, glx, glw):
    # dp_backup's band path as it was before it shared the rules, cells
    # and c1 rows of repeated means: each built once per query, and the
    # band product run on one c1 row per query, first axis first
    a1, a2 = origin
    h1, h2 = steps
    sd1, sd2 = sds
    n1, n2 = values.shape
    b1, b2 = a1 + h1 * (n1 - 1), a2 + h2 * (n2 - 1)
    out = np.empty(means.shape[0])
    order = np.argsort(means[:, 0], kind="stable")
    for s in range(0, means.shape[0], _backend._BACKUP_BLOCK):
        q = order[s : s + _backend._BACKUP_BLOCK]
        rows = np.arange(q.shape[0])[:, None]
        t1, w1 = _backend._axis_rule(means[q, 0], sd1, a1, b1, glx, glw)
        i1, lo1, hi1 = _backend._cells(t1, w1, a1, h1, n1)
        first = int(i1.min())
        band = int(i1.max()) + 2 - first
        at = rows * band + (i1 - first)
        c1 = np.bincount(
            np.concatenate([at.ravel(), at.ravel() + 1]),
            weights=np.concatenate([lo1.ravel(), hi1.ravel()]),
            minlength=q.shape[0] * band,
        )
        u = (c1.reshape(-1, band) @ values[first : first + band]).ravel()
        t2, w2 = _backend._axis_rule(means[q, 1], sd2, a2, b2, glx, glw)
        i2, lo2, hi2 = _backend._cells(t2, w2, a2, h2, n2)
        at = rows * n2 + i2
        out[q] = np.einsum("pk,pk->p", u[at], lo2) + np.einsum(
            "pk,pk->p", u[at + 1], hi2
        )
    return out


def _per_query_table_backup(values, origin, steps, sds, means, glx, glw):
    # dp_backup's table path with nothing shared: each query's rules built
    # for it alone, and the field contracted against its own second-axis
    # rule, node by node from 0.0, before its first-axis cells are read
    a1, a2 = origin
    h1, h2 = steps
    n1, n2 = values.shape
    b1, b2 = a1 + h1 * (n1 - 1), a2 + h2 * (n2 - 1)
    t1, w1 = _backend._axis_rule(means[:, 0], sds[0], a1, b1, glx, glw)
    i1, lo1, hi1 = _backend._cells(t1, w1, a1, h1, n1)
    t2, w2 = _backend._axis_rule(means[:, 1], sds[1], a2, b2, glx, glw)
    i2, lo2, hi2 = _backend._cells(t2, w2, a2, h2, n2)
    z = np.zeros((means.shape[0], n1))
    for k in range(len(glx)):
        z += lo2[:, k, None] * values.T[i2[:, k]]
        z += hi2[:, k, None] * values.T[i2[:, k] + 1]
    rows = np.arange(means.shape[0])[:, None]
    return np.einsum("pk,pk->p", z[rows, i1], lo1) + np.einsum(
        "pk,pk->p", z[rows, i1 + 1], hi1
    )


@pytest.fixture
def table_widths(monkeypatch):
    # the width of each second-axis table dp_backup builds: calls on the
    # table path add one, calls on the band path none
    widths = []
    build = _backend._second_axis_table

    def recording(values, i2, lo2, hi2):
        widths.append(i2.shape[0])
        return build(values, i2, lo2, hi2)

    monkeypatch.setattr(_backend, "_second_axis_table", recording)
    return widths


def _stepped_grid_means(n):
    # the grid oracle's means on an n x n grid over [-1, 1]^2: the 2-D
    # integrator's noise-free step, which repeats means on both axes
    ax = np.linspace(-1.0, 1.0, n)
    g1, g2 = np.meshgrid(ax, ax, indexing="ij")
    return np.column_stack([g1.ravel() + 0.25 * g2.ravel(), g2.ravel()])


def _signed_zero_means():
    # +0.0 and -0.0 on each axis, interleaved so that the stable sort by
    # the first axis leaves them mixed, among repeated nonzero means
    zeros = np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0]])
    others = np.array([[0.3, -0.0], [-0.0, 0.45], [0.3, 0.45], [-0.7, 0.0]])
    means = np.resize(np.concatenate([zeros, others]), (3 * 700, 2))
    assert np.signbit(means).any() and not np.signbit(means[:, 0]).all()
    return means


def _second_axis_of(width):
    # random means whose second axis takes `width` values, each at least
    # once: on the 41-row field below, 203 values take the table path
    # (8 323 entries for 2 085 queries, at most 4 a query) and 204 not
    rng = np.random.default_rng(18)
    means = rng.uniform(-1.2, 1.2, size=(2 * 1024 + 37, 2))
    means[:, 1] = rng.permutation(np.resize(rng.uniform(-1.2, 1.2, width), 2085))
    return means


def _one_axis_repeats(axis):
    # random means whose given axis takes 9 values, the thirds from -4/3
    # to 4/3 (0 with both signs): each block shares its rules on that
    # axis and builds one per query on the other
    means = np.random.default_rng(16).uniform(-1.2, 1.2, size=(2 * 1024 + 37, 2))
    means[:, axis] = np.round(means[:, axis] * 3.0) / 3.0
    return means


@pytest.mark.parametrize(
    "means",
    [
        _stepped_grid_means(61),
        np.random.default_rng(14).uniform(-1.2, 1.2, size=(2 * 1024 + 37, 2)),
        _one_axis_repeats(0),
        _one_axis_repeats(1),
        _signed_zero_means(),
        _second_axis_of(203),
        _second_axis_of(204),
    ],
    ids=[
        "grid means",
        "random means",
        "first axis repeats",
        "second axis repeats",
        "signed zeros",
        "table path at the crossover",
        "band path past the crossover",
    ],
)
def test_dp_backup_matches_the_per_query_backup_bitwise(means, table_widths):
    # no longer bitwise, despite the name: the band product runs on the
    # distinct c1 rows, a product of another shape than the per-query
    # one, so a value may differ by an ulp; the rules, cells and c1 rows
    # are built once per distinct mean of a block. A call on repeated
    # second-axis means takes the table path, which contracts the second
    # axis first, and is held to a reference that does so too
    values = np.random.default_rng(15).uniform(size=(41, 37))
    origin, steps, sds = (-1.0, -1.0), (0.05, 2.0 / 36), (0.1, 0.1)
    glx, glw = _rule(25)
    got = _backend.dp_backup(values, origin, steps, sds, means, glx, glw)
    reference = _per_query_table_backup if table_widths else _per_query_backup
    want = reference(values, origin, steps, sds, means, glx, glw)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


@pytest.mark.parametrize(
    "means, width",
    [
        (_stepped_grid_means(61), 61),
        # 41 x 9 entries for 81 queries, but each of the 9 values is
        # shared by 9 queries and the table is under a quarter of the field
        (_stepped_grid_means(9), 9),
        # 0 takes both signs among the thirds, and among 0 and 0.45
        (_one_axis_repeats(1), 10),
        (_signed_zero_means(), 3),
        (_second_axis_of(203), 203),
        (_second_axis_of(204), None),
        (_one_axis_repeats(0), None),
    ],
    ids=[
        "grid means", "small grid", "second axis repeats", "signed zeros",
        "203", "204", "random",
    ],
)
def test_dp_backup_takes_the_table_path_up_to_4_entries_a_query(
    means, width, table_widths
):
    # one table over the distinct second-axis means, when it holds at
    # most 4 entries a query on the 41-row field, or when each of its
    # columns serves at least 4 queries and it is at most a quarter of the
    # 37-column field
    values = np.zeros((41, 37))
    origin, steps, sds = (-1.0, -1.0), (0.05, 2.0 / 36), (0.1, 0.1)
    _backend.dp_backup(values, origin, steps, sds, means, *_rule(9))
    assert table_widths == ([] if width is None else [width])


def test_dp_backup_memory_does_not_grow_with_the_repeats():
    # 1024 queries on 8 distinct first-axis means over a field 4001
    # columns wide: the band product holds one row per distinct mean,
    # 8 x 4001, where one row per query took 1024 x 4001 (31 MiB)
    rng = np.random.default_rng(17)
    values = rng.uniform(size=(41, 4001))
    means = np.column_stack(
        [np.repeat(np.linspace(-0.5, 0.5, 8), 128), rng.uniform(-1.0, 1.0, 1024)]
    )
    origin, steps, sds = (-1.0, -1.0), (0.05, 2.0 / 4000), (0.1, 0.1)
    glx, glw = _rule(25)
    tracemalloc.start()
    try:
        got = _backend.dp_backup(values, origin, steps, sds, means, glx, glw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak / 2**20
    want = _per_query_backup(values, origin, steps, sds, means, glx, glw)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


def test_dp_backup_table_path_holds_at_most_24_bytes_a_query(table_widths):
    # 801 x 801 grid means on an 801 x 801 field: the table has one entry
    # a query. The output, the 4-byte sort order and the table hold 20
    # bytes a query; the band path's sort of the strided first-axis column
    # held 24 (the output, its order and the sort's copy), 14.7 MiB here
    rng = np.random.default_rng(20)
    values = rng.uniform(size=(801, 801))
    means = _stepped_grid_means(801)
    args = ((-1.0, -1.0), (0.0025, 0.0025), (0.1, 0.1), means, *_rule(25))
    # lazy imports of a first call count toward no peak
    _backend.dp_backup(values[:3, :3], *args[:3], means[:3], *args[4:])
    tracemalloc.start()
    try:
        _backend.dp_backup(values, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table_widths[-1] == 801
    assert peak <= 24 * means.shape[0], peak / 2**20


@pytest.mark.parametrize("sds", [(0.3, 0.25), (0.04, 0.03)])
def test_dp_backup_matches_brute_force(sds):
    # non-square grid with unequal steps over [-1, 1] x [-0.72, 0.72];
    # the smaller sds lie inside one grid cell
    rng = np.random.default_rng(13)
    values = rng.uniform(size=(21, 19))
    origin, steps = (-1.0, -0.72), (0.1, 0.08)
    inside = rng.uniform([-0.5, -0.3], [0.5, 0.3], size=(600, 2))
    # windows that cross an edge, on one axis or both
    edge = rng.uniform(-1.3, 1.3, size=(600, 2))
    outside = np.array([[5.0, 0.0], [0.0, -4.0], [-3.0, 3.0]])
    means = np.concatenate([inside, edge, outside])
    # two full blocks plus a remainder, the rows above repeated cyclically
    means = np.resize(means, (2 * _backend._BACKUP_BLOCK + 37, 2))
    glx, glw = _rule(9)
    got = _backend.dp_backup(values, origin, steps, sds, means, glx, glw)
    want = _brute_force_backup(values, origin, steps, sds, means, glx, glw)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
    far = len(inside) + len(edge)
    np.testing.assert_array_equal(got[far : far + len(outside)], 0.0)


@pytest.mark.parametrize("sds", [(0.3, 0.25), (0.04, 0.03)])
def test_dp_backup_table_path_matches_brute_force(sds, table_widths):
    # the grid above, with each second-axis mean one of 9 values from
    # inside the grid to beyond its edge, so that the call takes the
    # table path, and dead means on either axis, which read 0
    rng = np.random.default_rng(21)
    values = rng.uniform(size=(21, 19))
    origin, steps = (-1.0, -0.72), (0.1, 0.08)
    means = rng.uniform(-1.3, 1.3, size=(2 * _backend._BACKUP_BLOCK + 37, 2))
    means[:, 1] = rng.choice(np.linspace(-0.9, 0.9, 9), size=means.shape[0])
    dead = np.array([[1e20, 0.0], [-1e200, 0.36], [0.2, 1e200], [5.0, -4.0]])
    means = np.concatenate([means, dead])
    glx, glw = _rule(9)
    got = _backend.dp_backup(values, origin, steps, sds, means, glx, glw)
    assert len(table_widths) == 1
    want = _brute_force_backup(values, origin, steps, sds, means, glx, glw)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
    assert not got[-len(dead) :].any()
