"""Numerical kernels of the hot paths, in numpy and the platform BLAS.

Two hot paths live here. The first is the integrator chain's step: the
apply of its state matrix, upper-triangular Toeplitz with a band that
``IntegratorChain`` cuts where the rest of the Taylor row sums to less
than half an ulp of the whole row (about a dozen diagonals at T = 0.25),
plus the control product and the disturbance. It sweeps the states in
row blocks that fit a core's L2 cache, one diagonal at a time, and adds
the other two terms to each block while it is there. Every
``IntegratorChain.step`` runs it: the transition sampler's, the Monte
Carlo oracle's rollouts and the grid oracle's means. The second is the
quadrature-plus-interpolation sweep of the grid oracle, a blocked
contraction. It builds each quadrature rule once per distinct mean, not
once per query, and the grid oracle's means repeat: 3 803 distinct
first-axis and 201 second-axis means among the 40 401 queries of a
201 x 201 grid, 1 890 and 101 among the 10 201 of a 101 x 101 one. When
the second-axis means repeat, as there, it contracts the field against
their rules once per call, in numpy's elementwise loops; otherwise it
runs a BLAS band product once per distinct first-axis mean of a block
of queries. The Gaussian cross-kernel matrix is computed in
``RBFKernel.cross``.

``chain_apply`` runs in numpy's elementwise loops, single-threaded and
with no BLAS call, so ``oracle.mc_reach`` steps rollouts of the chain
on several threads of its own (the chain's ``threaded_rollouts``) under
any policy. ``dp_backup`` is threaded only inside its band product, and
on repeated second-axis means makes no BLAS call, so the grid oracle
leaves no OpenBLAS thread spinning behind it. Both are deterministic:
the same inputs give the same bits, and where no BLAS call is made the
same bits on every BLAS kernel and thread count.

``block_rows`` is the package's one row-block budget: every sweep that
is blocked to bound its memory, not to shape a BLAS product, takes its
rows from it, about ``_CHAIN_BLOCK_BYTES`` (256 KiB) a block. Besides
the chain apply and the sampler these are the norm sums of
``RBFKernel.gram``, the lifted sample rows of ``RBFKernel.cross``, the
masks of ``BoxSet.contains`` on wide rows and the text blocks of the
CSV writer. None of them but the cross changes a bit or a byte with
the block size (see ``kernels``).

The benchmark's tracer (``perfbench/tracing.py``) patches
``chain_apply`` and ``dp_backup`` by name and its worker records
``active_backend()``, so the three names stay in this module.
"""

import math

import numpy as np

__all__ = [
    "active_backend",
    "block_rows",
    "chain_apply",
    "distinct",
    "dp_backup",
]


def active_backend():
    """Name of the compute backend, always ``"numpy"``."""
    return "numpy"


# bytes of one row block of every memory-bounded sweep; a chain_apply
# block, its output and the scratch product (three times this) stay in
# a core's L2 cache while every diagonal of the band passes over them
_CHAIN_BLOCK_BYTES = 256 * 1024


def block_rows(width, itemsize=8):
    """Rows of ``width`` items of ``itemsize`` bytes in one block (at least 1)."""
    return max(1, _CHAIN_BLOCK_BYTES // (itemsize * max(width, 1)))


def chain_apply(coeffs, x, u=None, bt=None, w=None):
    """``x A' + u bt + w``, for ``A`` the banded upper-triangular Toeplitz ``coeffs``.

    ``(x A')[r, i] = sum_j coeffs[j] * x[r, i + j]`` for ``i + j`` in range.
    Rows of ``x`` are independent state vectors. The scalar controls
    ``u`` (rows x 1) with the input row ``bt`` (1 x n), and the
    disturbance ``w`` (broadcast to the shape of ``x``), are optional.
    The rows are swept in blocks of :func:`block_rows`, and one scratch
    buffer holds each diagonal's products and then the block's control
    product, the control column times the input row: one rounded product
    an entry, the bits of a matrix product with an inner dimension of 1,
    with no BLAS call. Every entry sums its products in diagonal order
    starting from 0.0, then adds its control product and then its
    disturbance, the order of three passes over the whole array, so the
    result does not depend on the block size. ``bt`` must be finite, as
    the chain's input row is: then a block whose controls are all zero
    skips its product with the same bits. The output is the only array
    of the size of ``x`` that the call allocates.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    rows, n = x.shape
    if w is not None:
        w = np.broadcast_to(w, x.shape)
    out = np.zeros_like(x)
    block = block_rows(n)
    scratch = np.empty((min(block, rows), n))
    for s in range(0, rows, block):
        xb, ob = x[s : s + block], out[s : s + block]
        k = xb.shape[0]
        for j in range(min(len(coeffs), n)):
            prod = scratch[:k, : n - j]
            np.multiply(xb[:, j:], coeffs[j], out=prod)
            ob[:, : n - j] += prod
        # zero controls times a finite bt add +-0.0 to sums that start from
        # +0.0 and so never hold -0.0, which changes no bit: such a block
        # skips its product
        if u is not None and u[s : s + block].any():
            np.multiply(u[s : s + block], bt, out=scratch[:k])
            ob += scratch[:k]
        if w is not None:
            ob += w[s : s + block]
    return out


# integration window half-width in standard deviations
_QUAD_SPAN = 4.0
_INV_SQRT_2PI = 0.3989422804014327


def _axis_rule(m, sd, lo, hi, glx, glw):
    # per-query nodes and Gaussian-weighted weights on the window
    # [m - span*sd, m + span*sd] clipped to [lo, hi]; the field is zero
    # beyond the clip, so dropping that part of the window is exact.
    # Normalizing by the rule's own full-window mass makes an interior
    # constant field integrate to exactly 1 at any node count; clipped
    # queries keep only their in-window fraction. The mass is summed
    # correctly rounded, with no BLAS dot, so it has one value anywhere.
    full_mass = _QUAD_SPAN * _INV_SQRT_2PI * math.fsum(
        glw * np.exp(-0.5 * (_QUAD_SPAN * glx) ** 2)
    )
    a = np.maximum(m - _QUAD_SPAN * sd, lo)
    b = np.minimum(m + _QUAD_SPAN * sd, hi)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    live = half > 0.0
    t = mid[:, None] + half[:, None] * glx[None, :]
    # a dead row's window misses the grid: it weighs 0 at the nodes of the
    # first live row (at lo if none is), so its cells widen no block's
    # band product and its distance to its mean meets no exponent
    t[~live] = t[np.argmax(live)] if live.any() else lo
    w = np.zeros_like(t)
    z = (t[live] - m[live, None]) / sd
    w[live] = glw[None, :] * half[live, None] * (
        np.exp(-0.5 * z * z) * (_INV_SQRT_2PI / (sd * full_mass))
    )
    return t, w


def _cells(t, w, lo, h, n):
    # bilinear split of each weighted node: its cell index along the axis
    # (clipped to the grid) and the weights its cell's lower and upper
    # grid nodes receive
    f = (t - lo) / h
    i = np.clip(f, 0, n - 2).astype(np.int64)
    r = f - i
    return i, w * (1.0 - r), w * r


# queries per backup block; bounds the per-block rules, coefficient rows
# and their product with the field to a few MB at any query count
_BACKUP_BLOCK = 1024


# most second-axis table entries a query, and fewest queries a distinct
# second-axis mean, of a backup that takes the table path (see
# dp_backup's cost paragraph for the measured crossovers)
_TABLE_SHARE = 4


def _second_axis_table(values, i2, lo2, hi2):
    # table[r, b] = sum_k lo2[b, k] values[r, i2[b, k]]
    #                     + hi2[b, k] values[r, i2[b, k] + 1]
    # for the B rules (i2, lo2, hi2) of quad_nodes columns each, summed
    # node by node from 0.0; each row block and its scratch gather stay
    # in a core's L2 cache across the nodes
    n1, width = values.shape[0], i2.shape[0]
    i2, lo2, hi2 = (np.ascontiguousarray(a.T) for a in (i2, lo2, hi2))
    table = np.zeros((n1, width))
    rows = block_rows(width)
    scratch = np.empty((min(rows, n1), width))
    for r in range(0, n1, rows):
        vb, tb = values[r : r + rows], table[r : r + rows]
        sb = scratch[: vb.shape[0]]
        for k in range(i2.shape[0]):
            for cells, weights in ((i2[k], lo2[k]), (i2[k] + 1, hi2[k])):
                # the cells are in range; "clip" lets take write into sb
                # without a buffer of its own
                np.take(vb, cells, axis=1, out=sb, mode="clip")
                sb *= weights
                tb += sb
    return table


def _sorted_distinct(bits):
    # the distinct entries of the int64 array bits, sorted: a sort and a
    # compare. np.unique with no inverse took 1.08 ms against 0.26 ms on
    # the 40 401 second-axis means of a 201 x 201 grid, and 6.9 ms against
    # 0.31 ms on 40 401 random means; distinct's np.unique with an
    # inverse would hold 8 bytes a query more on the table path
    bits = np.sort(bits)
    keep = np.ones(bits.size, dtype=bool)
    keep[1:] = bits[1:] != bits[:-1]
    return bits[keep]


def distinct(x):
    """The distinct entries of the 1-D array ``x`` and each entry's index.

    Entries are told apart by bit pattern, so +0.0 and -0.0 stay apart.
    Returns ``(values, at)`` with ``values[at]`` equal to ``x`` as
    float64, bit for bit: ``values`` sorted by bit pattern, read as
    int64, and ``at`` an index array.
    """
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.int64)
    keys, at = np.unique(bits, return_inverse=True)
    return keys.view(np.float64), at


def dp_backup(values, origin, steps, sds, means, glx, glw):
    """One Gaussian-quadrature backup of a 2-D grid field.

    For each row of ``means`` estimates ``E[field(mean + w)]`` for
    diagonal Gaussian ``w`` with per-axis standard deviations ``sds``,
    where ``field`` interpolates ``values`` bilinearly on the uniform
    grid given by ``origin``/``steps`` and vanishes outside it. Per axis
    the integral runs over the +-4 sd window clipped to the grid, which
    drops only the exactly-zero region, so the Gauss-Legendre rule
    (``glx``/``glw`` on [-1, 1]) never straddles the boundary jump.
    Weights are normalized by the fixed +-4 sd tail mass; mass falling
    beyond the grid counts as zero rather than being renormalized away.

    Bilinear interpolation is a sum of hat functions, so under the
    tensor rule each query's sum over node pairs factorises exactly as
    ``c1 @ values @ c2``, where ``c1[a]`` collects the first-axis weights
    times hat function ``a`` at the first-axis nodes and ``c2`` the same
    on the second axis. A rule and its cells depend on the query only
    through its mean on that axis, so they are built once per distinct
    mean (``distinct``) and gathered per query with the bits they would
    have per query. Queries are sorted by their first-axis mean and run
    in blocks of ``_BACKUP_BLOCK``, and a block builds its first-axis
    rules once per distinct mean. One axis is contracted first, by one of
    two paths, chosen from the counts the call sees:

    - The table path, when the call's second-axis means repeat: when the
      ``n1 x B2`` table over their B2 distinct values holds at most
      ``_TABLE_SHARE`` entries a query, or when each distinct value is
      shared by at least ``_TABLE_SHARE`` queries on average and the
      table is at most a ``_TABLE_SHARE``-th of the field
      (``_TABLE_SHARE * B2 <= min(Q, n2)`` for Q queries). Once per
      call, ``values`` is contracted against each distinct mean's
      second-axis rule,
      ``table[r, b] = sum_k lo2[b, k] values[r, i2[b, k]]
      + hi2[b, k] values[r, i2[b, k] + 1]``, node by node in numpy's
      elementwise loops, in row blocks of :func:`block_rows`. Each query
      then reads its first-axis cells from its mean's column. The path
      makes no BLAS call, so its bits depend on no BLAS kernel and no
      thread count.
    - The band path, otherwise. A block's ``c1`` rows, one per distinct
      first-axis mean, are built with ``np.bincount`` over the band of
      grid rows the block touches and contracted with that band of
      ``values`` in one BLAS matrix product, an A x band by band x n2
      product for A distinct means. Each query then reads its
      second-axis cells, from rules built once per distinct mean of the
      block, from its first-axis mean's row of the product. The
      product's bits depend on its shape, so a value can differ by an
      ulp from that of a product with one row per query, and from one
      on another BLAS kernel or thread count.

    The paths sum in another order, so their values can differ by an
    ulp.

    Cost: the table costs ``2 * n1 * B2 * quad_nodes`` multiply-adds
    once per call. The band product costs about ``band * n2`` per
    distinct first-axis mean of a block, where the band is the +-4 sd
    window, ``8 * sd / step + 2`` grid rows at most ``n1``, plus the
    block's spread of means; so at a fixed ``sd`` a finer grid makes
    each distinct mean dearer, in proportion to the number of grid
    nodes. The rules cost ``O(quad_nodes)`` per distinct mean and the
    reads ``O(quad_nodes)`` per query on either path. On random
    first-axis means (grids of 51 x 51 to 801 x 801, 10 201 to 160 801
    queries) the table path took 0.64 to 0.99 of the band path's time
    at 4 table entries a query, and 0.71 to 1.55 at 8. The grid
    oracle's means repeat: at 201 x 201 on the 2-D benchmark its 40 401
    grid queries hold 3 803 distinct first-axis means and 201
    second-axis ones, and its 10 201 evaluation queries 1 890 and 101,
    so both take the table path, at 1 and 2 entries a query. A small
    evaluation grid holds more table entries a query, but its band spans
    the whole grid too. On an n x n field a k x k grid with k >= 4 takes
    the table by the first rule when 4k >= n, else by the second. At
    21 x 21 evaluation queries on the 201 x 201 benchmark grid the call
    took 0.95 ms on the table path against 1.96 ms on the band path, at
    31 x 31 1.74 against 3.89 ms, and at 11 x 11 0.65 against 0.57 ms.
    Means that never repeat, and single queries, take the band path.

    Memory: the output and the sort order, in 4-byte indices below 2**31
    queries, hold 12 bytes a query, and the table 8 bytes an entry, at
    most ``_TABLE_SHARE`` entries a query or a ``_TABLE_SHARE``-th of the
    field. At 801 x 801 grid means the call peaks at 13.8 MiB traced,
    under the 24 bytes a query (14.7 MiB) of the output, an 8-byte order
    and the copy that a sort of the strided first-axis column makes.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    means = np.ascontiguousarray(means, dtype=np.float64)
    glx = np.ascontiguousarray(glx, dtype=np.float64)
    glw = np.ascontiguousarray(glw, dtype=np.float64)
    a1, a2 = float(origin[0]), float(origin[1])
    h1, h2 = float(steps[0]), float(steps[1])
    sd1, sd2 = float(sds[0]), float(sds[1])
    n1, n2 = values.shape
    b1, b2 = a1 + h1 * (n1 - 1), a2 + h2 * (n2 - 1)
    queries = means.shape[0]
    # the distinct second-axis means of the call, by bit pattern
    keys2 = _sorted_distinct(means[:, 1].view(np.int64))
    # the sort runs on a contiguous copy of the first-axis means, which
    # then becomes the output, and keeps its order in 4-byte indices
    out = means[:, 0].copy()
    order = np.argsort(out, kind="stable")
    if queries <= np.iinfo(np.int32).max:
        order = order.astype(np.int32)
    table = None
    if (
        n1 * keys2.size <= _TABLE_SHARE * queries
        or _TABLE_SHARE * keys2.size <= min(queries, n2)
    ):
        rule2 = _axis_rule(keys2.view(np.float64), sd2, a2, b2, glx, glw)
        table = _second_axis_table(values, *_cells(*rule2, a2, h2, n2)).ravel()
    for s in range(0, queries, _BACKUP_BLOCK):
        q = order[s : s + _BACKUP_BLOCK]
        m1, of1 = distinct(means[q, 0])
        i1, lo1, hi1 = _cells(*_axis_rule(m1, sd1, a1, b1, glx, glw), a1, h1, n1)
        if table is None:
            first = int(i1.min())
            band = int(i1.max()) + 2 - first
            at = np.arange(i1.shape[0])[:, None] * band + (i1 - first)
            c1 = np.bincount(
                np.concatenate([at.ravel(), at.ravel() + 1]),
                weights=np.concatenate([lo1.ravel(), hi1.ravel()]),
                minlength=i1.shape[0] * band,
            ).reshape(-1, band)
            u = (c1 @ values[first : first + band]).ravel()
            m2, of = distinct(means[q, 1])
            i2, lo, hi = _cells(*_axis_rule(m2, sd2, a2, b2, glx, glw), a2, h2, n2)
            at, step = of1[:, None] * n2 + i2[of], 1
        else:
            u, of, lo, hi, step = table, of1, lo1, hi1, keys2.size
            col = np.searchsorted(keys2, means[q, 1].view(np.int64))
            at = i1[of] * step + col[:, None]
        out[q] = np.einsum("pk,pk->p", u[at], lo[of]) + np.einsum(
            "pk,pk->p", u[at + step], hi[of]
        )
    return out
