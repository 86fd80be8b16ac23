"""Path generation on time grids with reproducible per-path RNG streams.

Two modes.  Exact mode draws strictly stable increments cell by cell via
self-similarity.  Perturbed mode simulates Gaussian + drift increments plus
compound-Poisson jumps of magnitude > eta placed at their exact epochs, with
jumps below eta = 1e-3 replaced by their variance-matched Gaussian
approximation.  Perturbed paths monitor the union of the requested grid and
the jump epochs, which removes the dominant crossing-detection error for
jump-driven paths.

One block step, _block, builds perturbed paths for a group of rows in time
blocks ending at the last grid points at or before t = 1, 2, 4, ..., 1024,
then every BLOCK_CAP time units, and the horizon (block_ends).  Each row
draws from its own stream its jumps (PerturbedPlan.draw_jumps), then its
normals, then a thinning uniform per jump, so a row that stops after a block
has drawn nothing for later times; the jump sizes, the merge of epochs into
grid points and the running sums are computed once per group.  _block draws
the jumps and normals, its callers the thinning uniforms.  joined_blocks
joins the one-row blocks of one stream, for sample_path, drawing each
block's uniforms right after it, and given splits also builds the coupled
S_T of each split, so that Y_T = X -+ S_T holds pathwise.  perturbed_rows
draws the blocks of many path indices in groups of rows, for the survival
counter, and a row's uniforms at the start of its next block, so a row that
stops never draws them.  A lone S_T is the plan
PerturbedPlan.subordinator: its paths come from the same blocks, its
marginals from the unit cells of discrete_increments.

Determinism contract: a path is a pure function of (seed, path index, phase),
independent of thread count and scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decompose import NEGATIVE, POSITIVE, DecompositionT, JumpTable
from .levymodel import LevyModel
from .rng import Cursor, stream
from .rvcalc import gl_panels, second_moment_below
from .stable import StableParams, cms_transform, sample_stable

ETA = 1e-3  # small-jump cutoff for the perturbed mode
COMPENSATOR_EDGES = np.linspace(math.log(ETA), 0.0, 65)  # 64 panels in ln x
FIRST_BLOCK = 128  # cells in a path's first block of rows; later ones double
ROW_CAP = 4096  # doubles per working array of a group of rows
BLOCK_CAP = 1024.0  # longest perturbed time block, so a block's jumps stay bounded


@dataclass(frozen=True, eq=False)
class TimeGrid:
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a grid needs at least two points")
        if pts[0] != 0.0:
            raise ValueError("grids start at t = 0")
        # NaN fails every comparison, so only an infinite last point needs its own check
        if not (np.all(np.diff(pts) > 0) and math.isfinite(pts[-1])):
            raise ValueError("grid points must be finite and strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @classmethod
    def uniform(cls, T: float, dt: float) -> "TimeGrid":
        n = max(1, round(T / dt))
        return cls(np.linspace(0.0, T, n + 1))

    @classmethod
    def geometric(cls, T: float, t_min: float = 2.0 ** -10,
                  per_octave: int = 8) -> "TimeGrid":
        n = max(1, math.ceil(math.log2(T / t_min) * per_octave))
        pts = 2.0 ** np.linspace(math.log2(t_min), math.log2(T), n + 1)
        pts[-1] = T
        return cls(np.concatenate([[0.0], pts]))

    @classmethod
    def integers(cls, T: float) -> "TimeGrid":
        pts = np.arange(0.0, math.floor(T) + 1.0)
        if pts[-1] != T:
            pts = np.append(pts, T)
        return cls(pts)

    @classmethod
    def survival(cls, T: float, t_min: float = 2.0 ** -10,
                 per_octave: int = 8) -> "TimeGrid":
        """Geometric refinement on (0, 1) plus the integer lattice up to T.

        Integer monitoring pins the fitted constant-boundary exponent to its
        discrete-time value; a purely geometric grid thins out at large t and
        misses an O(1) fraction of crossings per octave, which biases the
        exponent itself.
        """
        if T <= 1.0:
            return cls.geometric(T, t_min=min(t_min, T / 8.0), per_octave=per_octave)
        fine = 2.0 ** np.arange(math.log2(t_min), 0.0, 1.0 / per_octave)
        pts = np.union1d(fine, np.arange(1.0, math.floor(T) + 1.0))
        if pts[-1] != T:
            pts = np.append(pts, T)
        return cls(np.concatenate([[0.0], pts]))


@dataclass(frozen=True, eq=False)
class PathSample:
    grid: TimeGrid
    values: np.ndarray
    jump_times: np.ndarray


# ---------------------------------------------------------------------------
# perturbed-mode plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PerturbedPlan:
    """Precomputed ingredients of the perturbed simulation of one model."""

    drift: float          # per unit time, compensator-adjusted
    var_unit: float       # Gaussian variance per unit time incl. small jumps
    rate: float           # total jump intensity beyond eta
    p_right: float
    table_right: JumpTable | None
    table_left: JumpTable | None

    @classmethod
    def from_model(cls, model: LevyModel,
                   remove: DecompositionT | None = None) -> "PerturbedPlan":
        """Plan for the model itself, or for Y_T when `remove` is given.

        With `remove`, the jump table of the split's tail is built from the
        remainder measure nu_rest (remove.h_rest); the other tail keeps its own.
        Each tail adds its small-jump variance int_0^ETA x**2 nu (Asmussen &
        Rosinski 2001; `rvcalc.second_moment_below`) and takes off the drift its
        compensator int_ETA^1 x nu (Gauss-Legendre panels in ln x, `rvcalc.gl_panels`).
        """
        drift, var_unit = model.b, model.sigma2
        tables = {"right": None, "left": None}
        for name, tail, sign in (("right", model.tail_right, 1.0),
                                 ("left", model.tail_left, -1.0)):
            if tail is None:
                continue
            var_unit += second_moment_below(tail.h, ETA, tail.alpha)
            compensator = np.sum(gl_panels(tail.h, COMPENSATOR_EDGES, 1.0 - tail.alpha))
            drift -= sign * float(compensator)
            split = remove is not None and remove.tail == tail
            tables[name] = JumpTable(remove.h_rest if split else tail.h, x_lo=ETA,
                                     alpha=tail.alpha, breakpoints=(1.0,) if split else ())
        rate_r = tables["right"].total_mass if tables["right"] else 0.0
        rate_l = tables["left"].total_mass if tables["left"] else 0.0
        rate = rate_r + rate_l
        return cls(drift=drift, var_unit=var_unit, rate=rate,
                   p_right=rate_r / rate if rate > 0 else 0.0,
                   table_right=tables["right"], table_left=tables["left"])

    @classmethod
    def subordinator(cls, decomp: DecompositionT) -> "PerturbedPlan":
        """Plan of S_T alone: no drift, no Gaussian part, the split's jumps as right jumps."""
        return cls(drift=0.0, var_unit=0.0, rate=decomp.total_mass, p_right=1.0,
                   table_right=decomp.table, table_left=None)

    def draw_jumps(self, rng: np.random.Generator, lo: float, hi: float):
        """The jumps of the block (lo, hi] in stream order: (epochs, right, u).

        A Poisson count n with mean rate * (hi - lo), n sorted epochs
        hi - (hi - lo) * U in (lo, hi], n side uniforms (`right` marks the
        right jumps) and n size uniforms for signed_sizes.  A plan without
        jumps draws nothing.
        """
        if self.rate <= 0:
            return np.empty(0), np.empty(0, dtype=bool), np.empty(0)
        n = rng.poisson(self.rate * (hi - lo))
        epochs = np.sort(hi - (hi - lo) * rng.random(n))
        return epochs, rng.random(n) < self.p_right, rng.random(n)

    def signed_sizes(self, right: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Signed sizes: right jumps take u[:nr] in order, left jumps the rest."""
        sizes = np.empty(right.size)
        nr = np.count_nonzero(right)
        if nr:
            sizes[right.nonzero()[0]] = self.table_right.sizes(u[:nr])
        if right.size - nr:
            left = self.table_left.sizes(u[nr:])
            sizes[(~right).nonzero()[0]] = np.negative(left, out=left)
        return sizes


def _cell_jumps(points: np.ndarray, epochs: np.ndarray,
                sizes: np.ndarray) -> np.ndarray:
    """Sum of the jumps in each cell (t_{k-1}, t_k]; every epoch is a point."""
    return np.bincount(np.searchsorted(points, epochs), weights=sizes,
                       minlength=points.size)[1:]


def _running_sum(inc: np.ndarray) -> np.ndarray:
    """Path values from cell increments: 0 at the first point, then the cumsum."""
    out = np.empty(inc.size + 1)
    out[0], out[1:] = 0.0, inc
    return np.cumsum(out, out=out)


def block_ends(points: np.ndarray) -> np.ndarray:
    """Indices of the last points at or before t = 1, 2, 4, ... below
    BLOCK_CAP, every multiple of BLOCK_CAP, and the horizon."""
    times = np.append(2.0 ** np.arange(math.log2(BLOCK_CAP)),
                      np.arange(BLOCK_CAP, points[-1], BLOCK_CAP))
    ends = points.searchsorted(times, "right") - 1
    return np.unique(np.append(ends[ends > 0], points.size - 1))


def perturbed_rows(plan: PerturbedPlan, points: np.ndarray, seed: int,
                   paths: np.ndarray, phase: int, pending: np.ndarray):
    """Perturbed paths of many path indices at once, in the blocks of block_ends.

    Yields (rows, merged, vals) per group of rows and block: merged[r] holds
    the block's grid points and the epochs of paths[rows[r]] merged, led by
    the block's first point, and vals[r] the path there, vals[:, 0] carried
    from the previous block (0 at t = 0).  A row shorter than the group
    repeats its last point and value.  Each block draws for the rows with
    any limit still set in `pending`, the (rows, limits) mask of _survivors,
    in groups of rows whose expected width (block points + rate * block
    length) sums to at most ROW_CAP; a wider block holds one row.  Row r
    draws from its own stream(seed, paths[r], phase) as _block orders, and
    the thinning uniforms of its previous block just before its next block's
    jumps, so its path is joined_blocks' on that stream.
    """
    rngs = [stream(seed, path, phase) for path in paths.tolist()]
    carry = np.zeros(paths.size)
    owed = np.zeros(paths.size, dtype=np.intp)  # thinning uniforms of each row's last block
    a = 0
    for b in block_ends(points):
        live = np.flatnonzero(pending.any(axis=1))
        if live.size == 0:
            return
        width = b - a + 1 + plan.rate * (points[b] - points[a])
        per = max(1, int(ROW_CAP // width))
        for lo in range(0, live.size, per):
            rows = live[lo:lo + per]
            group = [rngs[r] for r in rows]
            for rng, k in zip(group, owed[rows].tolist()):
                if k:
                    rng.random(k)
            merged, vals, epochs, sizes = _block(plan, points[a:b + 1], group, carry[rows])
            owed[rows] = [e.size for e in epochs]
            carry[rows] = vals[:, -1]
            del epochs, sizes  # a block's jumps: not held while the caller scores the group
            yield rows, merged, vals
        a = b


def joined_blocks(plan: PerturbedPlan, points: np.ndarray, rng: np.random.Generator,
                  splits=()):
    """The blocks of one path (block_ends, each a _block of one row) joined: the
    whole path, as (merged points, values, epochs).

    Without jumps the block ends do not change the draws, so one block is drawn.
    With `splits`, also returns the values of each split's S_T, one row per
    split: the jumps beyond 1 on its side that the split thins, by
    magnitude, all splits sharing the thinning uniforms.  The thinning
    uniforms, one per jump, are drawn right after each block, with or
    without splits, so X does not depend on them.
    """
    ends = block_ends(points) if plan.rate > 0 else [points.size - 1]
    a, carry, blocks = 0, np.zeros(1), []
    for b in ends:
        merged, values, (epochs,), sizes = _block(plan, points[a:b + 1], [rng], carry)
        blocks.append((merged[0], values[0], epochs, sizes, rng.random(epochs.size)))
        a, carry = b, values[:, -1]
    merged, values = (np.concatenate([blocks[0][k]] + [b[k][1:] for b in blocks[1:]])
                      for k in (0, 1))
    epochs, sizes, thin_u = (np.concatenate([b[k] for b in blocks]) for k in (2, 3, 4))
    if not splits:
        return merged, values, epochs
    return merged, values, epochs, _coupled(splits, merged, epochs, sizes, thin_u)


def _block(plan: PerturbedPlan, g: np.ndarray, rngs, carry):
    """The block (g[0], g[-1]] of a group of rows, row r drawing from rngs[r].

    Each row draws its jumps (plan.draw_jumps), then the normals of its
    merged cells; the caller draws one thinning uniform per jump before the
    row's next block.  That is the one draw order of every perturbed path,
    so a caller may stop a row after any block.  The work after the draws
    is done once for the group.  Returns (merged, values, epochs, sizes):
    the points g and each row's epochs merged and the row's values there
    from carry[r] at g[0], both of shape (rows, width), a shorter row
    repeating its last point and value; then each row's epochs and the
    group's signed sizes, row after row.
    """
    epochs, sizes = _group_jumps(plan, g, rngs)
    merged, n_points, cell = _merge(g, epochs)
    values = np.empty(merged.shape)
    values[:, 0] = carry
    inc = np.subtract(merged[:, 1:], merged[:, :-1], out=values[:, 1:])  # cell lengths
    if plan.var_unit > 0:
        z = np.zeros(inc.shape)
        for rng, row, n in zip(rngs, z, n_points):
            rng.standard_normal(out=row[:n - 1])
        z *= np.sqrt(plan.var_unit * inc)
        inc *= plan.drift
        inc += z
    else:
        inc *= plan.drift
    inc += np.bincount(cell, weights=sizes, minlength=merged.size).reshape(merged.shape)[:, 1:]
    np.cumsum(values, axis=1, out=values)
    return merged, values, epochs, sizes


def _group_jumps(plan: PerturbedPlan, g: np.ndarray, rngs):
    """Each row's jumps in (g[0], g[-1]] drawn by plan.draw_jumps: (epochs
    per row, the group's signed sizes row after row)."""
    jumps = [plan.draw_jumps(rng, g[0], g[-1]) for rng in rngs]
    if len(jumps) == 1:
        epochs, right, u = jumps[0]
        return [epochs], plan.signed_sizes(right, u)
    # each row's right jumps take the first of its size uniforms
    n_right = [np.count_nonzero(r) for _, r, _ in jumps]
    u = np.concatenate([u[:n] for (_, _, u), n in zip(jumps, n_right)]
                       + [u[n:] for (_, _, u), n in zip(jumps, n_right)])
    return ([e for e, _, _ in jumps],
            plan.signed_sizes(np.concatenate([r for _, r, _ in jumps]), u))


def _merge(g: np.ndarray, epochs):
    """The points g and each row's sorted epochs in (g[0], g[-1]] merged as
    np.union1d merges them: (merged, points per row, flat index into merged
    of each epoch's point).

    merged has shape (rows, width), a shorter row repeating its last point.
    Several rows are placed by index: epoch j of a row is preceded by j
    epochs and by the points of g below it.  A row alone, or a group with
    an epoch on a point of g or on another epoch, is merged row by row.
    """
    if len(epochs) > 1:
        counts = np.array([e.size for e in epochs])
        flat = np.concatenate(epochs)
        k = g.searchsorted(flat)
        row = np.repeat(np.arange(counts.size), counts)
        rank = np.arange(flat.size) - (np.cumsum(counts) - counts)[row]
        repeated = (flat[1:] == flat[:-1]) & (rank[1:] > 0)
        if not (np.any(g.take(k) == flat) or np.any(repeated)):
            n_points = g.size + counts
            width = n_points.max()
            cell = row * width + k + rank
            merged = np.empty((counts.size, width))
            free = np.arange(width) < n_points[:, None]
            merged[~free] = g[-1]
            merged.ravel()[cell] = flat
            free.ravel()[cell] = False
            merged[free] = np.tile(g, counts.size)
            return merged, n_points, cell
    rows = [np.union1d(g, e) if e.size else g for e in epochs]
    if len(rows) == 1:
        return rows[0][None], [rows[0].size], rows[0].searchsorted(epochs[0])
    n_points = [m.size for m in rows]
    merged = np.empty((len(rows), max(n_points)))
    for out, m in zip(merged, rows):
        out[:m.size], out[m.size:] = m, m[-1]
    cell = [r * merged.shape[1] + m.searchsorted(e)
            for r, (m, e) in enumerate(zip(rows, epochs))]
    return merged, n_points, np.concatenate(cell)


def _coupled(splits, merged, epochs, sizes, thin_u) -> np.ndarray:
    """Values on `merged` of each split's S_T, one row per split from 0."""
    rows = []
    for d in splits:
        cand = np.flatnonzero(sizes < -1.0 if d.side == NEGATIVE else sizes > 1.0)
        x = np.abs(sizes[cand])
        t = d.thinned(x, thin_u[cand])
        rows.append(_running_sum(_cell_jumps(merged, epochs[cand[t]], x[t])))
    return np.array(rows)


# ---------------------------------------------------------------------------
# public sampling operations
# ---------------------------------------------------------------------------

def sample_path(model: LevyModel, grid: TimeGrid, rng: np.random.Generator,
                plan: PerturbedPlan | None = None) -> PathSample:
    """One path of X on the grid; perturbed mode also monitors jump epochs."""
    if model.stable is not None:
        dt = np.diff(grid.points)
        values = _running_sum(dt ** (1.0 / model.stable.alpha)
                              * sample_stable(model.stable, dt.size, rng))
        return PathSample(grid=grid, values=values, jump_times=np.empty(0))
    return _perturbed_path(plan or PerturbedPlan.from_model(model), grid, rng)


def sample_subordinator_path(decomp: DecompositionT, grid: TimeGrid,
                             rng: np.random.Generator) -> PathSample:
    """Path of S_T, monitored at grid points and jump epochs: the block
    source on PerturbedPlan.subordinator(decomp)."""
    return _perturbed_path(PerturbedPlan.subordinator(decomp), grid, rng)


def _perturbed_path(plan: PerturbedPlan, grid: TimeGrid,
                    rng: np.random.Generator) -> PathSample:
    merged, values, epochs = joined_blocks(plan, grid.points, rng)
    out_grid = grid if epochs.size == 0 else TimeGrid(merged)
    return PathSample(grid=out_grid, values=values, jump_times=epochs)


def exact_rows(params: StableParams, dt_pow: np.ndarray, seed: int,
               paths: np.ndarray, phase: int, pending: np.ndarray):
    """Exact paths of many path indices at once, in doubling blocks of cells.

    Yields (start, rows, vals): vals[r, k] is the path of paths[rows[r]] at
    grid index start + k and vals[:, 0] the previous block's last value (0
    at t = 0).  Blocks of FIRST_BLOCK, then twice as many cells are drawn
    for the rows with any limit still set in `pending`, the (rows, limits)
    mask of _survivors, in groups of about ROW_CAP doubles.  The draws are
    those of sample_stable over the whole grid from the path's stream, on
    one reused cursor: uniforms from raw draw `start`, then exponentials.
    A path of one block draws them straight after its uniforms; otherwise
    each block places the cursor again at raw draw n and draws `stop`
    exponentials, dropping the first `start` (the ziggurat may take extra
    raw draws, so where exponential `start` lies is never computed).  The
    carried cumsum rounds as one cumsum over the grid would.
    """
    n = dt_pow.size
    cur = Cursor()
    place, uniform, exponential = cur.place, cur.gen.random, cur.gen.standard_exponential
    carry = np.zeros(paths.size)
    start, size = 0, FIRST_BLOCK
    while start < n and pending.any():
        stop = min(start + size, n)
        live = np.flatnonzero(pending.any(axis=1))
        per = max(1, ROW_CAP // (stop - start + 1))
        dropped = np.empty(start)
        for lo in range(0, live.size, per):
            rows = live[lo:lo + per]
            vals = np.empty((rows.size, stop - start + 1))
            w = np.empty((rows.size, stop - start))
            draws = zip(vals[:, 1:], w, paths[rows].tolist())
            if stop - start == n:  # one block: the exponentials follow the uniforms
                for u, e, path in draws:
                    place(seed, path, phase)
                    uniform(out=u)
                    exponential(out=e)
            else:
                for u, e, path in draws:
                    place(seed, path, phase, start)
                    uniform(out=u)
                    place(seed, path, phase, n)
                    exponential(out=dropped)
                    exponential(out=e)
            vals[:, 1:] = cms_transform(params, vals[:, 1:], w) * dt_pow[start:stop]
            vals[:, 0] = carry[rows]
            np.cumsum(vals, axis=1, out=vals)
            carry[rows] = vals[:, -1]
            yield start, rows, vals
        start, size = stop, 2 * size


def discrete_increments(plan: PerturbedPlan, n_steps: int,
                        rng: np.random.Generator,
                        decomp: DecompositionT | None = None
                        ) -> tuple[np.ndarray, np.ndarray | None]:
    """Unit-time increments of the plan's process on an integer grid.

    Law-identical to sample_path restricted to integers, but draws per-cell
    jump sums directly, with no epochs.  The right and left jumps of a
    compound Poisson process are independent compound Poisson processes, so
    each side draws its own stream, in this order: the right side's Poisson
    counts per cell at rate rate * p_right, then one uniform per right jump
    for its sizes, in cell order; the same for the left side at rate
    rate * (1 - p_right), its sizes negated; then the normals.  A side
    without a table or rate draws nothing, and a plan without a Gaussian
    part draws no normals, so the plan of S_T alone draws only right counts
    and sizes.  With `decomp`, also returns the thinned subordinator
    increments so callers can form Y_T = X -+ S_T pathwise; a sequence of
    splits gives one row per split.  Splits draw last: one thinning uniform
    per jump beyond 1 in magnitude, right ones first, in cell order, shared
    by every split on that side, so X does not depend on them.  Splits of
    one delta, side and tail thin the same jumps: their row is computed once.
    """
    sides = ((plan.table_right, plan.rate * plan.p_right),
             (plan.table_left, plan.rate * (1.0 - plan.p_right)))
    right, left = (_side_jumps(table, rate, n_steps, rng) for table, rate in sides)
    inc = np.full(n_steps, plan.drift)
    if plan.var_unit > 0:
        inc += math.sqrt(plan.var_unit) * rng.standard_normal(n_steps)
    inc += _run_sums(*right)
    inc -= _run_sums(*left)
    if decomp is None:
        return inc, None
    splits = [decomp] if isinstance(decomp, DecompositionT) else decomp
    cands = {}  # side -> (cells, magnitudes) of its jumps beyond 1
    for side, (counts, x) in ((POSITIVE, right), (NEGATIVE, left)):
        c = np.flatnonzero(x > 1.0)
        cands[side] = np.cumsum(counts).searchsorted(c, "right"), x[c]
    n_right = cands[POSITIVE][1].size
    u = rng.random(n_right + cands[NEGATIVE][1].size)
    s_inc = np.empty((len(splits), n_steps))
    rows = {}  # splits of one delta, side and tail thin the same jumps
    for row, d in zip(s_inc, splits):
        key = (d.delta, d.side, d.tail)
        if key not in rows:
            cell, x = cands[d.side]
            t = d.thinned(x, u[:n_right] if d.side == POSITIVE else u[n_right:])
            rows[key] = np.bincount(cell[t], weights=x[t], minlength=n_steps)
        row[:] = rows[key]
    return inc, s_inc if splits is decomp else s_inc[0]


def _side_jumps(table: JumpTable | None, rate: float, n_steps: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One side's jumps on unit cells: (count per cell, magnitudes in cell order).

    Draws the Poisson count of each cell, then one uniform per jump for its
    size; draws nothing without a table or rate.
    """
    if table is None or rate <= 0:
        return np.zeros(n_steps, dtype=np.intp), np.empty(0)
    counts = rng.poisson(rate, size=n_steps)
    return counts, table.sizes(rng.random(int(counts.sum())))


def _run_sums(counts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sum of each cell's run of x, where cell k holds the next counts[k] entries."""
    out = np.zeros(counts.size)
    full = counts > 0
    out[full] = np.add.reduceat(x, (np.cumsum(counts) - counts)[full])
    return out
