"""Elliptical back-projection, density fusion, and multi-target association.

Each fitted return time constrains the hidden target to an ellipse with
the laser spot and the detector's wall spot as foci (the path sum equals
c times the measured flight time, with the fitted width as the ellipse
thickness). Maps from several pixels are fused by a cellwise product,
assuming independent time measurements; the overlap of the ellipse bands
is the retrieved position. The search runs on a fixed horizontal plane,
which collapses the problem from a volume to an area.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import SPEED_OF_LIGHT, Point3
from .processing import PeakEstimate


class InfeasibleTimeError(ValueError):
    """The measured path is shorter than the focus separation: no ellipse exists."""


class EmptyIntersectionError(ValueError):
    """The fused density underflowed to zero everywhere: inconsistent measurements."""


class TooManyTargetsError(ValueError):
    """More simultaneous targets requested than the method can resolve."""


class AmbiguousAssociationError(RuntimeError):
    """Two peak-to-target assignments score within 1 percent of each other.

    Carries both candidate solutions so callers can surface them.
    """

    def __init__(self, message, best, second):
        super().__init__(message)
        self.best = best
        self.second = second


@dataclass(frozen=True)
class GridSpec:
    """A regular (x, y) cell grid on the fixed scattering plane z_plane."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    resolution: float = 0.02
    z_plane: float = 1.0

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max", "z_plane"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("grid extent must satisfy x_min < x_max and y_min < y_max")
        if not (math.isfinite(self.resolution) and self.resolution > 0):
            raise ValueError(f"resolution must be > 0, got {self.resolution!r}")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid must have at least 2 cells per axis")

    @property
    def nx(self) -> int:
        return int(math.floor((self.x_max - self.x_min) / self.resolution + 1e-9))

    @property
    def ny(self) -> int:
        return int(math.floor((self.y_max - self.y_min) / self.resolution + 1e-9))

    @property
    def cell_area(self) -> float:
        return self.resolution * self.resolution

    def x_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 0.5) * self.resolution

    def y_centers(self) -> np.ndarray:
        return self.y_min + (np.arange(self.ny) + 0.5) * self.resolution


@dataclass(frozen=True, eq=False)
class ProbabilityMap:
    """Non-negative density over a grid; values[iy, ix] follows y rows, x columns.

    Maps compare and hash by identity: their values are an array.
    """

    grid: GridSpec
    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(
                f"values shape {values.shape} does not match grid ({self.grid.ny}, {self.grid.nx})"
            )
        if not np.all(np.isfinite(values)) or values.min() < 0:
            raise ValueError("map values must be finite and >= 0")
        if self.normalized:
            total = values.sum() * self.grid.cell_area
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"normalized map must integrate to 1, got {total!r}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class TrackEstimate:
    """A localized target on the plane; ``detections`` are the (pixel, peak) pairs it fuses."""

    position: tuple[float, float]
    sigma_x: float
    sigma_y: float
    peak_value: float
    target_label: str = "target-1"
    detections: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not (self.sigma_x >= 0 and self.sigma_y >= 0):
            raise ValueError("sigma_x and sigma_y must be >= 0")


@functools.lru_cache(maxsize=4)
def path_length_map(r_l: Point3, r_i: Point3, grid: GridSpec) -> np.ndarray:
    """Two-bounce path |r - r_l| + |r - r_i| through every cell center, in meters.

    The only place ellipse geometry is built: the time window and every
    back-projection for one (laser spot, pixel, grid) share one read-only
    (ny, nx) array. The cache is small because a scene has a few pixels
    (the bundled layout four, a sweep step two) and holds 8 bytes per cell.
    """
    x = grid.x_centers()[np.newaxis, :]
    y = grid.y_centers()[:, np.newaxis]
    z = grid.z_plane
    # Each leg is built in place, in the order of the broadcast expression
    # sqrt(dx^2 + dy^2 + dz^2), so the sum is that expression bit for bit.
    paths, leg = np.empty((grid.ny, grid.nx)), np.empty((grid.ny, grid.nx))
    for r, out in ((r_l, paths), (r_i, leg)):
        np.add((x - r.x) ** 2, (y - r.y) ** 2, out=out)
        out += (z - r.z) ** 2
        np.sqrt(out, out=out)
    paths += leg
    paths.setflags(write=False)
    return paths


def _exp_underflow_bound() -> float:
    # Largest float whose np.exp is 0.0: bisect until the bracket is two adjacent floats.
    lo, hi = -800.0, -700.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if np.exp(np.array([mid]))[0] == 0.0 else (lo, mid)
    return lo


_EXP_UNDERFLOW = _exp_underflow_bound()


def _exp(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.exp(x)`` written into ``out`` (which may be ``x``), bit for bit.

    exp is evaluated only on the cells above _EXP_UNDERFLOW; every other
    cell is exactly 0.0, as np.exp would give. numpy's exp takes a slow path
    for -inf and for underflowing inputs, and most cells of a band or a
    fused map are one or the other. The live cells of a map form a few long
    runs, which a masked ufunc evaluates at full speed.
    """
    live = x > _EXP_UNDERFLOW
    np.exp(x, out=out, where=live)
    np.copyto(out, 0.0, where=~live)
    return out


@dataclass(frozen=True)
class EllipseBand:
    """One fitted return's ellipse band, held as its formula: the record of a return.

    The return's foci ``r_l`` and ``r_i``, its path ``ct`` and width
    ``c_sigma`` in meters, and the foci's path map over ``grid``, looked up
    once when the band is built. ``log_at(index)`` evaluates the exponent
    (-inf exactly where exp underflows to 0.0) at any index of the grid (a
    block of rows, the seed lattice, by default all of it). The path map is
    the one array a band holds.
    """

    grid: GridSpec
    r_l: Point3
    r_i: Point3
    ct: float
    c_sigma: float
    _paths: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_paths", path_length_map(self.r_l, self.r_i, self.grid))

    def log_at(self, index=np.s_[:]) -> np.ndarray:
        return _band_log(self._paths[index], self.ct, self.c_sigma)

    @property
    def values(self) -> np.ndarray:
        """The band's exp over the full grid, a fresh array on each read."""
        log_values = self.log_at()
        return _exp(log_values, out=log_values)


def _band_log(paths: np.ndarray, ct: float, c_sigma: float) -> np.ndarray:
    # The one band formula: -(path - c t)^2 / (2 (c sigma)^2) at the cells
    # whose two-bounce paths are ``paths``, -inf where its exp underflows.
    # Elementwise, so a lattice or a block of rows of the paths gives that
    # part of the band.
    log_values = paths - ct
    log_values /= c_sigma
    np.square(log_values, out=log_values)
    log_values *= -0.5
    log_values[log_values <= _EXP_UNDERFLOW] = -np.inf
    return log_values


def backproject(peak: PeakEstimate, r_l: Point3, r_i: Point3, grid: GridSpec) -> EllipseBand:
    """Map one fitted return time onto its ellipse band over the grid.

    Cell value is exp(-(path - c t)^2 / (2 (c sigma)^2)) with path the
    two-bounce distance through the cell center; the fitted time width is
    converted to meters so the exponent is dimensionless. Raises
    InfeasibleTimeError when c t does not exceed the focus separation.
    """
    ct = SPEED_OF_LIGHT * peak.t_s
    baseline = r_l.distance_to(r_i)
    if ct <= baseline:
        raise InfeasibleTimeError(
            f"c*t = {ct:.4f} m does not exceed the focus separation {baseline:.4f} m"
        )
    return EllipseBand(grid, r_l, r_i, ct, SPEED_OF_LIGHT * peak.sigma_s)


def _normalized(log_prod: np.ndarray, grid: GridSpec) -> ProbabilityMap:
    # exp of a log-product, scaled to integrate to 1 over the grid. Works in
    # place: ``log_prod`` must be a fresh array the caller no longer needs,
    # and becomes the returned map's (read-only) values.
    peak_log = float(np.max(log_prod))
    if peak_log <= _EXP_UNDERFLOW:
        raise EmptyIntersectionError(
            "product of densities underflowed to zero everywhere; measurements are inconsistent"
        )
    log_prod -= peak_log
    work = _exp(log_prod, out=log_prod)
    work /= work.sum() * grid.cell_area
    return ProbabilityMap(grid=grid, values=work, normalized=True)


def _spreads(pmap: ProbabilityMap) -> tuple[float, float]:
    # Square roots of the map's second central moments. They are separable:
    # each axis needs only its marginal mass.
    grid = pmap.grid
    xc, yc = grid.x_centers(), grid.y_centers()
    mass_x = pmap.values.sum(axis=0) * grid.cell_area
    mass_y = pmap.values.sum(axis=1) * grid.cell_area
    mean_x = float((mass_x * xc).sum())
    mean_y = float((mass_y * yc).sum())
    var_x = float((mass_x * (xc - mean_x) ** 2).sum())
    var_y = float((mass_y * (yc - mean_y) ** 2).sum())
    return math.sqrt(max(var_x, 0.0)), math.sqrt(max(var_y, 0.0))


def localize(
    bands: list[EllipseBand], position: tuple[float, float],
) -> tuple[TrackEstimate, ProbabilityMap]:
    """One target's track and fused map from its bands, in detection order.

    The fused map is the bands' log-densities summed over their grid, then
    normalised. The track sits at ``position``, the target's optimum on the
    continuous density; its spreads are the fused map's second moments and
    its peak value the map's maximum. Raises EmptyIntersectionError when the
    density underflows to zero everywhere, and ValueError when the bands'
    grids differ.
    """
    fused = _normalized(_log_density(bands), bands[0].grid)
    sigma_x, sigma_y = _spreads(fused)
    return TrackEstimate(position, sigma_x, sigma_y, float(fused.values.max())), fused


REFINE_TOLERANCE = 1e-10  # score units: 100x the rounding noise of scores near -3000
_REFINE_MAX_ITER = 200  # a guard: over 200 two-person scenes no call took over 31 steps


def _refine_position(seed_xy, bands):
    """Continuous Gauss-Newton maximization of the fused log-density of ``bands``.

    The density is the bands' formula on the plane z = z_plane of their
    grid. The grid only samples it at cell centers, which lets the argmax
    slide along a narrow ridge by a few cells; solving on the continuous
    coordinates removes that quantization. Returns
    ``(position, log_score)``, the log-density -0.5 * sum(r^2) of the
    residuals r = (path - ct) / c_sigma at that position. The last step
    taken is the first whose expected gain, half the Gauss-Newton decrement
    g^T (J^T J)^-1 g, is below REFINE_TOLERANCE, so the score is within
    about the tolerance of the optimum's, whatever the seed. Steps are
    limited to ten cells and clamped to the grid; a step the clamp cancels
    also ends the iteration. On breakdown (a zero-length path leg or a
    singular step) the position is the seed.
    """
    x, y = seed_xy
    grid = bands[0].grid
    z = grid.z_plane
    limit = 10.0 * grid.resolution
    measured = [(b.r_l.x, b.r_l.y, b.r_l.z, b.r_i.x, b.r_i.y, b.r_i.z, b.ct, b.c_sigma)
                for b in bands]
    converged = False
    for it in range(_REFINE_MAX_ITER + 1):
        score = jxx = jxy = jyy = gx = gy = 0.0
        degenerate = False
        for lx, ly, lz, px, py, pz, ct, c_sigma in measured:
            d1 = math.sqrt((x - lx) ** 2 + (y - ly) ** 2 + (z - lz) ** 2)
            d2 = math.sqrt((x - px) ** 2 + (y - py) ** 2 + (z - pz) ** 2)
            r = (d1 + d2 - ct) / c_sigma
            score -= 0.5 * r ** 2
            if d1 == 0.0 or d2 == 0.0:
                degenerate = True
                continue
            jx = ((x - lx) / d1 + (x - px) / d2) / c_sigma
            jy = ((y - ly) / d1 + (y - py) / d2) / c_sigma
            jxx += jx * jx
            jxy += jx * jy
            jyy += jy * jy
            gx += jx * r
            gy += jy * r
        if it == 0:
            seed_score = score
        if converged or it == _REFINE_MAX_ITER:
            break
        # Solve (J^T J + 1e-12 I) step = -J^T r in closed form.
        jxx += 1e-12
        jyy += 1e-12
        det = jxx * jyy - jxy * jxy
        if degenerate or det <= 0.0:
            return seed_xy, seed_score
        step_x = (jxy * gy - jyy * gx) / det
        step_y = (jxy * gx - jxx * gy) / det
        # Hold a coordinate the step would push out through its grid edge.
        hold_x = (x == grid.x_max and step_x > 0.0) or (x == grid.x_min and step_x < 0.0)
        hold_y = (y == grid.y_max and step_y > 0.0) or (y == grid.y_min and step_y < 0.0)
        if hold_x or hold_y:
            step_x, step_y = 0.0 if hold_x else -gx / jxx, 0.0 if hold_y else -gy / jyy
        converged = -0.5 * (gx * step_x + gy * step_y) < REFINE_TOLERANCE
        scale = limit / max(math.hypot(step_x, step_y), limit)
        x_new = min(max(x + scale * step_x, grid.x_min), grid.x_max)
        y_new = min(max(y + scale * step_y, grid.y_min), grid.y_max)
        if x_new == x and y_new == y:
            break
        x, y = x_new, y_new
    return (x, y), score


# ---------------------------------------------------------------------------
# Peak-to-target association
# ---------------------------------------------------------------------------

# Relative score gap below which the two best assignments count as ambiguous.
AMBIGUITY_MARGIN = 0.01

# Candidate targets are seeded from every _SEED_STRIDE-th row and column of
# the grid: a seed only has to fall in the optimum's basin, which the
# refinement then climbs, and a lattice sum costs 1/16 of a full-grid one.
_SEED_STRIDE = 4

# Cells of a block of rows a returned target's bands are summed in (64 KB).
# Full-grid band arrays, freed with the density every trial, make glibc's
# allocator hand their pages back to the OS and fault them in again: per
# perfbench sweep op (20 trials) 4041 minor page faults with one full band
# beside the sum and 6401 with two, against 2 with blocks.
_BLOCK_CELLS = 8192


def _check_k_targets(k_targets: int) -> None:
    # The one check of a requested target count, made before any work.
    if k_targets > 2:
        raise TooManyTargetsError(
            f"k_targets={k_targets}: resolving more than two simultaneous targets is unsupported"
        )
    if k_targets < 1:
        raise ValueError("k_targets must be >= 1")


def _pixel_assignments(n_peaks: int, k_targets: int):
    # Ways one pixel's peaks can serve the targets, each a tuple target -> peak
    # index or None: each target gets at most one peak, each peak serves at
    # most one target, and min(n_peaks, k) pairings are made. The dict keeps
    # the first of the permutations that differ only in their Nones.
    return dict.fromkeys(
        itertools.permutations([*range(n_peaks), *[None] * (k_targets - n_peaks)], k_targets))


def _fused_log(logs, out):
    # One target's band log-densities summed into ``out`` in detection order,
    # the order every fused map is built in: the first is copied and each
    # later one added in place, so a generator's arrays are built one at a
    # time, each freed before the next.
    logs = iter(logs)
    out[...] = next(logs)
    for log in logs:
        out += log
    return out


def _log_density(bands):
    # One target's log-density over its bands' grid, its one builder: the
    # bands are summed a block of rows at a time, so no full-grid band is
    # held beside the sum.
    grid = bands[0].grid
    if any(band.grid != grid for band in bands):
        raise ValueError("a target's bands must share one grid")
    total = np.empty((grid.ny, grid.nx))
    rows = max(1, _BLOCK_CELLS // grid.nx)
    for r0 in range(0, grid.ny, rows):
        block = np.s_[r0:r0 + rows]
        _fused_log((band.log_at(block) for band in bands), out=total[block])
    return total


def fused_maps(
    peaks_per_pixel: list[list[PeakEstimate]], r_l: Point3, pixels: list[Point3], grid: GridSpec,
    tracks: list[TrackEstimate],
) -> dict[str, ProbabilityMap]:
    """Each track's fused map from its detections, as association built it, bit for bit.

    Keyed by label, one map for each track that has detections (an ambiguous
    result's tracks have none). The arguments are association's own: a
    detection's pixel index counts both ``peaks_per_pixel`` and ``pixels``.
    """
    return {t.target_label: localize([backproject(peaks_per_pixel[i][j], r_l, pixels[i], grid)
                                      for i, j in t.detections], t.position)[1]
            for t in tracks if t.detections}


def associate_and_localize(
    peaks_per_pixel: list[list[PeakEstimate]],
    r_l: Point3,
    pixels: list[Point3],
    grid: GridSpec,
    k_targets: int = 1,
) -> list[TrackEstimate]:
    """Assign per-pixel peaks to targets and localize each target.

    Exhaustively enumerates peak-to-target assignments (tiny at this
    scale) and scores each by the product over targets of the target's
    continuous density at its optimum (a pure consistency measure). Each
    winning target is placed at that optimum; its spreads and peak value
    come from its fused map. Targets must be seen by at least two pixels;
    a pixel with no returns (an empty list) serves no target. Returns the
    tracks, sorted by position and labelled in that order, each with its
    detections: the (pixel index, peak index) pairs whose bands it fuses,
    the pixel index counting ``pixels`` and ``peaks_per_pixel`` alike.

    Raises AmbiguousAssociationError when the runner-up assignment scores
    within AMBIGUITY_MARGIN (relative) of the winner, carrying both
    solutions' tracks; TooManyTargetsError for k_targets > 2.
    """
    _check_k_targets(k_targets)
    if len(peaks_per_pixel) != len(pixels):
        raise ValueError("peaks_per_pixel and pixels must align")

    # The band of every return that has an ellipse, keyed (pixel index, peak
    # index), and the last InfeasibleTimeError of a return that has none.
    bands, last_error = {}, None
    for ipix, (pixel, peaks) in enumerate(zip(pixels, peaks_per_pixel)):
        for ipk, peak in enumerate(peaks):
            try:
                bands[ipix, ipk] = backproject(peak, r_l, pixel, grid)
            except InfeasibleTimeError as exc:
                last_error = exc
    lattice = {pair: band.log_at(np.s_[::_SEED_STRIDE, ::_SEED_STRIDE]) for pair, band in bands.items()}

    xc, yc = grid.x_centers(), grid.y_centers()
    work = np.empty((len(yc[::_SEED_STRIDE]), len(xc[::_SEED_STRIDE])))  # lattice sums

    def _best_cell(log_prod, step):
        # Center of the best cell of a density sampled on every step-th row
        # and column, or None when no sampled cell is finite.
        iy, ix = np.unravel_index(int(np.argmax(log_prod)), log_prod.shape)
        if np.isfinite(log_prod[iy, ix]):
            return float(xc[step * ix]), float(yc[step * iy])
        return None

    def _seed(det):
        # The target's best cell on the seed lattice. The full grid is summed
        # only when no lattice cell is finite, so a target is dropped exactly
        # when its bands share no finite cell anywhere.
        log_prod = _fused_log(map(lattice.__getitem__, det), out=work)
        return (_best_cell(log_prod, _SEED_STRIDE)
                or _best_cell(_log_density([bands[pair] for pair in det]), 1))

    candidates = {}
    for combo in itertools.product(
        *(_pixel_assignments(len(p), k_targets) for p in peaks_per_pixel)
    ):
        detections = [
            tuple((ipix, combo[ipix][t]) for ipix in range(len(pixels)) if combo[ipix][t] is not None)
            for t in range(k_targets)
        ]
        key = frozenset(detections)  # quotient out target relabeling
        if key in candidates or any(len(det) < 2 for det in detections):
            continue
        if any(pair not in bands for det in detections for pair in det):
            continue
        # Score each target at the continuous optimum of its fused density:
        # the sampled cell maximum wobbles by a few percent with cell
        # alignment, which would swamp the 1 percent ambiguity margin.
        score = 0.0
        targets = []  # (position, detections)
        for det in detections:
            seed = _seed(det)
            if seed is None:
                break  # this target's bands never overlap: drop the assignment
            pos, log_score = _refine_position(seed, [bands[pair] for pair in det])
            targets.append((pos, det))
            score += log_score
        else:
            candidates[key] = (score, targets)

    if not candidates:
        if last_error is not None:
            raise InfeasibleTimeError(f"no feasible assignment: {last_error}") from last_error
        raise EmptyIntersectionError("no assignment with every target seen by two pixels")

    def _solve(targets):
        # Full-grid densities are built only here, one target at a time, for
        # the targets a caller gets back; each fused map dies with its step.
        return [
            replace(localize([bands[pair] for pair in det], pos)[0],
                    target_label=f"target-{i + 1}", detections=det)
            for i, (pos, det) in enumerate(sorted(targets, key=lambda t: t[0]))
        ]

    def _distinct(targets):
        # Every pair of targets resolves to positions more than a cell apart.
        return all(
            math.dist(a, b) > grid.resolution
            for (a, _), (b, _) in itertools.combinations(targets, 2)
        )

    ranked = sorted(candidates.values(), key=lambda e: e[0], reverse=True)
    # Prefer assignments whose targets resolve to distinct positions; fall
    # back to the full ranking when none do.
    pool = [e for e in ranked if _distinct(e[1])] or ranked
    best_score, best = pool[0]
    second_score, second = pool[1] if len(pool) > 1 else (-math.inf, None)
    # Scores are log products; a relative gap below the margin in linear
    # space means a log difference below about the margin itself.
    if best_score - second_score < -math.log1p(-AMBIGUITY_MARGIN):
        raise AmbiguousAssociationError(
            f"top assignments score within {AMBIGUITY_MARGIN:.0%} of each other",
            best=_solve(best),
            second=_solve(second),
        )
    return _solve(best)
