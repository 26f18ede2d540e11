"""Sub-tile memory allocation heuristic (paper Section V-C).

Given a level-``n+1`` tile, ``allocate`` finds level-``n`` sub-tile shapes
such that ``Tmin <= Tn <= Tn+1``, the summed footprints respect the buffer
(policy-aware: static partitions or bank-granular sharing), and ``f_reuse``
— the ratio of compute per byte filled across the boundary — is maximised.

The candidate generator follows the paper: for a D-dimensional tile it
proposes the ``2^D`` corners where each dimension is at its minimum or
maximum, which we extend with geometric midpoints and a greedy
"halve-the-biggest-footprint" ladder so that layers whose corners are all
infeasible still allocate well.

Candidate order
---------------
Candidates are collected in a ``set`` of int 5-tuples (``ALL_DIMS``
order) and listed in that set's iteration order, which is CPython's
int-tuple set order: a function of the tuples' hashes and their
insertion sequence only.  Int hashes are not randomised by
``PYTHONHASHSEED``, so the order — and with it every equal-score
tie-break downstream — is the same in every process
(``tests/test_allocation_lockstep.py`` pins it across hash seeds).  The
set's contents and insertion sequence are part of the search's result
contract; change neither without re-pinning the equivalence tests.

Lockstep allocation
-------------------
The search allocates every inner loop order of a (parallelism, L2 tile)
block at once: :func:`allocate_hierarchy` given a sequence of orders walks
the levels in lockstep, scoring the (order, beam, candidate) rows of all
live orders through one columnar ``f_reuse`` pass per level
(:func:`repro.core.batch.boundary_fill_bytes_sum` with per-row loop-order
tables).  Ranking per order is the scalar beam search's: top-``keep`` per
beam in beam order, then a stable global sort, so each order's beams equal
a single-order scalar run bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Mapping, Sequence
from typing import TYPE_CHECKING, overload

from repro.arch.accelerator import AcceleratorConfig
from repro.core.access_model import boundary_fill_profile
from repro.core.dims import ALL_DIMS, Dim
from repro.core.layer import ConvLayer
from repro.core.loopnest import LoopOrder
from repro.core.tiling import TileShape, input_extent_kernel, kernel_and_stride

if TYPE_CHECKING:
    import numpy as np

#: One candidate hierarchy, outermost (last-level) tile first.
Beam = tuple[TileShape, ...]
#: Per-dim parallel split degrees, ``ALL_DIMS`` order.
DegreeVector = tuple[int, ...]
#: ``(level, parent, cap)`` -> feasible sub-tiles and their (5, N) columns.
CandidateMemo = dict[
    tuple[int, TileShape, "TileShape | None"],
    tuple[list[TileShape], "np.ndarray"],
]


def f_reuse(
    layer: ConvLayer,
    parent: TileShape,
    child: TileShape,
    inner_order: LoopOrder,
    arch: AcceleratorConfig,
) -> float:
    """Compute per fill-byte across the boundary (higher is better).

    The paper's ``freuse`` "calculates the ratio of buffer fills (from a
    higher level buffer) to reads and updates (from lower levels)"; we score
    the equivalent compute-per-byte so bigger parents aren't penalised.
    """
    profile = boundary_fill_profile(layer, parent, child, inner_order, arch.precision)
    fill_bytes = sum(bytes_ for _, bytes_ in profile.values())
    return parent.maccs(layer) / max(fill_bytes, 1)


def _mid(lo: int, hi: int) -> int:
    """Geometric midpoint, biased up, clamped to [lo, hi]."""
    return max(lo, min(hi, round(math.sqrt(lo * hi))))


def _extents(tile: TileShape) -> tuple[int, int, int, int, int]:
    """A tile's extents in ``ALL_DIMS`` order."""
    return (tile.w, tile.h, tile.c, tile.k, tile.f)


def _seed_candidates(
    parent: TileShape, cap: TileShape | None
) -> tuple[list[int], set[tuple[int, ...]]]:
    """Per-dim maximum extents plus the corner/midpoint candidate seed.

    Every dim's minimum is 1; its maximum is the parent extent, bounded by
    ``cap``.  One implementation feeds both the scalar and the columnar
    :func:`candidate_sub_tiles` paths, so the enumerated set — and its
    insertion sequence, which fixes the downstream tie-break order —
    cannot drift between them.  Only the halving ladder extends this seed,
    and it is path-specific solely in *how* the footprint gradients are
    computed.
    """
    hi = list(_extents(parent))
    if cap is not None:
        hi = [min(p, c) for p, c in zip(hi, _extents(cap))]

    # 2^D corners (Section V-C), each dim at 1 or at its maximum.
    candidates = set(itertools.product(*((1, top) for top in hi)))

    # Geometric midpoints: all-mid, and each dim at max with others mid.
    mid = [_mid(1, top) for top in hi]
    candidates.add(tuple(mid))
    for i, top in enumerate(hi):
        boosted = list(mid)
        boosted[i] = top
        candidates.add(tuple(boosted))
    return hi, candidates


def _tile_columns(tiles: Sequence[TileShape]) -> np.ndarray:
    """(5, N) int64 columns of a tile list (ALL_DIMS order)."""
    import numpy as np

    return np.array([_extents(tile) for tile in tiles], dtype=np.int64).T


def candidate_sub_tiles(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    level_index: int,
    parent: TileShape,
    *,
    cap: TileShape | None = None,
    vectorize: bool = False,
) -> list[TileShape]:
    """Corner + midpoint + halving-ladder candidates, capacity-filtered.

    ``cap`` bounds each dimension's maximum from above; the search uses it
    to guarantee enough sub-tiles exist along parallelised dims for every
    PE/cluster to receive work (tile sizes and parallelism are co-designed,
    Section V-A's joint configuration vector).

    ``vectorize=True`` runs the columnar variant (same candidates, same
    order).
    """
    if vectorize:
        return _candidates_columnar(layer, arch, level_index, parent, cap, {})[0]
    hi, candidates = _seed_candidates(parent, cap)

    # Halving ladder: from the largest allowed shape, repeatedly halve the
    # dimension contributing most footprint until the tile fits.
    current = list(hi)
    for _ in range(40):
        tile = TileShape(*current)
        candidates.add(tuple(current))
        if arch.tile_fits(level_index, layer, tile):
            break
        heaviest = max(
            range(5),
            key=lambda d: _footprint_gradient(layer, tile, d, arch),
        )
        if current[heaviest] == 1:
            break
        current[heaviest] = math.ceil(current[heaviest] / 2)

    feasible = []
    for extents in candidates:
        tile = TileShape(*extents)
        if arch.tile_fits(level_index, layer, tile):
            feasible.append(tile)
    return feasible


def _candidates_columnar(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    level_index: int,
    parent: TileShape,
    cap: TileShape | None,
    memo: CandidateMemo,
) -> tuple[list[TileShape], np.ndarray]:
    """Columnar twin of :func:`candidate_sub_tiles`, plus (5, N) columns.

    Shares the corner/midpoint seed (and therefore the set insertion
    sequence that fixes the downstream tie-break order) through
    :func:`_seed_candidates`.  The halving ladder computes its footprint
    gradients on plain ints (the same integer formulas as
    :func:`repro.core.batch.tile_bytes_columns`), and the capacity check of
    the whole candidate set is one columnar mask.  The result depends only
    on ``(level_index, parent, cap)`` and is memoised in ``memo`` under
    that key.
    """
    key = (level_index, parent, cap)
    if key in memo:
        return memo[key]

    import numpy as np

    from repro.core.batch import tile_fits_mask

    hi, candidates = _seed_candidates(parent, cap)

    # Halving ladder: from the largest allowed shape, repeatedly halve the
    # dimension whose halving frees the most footprint until the tile fits.
    footprint = _footprint_bytes(layer, arch)
    current = list(hi)
    for _ in range(40):
        candidates.add(tuple(current))
        if arch.tile_fits(level_index, layer, TileShape(*current)):
            break
        whole = footprint(current)
        gradients = []
        for d in range(5):
            if current[d] == 1:
                gradients.append(-1)
                continue
            probe = list(current)
            probe[d] = -(-current[d] // 2)
            gradients.append(whole - footprint(probe))
        heaviest = gradients.index(max(gradients))  # first max, like max(range(5), ...)
        if current[heaviest] == 1:
            break
        current[heaviest] = math.ceil(current[heaviest] / 2)

    grid = np.array(list(candidates), dtype=np.int64).T
    cols = grid[:, tile_fits_mask(arch, level_index, layer, grid)]
    result = ([TileShape(*extents) for extents in cols.T.tolist()], cols)
    memo[key] = result
    return result


def _footprint_bytes(
    layer: ConvLayer, arch: AcceleratorConfig
) -> Callable[[Sequence[int]], int]:
    """Summed footprint bytes of extents in ``ALL_DIMS`` order.

    ``TileShape.total_bytes`` without building tiles: the same integer
    products, specialised to one layer and precision.
    """
    span_w, stride_w = kernel_and_stride(layer, Dim.W)
    span_h, stride_h = kernel_and_stride(layer, Dim.H)
    span_f, stride_f = kernel_and_stride(layer, Dim.F)
    precision = arch.precision
    weight_bytes = layer.r * layer.s * layer.t * precision.weight_bytes

    def footprint(extents: Sequence[int]) -> int:
        w, h, c, k, f = extents
        inputs = (
            input_extent_kernel(w, span_w, stride_w)
            * input_extent_kernel(h, span_h, stride_h)
            * input_extent_kernel(f, span_f, stride_f)
            * c
        )
        return (
            inputs * precision.activation_bytes
            + k * c * weight_bytes
            + w * h * f * k * precision.psum_bytes
        )

    return footprint


def _footprint_gradient(
    layer: ConvLayer, tile: TileShape, dim: int, arch: AcceleratorConfig
) -> int:
    """Bytes freed by halving dim ``ALL_DIMS[dim]`` — picks what to shrink."""
    extents = list(_extents(tile))
    if extents[dim] == 1:
        return -1
    extents[dim] = math.ceil(extents[dim] / 2)
    halved = TileShape(*extents)
    return tile.total_bytes(layer, arch.precision) - halved.total_bytes(
        layer, arch.precision
    )


def allocate_level(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    level_index: int,
    parent: TileShape,
    inner_order: LoopOrder,
    *,
    keep: int = 6,
    cap: TileShape | None = None,
) -> list[TileShape]:
    """Top-``keep`` sub-tile shapes for one level by ``f_reuse`` score.

    The scalar reference ranking: a stable descending sort, so equal
    scores keep candidate order.
    """
    feasible = candidate_sub_tiles(layer, arch, level_index, parent, cap=cap)
    if not feasible:
        raise ValueError(
            f"no feasible sub-tile at level {level_index} of {arch.name} "
            f"for {layer.name} (parent {parent.describe()})"
        )
    scored = sorted(
        feasible,
        key=lambda tile: f_reuse(layer, parent, tile, inner_order, arch),
        reverse=True,
    )
    return scored[:keep]


def _degree_vector(degrees: Mapping[Dim, int]) -> DegreeVector:
    return tuple(degrees.get(dim, 1) for dim in ALL_DIMS)


def _capped(parent: TileShape, degrees: DegreeVector) -> TileShape:
    """:func:`parallel_caps` over a degree vector."""
    return TileShape(
        *(max(1, -(-extent // degree))
          for extent, degree in zip(_extents(parent), degrees))
    )


def parallel_caps(parent: TileShape, degrees: Mapping[Dim, int]) -> TileShape:
    """Largest child tile leaving one sub-tile per parallel worker.

    With ``degrees[d]`` workers splitting the parent along ``d``, the child
    extent must not exceed ``ceil(parent / degree)`` or some workers idle.
    """
    return _capped(parent, _degree_vector(degrees))


def _level_degree_vectors(
    num_levels: int, level_degrees: Sequence[Mapping[Dim, int]] | None
) -> list[DegreeVector | None]:
    """Per level: the degree vector capping its sub-tiles, or ``None``."""
    if level_degrees is None:
        return [None for _ in range(num_levels)]
    return [_degree_vector(d) if d else None for d in level_degrees]


def _no_allocation(
    layer: ConvLayer, arch: AcceleratorConfig, last_level_tile: TileShape
) -> ValueError:
    return ValueError(
        f"no feasible allocation below {last_level_tile.describe()} "
        f"for {layer.name} on {arch.name}"
    )


@overload
def allocate_hierarchy(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    last_level_tile: TileShape,
    inner_order: LoopOrder,
    *,
    keep_per_level: int = ...,
    level_degrees: Sequence[Mapping[Dim, int]] | None = ...,
    vectorize: bool = ...,
    candidate_memo: CandidateMemo | None = ...,
) -> list[Beam]: ...


@overload
def allocate_hierarchy(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    last_level_tile: TileShape,
    inner_order: Sequence[LoopOrder],
    *,
    keep_per_level: int = ...,
    level_degrees: Sequence[Mapping[Dim, int]] | None = ...,
    candidate_memo: CandidateMemo | None = ...,
) -> list[list[Beam] | None]: ...


def allocate_hierarchy(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    last_level_tile: TileShape,
    inner_order: LoopOrder | Sequence[LoopOrder],
    *,
    keep_per_level: int = 4,
    level_degrees: Sequence[Mapping[Dim, int]] | None = None,
    vectorize: bool = False,
    candidate_memo: CandidateMemo | None = None,
) -> list[Beam] | list[list[Beam] | None]:
    """Candidate full hierarchies below a chosen last-level tile.

    Called level by level from ``N-1`` down to 0 as in the paper; at each
    level the best few allocations are kept and expanded (beam search).
    ``level_degrees[i]`` gives the parallel split applied when tiles of
    level ``i`` are distributed (clusters at the middle level, PEs at the
    innermost), which caps tile extents so every worker gets a sub-tile.

    Given a sequence of inner orders, runs the lockstep columnar allocator
    (one batched ``f_reuse`` pass per level for all orders) and returns one
    beam list per order, ``None`` where the order has no feasible
    allocation.  Given one inner order, returns its beams or raises
    ``ValueError`` when no allocation exists; ``vectorize=False`` then
    runs the scalar reference beam search, ``vectorize=True`` the lockstep
    allocator — identical beams either way.
    """
    if isinstance(inner_order, LoopOrder):
        if not vectorize:
            return _allocate_scalar(
                layer, arch, last_level_tile, inner_order,
                keep_per_level=keep_per_level, level_degrees=level_degrees,
            )
        (beams,) = _allocate_lockstep(
            layer, arch, last_level_tile, (inner_order,),
            keep_per_level=keep_per_level, level_degrees=level_degrees,
            candidate_memo=candidate_memo,
        )
        if beams is None:
            raise _no_allocation(layer, arch, last_level_tile)
        return beams
    return _allocate_lockstep(
        layer, arch, last_level_tile, tuple(inner_order),
        keep_per_level=keep_per_level, level_degrees=level_degrees,
        candidate_memo=candidate_memo,
    )


def _allocate_scalar(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    last_level_tile: TileShape,
    inner_order: LoopOrder,
    *,
    keep_per_level: int,
    level_degrees: Sequence[Mapping[Dim, int]] | None,
) -> list[Beam]:
    """Scalar reference beam search for one inner order."""
    degree_vectors = _level_degree_vectors(arch.num_levels, level_degrees)
    beams: list[Beam] = [(last_level_tile,)]
    for level_index in range(1, arch.num_levels):
        degrees = degree_vectors[level_index]
        new_beams: list[Beam] = []
        for beam in beams:
            parent = beam[-1]
            cap = _capped(parent, degrees) if degrees else None
            try:
                tiles = allocate_level(
                    layer, arch, level_index, parent, inner_order,
                    keep=keep_per_level, cap=cap,
                )
            except ValueError:
                continue
            for tile in tiles:
                new_beams.append(beam + (tile.clipped(parent),))
        if not new_beams:
            raise _no_allocation(layer, arch, last_level_tile)
        # Keep the globally best few beams by last-boundary f_reuse.
        new_beams.sort(
            key=lambda b: f_reuse(layer, b[-2], b[-1], inner_order, arch),
            reverse=True,
        )
        beams = new_beams[: max(keep_per_level, 2)]
    return beams


def _allocate_lockstep(
    layer: ConvLayer,
    arch: AcceleratorConfig,
    last_level_tile: TileShape,
    orders: tuple[LoopOrder, ...],
    *,
    keep_per_level: int,
    level_degrees: Sequence[Mapping[Dim, int]] | None,
    candidate_memo: CandidateMemo | None,
) -> list[list[Beam] | None]:
    """Columnar beam search of every order in ``orders`` at once.

    A *segment* is one (order, beam) pair; its rows are the beam's
    candidate sub-tiles.  Per level, all segments' rows are scored in one
    ``f_reuse`` pass.  Candidates never exceed their parent (the generator
    bounds them by it), so ``tile.clipped(parent) == tile`` and the
    per-candidate scores double as the beam-ranking scores the scalar path
    recomputes.  Ranking reproduces the scalar sorts exactly: a stable
    lexsort on (segment, -score) gives each beam's top-``keep`` in
    candidate order among ties, and a stable lexsort of those on (order,
    -score) gives each order's global beam ranking.
    """
    import numpy as np

    from repro.core.batch import boundary_fill_bytes_sum

    memo: CandidateMemo = {} if candidate_memo is None else candidate_memo
    degree_vectors = _level_degree_vectors(arch.num_levels, level_degrees)
    keep_beams = max(keep_per_level, 2)
    beams: list[list[Beam] | None] = [[(last_level_tile,)] for _ in orders]
    for level_index in range(1, arch.num_levels):
        degrees = degree_vectors[level_index]
        # (order position, beam, its candidates and their columns); orders
        # often share parents (all of them at the first level).
        segments: list[tuple[int, Beam, list[TileShape], np.ndarray]] = []
        by_parent: dict[TileShape, tuple[list[TileShape], np.ndarray]] = {}
        for o, order_beams in enumerate(beams):
            for beam in order_beams or ():
                parent = beam[-1]
                if parent not in by_parent:
                    cap = _capped(parent, degrees) if degrees else None
                    by_parent[parent] = _candidates_columnar(
                        layer, arch, level_index, parent, cap, memo
                    )
                tiles, cols = by_parent[parent]
                if tiles:
                    segments.append((o, beam, tiles, cols))
        new_beams: list[list[Beam]] = [[] for _ in orders]
        if segments:
            parents = [beam[-1] for _, beam, _, _ in segments]
            counts = np.array([len(tiles) for _, _, tiles, _ in segments])
            row_seg = np.repeat(np.arange(len(segments)), counts)
            row_order = np.array([o for o, _, _, _ in segments])[row_seg]
            fill_bytes = boundary_fill_bytes_sum(
                layer,
                arch.precision,
                _tile_columns(parents)[:, row_seg],
                np.concatenate([cols for _, _, _, cols in segments], axis=1),
                orders,
                row_order,
            )
            maccs = np.array([p.maccs(layer) for p in parents], dtype=np.int64)
            neg_scores = -(maccs[row_seg] / np.maximum(fill_bytes, 1))

            # Top-keep per segment, in segment order.
            by_segment = np.lexsort((neg_scores, row_seg))
            seg_start = np.cumsum(counts) - counts
            rank = np.arange(len(row_seg)) - seg_start[row_seg[by_segment]]
            kept = by_segment[rank < keep_per_level]
            # Global stable rank of the kept rows, per order.
            ranked = kept[np.lexsort((neg_scores[kept], row_order[kept]))]
            for j in ranked.tolist():
                o, beam, tiles, _ = segments[row_seg[j]]
                chosen = new_beams[o]
                if len(chosen) < keep_beams:
                    chosen.append(beam + (tiles[j - seg_start[row_seg[j]]],))
        beams = [chosen or None for chosen in new_beams]
    return beams
