"""Lockstep hierarchy allocation against the scalar reference.

``allocate_hierarchy`` given a sequence of inner orders allocates them all
in lockstep, one columnar ``f_reuse`` pass per level.  Each order's result
must equal the single-order scalar beam search
(``allocate_hierarchy(..., vectorize=False)``) exactly: same beams, same
order, and ``None`` exactly where the scalar search raises ``ValueError``.
The candidate order that fixes tie-breaks must not depend on the
interpreter's hash seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.accelerator import eyeriss_like, morph
from repro.core.layer import ConvLayer
from repro.core.loopnest import LoopOrder, all_loop_orders
from repro.core.performance_model import parallel_level_degrees
from repro.core.tiling import TileShape
from repro.optimizer.allocation import allocate_hierarchy
from repro.optimizer.space import (
    last_level_tile_candidates,
    parallelism_candidates,
)

ARCHES = {"morph": morph(), "eyeriss": eyeriss_like()}
ORDERS = list(all_loop_orders())
SRC = Path(__file__).resolve().parents[1] / "src"


@st.composite
def layers(draw) -> ConvLayer:
    """Random 3D conv layers, strided and dilated."""
    r, s, t = (draw(st.integers(1, 3)) for _ in range(3))
    dil_h, dil_w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dil_f = draw(st.integers(1, 2))
    return ConvLayer(
        "prop",
        h=draw(st.integers((r - 1) * dil_h + 1, 28)),
        w=draw(st.integers((s - 1) * dil_w + 1, 28)),
        c=draw(st.integers(1, 96)),
        f=draw(st.integers((t - 1) * dil_f + 1, 12)),
        k=draw(st.integers(1, 128)),
        r=r,
        s=s,
        t=t,
        stride_h=draw(st.integers(1, 2)),
        stride_w=draw(st.integers(1, 2)),
        stride_f=draw(st.integers(1, 2)),
        pad_h=draw(st.integers(0, 1)),
        pad_w=draw(st.integers(0, 1)),
        pad_f=draw(st.integers(0, 1)),
        dilation_h=dil_h,
        dilation_w=dil_w,
        dilation_f=dil_f,
    )


@st.composite
def allocation_cases(draw):
    """(layer, arch, L2 tile, orders, level degrees, keep per level)."""
    layer = draw(layers())
    arch = ARCHES[draw(st.sampled_from(sorted(ARCHES)))]
    l2_tiles = last_level_tile_candidates(layer, arch, max_candidates=6)
    l2_tile = draw(st.sampled_from(l2_tiles))
    orders = draw(st.lists(st.sampled_from(ORDERS), min_size=1, max_size=4))
    degrees = None
    if draw(st.booleans()):
        parallelism = draw(st.sampled_from(parallelism_candidates(arch, layer)))
        degrees = parallel_level_degrees(
            arch.num_levels, arch.clusters, arch.pes_per_cluster, parallelism
        )
    keep = draw(st.integers(1, 4))
    return layer, arch, l2_tile, orders, degrees, keep


def _scalar_or_none(layer, arch, l2_tile, order, degrees, keep):
    try:
        return allocate_hierarchy(
            layer, arch, l2_tile, order,
            keep_per_level=keep, level_degrees=degrees, vectorize=False,
        )
    except ValueError:
        return None


class TestLockstepMatchesScalar:
    @given(case=allocation_cases())
    @settings(max_examples=40)
    def test_every_order_equals_the_scalar_beams(self, case):
        layer, arch, l2_tile, orders, degrees, keep = case
        lockstep = allocate_hierarchy(
            layer, arch, l2_tile, orders,
            keep_per_level=keep, level_degrees=degrees, candidate_memo={},
        )
        assert len(lockstep) == len(orders)
        for order, beams in zip(orders, lockstep):
            assert beams == _scalar_or_none(
                layer, arch, l2_tile, order, degrees, keep
            )

    @given(case=allocation_cases())
    @settings(max_examples=15)
    def test_single_order_form_keeps_its_contract(self, case):
        layer, arch, l2_tile, orders, degrees, keep = case
        order = orders[0]
        expected = _scalar_or_none(layer, arch, l2_tile, order, degrees, keep)
        if expected is None:
            with pytest.raises(ValueError):
                allocate_hierarchy(
                    layer, arch, l2_tile, order,
                    keep_per_level=keep, level_degrees=degrees, vectorize=True,
                )
        else:
            assert allocate_hierarchy(
                layer, arch, l2_tile, order,
                keep_per_level=keep, level_degrees=degrees, vectorize=True,
            ) == expected

    @pytest.mark.parametrize("arch_name", sorted(ARCHES))
    def test_infeasible_orders_are_none(self, arch_name):
        """A kernel bigger than the innermost buffer cannot be tiled down
        (R/S are never tiled): every order is ``None`` where the scalar
        search raises."""
        arch = ARCHES[arch_name]
        wide = ConvLayer("wide", h=200, w=200, c=1, f=1, k=1, r=150, s=150, t=1)
        l2_tile = TileShape.minimum()
        orders = ORDERS[:3]
        assert allocate_hierarchy(wide, arch, l2_tile, orders) == [None] * 3
        for order in orders:
            with pytest.raises(ValueError):
                allocate_hierarchy(wide, arch, l2_tile, order, vectorize=False)
            with pytest.raises(ValueError):
                allocate_hierarchy(wide, arch, l2_tile, order, vectorize=True)

    def test_empty_order_sequence(self, morph_arch):
        layer = ConvLayer("l", h=8, w=8, c=8, f=4, k=8, r=3, s=3, t=3)
        tile = TileShape.full(layer)
        assert allocate_hierarchy(layer, morph_arch, tile, []) == []

    def test_memo_is_shared_across_blocks(self, morph_arch):
        """A memo filled by one call gives the next call the same beams."""
        layer = ConvLayer("l", h=28, w=28, c=64, f=8, k=64, r=3, s=3, t=3,
                          pad_h=1, pad_w=1, pad_f=1)
        tile = last_level_tile_candidates(layer, morph_arch, max_candidates=1)[0]
        orders = [LoopOrder.parse("CFWHK"), LoopOrder.parse("KCFWH")]
        memo: dict = {}
        first = allocate_hierarchy(
            layer, morph_arch, tile, orders, candidate_memo=memo
        )
        assert memo
        assert allocate_hierarchy(
            layer, morph_arch, tile, orders, candidate_memo=memo
        ) == first


_PROBE = """
import json
from repro.arch.accelerator import morph
from repro.core.tiling import TileShape
from repro.optimizer.allocation import candidate_sub_tiles
from repro.optimizer.search import LayerOptimizer, OptimizerOptions
from repro.workloads import build_network

arch = morph()
layer = build_network("c3d").layers[2]
parent = TileShape.full(layer)
cap = TileShape(w=parent.w, h=parent.h // 2, c=parent.c, k=parent.k // 4, f=parent.f)
order = {
    str(vectorize): [
        [t.w, t.h, t.c, t.k, t.f]
        for t in candidate_sub_tiles(
            layer, arch, 1, parent, cap=cap, vectorize=vectorize
        )
    ]
    for vectorize in (False, True)
}
result = LayerOptimizer(arch, OptimizerOptions.fast()).optimize(layer)
print(json.dumps({
    "candidates": order,
    "winner": repr(result.best.dataflow),
    "score": repr(result.score),
    "evaluated": result.evaluated,
    "pruned": result.pruned,
}))
"""


def _probe(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_candidate_order_and_winner_ignore_the_hash_seed():
    """Candidates are listed in CPython's int-tuple set order, which
    ``PYTHONHASHSEED`` does not randomise: two processes with different
    seeds list them identically and pick the same c3d winner."""
    first, second = _probe("0"), _probe("4242")
    assert first == second
    assert first["candidates"]["False"] == first["candidates"]["True"]
    assert len(first["candidates"]["True"]) > 1
