"""Tests for the experiment harness: structure and paper-shape assertions.

Full-scale runs live in ``benchmarks/``; here each experiment is exercised
on a reduced scope, asserting the qualitative shapes the paper reports.
"""

import pytest

from repro.experiments.common import SeriesResult, default_options, format_table
from repro.experiments.fig1_footprint import FIG1_BUILDS, run_figure1
from repro.experiments.fig4_loop_orders import run_figure4
from repro.experiments.fig5_hierarchy import LAYER_2D, LAYER_3D, run_figure5
from repro.experiments.fig9_energy import run_figure9
from repro.experiments.fig10_perf_watt import run_figure10
from repro.experiments.table3_configs import run_table3
from repro.experiments.table4_area import PAPER_TABLE4, run_table4


class TestCommon:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2.5), ("xyz", 0.001)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "xyz" in lines[3]

    def test_series_result(self):
        series = SeriesResult("s", ("a", "b"), (1.0, 2.0))
        assert series.value_for("b") == 2.0
        with pytest.raises(KeyError):
            series.value_for("c")

    def test_default_options_fast_flag(self):
        assert default_options(True).max_l2_candidates < (
            default_options(False).max_l2_candidates
        )


class TestFigure1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure1()

    def test_covers_six_networks(self, result):
        assert {fp.network for fp in result.footprints} == set(FIG1_BUILDS)

    def test_observation1_footprints_exceed_onchip(self, result):
        """3D working sets far exceed a 1 MB buffer at 224^2 x 16f."""
        for network in ("C3D", "ResNet3D-50", "I3D"):
            assert result.max_footprint(network) > 1024 * 1024

    def test_observation2_footprints_vary(self, result):
        layers = result.network_layers("C3D")
        totals = [fp.input_bytes + fp.weight_bytes for fp in layers]
        assert max(totals) / min(totals) > 3

    def test_observation3_reuse_gap(self, result):
        """Figure 1b: 3D nets average several times the 2D reuse."""
        assert result.reuse_ratio_3d_over_2d() > 2.0

    def test_input_dominates_early_weights_late(self, result):
        layers = result.network_layers("C3D")
        assert layers[0].input_bytes > layers[0].weight_bytes
        assert layers[-1].weight_bytes > layers[-1].input_bytes


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure4(fast=True, layers=("layer1", "layer3b", "layer5b"))

    def test_rows_per_layer(self, result):
        assert result.layer_names == ("layer1", "layer3b", "layer5b")
        for series in result.dram_energy.values():
            assert len(series) == 3

    def test_opt_never_worse_dram(self, result):
        assert result.opt_never_worse("dram")

    def test_opt_never_worse_onchip(self, result):
        assert result.opt_never_worse("onchip")

    def test_extreme_orders_diverge_somewhere(self, result):
        """[KWHCF] and [WFHCK] are extremes; they cannot tie everywhere."""
        a = result.dram_energy["KWHCF"]
        b = result.dram_energy["WFHCK"]
        assert any(abs(x - y) / max(x, y, 1) > 0.01 for x, y in zip(a, b))

    def test_l2_allocation_fractions_valid(self, result):
        for fractions in result.l2_allocation:
            assert all(0 <= f <= 1.0 for f in fractions)
            assert sum(fractions) <= 1.0 + 1e-9

    def test_allocation_shifts_towards_weights(self, result):
        """Figure 4b: inputs dominate the L2 early, weights late."""
        first, last = result.l2_allocation[0], result.l2_allocation[-1]
        assert first[0] > first[2]  # layer1: inputs > weights
        assert last[2] > last[0]  # layer5b: weights > inputs


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure5(max_levels=4)

    def test_paper_shapes(self, result):
        """Hierarchy helps both nets, helps 3D more, and saturates: the
        best depth is 2-3 levels and a fourth level only adds traffic.
        (Our model's compulsory-DRAM floor caps the advantage earlier than
        the paper's 7.8x — see ROADMAP item 4.)"""
        assert result.best_depth(is_3d=True) in (2, 3)
        assert result.best_depth(is_3d=False) in (2, 3)
        adv3 = result.advantage(True)
        adv2 = result.advantage(False)
        assert max(adv3) > max(adv2)  # hierarchy pays off more for 3D
        assert adv3[3] <= adv3[2] * 1.01  # no gain from a fourth level
        assert adv3[2] >= 0.9 * max(adv3)  # three levels near-optimal

    def test_multi_level_always_helps(self, result):
        assert all(a >= 0.99 for a in result.advantage(True))

    def test_caption_layers(self):
        assert LAYER_3D.f == 16 and LAYER_3D.t == 3
        assert LAYER_2D.f == 1 and LAYER_2D.t == 1


class TestFigure9Reduced:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure9(fast=True, networks=("c3d", "alexnet"))

    def test_3d_ranking(self, result):
        """Morph < Morph_base < Eyeriss on C3D."""
        c3d = result.by_name("C3D")
        assert c3d.total("Morph") < c3d.total("Morph_base") < c3d.total("Eyeriss")

    def test_2d_crossover(self, result):
        """Section VI-D: Eyeriss beats Morph_base on AlexNet; Morph still
        beats Eyeriss."""
        alex = result.by_name("AlexNet")
        assert alex.total("Eyeriss") < alex.total("Morph_base")
        assert alex.total("Morph") < alex.total("Eyeriss")

    def test_normalisation(self, result):
        for entry in result.networks:
            assert entry.normalised_total("Eyeriss") == pytest.approx(1.0)

    def test_components_positive(self, result):
        for entry in result.networks:
            for accel, comps in entry.components.items():
                assert comps["DRAM"] > 0
                assert comps["Compute"] > 0


class TestFigure10Reduced:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure10(fast=True, networks=("c3d", "alexnet"))

    def test_morph_improves_perf_per_watt(self, result):
        for entry in result.entries:
            assert entry.improvement > 1.0

    def test_utilisation_gain_on_3d(self, result):
        """The improvement's stated cause: better PE utilisation.  On 2D
        nets the fixed Hp=16/Kp=6 happens to fit large spatial maps, so
        Morph's win there comes from energy instead."""
        for entry in result.entries:
            if entry.is_3d:
                assert entry.morph_utilization > entry.base_utilization

    def test_average(self, result):
        assert result.average_improvement > 1.0


class TestTable3Reduced:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table3(fast=True, layers=("layer1", "layer5b"))

    def test_row_fields(self, result):
        row = result.row("layer1")
        assert row.kt >= 1
        assert row.kp_vw % 8 == 0  # multiples of the vector width

    def test_layer1_ht_in_input_space(self, result):
        """Paper Table III: layer1 Ht counts input rows incl. padding, so
        it can reach 114 (= 112 + 2)."""
        assert result.row("layer1").ht <= 114

    def test_ft_bounded_by_frames(self, result):
        assert result.row("layer1").ft <= 18  # 16 frames + 2 padding
        assert result.row("layer5b").ft <= 4  # 2 frames + 2 padding

    def test_missing_layer_raises(self, result):
        with pytest.raises(KeyError):
            result.row("layer9")


class TestTable4:
    def test_every_component_close_to_paper(self):
        result = run_table4()
        for name, (p_base, p_flex, _) in PAPER_TABLE4.items():
            base, flex, _ = result.component(name)
            assert base == pytest.approx(p_base, rel=0.15), name
            assert flex == pytest.approx(p_flex, rel=0.15), name

    def test_headline_five_percent(self):
        result = run_table4()
        assert result.overheads["total"] == pytest.approx(0.0498, abs=0.015)
