from importlib import resources

import numpy as np
import pytest

from holdemlab.cards import parse_cards
from holdemlab.rangegrid import (
    ARCHETYPES,
    CLASS_MEMBER_COUNT,
    CLASS_NAMES,
    ComboGrid,
    SHIPPED_RANGES,
    SITUATIONS,
    RangeConfigError,
    assign_preflop_range,
    combo_index,
    parse_range_lines,
)


class TestComboIndexing:
    def test_1326_combos(self):
        assert ComboGrid.uniform().weights.shape == (1326,)

    def test_class_member_counts(self):
        # 13 pairs x 6, 78 suited x 4, 78 offsuit x 12
        counts = {}
        for name, n in zip(CLASS_NAMES, CLASS_MEMBER_COUNT):
            counts.setdefault(int(n), 0)
            counts[int(n)] += 1
        assert counts == {6: 13, 4: 78, 12: 78}

    def test_pair_class_has_six_members(self):
        assert CLASS_MEMBER_COUNT[CLASS_NAMES.index("99")] == 6
        assert CLASS_MEMBER_COUNT[CLASS_NAMES.index("QJs")] == 4
        assert CLASS_MEMBER_COUNT[CLASS_NAMES.index("QJo")] == 12


def class_weight(grid, name):
    """A class's cell in the grid's 13x13 class view."""
    return float(grid.class_view().flat[CLASS_NAMES.index(name)])


def total_is_one(grid):
    return abs(grid.total() - 1.0) <= 1e-9


class TestClassView:
    def test_offsuit_class_three_times_suited_on_uniform(self):
        g = ComboGrid.uniform()
        assert class_weight(g, "QJo") == pytest.approx(3 * class_weight(g, "QJs"))

    def test_view_mass_equals_grid_mass(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = ComboGrid(rng.random(1326)).normalized()
            assert g.class_view().sum() == pytest.approx(g.total(), abs=1e-9)

    def test_empty_grid_gives_zero_view(self):
        assert ComboGrid(np.zeros(1326)).class_view().sum() == 0.0


class TestStrip:
    def test_case_study_strip_kills_pocket_nines(self):
        g = ComboGrid.uniform().strip(parse_cards("9d5s2c9h9s"))
        assert class_weight(g, "99") == 0.0  # only 9c remains unseen

    def test_live_count_after_stripping_five(self):
        g = ComboGrid.uniform().strip(parse_cards("9d5s2c9h9s"))
        assert g.support_count() == 1081  # C(47,2)

    def test_idempotent(self):
        dead = parse_cards("9d5s2cAh")
        g = ComboGrid.uniform().strip(dead)
        g2 = g.strip(dead)
        assert np.allclose(g.weights, g2.weights, atol=1e-15)

    def test_preserves_relative_weights(self):
        rng = np.random.default_rng(8)
        w = rng.random(1326)
        g = ComboGrid(w).normalized()
        dead = parse_cards("AhKh")
        s = g.strip(dead)
        live = s.weights > 0
        ratio = g.weights[live] / s.weights[live]
        assert np.allclose(ratio, ratio[0])

    def test_degenerate_falls_back_uniform_over_live(self):
        w = np.zeros(1326)
        w[combo_index(*parse_cards("AhAs"))] = 1.0
        g = ComboGrid(w)
        s = g.strip(parse_cards("Ah"))
        assert s.degenerate
        assert s.support_count() == 1275  # C(51,2): combos avoiding the dead card
        assert s.total() == pytest.approx(1.0)


    def test_board_mask_strip_equals_card_strip(self):
        from holdemlab.rsm import BoardContext

        rng = np.random.default_rng(12)
        g = ComboGrid(rng.random(1326)).normalized()
        for text in ("9d5s2c", "9d5s2cAh", "9d5s2cAhKh"):
            board = parse_cards(text)
            a, b = g.strip(board), g.strip_mask(BoardContext(board).dead_mask)
            assert a.weights.tobytes() == b.weights.tobytes() and a.degenerate == b.degenerate


class TestValidation:
    def test_wrong_shape_rejected(self):
        with pytest.raises(RangeConfigError, match="1326 weights"):
            ComboGrid(np.ones(1325))

    def test_negative_weight_rejected(self):
        w = np.full(1326, 1.0)
        w[7] = -0.5
        with pytest.raises(RangeConfigError, match="negative"):
            ComboGrid(w)

    def test_negative_reweighting_factor_rejected(self):
        factors = np.ones(1326)
        factors[3] = -2.0
        with pytest.raises(RangeConfigError, match="negative"):
            ComboGrid.uniform().reweighted(factors)
        with pytest.raises(RangeConfigError, match="negative"):
            ComboGrid.uniform().reweighted(-factors)  # even when the total goes negative

    def test_built_grids_are_float_vectors(self):
        dead = parse_cards("9d5s2c")
        g = ComboGrid.uniform()
        empty = ComboGrid(np.zeros(1326))
        for built in (g.normalized(), g.strip(dead), g.reweighted(np.arange(1326) % 3), empty.normalized()):
            assert built.weights.shape == (1326,) and built.weights.dtype == np.float64
            assert (built.weights >= 0).all()


class TestRangeFiles:
    def test_parse_classes_and_combos(self):
        g = parse_range_lines(["AA 1.0", "AKs 0.5", "7h6h 0.25", "# comment", ""])
        assert g.weights[combo_index(*parse_cards("AhAs"))] > 0
        assert g.weights[combo_index(*parse_cards("7h6h"))] > 0
        assert total_is_one(g)

    def test_bad_line_reports_number(self):
        with pytest.raises(RangeConfigError, match=":2:"):
            parse_range_lines(["AA 1.0", "banana"])

    def test_negative_weight_rejected(self):
        with pytest.raises(RangeConfigError):
            parse_range_lines(["AA -1"])


class TestPreflopAssignment:
    def test_whale_defend_is_very_wide(self):
        g = assign_preflop_range("Whale", "call")
        assert g.support_fraction() >= 0.60
        assert total_is_one(g)

    def test_rock_is_tight_everywhere(self):
        for action in ("open", "call", "threebet"):
            g = assign_preflop_range("Rock", action)
            assert g.support_fraction() <= 0.10, action

    def test_grids_are_normalized_with_no_dead_cards(self):
        for arch in ("Whale", "MediumReg", "LAG", "Unknown"):
            g = assign_preflop_range(arch, "open")
            assert total_is_one(g)
            assert not g.degenerate

    def test_unknown_archetype_rejected(self):
        with pytest.raises(RangeConfigError):
            assign_preflop_range("Martian", "call")

    def test_unknown_action_rejected(self):
        with pytest.raises(RangeConfigError, match="pre-flop action"):
            assign_preflop_range("Rock", "squeeze")

    def test_vocabulary_is_exactly_four_words(self):
        for situation in SITUATIONS + ("check",):
            assert total_is_one(assign_preflop_range("MediumReg", situation))
        for word in ("raise", "limp", "defend", "3bet", "reraise", "Open"):
            with pytest.raises(RangeConfigError, match=f"^unknown pre-flop action '{word}'$"):
                assign_preflop_range("MediumReg", word)
        with pytest.raises(RangeConfigError, match="pre-flop action"):  # the word is checked first
            assign_preflop_range("Martian", "squeeze")

    def test_every_shipped_file_is_in_the_table(self):
        root = resources.files("holdemlab").joinpath("data/ranges")
        files = sorted((d.name, f.name) for d in root.iterdir() for f in d.iterdir())
        assert files == sorted((a.lower(), f"{s}.rng") for a, s in SHIPPED_RANGES)
        assert len(SHIPPED_RANGES) == len(ARCHETYPES) * len(SITUATIONS) == 27

    def test_class_multipliers_rescale(self):
        base = assign_preflop_range("Rock", "open")
        boosted = assign_preflop_range(
            "Rock", "open", class_multipliers={CLASS_NAMES.index("AA"): 3.0}
        )
        assert class_weight(boosted, "AA") > class_weight(base, "AA")

    def test_bb_check_maps_to_uniform(self):
        g = assign_preflop_range("MediumReg", "check")
        assert g.support_fraction() == 1.0


class TestPropertySuite:
    """Randomized grid invariants (normalization, narrowing, monotone strip)."""

    def test_thousand_randomized_instances(self):
        rng = np.random.default_rng(404)
        for i in range(1000):
            w = rng.random(1326) * (rng.random(1326) < 0.7)
            if w.sum() <= 0:
                continue
            g = ComboGrid(w).normalized()
            assert abs(g.total() - 1.0) <= 1e-9
            dead = rng.choice(52, size=rng.integers(1, 6), replace=False).tolist()
            s = g.strip(dead)
            assert abs(s.total() - 1.0) <= 1e-9
            if not s.degenerate:
                assert s.support_count() <= g.support_count()
            s2 = s.strip(dead)
            assert np.allclose(s.weights, s2.weights, atol=1e-12)
