"""Unit tests for horizontal languages."""

import random

import pytest

from repro.regex.dfa import compile_regex
from repro.tautomata.horizontal import (
    AllHorizontal,
    DFAHorizontal,
    EmptyWordHorizontal,
    FlagOnceHorizontal,
    ProductHorizontal,
    ProjectedHorizontal,
    ShuffleHorizontal,
)


class TestEmptyWord:
    def test_accepts_only_empty(self):
        language = EmptyWordHorizontal()
        assert language.accepts([])
        assert not language.accepts(["x"])

    def test_size(self):
        assert EmptyWordHorizontal().size() == 1


class TestAll:
    def test_filler_membership(self):
        language = AllHorizontal({"f", "g"})
        assert language.accepts([])
        assert language.accepts(["f", "g", "f"])
        assert not language.accepts(["f", "x"])


class TestShuffle:
    def test_requirements_in_order(self):
        language = ShuffleHorizontal({"f"}, [{"a"}, {"b"}])
        assert language.accepts(["a", "b"])
        assert language.accepts(["f", "a", "f", "b", "f"])
        assert not language.accepts(["b", "a"])
        assert not language.accepts(["a"])
        assert not language.accepts([])

    def test_requirement_symbols_cannot_be_skipped_as_filler(self):
        language = ShuffleHorizontal({"f"}, [{"a"}])
        assert not language.accepts(["a", "a"])  # second 'a' is not filler

    def test_overlapping_filler_and_requirement(self):
        # 'a' is both filler and requirement: subset simulation required
        language = ShuffleHorizontal({"a"}, [{"a"}, {"b"}])
        assert language.accepts(["a", "b"])
        assert language.accepts(["a", "a", "b"])
        assert not language.accepts(["a"])

    def test_no_requirements_equals_all(self):
        language = ShuffleHorizontal({"f"}, [])
        assert language.accepts([])
        assert language.accepts(["f", "f"])
        assert not language.accepts(["x"])

    def test_size(self):
        assert ShuffleHorizontal({"f"}, [{"a"}, {"b"}]).size() == 3


class TestDFAHorizontal:
    def test_wraps_word_dfa(self):
        language = DFAHorizontal(compile_regex("a.(b|c)*"))
        assert language.accepts(["a"])
        assert language.accepts(["a", "c", "b"])
        assert not language.accepts(["b"])

    def test_dead_states_step_to_none(self):
        language = DFAHorizontal(compile_regex("a"))
        state = language.step(language.initial(), "not-a")
        assert state is None


class TestCombinators:
    def test_projection(self):
        inner = AllHorizontal({"x"})
        language = ProjectedHorizontal(inner, 0)
        assert language.accepts([("x", 1), ("x", 2)])
        assert not language.accepts([("y", 1)])

    def test_product_conjunction(self):
        first = ShuffleHorizontal({"f", "a"}, [{"a"}])
        second = AllHorizontal({"f", "a"})
        language = ProductHorizontal([first, second])
        assert language.accepts(["f", "a"])
        assert not language.accepts(["f"])  # first rejects
        assert not language.accepts(["a", "x"])  # second rejects

    def test_product_size_multiplies(self):
        product = ProductHorizontal(
            [ShuffleHorizontal({"f"}, [{"a"}]), AllHorizontal({"f"})]
        )
        assert product.size() == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_nested_projected_product_accepts_as_its_flat_form(self, seed):
        """A product over a projected product is flattened into one loop
        over its leaves; it accepts a word exactly when every original
        part, run on its own, accepts it."""
        rng = random.Random(seed)
        row = ProductHorizontal(
            [
                ProjectedHorizontal(DFAHorizontal(compile_regex("a.(b|c)*")), 0),
                ProjectedHorizontal(ShuffleHorizontal({"f"}, [{"r"}]), 1),
            ]
        )
        parts = [
            ProjectedHorizontal(row, 0),
            ProjectedHorizontal(AllHorizontal({"x", "y"}), 1),
            ProjectedHorizontal(FlagOnceHorizontal(1), 2),
        ]
        flat = ProductHorizontal(parts)
        assert flat.paths == [(0, 0), (0, 1), (1,), (2,)]
        for _ in range(200):
            word = [
                (
                    (rng.choice("abc"), rng.choice("fr")),
                    rng.choice("xyz"),
                    rng.choice((0, 0, 1)),
                )
                for _ in range(rng.randint(0, 4))
            ]
            nested = all(part.accepts(word) for part in parts)
            assert flat.accepts(word) is nested, word

    def test_flag_counting(self):
        zero = ProjectedHorizontal(FlagOnceHorizontal(0), 1)
        one = ProjectedHorizontal(FlagOnceHorizontal(1), 1)
        unflagged = [("x", False), ("y", False)]
        one_flag = [("x", True), ("y", False)]
        two_flags = [("x", True), ("y", True)]
        assert zero.accepts(unflagged)
        assert not zero.accepts(one_flag)
        assert one.accepts(one_flag)
        assert not one.accepts(unflagged)
        assert not one.accepts(two_flags)
