"""Unit and property tests for dimensions and hierarchies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schema.dimension import Dimension


@pytest.fixture()
def dim():
    # A: 3 top members, 2 children each (6 mid), 2 children each (12 leaf).
    return Dimension.build_uniform("A", ("A", "A'", "A''"), n_top=3, fanouts=(2, 2))


class TestBuildUniform:
    def test_level_counts(self, dim):
        assert dim.n_levels == 3
        assert dim.all_level == 3
        assert dim.n_members(2) == 3
        assert dim.n_members(1) == 6
        assert dim.n_members(0) == 12
        assert dim.n_members(dim.all_level) == 1

    def test_paper_naming_convention(self, dim):
        assert dim.member_name(2, 0) == "A1"
        assert dim.member_name(1, 0) == "AA1"
        assert dim.member_name(0, 11) == "AAA12"
        assert dim.member_name(dim.all_level, 0) == "All A"

    def test_level_names(self, dim):
        assert dim.level_name(0) == "A"
        assert dim.level_name(1) == "A'"
        assert dim.level_name(2) == "A''"
        assert dim.level_name(3) == "A.ALL"
        assert dim.level_depth("A'") == 1
        with pytest.raises(KeyError):
            dim.level_depth("nope")

    def test_bad_fanout_counts(self):
        with pytest.raises(ValueError):
            Dimension.build_uniform("A", ("A", "A'"), n_top=3, fanouts=(2, 2))
        with pytest.raises(ValueError):
            Dimension.build_uniform("A", ("A", "A'"), n_top=0, fanouts=(2,))

    def test_custom_prefixes(self):
        dim = Dimension.build_uniform(
            "T", ("Day", "Month"), n_top=2, fanouts=(3,),
            member_prefixes=("d", "m"),
        )
        assert dim.member_name(1, 0) == "m1"
        assert dim.member_name(0, 5) == "d6"


class TestNavigation:
    def test_parent(self, dim):
        assert dim.parent(0, 0) == 0
        assert dim.parent(0, 3) == 1
        assert dim.parent(1, 5) == 2
        # Parent of a top member is the single ALL member.
        assert dim.parent(2, 1) == 0

    def test_children(self, dim):
        assert dim.children(2, 0) == [0, 1]  # A1 -> AA1, AA2
        assert dim.children(1, 2) == [4, 5]  # AA3 -> AAA5, AAA6
        assert dim.children(dim.all_level, 0) == [0, 1, 2]
        with pytest.raises(ValueError):
            dim.children(0, 0)

    def test_descendants(self, dim):
        assert dim.descendants(2, 0, 0) == [0, 1, 2, 3]
        assert dim.descendants(2, 1, 1) == [2, 3]
        assert dim.descendants(1, 1, 1) == [1]
        with pytest.raises(ValueError):
            dim.descendants(1, 0, 2)

    def test_rollup(self, dim):
        assert dim.rollup(0, 2, 0) == 0
        assert dim.rollup(0, 2, 11) == 2
        assert dim.rollup(0, dim.all_level, 7) == 0
        assert dim.rollup(1, 1, 4) == 4  # identity

    def test_rollup_map_is_readonly_and_cached(self, dim):
        m1 = dim.rollup_map(0, 2)
        m2 = dim.rollup_map(0, 2)
        assert m1 is m2
        with pytest.raises(ValueError):
            m1[0] = 5

    def test_rollup_downwards_rejected(self, dim):
        with pytest.raises(ValueError):
            dim.rollup_map(2, 0)

    def test_find_member(self, dim):
        assert dim.find_member("A2") == (2, 1)
        assert dim.find_member("AA3") == (1, 2)
        assert dim.find_member("AAA7") == (0, 6)
        assert dim.has_member("A1") and not dim.has_member("Z9")
        with pytest.raises(KeyError):
            dim.find_member("Z9")

    def test_member_id_level_checked(self, dim):
        assert dim.member_id(2, "A1") == 0
        with pytest.raises(KeyError):
            dim.member_id(1, "A1")  # A1 is at the top level, not mid


class TestValidation:
    def test_duplicate_member_names_rejected(self):
        with pytest.raises(ValueError):
            Dimension(
                "B",
                ("B", "B'"),
                parents=[np.array([0, 0])],
                member_names=[["x", "x"], ["top"]],
            )

    def test_parent_shape_checked(self):
        with pytest.raises(ValueError):
            Dimension(
                "B",
                ("B", "B'"),
                parents=[np.array([0])],
                member_names=[["x", "y"], ["top"]],
            )

    def test_parent_range_checked(self):
        with pytest.raises(ValueError):
            Dimension(
                "B",
                ("B", "B'"),
                parents=[np.array([0, 5])],
                member_names=[["x", "y"], ["top"]],
            )

    def test_depth_range_checked(self, dim):
        with pytest.raises(IndexError):
            dim.n_members(7)
        with pytest.raises(IndexError):
            dim.n_members(dim.all_level + 1)
        with pytest.raises(IndexError):
            dim.n_members(-1)
        with pytest.raises(IndexError):
            dim.member_name(-1, 0)


class TestRollupComposition:
    @given(
        n_top=st.integers(1, 4),
        fanouts=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        member=st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_rollup_composes(self, n_top, fanouts, member):
        """rollup(0→1) then rollup(1→2) equals rollup(0→2) — hierarchy
        consistency, the invariant every aggregation correctness proof
        rests on."""
        dim = Dimension.build_uniform(
            "Z", ("Z", "Z'", "Z''"), n_top=n_top, fanouts=fanouts
        )
        member = member % dim.n_members(0)
        via_mid = dim.rollup(1, 2, dim.rollup(0, 1, member))
        assert via_mid == dim.rollup(0, 2, member)

    @given(n_top=st.integers(1, 3), fanout=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_children_partition_level(self, n_top, fanout):
        """Every member has exactly one parent: children sets partition the
        finer level."""
        dim = Dimension.build_uniform(
            "Z", ("Z", "Z'"), n_top=n_top, fanouts=(fanout,)
        )
        seen = []
        for parent in range(dim.n_members(1)):
            seen.extend(dim.children(1, parent))
        assert sorted(seen) == list(range(dim.n_members(0)))
