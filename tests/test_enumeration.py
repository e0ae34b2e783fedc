"""Symmetry reduction, family censuses, and the exhaustive oracle."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latinmagic import (
    FamilyCensus,
    Square,
    ValueAssignment,
    Verdict,
    canonicalize,
    census,
    dihedral_images,
    enumerate_family,
    oracle_search,
    subset_check,
    verify_magic,
)
from latinmagic import enumeration
from latinmagic.enumeration import _fill_order, _frenicle_forms
from helpers import GOLDENS, load_square

LO_SHU_CELLS = ((2, 9, 4), (7, 5, 3), (6, 1, 8))


def squares(max_order: int = 4):
    def build(order, values):
        cells = tuple(
            tuple(values[i * order + j] for j in range(order))
            for i in range(order)
        )
        return Square(cells)

    return st.integers(min_value=1, max_value=max_order).flatmap(
        lambda x: st.builds(
            build,
            st.just(x),
            st.lists(
                st.integers(min_value=-50, max_value=50),
                min_size=x * x,
                max_size=x * x,
            ),
        )
    )


def test_dihedral_images_count_and_identity():
    images = dihedral_images(LO_SHU_CELLS)
    assert len(images) == 8
    assert images[0] == LO_SHU_CELLS
    assert len(set(images)) == 8


def test_dihedral_images_of_constant_square_collapse():
    cells = ((7, 7), (7, 7))
    assert set(dihedral_images(cells)) == {cells}


def _quarter_turn(cells):
    """Clockwise: row i of the turned square is column i read bottom to top."""
    return tuple(zip(*cells[::-1]))


def _mirror(cells):
    return tuple(row[::-1] for row in cells)


@given(squares(max_order=6))
def test_dihedral_images_order(square):
    cells = square.cells
    expected = []
    for _ in range(4):
        expected += [cells, _mirror(cells)]
        cells = _quarter_turn(cells)
    assert dihedral_images(square.cells) == tuple(expected)


@given(squares())
def test_orbit_size_divides_eight(square):
    assert 8 % len(set(dihedral_images(square.cells))) == 0


@given(squares())
def test_canonicalize_is_idempotent(square):
    canon = canonicalize(square)
    assert canonicalize(canon.square) == canon


@given(squares())
def test_canonicalize_is_orbit_invariant(square):
    canon = canonicalize(square)
    for image in dihedral_images(square.cells):
        assert canonicalize(Square(image)) == canon
    assert canon.square.cells == min(dihedral_images(square.cells))


def test_enumerate_first_family():
    squares_found = list(enumerate_family("e3.reflect"))
    assert len(squares_found) == 4
    assert squares_found[0].cells == LO_SHU_CELLS
    for square in squares_found:
        assert verify_magic(square).verdict is Verdict.MAGIC
    assert len({s.cells for s in squares_found}) == 4


def test_enumerate_audits_every_square(monkeypatch):
    def unsound_solver(constraints, x):
        yield ValueAssignment((0, 6, 3), (1, 3, 2))  # the Lo Shu
        yield ValueAssignment((0, 3, 6), (1, 2, 3))  # breaks 2γ = α+β

    monkeypatch.setattr(enumeration, "solve_assignments", unsound_solver)
    found = enumerate_family("e3.reflect")
    assert next(found).cells == LO_SHU_CELLS
    with pytest.raises(AssertionError, match="constraint extraction is unsound"):
        next(found)


def test_enumerate_rejects_fixed_and_broken_families():
    with pytest.raises(ValueError, match="not enumerable"):
        next(enumerate_family("e6.paired"))
    with pytest.raises(ValueError, match="not enumerable"):
        next(enumerate_family("e6.editor"))


def test_enumerate_includes_goldens():
    for golden in GOLDENS:
        if golden.latin_values is None:
            continue
        cells = {s.cells for s in enumerate_family(golden.family)}
        assert golden.square().cells in cells, golden.file


def test_census_of_first_family():
    assert census("e3.reflect") == FamilyCensus("e3.reflect", 4, 4, 1)


def test_census_counts():
    assert census("e4.diag") == FamilyCensus("e4.diag", 576, 576, 144)
    assert census("e4.diag", variant="d") == FamilyCensus("e4.diag", 576, 576, 144)
    assert census("e5.rotated") == FamilyCensus("e5.rotated", 16, 16, 16)
    assert census("e5.center") == FamilyCensus("e5.center", 576, 576, 144)


def test_census_is_deterministic():
    assert census("e4.rotated") == census("e4.rotated")


def test_census_invariants():
    for family_id in ("e3.rotated", "e4.rotated", "e4.block", "e4.interleave"):
        result = census(family_id)
        assert result.family_id == family_id
        assert result.squares_distinct <= result.assignments_total
        assert result.squares_distinct_dihedral <= result.squares_distinct
        assert result.squares_distinct_dihedral * 8 >= result.squares_distinct


def test_oracle_smallest_orders():
    assert oracle_search(1) == {Square(((1,),))}
    assert oracle_search(2) == set()


def test_oracle_order_three(oracle3):
    assert len(oracle3) == 8
    assert oracle3 == {Square(c) for c in dihedral_images(LO_SHU_CELLS)}
    for square in oracle3:
        assert verify_magic(square).verdict is Verdict.MAGIC


def test_oracle_bounds():
    with pytest.raises(ValueError, match="capped"):
        oracle_search(5)
    with pytest.raises(ValueError, match=">= 1"):
        oracle_search(0)


def test_oracle_order_four_has_880_classes():
    assert len({canonicalize(s) for s in oracle_search(4)}) == 880


@pytest.mark.parametrize("x", [1, 2, 3, 4])
def test_fill_order_visits_each_cell_once(x):
    order = _fill_order(x)
    assert sorted(order) == list(range(x * x))
    last = x - 1
    corners = {0, last, last * x, x * x - 1}
    diagonals = {i * x + i for i in range(x)} | {i * x + last - i for i in range(x)}
    assert set(order[:len(corners)]) == corners
    assert set(order[:len(diagonals)]) == diagonals


@pytest.mark.parametrize("x", [1, 2, 3, 4])
def test_frenicle_forms_are_pairwise_inequivalent_normal_forms(x):
    forms = _frenicle_forms(x)
    last = x - 1
    for cells in forms:
        assert verify_magic(Square(cells)).verdict is Verdict.MAGIC
        if x > 1:
            corner = cells[0][0]
            assert corner < min(cells[0][last], cells[last][0], cells[last][last])
            assert cells[0][1] < cells[1][0]
    assert len({canonicalize(Square(cells)) for cells in forms}) == len(forms)
    assert len(forms) == {1: 1, 2: 0, 3: 1, 4: 880}[x]


def test_subset_check_passes_for_order_three_families(oracle3):
    for family_id in ("e3.reflect", "e3.rotated"):
        report = subset_check(family_id, oracle3)
        assert report.ok
        assert report.missing == ()


def test_subset_check_reports_missing_squares():
    report = subset_check("e3.reflect", {load_square("golden_e3_reflect.txt")})
    assert not report.ok
    assert len(report.missing) == 3
    assert all(square.order == 3 for square in report.missing)


def test_subset_check_rejects_order_mismatch(oracle3):
    with pytest.raises(ValueError, match="order"):
        subset_check("e4.diag", oracle3)
