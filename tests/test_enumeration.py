"""Symmetry reduction, family censuses, and the exhaustive oracle."""
import hashlib
import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latinmagic import (
    FAMILIES,
    FamilyCensus,
    Square,
    SuperposedGrid,
    ValueAssignment,
    Verdict,
    canonicalize,
    census,
    diagonal_constraints,
    dihedral_images,
    editor_square,
    enumerate_family,
    evaluate,
    magic_figure,
    oracle_search,
    subset_check,
    verify_magic,
)
from latinmagic import construct, enumeration
from latinmagic.enumeration import (
    _automorphisms,
    _builder_source,
    _canonical_flat,
    _classes,
    _figure_cells,
    _figure_classes,
    _fill_order,
    _forced_cells,
    _frenicle_flats,
    _least_forms,
    _least_image_pairs,
    _oracle_classes,
    _oracle_flats,
    _oracle_plan,
    _oracle_source,
    _symmetry_group,
)
from latinmagic.construct import _solve_values
from latinmagic.verify import _flat, _geometry, _picker, _unflat
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


def _least_image(flat, x):
    """The least of the eight images, turned and mirrored by the helpers above."""
    cells = _unflat(flat, x)
    images = []
    for _ in range(4):
        images += [cells, _mirror(cells)]
        cells = _quarter_turn(cells)
    return min(_flat(image) for image in images)


@given(
    st.integers(1, 6).flatmap(
        lambda x: st.tuples(
            st.just(x),
            st.lists(st.integers(0, 3), min_size=x * x, max_size=x * x).map(tuple),
        )
    )
)
def test_canonical_key_is_the_least_image_when_values_repeat(case):
    x, flat = case
    assert _canonical_flat(flat, x) == _least_image(flat, x)


@pytest.mark.parametrize("corners", [
    (1, 1, 5, 6), (1, 5, 1, 6), (1, 5, 6, 1), (5, 1, 1, 6), (5, 1, 6, 1), (5, 6, 1, 1),
    (1, 1, 1, 6), (1, 1, 6, 1), (1, 6, 1, 1), (6, 1, 1, 1),
    (1, 1, 1, 1),
])
def test_canonical_key_with_tied_corners(corners):
    x = 4
    for rest in (range(20, 32), range(31, 19, -1)):
        flat = list(rest)
        for cell, value in zip((0, 3, 12, 15), corners):
            flat.insert(cell, value)
        flat = tuple(flat)
        assert _canonical_flat(flat, x) == _least_image(flat, x)


def test_canonical_key_of_every_order_four_square():
    for flat in _oracle_flats(4):
        assert _canonical_flat(flat, 4) == _least_image(flat, 4)


def test_enumerate_first_family():
    squares_found = list(enumerate_family("e3.reflect"))
    assert len(squares_found) == 4
    assert squares_found[0].cells == LO_SHU_CELLS
    for square in squares_found:
        assert verify_magic(square).verdict is Verdict.MAGIC
    assert len({s.cells for s in squares_found}) == 4


def unsound_solver(constraints, x):
    yield (0, 6, 3), (1, 3, 2)  # the Lo Shu
    yield (0, 3, 6), (1, 2, 3)  # breaks 2γ = α+β


def test_enumerate_audits_every_square(monkeypatch):
    monkeypatch.setattr(construct, "_solve_values", unsound_solver)
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


def test_census_audits_every_square(monkeypatch):
    monkeypatch.setattr(construct, "_solve_values", unsound_solver)
    with pytest.raises(AssertionError, match="constraint extraction is unsound"):
        census("e3.reflect")


def test_audit_refuses_a_pair_that_is_not_a_permutation(monkeypatch):
    def repeating_solver(constraints, x):
        yield (0, 3, 3), (1, 3, 2)  # latin 3 twice, 6 missing

    monkeypatch.setattr(construct, "_solve_values", repeating_solver)
    message = (
        r"family e3\.reflect produced a non-magic square for latin values "
        r"\(0, 3, 3\) and greek values \(1, 3, 2\); constraint extraction is unsound"
    )
    with pytest.raises(AssertionError, match=message):
        next(enumerate_family("e3.reflect"))
    with pytest.raises(AssertionError, match=message):
        census("e3.reflect")


def test_builder_names_any_family_id_verbatim(monkeypatch):
    # the id is read as a value by the compiled builder, never pasted into its source
    monkeypatch.setattr(construct, "_solve_values", unsound_solver)
    family_id = "e3'{x}\"\\n"
    message = (
        f"family {family_id} produced a non-magic square for latin values "
        "(0, 3, 6) and greek values (1, 2, 3); constraint extraction is unsound"
    )
    with pytest.raises(AssertionError) as raised:
        list(_figure_cells(magic_figure("e3.reflect"), family_id))
    assert str(raised.value) == message


def _enumerable():
    for family in FAMILIES.values():
        for variant in family.figures:
            try:
                magic_figure(family.family_id, variant)
            except ValueError:
                continue
            yield family.family_id, variant


@pytest.mark.parametrize("family_id, variant", list(_enumerable()))
def test_census_matches_enumerated_squares(family_id, variant):
    squares = list(enumerate_family(family_id, variant))
    assert census(family_id, variant) == FamilyCensus(
        family_id,
        len(squares),
        len({square.cells for square in squares}),
        len({canonicalize(square).square.cells for square in squares}),
    )


def test_census_is_deterministic():
    assert census("e4.rotated") == census("e4.rotated")


def test_census_invariants():
    for family_id in ("e3.rotated", "e4.rotated", "e4.block", "e4.interleave"):
        result = census(family_id)
        assert result.family_id == family_id
        assert result.squares_distinct <= result.assignments_total
        assert result.squares_distinct_dihedral <= result.squares_distinct
        assert result.squares_distinct_dihedral * 8 >= result.squares_distinct


def _plain_least(flat, x):
    """The least of the eight images, each built and compared."""
    return min(pick(flat) for pick in _geometry(x).symmetry_pickers)


@pytest.mark.parametrize("x", [3, 4])
def test_class_key_is_the_plain_least_image_of_every_oracle_square(x):
    for flat in _oracle_flats(x):
        assert _canonical_flat(flat, x) == _plain_least(flat, x)


def test_class_key_is_the_plain_least_image_of_every_family_square():
    for family_id, variant in _enumerable():
        figure = magic_figure(family_id, variant)
        for flat in _figure_cells(figure, family_id):
            assert _canonical_flat(flat, figure.order) == _plain_least(flat, figure.order)


def _inward_neighbours(cell, x):
    """A corner's neighbour along its row, then along its column."""
    i, j = divmod(cell, x)
    step_i, step_j = (1 if i == 0 else -1), (1 if j == 0 else -1)
    return cell + step_j, cell + step_i * x


@st.composite
def corner_ties(draw):
    """An order 1-6 grid of repeating values whose least corner value is
    either held by one corner whose two neighbours may tie, or repeated."""
    x = draw(st.integers(1, 6))
    flat = draw(st.lists(st.integers(0, 3), min_size=x * x, max_size=x * x))
    least = draw(st.lists(st.sampled_from(_geometry(x).corners), min_size=1, max_size=4, unique=True))
    for cell in least:
        flat[cell] = -1
    if x > 1 and len(least) == 1 and draw(st.booleans()):
        first, second = _inward_neighbours(least[0], x)
        flat[second] = flat[first]
    return x, tuple(flat)


@given(corner_ties())
def test_class_key_is_the_plain_least_image_with_tied_neighbours_or_corners(case):
    x, flat = case
    assert _canonical_flat(flat, x) == _plain_least(flat, x)


@pytest.mark.parametrize("family_id, variant", list(_enumerable()))
def test_compiled_builder_matches_evaluate(family_id, variant):
    figure = magic_figure(family_id, variant)
    expected = [
        _flat(evaluate(figure, ValueAssignment(latin, greek)).cells)
        for latin, greek in _solve_values(diagonal_constraints(figure), figure.order)
    ]
    assert list(_figure_cells(figure, family_id)) == expected


def test_compiled_builder_of_a_one_cell_figure():
    assert list(_figure_cells(SuperposedGrid((((0, 0),),)), "one cell")) == [(1,)]


def test_compiled_builder_fails_on_its_first_step(monkeypatch):
    x = 7
    figure = SuperposedGrid(tuple(tuple(((i + j) % x, (i + 2 * j) % x) for j in range(x)) for i in range(x)))
    cells = _figure_cells(figure, "order seven")
    with pytest.raises(ValueError, match="capped at order 6, got 7"):
        next(cells)

    def failing_extraction(figure):
        raise RuntimeError("extraction ran")

    monkeypatch.setattr(construct, "diagonal_constraints", failing_extraction)
    cells = _figure_cells(magic_figure("e3.reflect"), "e3.reflect")
    with pytest.raises(RuntimeError, match="extraction ran"):
        next(cells)


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


def test_oracle_order_four_has_880_classes(oracle4):
    assert len({canonicalize(s) for s in oracle4}) == 880


# sha256 of the order-4 oracle's squares as sorted row-major tuples, values
# joined by spaces and squares by newlines, from the search before forcing
ORACLE4_SHA256 = "5d777a70a4079f41dae7f3c7545102198e5a4d4f418fb3d0d12a0a1ae391555d"


def test_oracle_order_four_is_the_known_set(oracle4):
    flat = sorted(tuple(v for row in s.cells for v in row) for s in oracle4)
    assert len(flat) == 7040
    text = "\n".join(" ".join(map(str, cells)) for cells in flat)
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE4_SHA256


def _renamed(pairs, x):
    """Row-major letter pairs as an order-x figure, each alphabet renamed in order of first appearance."""
    latin, greek = {}, {}
    named = [(latin.setdefault(l, len(latin)), greek.setdefault(g, len(greek))) for l, g in pairs]
    return tuple(tuple(named[i * x:(i + 1) * x]) for i in range(x))


def _by_digit_figure(squares, x):
    """Row-major squares grouped by their digit figure: cell v is Latin letter
    (v-1)//x with Greek letter (v-1)%x."""
    groups = {}
    for square in squares:
        flat = _flat(square.cells)
        groups.setdefault(_renamed([divmod(v - 1, x) for v in flat], x), set()).add(flat)
    return groups


@pytest.mark.parametrize("x, figures, found, constraint_counts", [
    (3, 2, 8, {2: 2}),
    (4, 394, 7040, {0: 2, 1: 10, 2: 46, 3: 80, 4: 256}),
], ids=["order 3", "order 4"])
def test_every_magic_square_is_a_figure_plus_letter_values(request, x, figures, found, constraint_counts):
    # Euler's method is complete: the constraints and the solver miss no
    # assignment of any figure, checked against the independent oracle
    groups = _by_digit_figure(request.getfixturevalue(f"oracle{x}"), x)
    assert (len(groups), sum(map(len, groups.values()))) == (figures, found)
    counts = Counter()
    for figure, group in groups.items():
        grid = SuperposedGrid(figure)
        counts[len(diagonal_constraints(grid))] += 1
        made = list(_figure_cells(grid, "digit figure"))
        assert len(made) == len(set(made))
        assert set(made) == group
    assert counts == constraint_counts


PAPER_ORDER_FOUR = (("e4.diag", "c"), ("e4.diag", "d"), ("e4.rotated", "c"), ("e4.block", "c"), ("e4.interleave", "c"))


def test_the_papers_order_four_figures_reach_184_of_880_classes(oracle4):
    groups = _by_digit_figure(oracle4, 4)
    figures = {_renamed(_flat(FAMILIES[f].figures[v].cells), 4) for f, v in PAPER_ORDER_FOUR}
    assert len(figures) == 5 and figures <= groups.keys()
    reached = set().union(*(groups[figure] for figure in figures))
    assert len(reached) == 1344
    assert len({_canonical_flat(flat, 4) for flat in reached}) == 184


def test_the_papers_order_four_figures_reach_184_classes_without_the_oracle():
    # item 3's census over a stream of figures: one class grouping of every
    # square the five figures make
    made = [flat for f, v in PAPER_ORDER_FOUR for flat in _figure_cells(magic_figure(f, v), f)]
    assert (len(made), len(set(made)), len(_classes(made, 4))) == (1344, 1344, 184)


def _is_latin_figure(figure):
    """Whether each alphabet of a figure holds every letter once in every row and column."""
    x = len(figure)
    return all(len({pair[k] for pair in line}) == x for line in (*figure, *zip(*figure)) for k in (0, 1))


def test_the_papers_order_four_figures_reach_152_of_192_digit_latin_classes(oracle4):
    # the squares whose digit grids (v-1)//4 and (v-1)%4 are both Latin
    latin = {figure: group for figure, group in _by_digit_figure(oracle4, 4).items() if _is_latin_figure(figure)}
    assert (len(latin), sum(map(len, latin.values()))) == (8, 1536)
    assert len({_canonical_flat(flat, 4) for group in latin.values() for flat in group}) == 192
    reached = {
        (f, v): {_canonical_flat(flat, 4) for flat in latin.get(_renamed(_flat(FAMILIES[f].figures[v].cells), 4), ())}
        for f, v in PAPER_ORDER_FOUR
    }
    assert [len(classes) for classes in reached.values()] == [144, 144, 8, 0, 0]
    assert reached["e4.diag", "c"] == reached["e4.diag", "d"]
    assert len(set().union(*reached.values())) == 152


def _pandiagonal(flat, x=5):
    """Whether all 2x broken diagonals of an order-x square sum to x(xx+1)/2 (65 at order 5)."""
    total = x * (x * x + 1) // 2
    return all(sum(flat[i * x + (s * i + d) % x] for i in range(x)) == total for d in range(x) for s in (1, -1))


def _associative(flat, x=5):
    """Whether each cell of an order-x square plus the cell opposite it is xx+1 (26 at order 5)."""
    return all(v + w == x * x + 1 for v, w in zip(flat, reversed(flat)))


def test_the_papers_order_five_figures_are_not_pandiagonal_and_seldom_associative():
    # per figure: squares, pandiagonal ones, associative ones, their classes
    found, associative = [], {}
    for f in ("e5.diag", "e5.center", "e5.rotated"):
        made = list(_figure_cells(magic_figure(f, "c"), f))
        classes = associative[f] = _classes(filter(_associative, made), 5)
        found.append((len(made), sum(map(_pandiagonal, made)), sum(map(len, classes.values())), len(classes)))
    assert found == [(14400, 0, 64, 16), (576, 0, 64, 16), (16, 0, 0, 0)]
    assert associative["e5.diag"].keys().isdisjoint(associative["e5.center"])


@pytest.mark.parametrize("x, counts", [
    (3, [(0, 0), (8, 1), (0, 0)]),
    (4, [(384, 48), (384, 48), (0, 0)]),
])
def test_the_oracle_counts_pandiagonal_and_associative_squares(x, counts):
    # an independent reference for a conditioned oracle: per condition
    # (pandiagonal, associative, both), the squares and their classes
    flats = _oracle_flats(x)
    found = []
    for holds in (
        lambda flat: _pandiagonal(flat, x),
        lambda flat: _associative(flat, x),
        lambda flat: _pandiagonal(flat, x) and _associative(flat, x),
    ):
        classes = _classes(filter(holds, flats), x)
        found.append((sum(map(len, classes.values())), len(classes)))
    assert found == counts


def _cyclic_figure(latin_step, greek_step):
    """Row i holds the letters 0..4 shifted right by latin_step*i and greek_step*i."""
    return SuperposedGrid(tuple(
        tuple(((j + latin_step * i) % 5, (j + greek_step * i) % 5) for j in range(5)) for i in range(5)
    ))


def test_the_two_cyclic_order_five_figures_make_28800_pandiagonal_squares():
    # 28,800 is the published count of order-5 pandiagonal squares; that these
    # are all of them needs a pandiagonal oracle (ROADMAP item 9)
    figures = (_cyclic_figure(2, 3), _cyclic_figure(3, 2))
    assert [len(diagonal_constraints(figure)) for figure in figures] == [0, 0]
    first, second = (set(_figure_cells(figure, "cyclic figure")) for figure in figures)
    assert (len(first), len(second)) == (14400, 14400)
    assert first.isdisjoint(second)
    made = first | second
    assert all(map(_pandiagonal, made))
    classes = _classes(made, 5)
    assert len(classes) == 3600
    assert sum(map(_associative, classes)) == 16


def _check_orbits(figure, family_id):
    """Check a figure's orbit count and class listing against the keyed classes;
    return its automorphism and class counts."""
    flats = list(_figure_cells(figure, family_id))
    classes = _classes(flats, figure.order)
    automorphisms = len(_automorphisms(figure))
    assert len(classes) * automorphisms == len(flats)
    assert list(_figure_classes(figure, family_id)) == [members[0] for members in classes.values()]
    return automorphisms, len(classes)


def test_figure_automorphisms_count_and_list_the_keyed_classes():
    found = {(f, v): _check_orbits(magic_figure(f, v), f)[0] for f, v in _enumerable()}
    assert found == {
        ("e3.reflect", "c"): 4, ("e3.rotated", "c"): 4,
        ("e4.diag", "c"): 4, ("e4.diag", "d"): 4, ("e4.rotated", "c"): 8,
        ("e4.block", "c"): 4, ("e4.interleave", "c"): 4,
        ("e5.diag", "c"): 4, ("e5.rotated", "c"): 1, ("e5.center", "c"): 4,
    }


@pytest.mark.parametrize("x, counts", [
    (3, {4: 2}),
    (4, {2: 328, 4: 60, 8: 6}),
], ids=["order 3", "order 4"])
def test_digit_figure_automorphisms_count_and_list_the_keyed_classes(request, x, counts):
    groups = _by_digit_figure(request.getfixturevalue(f"oracle{x}"), x)
    assert Counter(_check_orbits(SuperposedGrid(figure), "digit figure")[0] for figure in groups) == counts


def test_cyclic_order_five_figure_automorphisms_count_the_keyed_classes():
    for figure in (_cyclic_figure(2, 3), _cyclic_figure(3, 2)):
        assert _check_orbits(figure, "cyclic figure") == (4, 3600)


def test_a_one_cell_figure_has_one_automorphism():
    # its eight symmetries are one cell map; counted as eight, the census
    # would divide its one square into 0 classes
    figure = SuperposedGrid((((0, 0),),))
    assert _geometry(1).symmetries == ((0,),) * 8
    assert _automorphisms(figure) == {(0,)}
    assert _check_orbits(figure, "one cell") == (1, 1)


@pytest.mark.parametrize("x, total", [(1, 1), (2, 0), (3, 8), (4, 7040)])
def test_oracle_classes_are_the_keyed_classes(x, total):
    classes = _oracle_classes(x)
    keyed = _classes(_oracle_flats(x), x)
    assert classes == {key: set(members) for key, members in keyed.items()}
    assert sum(map(len, classes.values())) == total


def test_figure_classes_stream_from_the_first_solver_pair(monkeypatch):
    figure = magic_figure("e5.diag", "c")
    first = next(_figure_cells(figure, "e5.diag"))
    drawn = []

    def counting(constraints, x):
        for pair in _solve_values(constraints, x):
            drawn.append(pair)
            yield pair

    monkeypatch.setattr(construct, "_solve_values", counting)
    assert next(_figure_classes(figure, "e5.diag")) == first
    assert len(drawn) == 1


def _image_pairs(figure, latin, greek):
    """The (latin, greek) values of the images of the square made from
    latin and greek under the figure's automorphisms, read back off the
    image's cells: cell value v holds Latin value (v-1)//x*x and Greek
    value (v-1)%x + 1."""
    x = figure.order
    pairs = _flat(figure.cells)
    flat = tuple(latin[l] + greek[g] for l, g in pairs)
    images = set()
    for sym in _automorphisms(figure):
        values = ({}, {})
        for (l, g), v in zip(pairs, _picker(sym)(flat)):
            values[0][l], values[1][g] = (v - 1) // x * x, (v - 1) % x + 1
        images.add(tuple(tuple(named[k] for k in range(x)) for named in values))
    return images


@pytest.mark.parametrize("family_id, unsound", [
    ("e3.reflect", ((6, 3, 0), (3, 2, 1))),
    ("e4.rotated", ((12, 8, 4, 0), (1, 2, 4, 3))),
])
def test_figure_classes_audit_every_square(monkeypatch, family_id, unsound):
    # the unsound pair is no class's first square, so only the audit can stop it
    figure = magic_figure(family_id, "c")
    x = figure.order
    first = next(_solve_values(diagonal_constraints(figure), x))
    flat = tuple(unsound[0][l] + unsound[1][g] for l, g in _flat(figure.cells))
    assert verify_magic(Square(_unflat(flat, x))).verdict is not Verdict.MAGIC
    assert min(_image_pairs(figure, *unsound)) < unsound

    def solver(constraints, x):
        yield first
        yield unsound

    monkeypatch.setattr(construct, "_solve_values", solver)
    message = (
        rf"family {family_id} produced a non-magic square for latin values "
        rf"{re.escape(str(unsound[0]))} and greek values {re.escape(str(unsound[1]))}; "
        r"constraint extraction is unsound"
    )
    with pytest.raises(AssertionError, match=message):
        list(_figure_classes(figure, family_id))


def _seen_set_classes(figure, family_id):
    """The first square of each class by a set of squares already seen:
    each listed square's images under the figure's automorphisms."""
    pickers = [_picker(sym) for sym in _automorphisms(figure)]
    seen = set()
    for flat in _figure_cells(figure, family_id):
        if flat not in seen:
            seen.update(pick(flat) for pick in pickers)
            yield flat


def _check_solver_order(figure, name):
    """The solver's pairs strictly increase, and _figure_classes lists what
    the seen-set rule lists; return the number of pairs."""
    found = list(_solve_values(diagonal_constraints(figure), figure.order))
    assert all(a < b for a, b in zip(found, found[1:]))
    assert list(_figure_classes(figure, name)) == list(_seen_set_classes(figure, name))
    return len(found)


# the skip test's terms per enumerable figure; e5.rotated's only automorphism is the identity
BUILDER_TERMS = {
    ("e3.reflect", "c"): {"a1 < a0", "b1 < b0"},
    ("e3.rotated", "c"): {"a2 < a1", "b2 < b0"},
    ("e4.diag", "c"): {"a1 < a0", "a2 < a0", "a3 < a0"},
    ("e4.diag", "d"): {"a1 < a0", "a2 < a0", "a3 < a0"},
    ("e4.rotated", "c"): {"a3 < a0", "a1 < a0", "a2 < a0", "a2 < a1"},
    ("e4.block", "c"): {"a1 < a0", "a2 < a0", "a3 < a0"},
    ("e4.interleave", "c"): {"a1 < a0", "a2 < a0", "a3 < a0"},
    ("e5.diag", "c"): {"a2 < a0", "a3 < a0", "a4 < a0"},
    ("e5.rotated", "c"): set(),
    ("e5.center", "c"): {"a4 < a0", "b4 < b0"},
}


@pytest.mark.parametrize("family_id, variant", list(_enumerable()))
def test_builder_compares_each_least_letter_pair_once(family_id, variant):
    # all of Aut F is passed, the identity too: it moves no letter, so it adds no term
    figure = magic_figure(family_id, variant)
    source = _builder_source(figure, sorted(_automorphisms(figure)))
    skips = [line.strip() for line in source.splitlines() if line.endswith(": continue")]
    terms = [term for line in skips for term in line[len("if "):-len(": continue")].split(" or ")]
    assert len(terms) == len(set(terms))
    assert set(terms) == BUILDER_TERMS[family_id, variant]


@pytest.mark.parametrize("family_id, variant", list(_enumerable()))
def test_solver_pairs_increase_and_classes_match_the_seen_set_rule(family_id, variant):
    assert _check_solver_order(magic_figure(family_id, variant), family_id) > 0


@pytest.mark.parametrize("x, found", [(3, 8), (4, 7040)], ids=["order 3", "order 4"])
def test_digit_figure_solver_pairs_increase_and_classes_match_the_seen_set_rule(request, x, found):
    groups = _by_digit_figure(request.getfixturevalue(f"oracle{x}"), x)
    assert sum(_check_solver_order(SuperposedGrid(figure), "digit figure") for figure in groups) == found


def test_cyclic_order_five_solver_pairs_increase_and_classes_match_the_seen_set_rule():
    figures = (_cyclic_figure(2, 3), _cyclic_figure(3, 2))
    assert [_check_solver_order(figure, "cyclic figure") for figure in figures] == [14400, 14400]


@pytest.mark.parametrize("x, steps", [
    (1, [0]),
    (2, [0, 1, 2, 3]),
    (3, [2, 3, 4, 5, 6, 7, 8]),
    (4, [3, 5, 7, 9, 10, 11, 13, 14, 15]),
])
def test_forced_steps(x, steps):
    assert [k for k, rule in enumerate(_forced_cells(x)) if rule] == steps


def test_forced_rules_only_read_earlier_cells():
    # order 6 is the first whose elimination meets a negative pivot
    for x in range(1, 9):
        order = _fill_order(x)
        for k, rule in enumerate(_forced_cells(x)):
            if rule:
                den, _, terms = rule
                assert den > 0
                assert all(cell in order[:k] for _, cell in terms)


def _rule_violations(squares):
    """(square, step) pairs where a forced cell's rule fails."""
    rules = {}
    bad = []
    for square in squares:
        x = square.order
        if x not in rules:
            rules[x] = list(zip(_fill_order(x), _forced_cells(x)))
        flat = [v for row in square.cells for v in row]
        for k, (cell, rule) in enumerate(rules[x]):
            if rule:
                den, const, terms = rule
                total = const + sum(coef * flat[c] for coef, c in terms)
                if den * flat[cell] != total:
                    bad.append((square, k))
    return bad


def test_forced_rules_hold_on_every_known_square(oracle3, oracle4):
    assert _rule_violations(oracle3) == []
    assert _rule_violations(oracle4) == []
    for family_id in ("e5.diag", "e5.center"):
        assert _rule_violations(enumerate_family(family_id)) == []
    assert _rule_violations([editor_square()]) == []


def test_forced_rule_fails_on_a_non_magic_square():
    # the fourth corner is forced by the other three: 34 - 1 - 4 - 13 = 16
    cells = list(range(1, 17))
    cells[15], cells[14] = cells[14], cells[15]
    square = Square(tuple(tuple(cells[i * 4:i * 4 + 4]) for i in range(4)))
    assert (square, 3) in _rule_violations([square])


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
    forms = [_unflat(flat, x) for flat in _frenicle_flats(x)]
    last = x - 1
    for cells in forms:
        assert verify_magic(Square(cells)).verdict is Verdict.MAGIC
        if x > 1:
            corner = cells[0][0]
            assert corner < min(cells[0][last], cells[last][0], cells[last][last])
            assert cells[0][1] < cells[1][0]
    assert len({canonicalize(Square(cells)) for cells in forms}) == len(forms)
    assert len(forms) == {1: 1, 2: 0, 3: 1, 4: 880}[x]


@pytest.mark.parametrize("x, size", [(1, 1), (2, None), (3, 8), (4, 8)])
def test_oracle_forms_are_the_class_keys(x, size):
    # the search's normal form is the census's key: each form is the least
    # image of its class, and each class has one form
    classes = _classes(_oracle_flats(x), x)
    assert sorted(classes) == sorted(_frenicle_flats(x))
    assert {len(members) for members in classes.values()} == ({size} if size else set())


@pytest.mark.parametrize("x, forms", [(3, 1), (4, 880)])
def test_oracle_bounds_a_free_cell_by_a_later_comparison(monkeypatch, x, forms):
    # the real fill order places the smaller cell of each Frénicle pair
    # first; with the corners (0,0) and (0,x-1) swapped, (0,0) comes second
    # and its comparison with (0,x-1) bounds its loop from above
    plain = set(_frenicle_flats(x))
    order = _fill_order(x)
    assert order[:2] == (0, x - 1)
    monkeypatch.setattr(enumeration, "_fill_order", lambda n: (order[1], order[0], *order[2:]))
    lines = [line.strip() for line in _oracle_source(x).splitlines()]
    at = next(i for i, line in enumerate(lines) if line.startswith("for g0 "))
    k = re.fullmatch(r"for g0 in range\(lo(\d+), hi\1 \+ 1\):", lines[at])[1]
    step = lines[max(i for i in range(at) if lines[i].startswith(("def ", "for "))) + 1:at]
    assert f"if g{x - 1} - 1 < hi{k}: hi{k} = g{x - 1} - 1" in step
    assert len(plain) == forms
    assert set(_frenicle_flats(x)) == plain


def _plan_kinds(x):
    """The comparison signs, divisors and coefficients that the order-x plan uses."""
    kinds = set()
    for _, beyond, chain in _oracle_plan(x):
        kinds |= {("sign", s) for _, s in beyond}
        for _, den, _, _, coef, link_beyond in chain:
            kinds |= {("den", den), ("coef", coef), *(("sign", s) for _, s in link_beyond)}
    return kinds


# at orders 3 and 4 the real fill order's plans only raise a loop's lower
# bound by a comparison, and divide by 1 a value linear in the free value
# with coefficient 0 or ±1; other fill orders reach the rest
SHUFFLE_KINDS = {("sign", -1), ("den", 2), ("coef", 2), ("coef", -2)}


def test_oracle_finds_the_same_forms_under_shuffled_order_three_fill_orders(monkeypatch):
    assert not SHUFFLE_KINDS & _plan_kinds(3)
    forms = sorted(_frenicle_flats(3))
    cells = _fill_order(3)
    kinds = set()
    for seed in range(100):
        order = tuple(random.Random(seed).sample(cells, len(cells)))
        monkeypatch.setattr(enumeration, "_fill_order", lambda n, order=order: order)
        kinds |= _plan_kinds(3)
        assert sorted(_frenicle_flats(3)) == forms, order
    assert SHUFFLE_KINDS <= kinds


def test_oracle_finds_the_same_forms_under_a_shuffled_order_four_fill_order(monkeypatch):
    assert not SHUFFLE_KINDS & _plan_kinds(4)
    forms = sorted(_frenicle_flats(4))
    order = (3, 0, 8, 1, 2, 14, 7, 10, 11, 5, 9, 4, 13, 15, 6, 12)
    assert sorted(order) == sorted(_fill_order(4))
    monkeypatch.setattr(enumeration, "_fill_order", lambda n: order)
    assert SHUFFLE_KINDS <= _plan_kinds(4)
    assert sorted(_frenicle_flats(4)) == forms


def test_oracle_drops_a_constant_forced_cell_outside_the_values(monkeypatch):
    # at order 2 every cell is forced; a last cell forced to 5 > 2*2 ends the
    # search before the audit, which would refuse the non-magic (1, 2, 3, 5)
    monkeypatch.setattr(
        enumeration, "_forced_cells", lambda x: [(1, 1, ()), (1, 2, ()), (1, 3, ()), (1, 5, ())]
    )
    assert _frenicle_flats(2) == []


def test_oracle_flats_are_oracle_search_cells(oracle3, oracle4):
    for x, squares in ((1, oracle_search(1)), (2, oracle_search(2)), (3, oracle3), (4, oracle4)):
        assert _oracle_flats(x) == {_flat(s.cells) for s in squares}


@pytest.mark.parametrize("x", range(1, 9))
def test_oracle_plan_reads_only_placed_cells(x):
    steps = _oracle_plan(x)
    free = {cell for cell, _, _ in steps}
    placed = []
    for cell, beyond, chain in steps:
        assert all(c in placed for c, _ in beyond)
        placed.append(cell)
        for link, _, _, terms, coef, link_beyond in chain:
            assert link not in placed
            assert cell not in {t for _, t in terms}
            assert all(t in placed and t in free for _, t in terms)
            assert all(c in placed for c, _ in link_beyond)
            assert coef == 0 or cell < x * x  # the spare cell has no value
            placed.append(link)
    spare = [x * x] if x <= 2 else []
    assert placed == spare + list(_fill_order(x))


# sha256 of repr([_oracle_plan(x) for x in range(1, 9)]): a refactor of the
# fill order, the forced-cell rules or the normal form that changes the
# oracle's search changes it
ORACLE_PLAN_SHA256 = "5bdcac80c499d4d09f1f19e05f560ee607e5f87958962047a9eae7e13ede01ce"


def test_oracle_plan_is_pinned():
    plans = repr([_oracle_plan(x) for x in range(1, 9)])
    assert hashlib.sha256(plans.encode()).hexdigest() == ORACLE_PLAN_SHA256


# sha256 of repr([_frenicle_flats(x) for x in range(1, 5)]): the forms in the
# order the search finds them, which ORACLE_LISTING_DIGESTS (sorted by
# canonical key) does not see
FRENICLE_ORDER_SHA256 = "96c10e95b7438c5d58b48d7d8eeeacb1fb7ee9f21c3a455afc52eef107bd9b8b"


def test_oracle_search_order_is_pinned():
    forms = repr([_frenicle_flats(x) for x in range(1, 5)])
    assert hashlib.sha256(forms.encode()).hexdigest() == FRENICLE_ORDER_SHA256


def _group_forms(x):
    """The oracle's forms under _symmetry_group, cells read in fill order."""
    return _least_forms(x, _least_image_pairs(_symmetry_group(x), _fill_order(x)))


@pytest.mark.parametrize("x, size", [(1, 1), (2, 8), (3, 8), (4, 32)])
def test_the_symmetry_group_has_the_dihedral_maps_first(x, size):
    group = _symmetry_group(x)
    assert len(group) == len(set(group)) == size
    assert group[:8] == _geometry(x).symmetries[:len(group)]
    if x < 4:
        assert set(group) == set(_geometry(x).symmetries)


def test_the_symmetry_group_keeps_every_order_four_magic_square_magic():
    flats = _oracle_flats(4)
    for sym in _symmetry_group(4):
        pick = _picker(sym)
        assert {pick(flat) for flat in flats} == flats


def test_the_order_four_squares_fall_into_220_orbits_of_32():
    group = _symmetry_group(4)
    pickers = [_picker(sym) for sym in group]
    orbits = {}
    for flat in _oracle_flats(4):
        orbits.setdefault(min(pick(flat) for pick in pickers), set()).add(flat)
    assert len(orbits) == 220
    for key, orbit in orbits.items():
        assert orbit == {pick(key) for pick in pickers}
        assert len(orbit) == 32
        assert len({_canonical_flat(flat, 4) for flat in orbit}) == 4
    # the search finds one square of each orbit
    forms = _group_forms(4)
    assert len(forms) == 220
    assert {min(pick(form) for pick in pickers) for form in forms} == set(orbits)


@pytest.mark.parametrize("x", range(1, 9))
def test_least_image_pairs_of_the_dihedral_maps_are_frenicles(x):
    # (0,0) below the other three corners, then (0,1) below (1,0)
    frenicle = [(0, x - 1), (0, x * x - x), (0, x * x - 1), (1, x)] if x > 1 else []
    assert sorted(_least_image_pairs(_geometry(x).symmetries, range(x * x))) == frenicle


def test_least_image_pairs_of_the_group_in_fill_order():
    pairs = _least_image_pairs(_symmetry_group(4), _fill_order(4))
    assert pairs == [(0, 3), (0, 12), (3, 12), (0, 15), (5, 10), (0, 5), (0, 6), (0, 9), (0, 10)]
    # all on the diagonals, the eight cells the search places first
    assert {c for pair in pairs for c in pair} <= set(_fill_order(4)[:8])


# sha256 of repr([_group_forms(x) for x in range(1, 5)]): the forms the
# oracle's G search finds, in its order
GROUP_FORM_ORDER_SHA256 = "3e14f5b2935177bfee9ab1b6789247b2ddb568274892f17005b1a312580d784a"


def test_oracle_group_search_order_is_pinned():
    forms = repr([_group_forms(x) for x in range(1, 5)])
    assert hashlib.sha256(forms.encode()).hexdigest() == GROUP_FORM_ORDER_SHA256


@pytest.mark.parametrize("x", range(1, 5))
def test_oracle_classes_are_the_frenicle_forms_images(x):
    pickers = _geometry(x).symmetry_pickers
    assert _oracle_classes(x) == {f: {pick(f) for pick in pickers} for f in _frenicle_flats(x)}


def test_oracle_classes_refuse_a_class_key_found_twice(monkeypatch):
    # without (5,10) two squares of some orbits pass the normal form
    pairs = _least_image_pairs

    def fewer(symmetries, cells):
        return [pair for pair in pairs(symmetries, cells) if pair != (5, 10)]

    monkeypatch.setattr(enumeration, "_least_image_pairs", fewer)
    with pytest.raises(AssertionError, match="found twice; the normal form is not unique"):
        _oracle_classes(4)


def test_oracle_classes_audit_every_class_key(monkeypatch):
    # a key the search does not yield itself, so only the key audit sees it
    key = next(f for f in _frenicle_flats(4) if f not in set(_group_forms(4)))
    monkeypatch.setattr(enumeration, "_is_magic", lambda flat, x: flat != key)
    message = f"oracle class key {key} is not magic; the symmetry group is unsound"
    with pytest.raises(AssertionError, match=re.escape(message)):
        _oracle_classes(4)


@pytest.mark.parametrize("rules", [
    [None, (2, 5, ()), (2, 7, ()), (2, 8, ())],
    [(2, 3, ()), (2, 5, ()), (2, 7, ()), (2, 8, ())],
], ids=["chain after free cell 0", "leading chain"])
def test_oracle_rejects_forced_values_with_a_remainder(monkeypatch, rules):
    # rounding each value down would give the non-magic grid 1 2 / 3 4
    monkeypatch.setattr(enumeration, "_forced_cells", lambda x: rules)
    assert _frenicle_flats(2) == []


def test_oracle_divides_forced_values_linear_in_the_free_value(monkeypatch):
    # no real plan has den > 1 with coef != 0: here cells 0 and 2 are free,
    # 2*v1 = 7 - 3*v0 and 3*v3 = 15 + v0 + v1 - 2*v2, and every grid passes
    # the audit, so the forms are exactly the grids that meet the rules
    rules = [None, (2, 7, ((-3, 0),)), None, (3, 15, ((1, 0), (1, 1), (-2, 2)))]
    monkeypatch.setattr(enumeration, "_forced_cells", lambda x: rules)
    monkeypatch.setattr(enumeration, "_is_magic", lambda flat, x: True)
    assert [(den, coef) for _, _, chain in _oracle_plan(2) for _, den, _, _, coef, _ in chain] == [(2, -3), (3, -2)]
    expected = [
        v for v in itertools.product(range(1, 5), repeat=4)
        if len(set(v)) == 4
        and all(rule[0] * v[k] == rule[1] + sum(c * v[t] for c, t in rule[2])
                for k, rule in enumerate(rules) if rule)
        and v[0] < min(v[1], v[2], v[3]) and v[1] < v[2]
    ]
    assert expected == [(1, 2, 3, 4)]
    assert _frenicle_flats(2) == expected


def test_oracle_search_compiles_at_order_five():
    # one nested loop per free cell, under Python's 20 nested blocks
    source = _oracle_source(5)
    assert source.count(" for g") == 14
    compile(source, "<oracle order 5>", "exec")


def test_oracle_audits_every_form(monkeypatch):
    monkeypatch.setattr(enumeration, "_is_magic", lambda flat, x: False)
    with pytest.raises(AssertionError, match="forced-cell rules are unsound"):
        [_unflat(flat, 3) for flat in _frenicle_flats(3)]


def test_oracle_audits_its_last_form_too(monkeypatch):
    forms = _frenicle_flats(4)
    monkeypatch.setattr(enumeration, "_is_magic", lambda flat, x: flat != forms[-1])
    message = f"oracle found non-magic {forms[-1]}; forced-cell rules are unsound"
    with pytest.raises(AssertionError, match=re.escape(message)):
        _frenicle_flats(4)


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


@pytest.mark.parametrize("stray", [Square(((1,),)), load_square("golden_e4_rotated.txt")], ids=["order1", "order4"])
def test_subset_check_rejects_an_oracle_that_mixes_orders(oracle3, stray):
    # every square's order is checked, not only the one the set yields first
    message = f"family e3.reflect has order 3, oracle squares have order {stray.order}"
    for oracle in (oracle3 | {stray}, {stray} | oracle3, {stray}):
        with pytest.raises(ValueError, match=re.escape(message)):
            subset_check("e3.reflect", oracle)
