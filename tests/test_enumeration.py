"""Symmetry reduction, family censuses, and the exhaustive oracle."""
import hashlib
import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latinmagic import (
    FAMILIES,
    FamilyCensus,
    Square,
    SuperposedGrid,
    Verdict,
    canonicalize,
    census,
    diagonal_constraints,
    dihedral_images,
    editor_square,
    enumerate_family,
    magic_figure,
    oracle_search,
    subset_check,
    verify_magic,
)
from latinmagic import enumeration
from latinmagic.enumeration import (
    _canonical_flat,
    _classes,
    _figure_cells,
    _fill_order,
    _forced_cells,
    _frenicle_flats,
    _oracle_flats,
    _oracle_plan,
    _oracle_source,
)
from latinmagic.verify import _flat, _unflat
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
    monkeypatch.setattr(enumeration, "_solve_values", unsound_solver)
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
    monkeypatch.setattr(enumeration, "_solve_values", unsound_solver)
    with pytest.raises(AssertionError, match="constraint extraction is unsound"):
        census("e3.reflect")


def test_audit_refuses_a_pair_that_is_not_a_permutation(monkeypatch):
    def repeating_solver(constraints, x):
        yield (0, 3, 3), (1, 3, 2)  # latin 3 twice, 6 missing

    monkeypatch.setattr(enumeration, "_solve_values", repeating_solver)
    message = (
        r"family e3\.reflect produced a non-magic square for latin values "
        r"\(0, 3, 3\) and greek values \(1, 3, 2\); constraint extraction is unsound"
    )
    with pytest.raises(AssertionError, match=message):
        next(enumerate_family("e3.reflect"))
    with pytest.raises(AssertionError, match=message):
        census("e3.reflect")


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
    loop = next(line for line in _oracle_source(x).splitlines() if " for g0 " in line)
    assert f"min({x * x}, g{x - 1} - 1" in loop
    assert len(plain) == forms
    assert set(_frenicle_flats(x)) == plain


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
