"""Core value types for letter grids, superposition, and evaluation.

Every number k in 1..x*x splits uniquely as k = m*x + n with 0 <= m <= x-1
and 1 <= n <= x.  The multiples-of-x part is written with Latin letters and
the 1..x part with Greek letters, so an x-by-x grid of letter pairs plus a
value for each letter determines a numeric square.  The types here are
immutable values; all operations are pure.

Each value type is a _Record subclass that declares its fields once, as
annotations.  Every record's __init__ is generated from its annotations,
and a record that checks or normalizes its fields defines _post_init.
The base gives equality, hashing and repr by the fields and refuses any
assignment or deletion afterwards.
"""
from __future__ import annotations

from enum import Enum
from math import gcd

LATIN_LETTERS = "abcdef"
GREEK_LETTERS = "αβγδεζ"


class _Record:
    """An immutable value compared, hashed and shown by its fields.

    A subclass's fields are its own annotations, in order.  Its __init__
    writes each field, in that order, into self.__dict__, which holds
    nothing else; any later assignment or deletion raises AttributeError.
    Records are equal only to records of the same class with equal fields.
    A field that is an int past the interpreter's digit limit is shown as
    _repr shows it.

    Every subclass's __init__ is generated from its annotations, compiled
    once per class: one parameter per field, with a class attribute of the
    same name as that field's default.  A subclass that checks or
    normalizes its fields defines _post_init(self), which that __init__
    calls last, with every field set: it raises to refuse the values, and
    writes a normalized field through self.__dict__.
    """

    def __init_subclass__(cls) -> None:
        if "__init__" in cls.__dict__:
            return
        names = cls.__dict__.get("__annotations__", {})
        # the defaults are the globals the compiled def reads them from
        namespace = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        params = "".join(f", {n}={n}" if n in namespace else f", {n}" for n in names)
        body = "".join(f"\n    fields[{n!r}] = {n}" for n in names)
        if hasattr(cls, "_post_init"):
            body += "\n    self._post_init()"
        exec(f"def __init__(self{params}):\n    fields = self.__dict__{body}", namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__
        cls.__init__ = init

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={_repr(value)}" for name, value in self.__dict__.items()
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Role(Enum):
    """Which alphabet a symbol grid is written in."""

    LATIN = "latin"
    GREEK = "greek"


class SymbolId(_Record):
    """One abstract symbol: a role plus a 0-based index within its alphabet."""

    role: Role
    index: int

    def _post_init(self) -> None:
        _check_member(self.role, Role, "role")
        _check_integer(self.index, "symbol index")
        if self.index < 0:
            raise ValueError(f"symbol index must be >= 0, got {_brief(self.index)}")

    @property
    def letter(self) -> str:
        table = LATIN_LETTERS if self.role is Role.LATIN else GREEK_LETTERS
        if self.index < len(table):
            return table[self.index]
        return f"{self.role.value}{_brief(self.index)}"

    def __str__(self) -> str:
        return self.letter


def _shorten(token: str) -> str:
    """Text the caller typed, for a message; a value goes through _brief."""
    return token if len(token) <= 40 else f"{token[:16]}...{token[-16:]}"


def _brief(value) -> str:
    """_shorten(repr(value)), for a message, whatever the interpreter's digit limit."""
    return _shorten(_repr(value))


def _repr(value) -> str:
    """repr(value), whatever the interpreter's digit limit.

    The limit is at least 640 digits, so an int under 2,000 bits converts
    whole; a longer one is shown from its first and last 16 characters
    alone, computed by division, never converted whole.
    """
    if not isinstance(value, int) or value.bit_length() < 2000:
        return repr(value)
    sign = "-" if value < 0 else ""
    value = abs(value)
    digits = (value.bit_length() - 1) * 30103 // 100000  # never more than its digit count
    while 10 ** digits <= value:
        digits += 1
    head = value // 10 ** (digits - 16 + len(sign))
    return f"{sign}{head}...{value % 10 ** 16:016d}"


def _check_member(value, enum: type[Enum], what: str) -> None:
    if not isinstance(value, enum):
        known = ", ".join(f"{enum.__name__}.{m.name}" for m in enum)
        raise ValueError(f"{what} must be one of {known}, got {_brief(value)}")


def _check_instance(value, cls: type, what: str) -> None:
    if not isinstance(value, cls):
        raise ValueError(f"{what} must be a {cls.__name__}, got {_brief(value)}")


def _check_items(values, cls: type, what: str) -> tuple:
    """values as a tuple of cls instances; a ValueError naming what if values is not iterable or an item is no cls."""
    try:
        items = iter(values)
    except TypeError:
        raise ValueError(f"{what}s must be an iterable of {cls.__name__}, got {_brief(values)}") from None
    values = tuple(items)
    for k, value in enumerate(values):
        _check_instance(value, cls, f"{what} {k}")
    return values


def _check_integer(value, what: str) -> None:
    """Refuse anything but an int that is not a bool, naming what it is."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {_brief(value)}")


def _check_integers(values, what: str) -> None:
    """Refuse the first item that is not an int or is a bool, naming what and its index."""
    for k, v in enumerate(values):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{what} {k} is not an integer: {_brief(v)}")


def _shown(values) -> str:
    """values shown as a list, with each long value shortened."""
    return "[" + ", ".join(map(_brief, values)) + "]"


def _not_a_sequence(value, what: str) -> ValueError:
    """The error for a value, named by what, that len() refuses."""
    return ValueError(f"{what} must be a sequence, got {_brief(value)}")


def _check_sequence(value, what: str) -> tuple:
    """tuple(value), value itself if it is a tuple; a ValueError naming what if len() refuses value."""
    try:
        len(value)
    except TypeError:
        raise _not_a_sequence(value, what) from None
    return tuple(value)


def _check_square(cells, what: str) -> tuple:
    """cells as a tuple of tuple rows, as many rows as cells in each.

    That is cells itself when it and its rows are tuples.
    """
    try:
        order = len(cells)
    except TypeError:
        raise _not_a_sequence(cells, f"{what} cells") from None
    if not order:
        raise ValueError(f"{what} must have at least one row")
    copy = cells.__class__ is not tuple
    for i, row in enumerate(cells):
        try:
            size = len(row)
        except TypeError:
            raise _not_a_sequence(row, f"{what} row {i}") from None
        if size != order:
            raise ValueError(f"{what} row {i} has {size} cells, expected {order}")
        copy = copy or row.__class__ is not tuple
    return tuple(map(tuple, cells)) if copy else cells


def _check_index(idx, i: int, j: int, order: int) -> None:
    """Refuse a letter index at cell (i, j) that is not an int in 0..order-1."""
    if not isinstance(idx, int) or isinstance(idx, bool):
        raise ValueError(f"cell ({i}, {j}) is not an integer index")
    if not 0 <= idx < order:
        raise ValueError(f"cell ({i}, {j}) index {_brief(idx)} outside 0..{order - 1}")


class _Grid:
    """The order of a record whose cells are a tuple of rows."""

    @property
    def order(self) -> int:
        return len(self.cells)


class SymbolGrid(_Record, _Grid):
    """A square grid of symbol indices drawn from a single alphabet.

    Cells hold 0-based indices; row 0 is the top row and cell (i, j) sits at
    row i, column j.  Rows and columns are not required to be complete
    alphabets: the verifier reports letter repeats rather than rejecting them.
    """

    role: Role
    cells: tuple[tuple[int, ...], ...]

    def _post_init(self) -> None:
        _check_member(self.role, Role, "role")
        self.__dict__["cells"] = cells = _check_square(self.cells, "symbol grid")
        for i, row in enumerate(cells):
            for j, idx in enumerate(row):
                _check_index(idx, i, j, len(cells))


class SuperposedGrid(_Record, _Grid):
    """A grid of (latin index, greek index) pairs, one pair per cell."""

    cells: tuple[tuple[tuple[int, int], ...], ...]

    def _post_init(self) -> None:
        rows = _check_square(self.cells, "superposed grid")
        copy = False
        for i, row in enumerate(rows):
            for j, pair in enumerate(row):
                try:
                    size = len(pair)
                except TypeError:
                    raise _not_a_sequence(pair, f"cell ({i}, {j}) pair") from None
                if size != 2:
                    raise ValueError(f"cell ({i}, {j}) must hold a pair")
                for idx in pair:
                    _check_index(idx, i, j, len(rows))
                copy = copy or pair.__class__ is not tuple
        self.__dict__["cells"] = tuple(tuple(map(tuple, row)) for row in rows) if copy else rows

    def latin_component(self) -> SymbolGrid:
        return self._component(Role.LATIN, 0)

    def greek_component(self) -> SymbolGrid:
        return self._component(Role.GREEK, 1)

    def _component(self, role: Role, side: int) -> SymbolGrid:
        """The grid of each pair's index at side: 0 for Latin, 1 for Greek."""
        return SymbolGrid(role, tuple(tuple(pair[side] for pair in row) for row in self.cells))


class ValueAssignment(_Record):
    """Values given to each letter of both alphabets, in letter order.

    latin_values must be a permutation of {0, x, 2x, ..., (x-1)x} and
    greek_values a permutation of {1, ..., x}; together they make every
    latin+greek sum land in 1..x*x exactly once per distinct pair.
    """

    latin_values: tuple[int, ...]
    greek_values: tuple[int, ...]

    def _post_init(self) -> None:
        latin = _check_sequence(self.latin_values, "latin values")
        greek = _check_sequence(self.greek_values, "greek values")
        self.__dict__.update(latin_values=latin, greek_values=greek)
        x = len(latin)
        if len(greek) != x:
            raise ValueError(
                "latin and greek value lists must have the same length, got "
                f"{x} and {len(greek)}"
            )
        if x == 0:
            raise ValueError("value assignment must cover at least one letter")
        _check_integers(latin, "latin value")
        _check_integers(greek, "greek value")
        if sorted(latin) != list(range(0, x * x, x)):
            raise ValueError(
                f"latin values must be a permutation of multiples of {x} "
                f"(0..{(x - 1) * x}), got {_shown(latin)}"
            )
        if sorted(greek) != list(range(1, x + 1)):
            raise ValueError(
                f"greek values must be a permutation of 1..{x}, got {_shown(greek)}"
            )

    @property
    def order(self) -> int:
        return len(self.latin_values)


class Square(_Record, _Grid):
    """A numeric square grid.

    Cells are plain integers with no range restriction so that malformed
    input can still be loaded and audited by the verifier.
    """

    cells: tuple[tuple[int, ...], ...]

    def _post_init(self) -> None:
        self.__dict__["cells"] = cells = _check_square(self.cells, "square")
        for i, row in enumerate(cells):
            for j, value in enumerate(row):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError(f"cell ({i}, {j}) is not an integer")


def _check_order(x: int) -> None:
    _check_integer(x, "order")
    if x < 1:
        raise ValueError(f"order must be >= 1, got {_brief(x)}")


def magic_constant(x: int) -> int:
    """Common line sum of an x-by-x square holding 1..x*x: x*(1 + x*x)/2."""
    _check_order(x)
    return x * (1 + x * x) // 2


def decompose(k: int, x: int) -> tuple[int, int]:
    """Split k in 1..x*x into (m, n) with k = m*x + n, 0 <= m < x, 1 <= n <= x."""
    _check_order(x)
    _check_integer(k, "value")
    if not 1 <= k <= x * x:
        raise ValueError(f"value {_brief(k)} outside 1..{_brief(x * x)}")
    m = (k - 1) // x
    n = k - m * x
    return m, n


def compose(m: int, n: int, x: int) -> int:
    """Inverse of decompose: m*x + n with the same range checks."""
    _check_order(x)
    _check_integer(m, "multiple part")
    _check_integer(n, "unit part")
    if not 0 <= m <= x - 1:
        raise ValueError(f"multiple part {_brief(m)} outside 0..{_brief(x - 1)}")
    if not 1 <= n <= x:
        raise ValueError(f"unit part {_brief(n)} outside 1..{_brief(x)}")
    return m * x + n


def superpose(latin: SymbolGrid, greek: SymbolGrid) -> SuperposedGrid:
    """Pair two same-order component grids cell by cell."""
    _check_instance(latin, SymbolGrid, "latin")
    _check_instance(greek, SymbolGrid, "greek")
    if latin.role is not Role.LATIN:
        raise ValueError(f"first component must be latin, got {latin.role.value}")
    if greek.role is not Role.GREEK:
        raise ValueError(f"second component must be greek, got {greek.role.value}")
    if latin.order != greek.order:
        raise ValueError(
            f"component orders differ: {latin.order} vs {greek.order}"
        )
    return SuperposedGrid(
        tuple(
            tuple(
                (latin.cells[i][j], greek.cells[i][j])
                for j in range(latin.order)
            )
            for i in range(latin.order)
        )
    )


def evaluate(pairs: SuperposedGrid, assignment: ValueAssignment) -> Square:
    """Turn a pair grid into numbers: cell value = latin value + greek value."""
    _check_instance(pairs, SuperposedGrid, "pairs")
    _check_instance(assignment, ValueAssignment, "assignment")
    if pairs.order != assignment.order:
        raise ValueError(
            f"grid order {pairs.order} does not match assignment order "
            f"{assignment.order}"
        )
    latin = assignment.latin_values
    greek = assignment.greek_values
    return Square(
        tuple(
            tuple(latin[l] + greek[g] for (l, g) in row) for row in pairs.cells
        )
    )


# --- exact integer elimination -----------------------------------------------


def _primitive(row) -> tuple[int, ...]:
    """row divided by the gcd of its entries, with its first nonzero entry
    positive; a zero row stays zero."""
    g = gcd(*row)
    if next((c for c in row if c), 0) < 0:
        g = -g
    return tuple(c // g for c in row) if g else tuple(row)


def _reduce(row, basis, pivots) -> tuple[int, ...]:
    """row with the pivot column of every _rref row cleared, as a _primitive row.

    The result is zero exactly when row lies in the span of the basis.
    """
    for brow, p in zip(basis, pivots):
        if row[p]:
            g = gcd(row[p], brow[p])
            a, b = brow[p] // g, row[p] // g
            row = [a * r - b * s for r, s in zip(row, brow)]
    return _primitive(row)


def _rref(rows) -> tuple[list[tuple[int, ...]], list[int]]:
    """Integer reduced row echelon form: (basis rows, their pivot columns).

    Each basis row is _primitive, so its pivot (first nonzero entry) is
    positive, and every other basis row is zero in its pivot column; rows
    are sorted by pivot, and zero or dependent rows drop out.  Two row sets
    span the same space exactly when their bases are equal.
    """
    basis: list[tuple[int, ...]] = []
    pivots: list[int] = []
    for row in rows:
        row = _reduce(row, basis, pivots)
        p = next((k for k, c in enumerate(row) if c), None)
        if p is None:
            continue
        for k, brow in enumerate(basis):
            if brow[p]:
                basis[k] = _reduce(brow, [row], [p])
        basis.append(row)
        pivots.append(p)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [basis[k] for k in order], [pivots[k] for k in order]
