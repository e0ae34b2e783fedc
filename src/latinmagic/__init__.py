"""Magic squares from superposed Latin and Greek letter grids.

The package splits each number 1..x*x into a multiple-of-x part (Latin
letters) plus a 1..x part (Greek letters), builds lettered figures whose
rows and columns are sum-correct by construction, extracts the linear
conditions the diagonals impose on letter values, and enumerates or checks
the resulting squares.
"""
from .model import (
    GREEK_LETTERS,
    LATIN_LETTERS,
    Role,
    Square,
    SuperposedGrid,
    SymbolGrid,
    SymbolId,
    ValueAssignment,
    compose,
    decompose,
    evaluate,
    magic_constant,
    superpose,
)
from .verify import (
    Axis,
    LineId,
    LineKind,
    OrthogonalityError,
    OrthogonalityReport,
    RepeatReport,
    VerificationReport,
    Verdict,
    all_lines,
    line_positions,
    line_sums,
    pair_name,
    verify_latin,
    verify_magic,
    verify_orthogonality,
)

__version__ = "0.1.0"


def _lazy_submodule(name):
    """Register submodule `name` in sys.modules; its source runs on the first attribute read."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# construct and enumeration are compiled and run only when one of their
# attributes (the names below among them) is first read: only enumerate and
# oracle run enumeration, and oracle, like verify of a grid or of a document
# without a "family", never runs construct
construct = _lazy_submodule("construct")
enumeration = _lazy_submodule("enumeration")
_LAZY_NAMES = {
    **dict.fromkeys((
        "FAMILIES",
        "MAX_SOLVE_ORDER",
        "ConstraintViolationError",
        "Family",
        "LinearConstraint",
        "MirrorConflictError",
        "build_square",
        "constraint_system_basis",
        "diagonal_constraints",
        "editor_square",
        "equivalent_systems",
        "family_figure",
        "magic_figure",
        "reflect_greek",
        "rotate_lines",
        "solve_assignments",
    ), construct),
    **dict.fromkeys((
        "ORACLE_MAX_ORDER",
        "CanonicalSquare",
        "FamilyCensus",
        "SubsetReport",
        "canonicalize",
        "census",
        "dihedral_images",
        "enumerate_family",
        "oracle_search",
        "subset_check",
    ), enumeration),
}


def __getattr__(name):
    if name in _LAZY_NAMES:
        return getattr(_LAZY_NAMES[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY_NAMES})


# every public name of the four submodules, without the submodules themselves
__all__ = sorted([
    *_LAZY_NAMES,
    *(
        name
        for name in globals()
        if not name.startswith("_")
        and name not in ("construct", "enumeration", "model", "verify")
    ),
])
