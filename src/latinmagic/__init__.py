"""Magic squares from superposed Latin and Greek letter grids.

The package splits each number 1..x*x into a multiple-of-x part (Latin
letters) plus a 1..x part (Greek letters), builds lettered figures whose
rows and columns are sum-correct by construction, extracts the linear
conditions the diagonals impose on letter values, and enumerates or checks
the resulting squares.
"""
from .construct import (
    FAMILIES,
    MAX_SOLVE_ORDER,
    ConstraintViolationError,
    Family,
    LinearConstraint,
    MirrorConflictError,
    OrthogonalityError,
    build_square,
    constraint_system_basis,
    diagonal_constraints,
    editor_square,
    equivalent_systems,
    family_figure,
    magic_figure,
    reflect_greek,
    rotate_lines,
    solve_assignments,
)
from .enumeration import (
    ORACLE_MAX_ORDER,
    CanonicalSquare,
    FamilyCensus,
    SubsetReport,
    canonicalize,
    census,
    dihedral_images,
    enumerate_family,
    oracle_search,
    subset_check,
)
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

# every name imported above, without the submodules themselves
__all__ = sorted(
    name
    for name in globals()
    if not name.startswith("_")
    and name not in ("construct", "enumeration", "model", "verify")
)
