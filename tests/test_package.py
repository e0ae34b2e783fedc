"""The package's public surface: its names, star import and lazy enumeration names."""
import pytest

import latinmagic
import latinmagic.enumeration

PUBLIC_NAMES = [
    "Axis", "CanonicalSquare", "ConstraintViolationError", "FAMILIES", "Family",
    "FamilyCensus", "GREEK_LETTERS", "LATIN_LETTERS", "LineId", "LineKind",
    "LinearConstraint", "MAX_SOLVE_ORDER", "MirrorConflictError", "ORACLE_MAX_ORDER",
    "OrthogonalityError", "OrthogonalityReport", "RepeatReport", "Role", "Square",
    "SubsetReport", "SuperposedGrid", "SymbolGrid", "SymbolId", "ValueAssignment",
    "Verdict", "VerificationReport", "all_lines", "build_square", "canonicalize",
    "census", "compose", "constraint_system_basis", "decompose", "diagonal_constraints",
    "dihedral_images", "editor_square", "enumerate_family", "equivalent_systems",
    "evaluate", "family_figure", "line_positions", "line_sums", "magic_constant",
    "magic_figure", "oracle_search", "pair_name", "reflect_greek", "rotate_lines",
    "solve_assignments", "subset_check", "superpose", "verify_latin", "verify_magic",
    "verify_orthogonality",
]

ENUMERATION_NAMES = [
    "ORACLE_MAX_ORDER", "CanonicalSquare", "FamilyCensus", "SubsetReport", "canonicalize",
    "census", "dihedral_images", "enumerate_family", "oracle_search", "subset_check",
]


def test_all_lists_the_public_names():
    assert latinmagic.__all__ == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from latinmagic import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)


@pytest.mark.parametrize("name", ENUMERATION_NAMES)
def test_enumeration_names_are_the_submodules_own(name):
    assert getattr(latinmagic, name) is getattr(latinmagic.enumeration, name)


def test_dir_lists_the_public_names():
    assert {"__all__", *PUBLIC_NAMES} <= set(dir(latinmagic))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        latinmagic.no_such_name
