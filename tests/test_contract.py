"""The library's public surface refuses a bad argument with ValueError alone.

Each function and record class in latinmagic.__all__ gets one valid call.
Then each of its arguments in turn is swapped for each value of a small
hostile pool.  The call, and the first item of an iterator it returns,
either returns or raises ValueError (a subclass included).  The message is
under 300 characters and is never the interpreter's digit-limit text, and
str() and repr() of a returned record do not fail.  Each call's time is
bounded in this process, by an interval timer.
"""
import inspect
import signal
from collections.abc import Iterator

import pytest

import latinmagic
from latinmagic import (
    Axis,
    LineId,
    LineKind,
    Role,
    Square,
    ValueAssignment,
    Verdict,
    diagonal_constraints,
    family_figure,
    oracle_search,
)
from latinmagic.model import _Record

LO_SHU = ((2, 9, 4), (7, 5, 3), (6, 1, 8))
E3 = family_figure("e3.reflect")
E3_VALUES = ValueAssignment((0, 6, 3), (1, 3, 2))
E4_CONSTRAINTS = diagonal_constraints(family_figure("e4.diag"))

# one valid call per public function and record class: its arguments, all positional
VALID = {
    "all_lines": (3,),
    "build_square": ("e3.reflect", E3_VALUES, "c"),
    "canonicalize": (Square(LO_SHU),),
    "census": ("e3.reflect", "c"),
    "compose": (1, 2, 3),
    "constraint_system_basis": (E4_CONSTRAINTS,),
    "decompose": (5, 3),
    "diagonal_constraints": (E3,),
    "dihedral_images": (LO_SHU,),
    "editor_square": (),
    "enumerate_family": ("e3.reflect", "c"),
    "equivalent_systems": (E4_CONSTRAINTS, E4_CONSTRAINTS[::-1]),
    "evaluate": (E3, E3_VALUES),
    "family_figure": ("e4.diag", "d"),
    "line_positions": (LineId(LineKind.ROW, 1), 3),
    "line_sums": (Square(LO_SHU),),
    "magic_constant": (3,),
    "magic_figure": ("e3.reflect", "c"),
    "oracle_search": (3,),
    "pair_name": ((0, 1),),
    "reflect_greek": (E3.latin_component(), Axis.MIDDLE_COLUMN),
    "rotate_lines": (E3, "columns", 1),
    "solve_assignments": (diagonal_constraints(E3), 3),
    "subset_check": ("e3.reflect", oracle_search(3), "c"),
    "superpose": (E3.latin_component(), E3.greek_component()),
    "verify_latin": (E3.latin_component(), True),
    "verify_magic": (Square(LO_SHU),),
    "verify_orthogonality": (E3,),
    "CanonicalSquare": (Square(LO_SHU),),
    "Family": ("e9.test", 3, "a test family", {"c": E3}),
    "FamilyCensus": ("e9.test", 8, 8, 1),
    "LineId": (LineKind.COLUMN, 2),
    "LinearConstraint": ((1, -1), (0, 0)),
    "OrthogonalityReport": (True, (), ()),
    "RepeatReport": (True, ()),
    "Square": (LO_SHU,),
    "SubsetReport": (True, ()),
    "SuperposedGrid": ((((0, 0), (1, 1)), ((1, 0), (0, 1))),),
    "SymbolGrid": (Role.GREEK, ((0, 1), (1, 0))),
    "SymbolId": (Role.LATIN, 1),
    "ValueAssignment": ((0, 3, 6), (1, 2, 3)),
    "VerificationReport": (3, 15, {}, True, (), (), Verdict.MAGIC),
}

# the hostile values, each made afresh for every call
POOL = {
    "True": lambda: True,
    "2.5": lambda: 2.5,
    "'3'": lambda: "3",
    "None": lambda: None,
    "-1": lambda: -1,
    "0": lambda: 0,
    "()": lambda: (),
    "object()": object,
    "['x']": lambda: ["x"],
    "10**5000": lambda: 10 ** 5000,
    "-10**5000": lambda: -10 ** 5000,
}

# (callable, argument index, pool value) left uncalled, with the reason
ACCEPTED = {
    ("all_lines", 0, "10**5000"): "its 2x+2 lines are built as a table of x*x cells: it never returns and grows memory",
    ("line_positions", 1, "10**5000"): "a row of order x holds x cells: it never returns and grows memory",
}

SECONDS = 2.0


class _Overtime(BaseException):
    """A call ran past SECONDS; a BaseException, so no handler in the library catches it."""


def _overtime(signum, frame):
    raise _Overtime


def _public_callables():
    return sorted(
        name for name in latinmagic.__all__
        if inspect.isfunction(getattr(latinmagic, name))
        or (inspect.isclass(getattr(latinmagic, name)) and issubclass(getattr(latinmagic, name), _Record))
    )


def test_every_public_callable_has_a_valid_call():
    assert sorted(VALID) == _public_callables()


def _outcome(target, args):
    """None when the call returns and its result shows; else the fault, as text."""
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        result = target(*args)
        if isinstance(result, Iterator):
            result = next(result, None)
        if isinstance(result, _Record):
            str(result)
            repr(result)
    except _Overtime:
        return f"took over {SECONDS} s"
    except ValueError as exc:
        message = str(exc)
        if len(message) >= 300:
            return f"message of {len(message)} characters"
        if "integer string conversion" in message:
            return "the interpreter's digit-limit message"
    except Exception as exc:  # the fault this test finds: any type but ValueError
        return f"{type(exc).__name__}: {str(exc)[:200]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return None


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
@pytest.mark.parametrize("name", sorted(VALID))
def test_public_callable_refuses_hostile_arguments_with_value_error(name):
    target = getattr(latinmagic, name)
    valid = VALID[name]
    result = target(*valid)
    if isinstance(result, Iterator):
        next(result)
    faults = []
    for position in range(len(valid)):
        for label, make in POOL.items():
            if (name, position, label) in ACCEPTED:
                continue
            args = (*valid[:position], make(), *valid[position + 1:])
            fault = _outcome(target, args)
            if fault is not None:
                faults.append(f"argument {position} = {label}: {fault}")
    assert not faults, "\n".join(faults)
