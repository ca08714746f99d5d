"""Exception taxonomy shared across the package, and the argument rules
that raise its `InputError`.

The CLI maps these onto process exit codes: bad input is 2, blown
resource guards and broken internal guarantees are 3, and negative
mathematical outcomes (an unrealizable degree sequence) are 1.

The argument rules live here too.  A size or a vertex count is an
`int` (`_require_ints`), and the recognizer and the oracle take a
uniformity k >= 2 and a multiplicity p >= 1 (`_require_k_and_p`).
Nothing the readers or the Baranyai construction build may hold more
than `READ_SIZE_BOUND` vertices, subsets or edges.  An edge, entry or
vertex list is iterable (`_iterate`).  A vertex of an n-vertex graph,
hypergraph or clique cover is an `int` in [0, n) (`_require_vertex`):
every vertex query calls it, and the constructors apply the same rule
to their edges and entries under messages of their own.  No rule here
counts a `bool`, or any other subclass of `int`, as an `int`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

READ_SIZE_BOUND = 1 << 20


class InputError(ValueError):
    """Caller handed us something malformed or out of contract."""


class ResourceLimitError(RuntimeError):
    """A size bound or search budget was exceeded; the answer is unknown."""


class InternalContradictionError(RuntimeError):
    """A guaranteed invariant failed; indicates a bug, never bad input."""


class UnrealizableError(Exception):
    """The requested combinatorial object provably does not exist."""


class DivisibilityError(UnrealizableError):
    """Constant degree sequence fails the necessary divisibility condition."""


def _require_ints(**named: object) -> None:
    """Raise InputError naming the first argument that is not an int; a
    bool is not counted as one."""
    for name, value in named.items():
        if type(value) is not int:
            raise InputError(f"{name} must be an int, got {value!r}")


def _require_k_and_p(k: object, p: object) -> None:
    """Raise InputError unless k and p are ints with k >= 2 and p >= 1."""
    _require_ints(k=k, p=p)
    if k < 2 or p < 1:
        raise InputError(f"need k >= 2 and p >= 1, got k={k}, p={p}")


def _iterate(what: str, values: Iterable) -> Iterator:
    """An iterator over values; InputError naming `what` when values is
    not iterable."""
    try:
        return iter(values)
    except TypeError:
        raise InputError(f"{what} must be iterable, got {values!r}") from None


def _require_vertex(v: object, n: int) -> None:
    """Raise InputError unless v is a vertex of an n-vertex object: an int
    in [0, n), a bool not counted as one."""
    if type(v) is not int or not 0 <= v < n:
        raise InputError(f"vertex {v} outside [0, {n})")


class NotAMemberError(InputError):
    """Reconstruction was requested for a graph whose verdict is not Member.

    Carries the verdict so callers can report the witness or the
    inconclusive gap instead of a bare error.
    """

    def __init__(self, verdict, message: str):
        super().__init__(message)
        self.verdict = verdict
