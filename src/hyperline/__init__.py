"""Line graphs of k-uniform hypergraphs with bounded pair multiplicity:
recognition with certificates, witness-hypergraph reconstruction, and
flow-based realization of constant degree sequences.

The package exports what the README's "Library surface" documents; the
internals (flow networks, thresholds, the single checks, graph queries,
`krausz_cover`, `hypergraph_to_cover`, the oracle's isomorphism test and
scan) are imported from their submodules.
"""

from .baranyai import baranyai_partition, regular_hypergraph
from .errors import (
    DivisibilityError,
    InputError,
    InternalContradictionError,
    NotAMemberError,
    ResourceLimitError,
    UnrealizableError,
)
from .graph import Claw, Graph, line_graph
from .hypergraph import Hypergraph
from .oracle import cover_search
from .recognition import (
    ClawWitness,
    F1Witness,
    F2Witness,
    F3Witness,
    Inconclusive,
    Member,
    NonMember,
    Verdict,
    Witness,
    recognize,
    reconstruct,
)
from .reconstruction import CliqueCover, cover_to_hypergraph, validate_cover

__all__ = [
    # entry points
    "Graph",
    "Hypergraph",
    "line_graph",
    "recognize",
    "reconstruct",
    "baranyai_partition",
    "regular_hypergraph",
    "cover_search",
    # result types
    "Member",
    "NonMember",
    "Inconclusive",
    "Verdict",
    "Witness",
    "ClawWitness",
    "F1Witness",
    "F2Witness",
    "F3Witness",
    "Claw",
    "CliqueCover",
    # certificate checks
    "validate_cover",
    "cover_to_hypergraph",
    # errors
    "DivisibilityError",
    "InputError",
    "InternalContradictionError",
    "NotAMemberError",
    "ResourceLimitError",
    "UnrealizableError",
]
