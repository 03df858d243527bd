"""Shortest synchronizing sequences for deterministic finite automata.

A synchronizing sequence (reset word) takes every state of a completely
specified deterministic automaton to one common state.  This package finds
shortest such sequences by exact power-set BFS, by SAT encoding, and by
emitting answer set programs for an external ASP solver, with a binary-search
driver and a small benchmark harness on top.
"""

from syncword.automaton import (
    Automaton,
    apply_word,
    generate_cerny,
    generate_random,
    is_synchronizing_word,
    parse_fa,
    parse_kiss2,
    serialize_fa,
)
from syncword.errors import (
    DecodeError,
    ParseError,
    ResourceLimitError,
    SolverError,
    SoundnessError,
)
from syncword.exact import (
    BfsResult,
    check_synchronizable,
    greedy_sync,
    merge_bound,
    shortest_sync_bfs,
)

__all__ = [
    "Automaton",
    "BfsResult",
    "DecodeError",
    "ParseError",
    "ResourceLimitError",
    "SolverError",
    "SoundnessError",
    "apply_word",
    "check_synchronizable",
    "generate_cerny",
    "generate_random",
    "greedy_sync",
    "is_synchronizing_word",
    "merge_bound",
    "parse_fa",
    "parse_kiss2",
    "serialize_fa",
    "shortest_sync_bfs",
]

__version__ = "0.1.0"
