"""Parser for the ``.g`` (astg) STG exchange format used by SIS / petrify.

The format, in the fragment this library supports::

    # comments start with '#'
    .model name
    .inputs  a b
    .outputs c d
    .internal z
    .dummy   eps
    .graph
    a+ c+ p0        # arcs from a+ to c+ and from a+ to p0
    p0 b+
    .marking { p0 <a+,c+> }
    .capacity p0=2   # accepted and ignored (this library assumes safe nets)
    .end

Nodes appearing in ``.graph`` lines are transitions when they parse as a
signal edge of a declared signal (or are a declared dummy); every other
identifier is a place.  An arc directly between two transitions creates an
implicit place named ``<source,target>``, which is how such places are
referred to in ``.marking``.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Tuple

from repro.stg.signals import SignalEdge, SignalType
from repro.stg.stg import STG


class GFormatError(ValueError):
    """Raised when a ``.g`` file cannot be parsed.

    ``line`` is the 1-based number of the offending line (also named in
    the message), or ``None`` when the fault belongs to no single line.
    """

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


_MARKING_TOKEN_RE = re.compile(r"(<[^>]*>|[^\s{}]+)")


def _strip_comment(line: str) -> str:
    position = line.find("#")
    if position >= 0:
        return line[:position]
    return line


def _tokenize_graph_line(line: str) -> List[str]:
    return line.split()


def _declare(add: Callable[[str], str], names: str, line: int) -> None:
    """Declare each signal of a ``.inputs``-style line with ``add``."""
    for name in names.split():
        try:
            add(name)
        except ValueError as error:
            raise GFormatError(str(error), line) from None


def parse_g(text: str, name: Optional[str] = None) -> STG:
    """Parse ``.g`` text into an :class:`~repro.stg.stg.STG`."""
    stg = STG(name or "stg")
    graph_lines: List[Tuple[int, List[str]]] = []
    marking_tokens: List[Tuple[int, str]] = []
    initial_values: Dict[str, int] = {}
    in_graph = False
    saw_end = False

    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        if line.startswith("."):
            in_graph = False
            directive, _, rest = line.partition(" ")
            directive = directive.lower()
            rest = rest.strip()
            if directive in (".model", ".name"):
                if rest:
                    stg.name = rest.split()[0]
            elif directive == ".inputs":
                _declare(stg.add_input, rest, number)
            elif directive == ".outputs":
                _declare(stg.add_output, rest, number)
            elif directive in (".internal", ".internals"):
                _declare(stg.add_internal, rest, number)
            elif directive == ".dummy":
                for dummy in rest.split():
                    stg.add_dummy_transition(dummy)
            elif directive == ".graph":
                in_graph = True
            elif directive == ".marking":
                marking_tokens.extend(
                    (number, token) for token in _MARKING_TOKEN_RE.findall(rest)
                )
            elif directive == ".initial":
                # ".initial state 0101" style lines: values follow the
                # declaration order of the signals.
                values = rest.split()[-1] if rest else ""
                for signal, char in zip(stg.signals, values):
                    if char in "01":
                        initial_values[signal] = int(char)
            elif directive in (".capacity", ".slowenv", ".level", ".outputs_root"):
                continue  # accepted and ignored
            elif directive == ".end":
                saw_end = True
                break
            else:
                raise GFormatError(f"unsupported directive: {directive!r}", number)
        elif in_graph:
            graph_lines.append((number, _tokenize_graph_line(line)))
        else:
            raise GFormatError(
                f"unexpected line outside .graph section: {raw_line!r}", number
            )

    if not saw_end and not graph_lines:
        raise GFormatError("no .graph section found")

    _populate_graph(stg, graph_lines)
    _apply_marking(stg, marking_tokens)
    for signal, value in initial_values.items():
        stg.set_initial_value(signal, value)
    return stg


def _is_transition_token(stg: STG, token: str) -> bool:
    if stg.net.has_transition(token):
        return True
    if token in stg.dummy_transitions:
        return True
    if SignalEdge.is_edge_label(token):
        edge = SignalEdge.parse(token)
        return edge.signal in stg.signal_types and (
            stg.signal_types[edge.signal] is not SignalType.DUMMY
        )
    return False


def _populate_graph(stg: STG, graph_lines: List[Tuple[int, List[str]]]) -> None:
    # First pass: create all transition nodes so that place/transition
    # disambiguation of later arcs does not depend on line order.
    for _number, tokens in graph_lines:
        for token in tokens:
            if _is_transition_token(stg, token) and not stg.net.has_transition(token):
                stg.add_transition(SignalEdge.parse(token))
    # Second pass: create places and arcs.
    for number, tokens in graph_lines:
        if len(tokens) < 2:
            raise GFormatError(
                f"graph line needs a source and at least one target: {tokens}", number
            )
        source = tokens[0]
        for target in tokens[1:]:
            try:
                stg.connect(source, target)
            except ValueError as error:
                raise GFormatError(str(error), number) from None


def _apply_marking(stg: STG, tokens: List[Tuple[int, str]]) -> None:
    marking: Dict[str, int] = {}
    for number, token in tokens:
        if token in ("{", "}"):
            continue
        count = 1
        if "=" in token and not token.startswith("<"):
            token, _, count_text = token.partition("=")
            try:
                count = int(count_text)
            except ValueError:
                raise GFormatError(
                    f"token count {count_text!r} of place {token!r} is not an integer",
                    number,
                ) from None
            if count < 0:
                raise GFormatError(f"token count {count} of place {token!r} is negative", number)
        if not stg.net.has_place(token):
            raise GFormatError(f"marked place {token!r} does not exist in the net", number)
        marking[token] = marking.get(token, 0) + count
    if marking:
        stg.net.set_initial_marking(marking)


def read_g_file(path: str) -> STG:
    """Parse a ``.g`` file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_g(handle.read())
