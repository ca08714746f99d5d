"""Line-oriented ASCII formats.

Hypergraph (.hg):   header ``H <n> <m>`` then one edge per line as
                    space-separated sorted vertices; edge order in the
                    file is the edge index.
Graph (.gr):        header ``G <n> <medges>`` then one ``u v`` line per
                    edge with u < v, in strictly increasing lexicographic
                    order; the reader rejects repeated and misordered lines.
Partition (.bp):    header ``B <N> <k> <M>`` then M blocks, each opened
                    by ``S <i> <count>`` and followed by one k-set per
                    line (1-based elements).

``#`` starts a comment anywhere on a line; blank lines are ignored.
Every integer is an ASCII decimal with an optional sign (``[+-]?[0-9]+``);
other digits, ``_`` separators and the like are input errors.
A header vertex count above READ_SIZE_BOUND raises ResourceLimitError
before anything of that size is allocated.
A graph text in the writer's layout, canonical decimals with no sign
and no leading zero, is read in one pass over all its tokens, each
vertex token looked up in a table of the n canonical names (or parsed
by `int` when n exceeds the token count, so the table never outgrows
the text); any other text, a malformed one among them, is re-read line
by line, and that reader names the first line at fault.
Writers emit canonical, comment-free text so identical values always
serialize to identical bytes.
"""

from __future__ import annotations

from itertools import compress

from .errors import READ_SIZE_BOUND, InputError, ResourceLimitError
from .graph import Graph, _digits
from .hypergraph import Hypergraph


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    """(line number, tokens) for every non-empty line, comments stripped."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            out.append((lineno, tokens))
    return out


def _ints(tokens: list[str], lineno: int) -> list[int]:
    """The tokens as integers.  On ASCII tokens with no "_", `int` takes
    exactly `[+-]?[0-9]+`, the rule `_read_graph_bulk` screens for too."""
    line = " ".join(tokens)
    try:
        if line.isascii() and "_" not in line:
            return list(map(int, tokens))
    except ValueError:  # not an integer, or more digits than int() converts
        pass
    raise InputError(f"line {lineno}: expected integers, got {line}")


def _header(
    text: str, kind: str, form: str
) -> tuple[int, list[int], list[tuple[int, list[str]]]]:
    """The header's line number and integers, and the content lines after
    it, of a `kind` file whose header reads `form`, tag first."""
    rows = _content_lines(text)
    if not rows:
        raise InputError(f"empty {kind} file")
    lineno, header = rows[0]
    fields = form.split()
    if len(header) != len(fields) or header[0] != fields[0]:
        raise InputError(f"line {lineno}: expected header '{form}'")
    return lineno, _ints(header[1:], lineno), rows[1:]


def _check_vertex_count(n: int, lineno: int) -> None:
    if n > READ_SIZE_BOUND:
        raise ResourceLimitError(
            f"line {lineno}: header declares {n} vertices, reader bound is {READ_SIZE_BOUND}"
        )


def write_hypergraph(hg: Hypergraph) -> str:
    lines = [f"H {hg.n} {hg.m}"]
    for e in hg.edges:
        lines.append(" ".join(str(v) for v in e))
    return "\n".join(lines) + "\n"


def read_hypergraph(text: str) -> Hypergraph:
    lineno, (n, m), body = _header(text, "hypergraph", "H <n> <m>")
    _check_vertex_count(n, lineno)
    if len(body) != m:
        raise InputError(f"header promises {m} edges, file has {len(body)}")
    edges = []
    for lineno, tokens in body:
        vs = _ints(tokens, lineno)
        if vs != sorted(set(vs)):
            raise InputError(f"line {lineno}: edge must be strictly increasing")
        if (vs[0] < 0 or vs[-1] >= n) and n >= 0:  # a negative n is Hypergraph's to refuse
            raise InputError(f"line {lineno}: edge {len(edges)} has a vertex outside [0, {n})")
        edges.append(tuple(vs))
    return Hypergraph(n, edges)


def write_graph(g: Graph) -> str:
    """The .gr text of g.  A row whose set bits fill at least an eighth of
    its width takes its heads by `compress` over its binary digits; a
    sparser one splits its reversed digits at the ones, and the zeros
    before each one give the gap to the next head.  `compress` costs a
    step per bit of the row's width, the split one per set bit, so
    neither wins everywhere: `compress` alone writes the line graph of a
    regular (100, 2, 59) hypergraph, rows about 4% dense, at half speed,
    and the split alone writes rows 60% dense about 40% slower.  Any cut
    from a quarter to a sixteenth writes as fast."""
    n = g.n
    names = [str(v) for v in range(n)]
    rows = [f"G {n} {g.edge_count}\n"]
    for u in range(n):
        above = g._adj[u] >> (u + 1)  # bit j stands for vertex u+1+j
        if above:
            width = above.bit_length()
            if 8 * above.bit_count() >= width:
                picks = _digits(above)
                heads = compress(names[u + 1 : u + 1 + width], picks)
            else:
                gaps = format(above, "b")[::-1].split("1")  # gaps[i]: zeros just below bit i
                gaps.pop()
                heads = []
                v = u
                for gap in gaps:
                    v += len(gap) + 1
                    heads.append(names[v])
            prefix = names[u] + " "
            rows.append(prefix + ("\n" + prefix).join(heads) + "\n")
    return "".join(rows)


def read_graph(text: str) -> Graph:
    """The graph of a .gr text.  A well-formed text is read in one pass
    over all its tokens; any other is re-read line by line, which names
    the first line at fault."""
    g = _read_graph_bulk(text)
    return g if g is not None else _read_graph_lines(text)


# The digit separator `int` takes and `_ints` refuses, and the line breaks
# of str.splitlines() in ASCII text other than "\n".
_NOT_CANONICAL = "_\r\v\f\x1c\x1d\x1e"
_SEP = "\u00a7"  # stands for a line end among the tokens; not ASCII, so never read


def _read_graph_bulk(text: str) -> Graph | None:
    r"""The graph of a well-formed .gr text in the writer's layout, or None
    for any text the line reader would reject or that this pass does not
    take.

    Only ASCII text with no "_" and no line break other than "\n" is
    taken, so `int` accepts exactly the tokens `_ints` does and every
    line ends at a "\n".  With each line end turned into a separator
    token, a well-formed text splits into the header and then `u v` and
    a separator per edge; a blank line, or a comment (whose "#" is no
    integer), cannot fit that pattern.  The header is checked before the
    masks are allocated; then each edge is checked as it is read and
    filled in: 0 <= u < v < n, and u*n + v above the previous edge's.

    A vertex token becomes its vertex by one lookup in a table of the
    canonical names "0" .. str(n - 1), which costs less than `int`.  A
    token with a sign or a leading zero misses it, and the text is left
    to the line reader, which reads it as the same graph.  The table is
    built only when n is at most the number of body tokens, so it never
    outgrows the token list already held; a sparser text, such as a few
    edges on 2^20 vertices, is parsed by `int`, which takes any
    spelling `_ints` takes.
    """
    if not text.isascii() or any(c in text for c in _NOT_CANONICAL):
        return None
    padded = f"\n{text}" if text.endswith("\n") else f"\n{text}\n"
    tokens = padded.replace("\n", f" {_SEP} ").split()
    # A well-formed text now reads SEP G n m SEP, then u v SEP per edge.
    # Only the separators are counted: with one per three tokens, one out
    # of place stands where `G` or an integer is due and fails below.
    if tokens[1:2] != ["G"] or 3 * tokens.count(_SEP) != len(tokens) + 1:
        return None
    body = tokens[5:]
    try:
        n, declared = int(tokens[2]), int(tokens[3])
    except ValueError:
        return None
    if declared != len(body) // 3 or not 0 <= n <= READ_SIZE_BOUND:
        return None
    parse = dict(zip(map(str, range(n)), range(n))).__getitem__ if n <= len(body) else int
    adj = [0] * n
    last = -1
    try:
        for u, v in zip(map(parse, body[0::3]), map(parse, body[1::3])):
            key = u * n + v
            if key <= last or not 0 <= u < v < n:
                return None
            last = key
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    except (KeyError, ValueError):
        return None
    return Graph.from_adjacency_masks(tuple(adj))


def _read_graph_lines(text: str) -> Graph:
    """The line-by-line reader: checks each line in file order and raises
    on the first problem."""
    lineno, (n, m), body = _header(text, "graph", "G <n> <medges>")
    _check_vertex_count(n, lineno)
    if len(body) != m:
        raise InputError(f"header promises {m} edges, file has {len(body)}")
    edges = []
    prev = ()  # every edge tuple compares above the empty tuple
    for lineno, tokens in body:
        if len(tokens) != 2:
            raise InputError(f"line {lineno}: expected 'u v'")
        u, v = _ints(tokens, lineno)
        if u >= v:
            raise InputError(f"line {lineno}: edges must satisfy u < v")
        edge = (u, v)
        if edge <= prev:
            problem = "repeats" if edge == prev else "comes before"
            raise InputError(
                f"line {lineno}: edge {u} {v} {problem} the previous edge; "
                "edges must be distinct and in lexicographic order"
            )
        if (u < 0 or v >= n) and n >= 0:  # a negative n is Graph's to refuse
            raise InputError(f"line {lineno}: edge ({u}, {v}) has a vertex outside [0, {n})")
        edges.append(edge)
        prev = edge
    return Graph(n, edges)


def write_partition(
    classes: list[list[tuple[int, ...]]], ground_size: int, subset_size: int
) -> str:
    lines = [f"B {ground_size} {subset_size} {len(classes)}"]
    for i, cls in enumerate(classes):
        lines.append(f"S {i} {len(cls)}")
        for subset in cls:
            lines.append(" ".join(str(x) for x in subset))
    return "\n".join(lines) + "\n"


def read_partition(text: str) -> tuple[int, int, list[list[tuple[int, ...]]]]:
    lineno, header, body = _header(text, "partition", "B <N> <k> <M>")
    ground_size, subset_size, class_count = header
    if min(header) < 0:
        raise InputError(f"line {lineno}: header values must be nonnegative")
    classes: list[list[tuple[int, ...]]] = []
    pending = 0
    for lineno, tokens in body:
        if tokens[0] == "S":
            if pending:
                raise InputError(f"line {lineno}: previous class is short {pending} sets")
            if len(tokens) != 3:
                raise InputError(f"line {lineno}: expected 'S <i> <count>'")
            index, count = _ints(tokens[1:], lineno)
            if count < 0:
                raise InputError(f"line {lineno}: class size must be nonnegative")
            if index != len(classes):
                raise InputError(f"line {lineno}: classes must be numbered in order")
            classes.append([])
            pending = count
        else:
            if not classes or not pending:
                raise InputError(f"line {lineno}: set outside any class block")
            vs = _ints(tokens, lineno)
            if len(vs) != subset_size:
                raise InputError(f"line {lineno}: expected a {subset_size}-set")
            if vs != sorted(set(vs)) or vs[0] < 1 or vs[-1] > ground_size:
                raise InputError(
                    f"line {lineno}: set must be strictly increasing within [1, {ground_size}]"
                )
            classes[-1].append(tuple(vs))
            pending -= 1
    if pending:
        raise InputError(f"last class is short {pending} sets")
    if len(classes) != class_count:
        raise InputError(f"header promises {class_count} classes, file has {len(classes)}")
    return ground_size, subset_size, classes
