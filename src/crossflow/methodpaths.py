"""Method-level information flow paths (pre-analysis phase).

For each executed source-enclosing method ``q`` the analysis computes its
dynamic dependence set ``DS(q)`` from the happens-before approximation: a
local method joins when q's first entry does not postdate its last event, and
a remote method joins when the remote process received its first
origin-influenced message inside q's span.  Paths are then every duplicate-free
sequence of DS(q) members from q to a sink-enclosing method whose pairwise
first-entry/last-event ordering is consistent.

One pass computes each source's DS once and yields both the capped paths
and, in closed form, each (source, sink) pair's path methods.  Phase 2
reads those pair sets, so the caps bound only the ``phase1.txt`` report.
The DFS builds the report as it goes, as segments of lines that share a
prefix, and leaves them in report order, the order of the paths' tuples of
methods (``MethodId`` sorts as process, class, method; see
:class:`PathSet`), so nothing sorts them afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .trace import MethodId, ProcessTrace, influenced_recv_ts, method_spans, reached_methods

DEFAULT_PATH_LIMIT = 16
DEFAULT_MAX_PATHS = 20000
DEFAULT_WORK_BUDGET = 400000


# the tails of a segment that holds one line: its prefix is the whole line
NL = ["\n"]


@dataclass(frozen=True)
class PathLines:
    """The ``phase1.txt`` lines as ``(prefix, tails)`` segments.

    A segment stands for the lines ``prefix + tail``, one per tail, and
    every tail ends with a newline, so ``prefix + prefix.join(tails)`` is
    the segment's text.  No segment has no tails.  Segments share their
    tails lists: the paths below one search state, found once, appear
    under every prefix that reaches the state.  ``count`` is the number of
    lines; ``len`` gives it and iteration yields the lines, without their
    newlines, in report order.
    """

    segments: list[tuple[str, list[str]]]
    count: int

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[str]:
        for prefix, tails in self.segments:
            for tail in tails:
                yield prefix + tail[:-1]


@dataclass(frozen=True)
class PathSet:
    """Phase-1 paths as their ``phase1.txt`` lines.

    ``methods`` holds every executed method, in sorted order.  ``paths``
    holds one line per path, ``path level=method `` and the qualified
    names of its methods joined by `` -> ``, as :class:`PathLines`
    segments ordered as the paths' tuples of methods (a path after its
    own prefix).  No two lines are equal: paths of different sources
    differ in their first method, and one source's DFS never repeats a
    sequence.  ``pairs``, uncapped, maps each (source, sink) pair to the
    methods on its paths; :func:`render_paths` ignores it.
    """

    methods: tuple[MethodId, ...]
    paths: PathLines
    truncated: bool
    pairs: Mapping[tuple[MethodId, MethodId], frozenset[MethodId]]


def method_ds(
    q: MethodId,
    spans: Mapping[MethodId, tuple[int, int]],
    influenced: Mapping[str, Mapping[str, int]],
) -> frozenset[MethodId]:
    """Forward impact set of q: methods whose execution may depend on it.

    ``spans`` and ``influenced`` are ``method_spans`` and
    ``influenced_recv_ts`` of one set of traces.  An unexecuted q yields
    the empty set.  Influence reaches q's process at q's first entry, and
    another process at its first recv influenced by q's process, unless
    that comes before the entry; the members are the
    :func:`reached_methods` of those times.  Influence follows message
    chains transitively.
    """
    if q not in spans:
        return frozenset()
    entry_ts = spans[q][0]
    reach = {
        proc: t for proc, t in influenced.get(q.process, {}).items() if entry_ts <= t
    }
    reach[q.process] = entry_ts
    return frozenset(reached_methods(spans, reach))


def method_level_paths(
    traces: Mapping[str, ProcessTrace],
    source_methods: Iterable[MethodId],
    sink_methods: Iterable[MethodId],
    path_limit: int = DEFAULT_PATH_LIMIT,
    max_paths: int = DEFAULT_MAX_PATHS,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> PathSet:
    """All method-level flow paths between executed sources and sinks.

    The executed methods are ranked once in sorted order, and the sources
    are walked in rank order.  Each source's DFS leaves its lines ordered
    as the paths' tuples of ranks (see :func:`_enumerate`), and all of
    them start with the source's rank, so the sources' lines, one source
    after another, are in report order.  For each sink t in DS(q),
    ``pairs[(q, t)]`` is {q} for t == q, else each m in DS(q) with
    fe(m) <= lr(t): every subsequence of a valid path is valid, and
    fe(q) <= lr(x) for every x in DS(q), so without truncation it is the
    union of the enumerated q -> t paths."""
    spans = method_spans(traces)
    influenced = influenced_recv_ts(traces)
    methods = tuple(sorted(spans))
    rank = {m: i for i, m in enumerate(methods)}
    names = [m.qualified() for m in methods]
    first = [spans[m][0] for m in methods]
    last = [spans[m][1] for m in methods]
    sinks = set(sink_methods)
    is_sink = [m in sinks for m in methods]
    found: list[tuple[str, list[str]]] = []
    count = 0
    pairs: dict[tuple[MethodId, MethodId], frozenset[MethodId]] = {}
    truncated = False
    for q in sorted(set(source_methods)):
        ds = method_ds(q, spans, influenced)
        ds_sinks = ds & sinks
        if not ds_sinks:
            continue
        for t in ds_sinks:
            pairs[(q, t)] = frozenset(
                [q] if t == q else (m for m in ds if spans[m][0] <= spans[t][1])
            )
        # paths of other sources never repeat q's, so q gets what is left
        added, capped = _enumerate(
            rank[q], [rank[m] for m in ds], first, last, is_sink, names,
            path_limit, max_paths - count, work_budget, found,
        )
        count += added
        truncated |= capped
    return PathSet(methods, PathLines(found, count), truncated, pairs)


def _enumerate(
    q: int,
    members: list[int],
    first: list[int],
    last: list[int],
    is_sink: list[bool],
    names: list[str],
    path_limit: int,
    room: int,
    work_budget: int,
    out: list[tuple[str, list[str]]],
) -> tuple[int, bool]:
    """DFS over sequences where no member's first entry postdates a later
    member's last event.

    Methods are ranks; ``first``, ``last``, ``is_sink`` and ``names`` (the
    qualified names) are indexed by rank.  A node's ``size`` is the
    number of methods on its path, and its ``text`` the path's line.
    Candidates are visited in (fe, lr, rank) order so causally early
    methods come first.  Branches from which no sink can be appended
    any more are cut (appending only raises the running max fe, so the cut
    is exact).  The enumeration reports truncation when the length cap, the
    path cap, or the work budget bites.

    The walk's state is ``int`` bitmasks over the candidates, bit i
    standing for the i-th in visit order.  ``alive[i]`` holds the members
    whose last event is no earlier than candidate i's first entry, the ones
    that can still follow it, and ``sinks`` the sinks.  A node's ``live``
    mask holds its candidates: the members not on the path that have not
    ended before the path's latest first entry.  Appending candidate i
    leaves ``live & alive[i]`` less i itself, so the walk visits live
    candidates only, lowest bit first, and a sink can still follow a node
    exactly when ``live & sinks`` is not empty.  Every candidate tried
    costs one step of the work budget; at a node that no sink can follow,
    each live candidate is tried and cut, so their steps are charged
    together.

    The visit order decides which paths the caps keep, but not where
    their lines go: ``found`` holds segments (see :class:`PathLines`) in
    report order, the order of the paths' tuples of ranks, which is the
    preorder that puts a node's own line first and then its children's
    lines, children by ascending rank.  A node's own line is the segment
    ``(text, NL)``.  Each child's segments form one chunk at the end of
    ``found``, already in that order when the child returns; when a node
    leaves its loop, for whatever reason, it moves the chunks of its
    children into rank order if they are not.  That moves references to
    segments and builds no strings.  ``count`` counts the lines, and the
    path cap reads it.

    A node's subtree depends only on its ``live`` mask, whether it ends at
    a sink, and its depth, so a state walked once need not be walked
    again.  Its paths' lines all share the node's line as a prefix, and a
    later visit to the same state adds them under its own prefix as one
    segment.  The memo keeps the state's segments, copied out of ``found``
    because an ancestor that reorders its children moves them, with their
    line count and the length of the prefix.  The first reuse builds the
    state's tails, its lines with the prefix cut off, once; each reuse then
    appends one ``(prefix, tails)`` segment, so reusing a subtree costs
    O(1) whatever it holds.  A state whose walk found no line adds no
    segment, since its prefix alone is no line.  A subtree is stored, with
    its step count, only when no cap but the length cap touched it: it
    ended with ``count < room`` and the budget not spent, and so without
    ``stop``.  It is reused only where it fits again: its lines leave
    ``count < room`` and the budget unspent.  There a walk for real would
    add the same paths and take the same steps, so reuse charges the
    stored steps, and the work budget counts what the plain walk counts.
    Reuse need not raise ``truncated``: if the stored subtree hit the
    length cap, its walk raised the flag, which never falls back.  A
    subtree that does not fit is walked for real.

    q, a member of its own DS, starts the sequence.  At most ``room``
    lines are added, as segments appended to ``out``; the number added and
    whether a cap bit are returned.  No set is needed, because the walk
    never repeats a sequence and the paths of other sources start with
    another method.
    """
    candidates = sorted(members, key=lambda m: (first[m], last[m], m))
    sinks = 0
    for i, m in enumerate(candidates):
        if is_sink[m]:
            sinks |= 1 << i
    # candidates are in first-entry order, so going down it, each alive
    # mask adds the members that end no earlier than the new first entry
    n = len(candidates)
    by_last = sorted(range(n), key=lambda i: -last[candidates[i]])
    alive = [0] * n
    mask = j = 0
    for i in reversed(range(n)):
        while j < n and last[candidates[by_last[j]]] >= first[candidates[i]]:
            mask |= 1 << by_last[j]
            j += 1
        alive[i] = mask
    found: list[tuple[str, list[str]]] = []
    count = 0
    # (live, at_sink, depth) -> [segments, steps, prefix length, lines]; the
    # first reuse turns the segments into the tails and sets the length to 0
    memo: dict[tuple[int, int, int], list] = {}
    truncated = False
    # stop == truncated and count >= room, which ends the walk.  Both
    # halves only ever turn true, so stop is updated where found reaches a
    # sink and where the length cap truncates; once the work budget is spent,
    # every later candidate returns at once without it.
    stop = False
    steps = 0

    def walk(live: int, at_sink: int, size: int, text: str) -> None:
        nonlocal truncated, stop, steps, count
        if at_sink:
            if count >= room:
                truncated = stop = True
                return
            found.append((text, NL))
            count += 1
            stop = truncated and count >= room
        if size >= path_limit:
            truncated = True
            stop = count >= room
            return
        if stop:
            return
        if not live & sinks:
            # no sink can follow: every live candidate is one step, then cut
            steps += live.bit_count()
            if steps > work_budget:
                truncated = True
            return
        depth = size + 1  # of the children
        base = len(found)
        chunks = []  # (rank, start, end) in found of each child with lines
        in_order = True
        rest = live
        while rest:
            low = rest & -rest
            rest ^= low
            steps += 1
            if steps > work_budget:
                truncated = True
                break
            i = low.bit_length() - 1
            after = (live & alive[i]) ^ low
            sink_bit = low & sinks
            if not (sink_bit or after & sinks):
                continue
            m = candidates[i]
            head = text + " -> " + names[m]
            state = (after, sink_bit, depth)
            seen = memo.get(state)
            start = len(found)
            if (
                seen is not None
                and count + seen[3] < room
                and steps + seen[1] <= work_budget
            ):
                tails, cost, cut, lines = seen
                if cut:
                    # cut each segment's prefix once, not once per tail
                    tails = seen[0] = [
                        p + t for p, ts in [(p[cut:], ts) for p, ts in tails] for t in ts
                    ]
                    seen[2] = 0
                steps += cost
                if lines:
                    found.append((head, tails))
                    count += lines
            else:
                before, had = steps, count
                walk(after, sink_bit, depth, head)
                if count < room and steps <= work_budget:
                    memo[state] = [found[start:], steps - before, len(head), count - had]
            if len(found) > start:
                if chunks and m < chunks[-1][0]:
                    in_order = False
                chunks.append((m, start, len(found)))
            if stop:
                break
        if not in_order:
            segments: list[tuple[str, list[str]]] = []
            for _, begin, end in sorted(chunks):
                segments += found[begin:end]
            found[base:] = segments

    root = candidates.index(q)
    walk(alive[root] ^ (1 << root), is_sink[q], 1, "path level=method " + names[q])
    del walk  # the closure refers to itself; free found without the gc
    out.extend(found)
    return count, truncated


def render_paths(ps: PathSet) -> Iterator[str]:
    """The text of ``phase1.txt`` in pieces: each segment's prefix, then
    the prefix joined between its tails.  Concatenated, the pieces are one
    line per path, each ended by a newline, in the order of the paths'
    tuples of methods; no piece is longer than one segment's text."""
    for prefix, tails in ps.paths.segments:
        yield prefix
        yield prefix.join(tails)
