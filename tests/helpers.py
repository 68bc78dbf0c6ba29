"""Reference counts, twists and random items shared by the test modules."""

from collections import Counter

from blfkit import Anchor, Arc, ClosedCurve, algebraic_intersection, curves, render
from blfkit.errors import CurveError


def random_word(sch, rng, length):
    """A random word of glued slots in which consecutive tokens share a polygon."""
    partner, location = sch.partner, sch.location
    glued = sorted(partner, key=sch.rank.get)
    word = [rng.choice(glued)]
    while len(word) < length:
        here = location[partner[word[-1]]][0]
        word.append(rng.choice([t for t in glued if location[t][0] == here]))
    return word


def random_curve(sch, rng, length):
    """A random closed curve of at most ``length >= 2`` tokens: a ``random_word`` that closes up."""
    partner, location = sch.partner, sch.location
    while True:
        word = random_word(sch, rng, rng.randint(1, length))
        if location[partner[word[-1]]][0] == location[word[0]][0]:
            return ClosedCurve(sch, word)


def linked_intersection(u, v):
    """``geometric_intersection`` counted from linked runs alone.

    ``geometric_intersection`` counts the taut crossing rows when the
    shorter primitive root is simple; this reference ranks both curves'
    rays instead, so the two methods check each other.
    """
    if u.is_null or v.is_null:
        return 0
    ru, pu = u.primitive_root()
    rv, pv = v.primitive_root()
    if ru.canonical(oriented=False) == rv.canonical(oriented=False):
        return 0
    return pu * pv * curves._linked_crossings((ru, rv))


def self_crossings(c):
    """The self-crossings of a primitive closed curve, counted from linked runs.

    The reference for ``is_simple``, which traces a chord arrangement
    instead and ranks no rays.
    """
    return curves._linked_crossings((c,))


def simple_by_self_count(c):
    """``is_simple`` from the self-count: non-null, primitive and no self-crossing."""
    return not c.is_null and c.primitive_root()[1] == 1 and self_crossings(c) == 0


def position_table(items):
    """``render.position_table`` of ``items``, which share one scheme."""
    return render.position_table(next(iter(items.values())).scheme, items)


def polygon_sizes(table):
    """The number of points in each polygon: each point ends one chord."""
    sizes = Counter()
    for chords in table.chords.values():
        for pi, _, _ in chords:
            sizes[pi] += 2
    return sizes


def chord_crossings(table, name1, name2):
    """Every crossing of two items' chords in a position table, by a scan of all pairs.

    Lists (passage of ``name1``, passage of ``name2``, sign), sorted;
    counterclockwise order (entry 1, entry 2, exit 1, exit 2) is sign +1.
    Two chords of one polygon cross when exactly one end of the second
    lies on the counterclockwise way from entry to exit of the first; no
    two passages share an end.  The table's order can leave bigons, so
    these are the crossings of a transverse position, not always of a
    minimal one.
    """
    sizes = polygon_sizes(table)
    same = name1 == name2
    out = []
    theirs = table.chords[name2]
    for i, (pi, a1, b1) in enumerate(table.chords[name1]):
        n = sizes[pi]
        span = (b1 - a1) % n
        for j, (pj, a2, b2) in enumerate(theirs):
            if pj == pi and not (same and j <= i):
                inside = (a2 - a1) % n < span
                if inside != ((b2 - a1) % n < span):
                    out.append((i, j, 1 if inside else -1))
    return sorted(out)


def edge_order(items, table):
    """The crossing points ``(name, k)`` along each edge, in its primary slot's order.

    Read off the table: point ``k`` sits on the slot of its token ``t`` at
    the exit of passage ``k``, and on the partner slot at the entry of the
    next passage.
    """
    points = {}
    for name in sorted(items):
        item, chords = items[name], table.chords[name]
        edge_of = item.scheme.edge_of
        for k, t in enumerate(item.tokens):
            e = edge_of[t]
            where = chords[k][2] if t == e[0] else chords[(k + 1) % len(chords)][1]
            points.setdefault(e, []).append((where, name, k))
    return {e: [(name, k) for _, name, k in sorted(pts)] for e, pts in points.items()}


def assert_isotopic(got, want):
    """Equal oriented canonical forms for closed images, equal words rel endpoints for arcs."""
    if isinstance(want, ClosedCurve):
        assert isinstance(got, ClosedCurve) and got.canonical() == want.canonical(), (got, want)
    else:
        # an arc's reduced word is a complete invariant rel endpoints
        assert (got.start, got.tokens, got.end) == (want.start, want.tokens, want.end), (got, want)


def reference_on_passage(table, sizes, x_name, k, c_name):
    """The crossings of passage k of x with c read off a position table, as
    before the crossing table; ``sizes`` are the table's ``polygon_sizes``."""
    pi, ax, bx = table.chords[x_name][k]
    n = sizes[pi]
    span = (bx - ax) % n
    found = []
    for j, (pj, a, b) in enumerate(table.chords[c_name]):
        if pj != pi:
            continue
        da, db = (a - ax) % n, (b - ax) % n
        inside = 0 < da < span
        if inside != (0 < db < span):
            found.append((da if inside else db, j, 1 if inside else -1))
    found.sort()
    return [(j, s) for _, j, s in found]


def reference_insertion(c, kc, direction):
    """``twists._insertion``, which the kept insertion words replaced."""
    rot = list(c.tokens[kc:] + c.tokens[:kc])
    if direction > 0:
        return rot
    partner = c.scheme.partner
    return [partner[t] for t in reversed(rot)]


def reference_insert_copies(x, c, copies):
    """The insertion primitive as it read crossings off a two-item position table."""
    table = position_table({"c": c, "x": x})
    sizes = polygon_sizes(table)
    closed = isinstance(x, ClosedCurve)
    m = len(x.tokens)
    new_tokens = []
    for k in range(m if closed else m + 1):
        for kc, sign in reference_on_passage(table, sizes, "x", k, "c"):
            n = copies(k, kc, sign)
            if n:
                new_tokens.extend(reference_insertion(c, kc, n) * abs(n))
        if k < m:
            new_tokens.append(x.tokens[k])
    if closed:
        return ClosedCurve(x.scheme, new_tokens)
    return Arc(x.scheme, x.start, new_tokens, x.end)


def reference_twist(x, c, power):
    if isinstance(x, ClosedCurve) and x.is_null:
        return x
    return reference_insert_copies(x, c, lambda k, kc, sign: sign * power)


def random_items(sch, rng, count):
    """Seeded closed curves and arcs (anchor indices 0-3) of up to 20 tokens on ``sch``."""
    partner, location = sch.partner, sch.location
    glued = sorted(partner, key=sch.rank.get)
    boundary = [s for s in sch.slots if s not in partner]
    out = []
    while len(out) < count:
        start = rng.choice(boundary) if boundary and rng.random() < 0.5 else None
        here = location[start if start is not None else rng.choice(glued)][0]
        word = []
        for _ in range(rng.randint(0, 20)):
            t = rng.choice([t for t in glued if location[t][0] == here])
            word.append(t)
            here = location[partner[t]][0]
        try:
            if start is None:
                out.append(ClosedCurve(sch, word))
            else:
                ends = [b for b in boundary if location[b][0] == here]
                if ends:
                    out.append(Arc(sch, Anchor(start, rng.randint(0, 3)), word,
                                   Anchor(rng.choice(ends), rng.randint(0, 3))))
        except CurveError:
            pass  # a closed word whose ends lie in different polygons
    return out


def assert_taut_rows(x, c, rows, brute=None):
    """Rows of ``passage_crossings(x, c)`` against invariants of the pair.

    A closed ``x`` has ``i(x, c)`` rows, counted from linked runs
    (``linked_intersection``), none when its primitive root is ``c`` up
    to orientation.  Its rows, or an arc's, are no more than ``brute``,
    the position table's crossings of it with ``c`` (each ending in its
    sign), and have the same sum of signs, which is invariant (rel
    endpoints for an arc): for a closed ``x``, ``algebraic_intersection``,
    which reads neither the rows nor a position table.
    """
    count = sum(map(len, rows))
    signs = sum(sign for row in rows for _, sign in row)
    if brute is None:
        brute = chord_crossings(position_table({"c": c, "x": x}), "x", "c")
    if isinstance(x, ClosedCurve):
        assert count == linked_intersection(x, c), (x, c)
        assert signs == algebraic_intersection(x, c), (x, c)
    assert count <= len(brute), (x, c)
    assert signs == sum(sign for *_, sign in brute), (x, c)


def shared_step_words(c, rng, count):
    """Closed words each of whose steps ``c`` or its reverse takes.

    Random walks on the pairs of consecutive tokens of ``c`` and of its
    reverse, closed when the last token may precede the first: powers of
    ``c`` and of its reverse, and pieces of the two glued where ``c``
    visits a token twice.
    """
    follow = {}
    for w in (c.tokens, c.reversed().tokens):
        for a, b in zip(w, w[1:] + w[:1]):
            follow.setdefault(a, set()).add(b)
    out = []
    for _ in range(count):
        word = [rng.choice(c.tokens)]
        for _ in range(rng.randint(1, 4 * len(c.tokens))):
            word.append(rng.choice(sorted(follow[word[-1]])))
            if word[0] in follow[word[-1]] and rng.random() < 0.2:
                out.append(ClosedCurve(c.scheme, word))
                break
    return out
