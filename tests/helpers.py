"""Reference counts shared by the test modules."""

from collections import Counter

from blfkit import ClosedCurve, curves, render


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
