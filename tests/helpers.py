"""Reference counts shared by the test modules."""

from bisect import bisect_left

from blfkit import curves


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
    return pu * pv * curves._linked_crossings(ru, rv)


def self_crossings(c):
    """The self-crossings of a primitive closed curve, counted from linked runs.

    The reference for ``is_simple``, which traces a chord arrangement
    instead: each of the curve's rows queries its own dominance tables,
    as ``curves._linked_crossings`` does for the shorter of two curves.  A
    ray counts the rays of earlier first-step groups on its side with a
    lower rank on the other side; linked runs of length at least one are
    seen at both ends.  A chord counts the chords with a lower low slot
    whose high slot lies strictly between its own two.
    """
    sides, polygons = curves._tables(c)
    rays, chords = curves._rows(c)
    ends = zero = 0
    for side, step, r in rays:
        keys, tree = sides[side]
        g = bisect_left(keys, step)
        if g:
            ends += curves._below(tree, g, r)
    for pi, lo, hi in chords:
        keys, tree = polygons[pi]
        g = bisect_left(keys, lo)
        if g:
            # lo' < lo < hi' < hi
            zero += curves._below(tree, g, hi) - curves._below(tree, g, lo + 1)
    return ends // 2 + zero


def simple_by_self_count(c):
    """``is_simple`` from the self-count: non-null, primitive and no self-crossing."""
    return not c.is_null and c.primitive_root()[1] == 1 and self_crossings(c) == 0
