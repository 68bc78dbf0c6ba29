"""Reference counts shared by the test modules."""

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
    return pu * pv * curves._linked_crossings((ru, rv))
