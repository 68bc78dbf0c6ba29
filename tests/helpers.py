"""Reference counts shared by the test modules."""

from blfkit import ClosedCurve, curves


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
