"""Independent cross-check for the hexagon surface via its fundamental group.

The twice-punctured torus has free fundamental group F(a, b, c), the three
generators dual to the glued edge classes of the hexagon.  Closed curves up
to free homotopy are conjugacy classes of F(a, b, c), and each Dehn twist
along one of the standard curves acts by an explicit automorphism.  The
tables below were derived by hand, independently of the word engine; they
are validated internally by the inverse law and by comparing their
abelianizations with homology transvections.

Letters are nonzero integers: 1, 2, 3 stand for a, b, c and negatives for
inverses.  Letter ``k`` corresponds to hexagon token ``k - 1``; letter
``-k`` to token ``k + 2``.  The bridge reads one pair of six-entry tables
and rejects any other value with ``BlfkitError``.

The agreement suite draws its random twist words one at a time, so its
memory does not grow with their number and its time grows linearly with
it.  Each word starts from its head, its first one to ``HEAD_LENGTH``
(three) generators, in a table kept once per process and filled on first
use: the engine images of the base curves under the head, the head's
automorphism, both sides' actions on homology (the engine's transvections
and the oracle's abelianization), and the oracle's cyclically reduced
images of the base words.  Only the rest of the word is twisted and
composed, and the table never holds more than 6 + 36 + 216 heads, about
1.2 MB when full.  A warm word of k twists costs the engine
4(k - min(k, 3)) twists; one that is its own head (k <= 3) reads its
oracle images and compares its entry's two matrices, with no free-group
and no homology work.  The suite compares the engine's image of a curve
with the oracle's by one rotation search on the two cyclically reduced
words, and computes Duval keys (``conjugacy_key``) only for oracle images
short enough to match a base curve's.

Images grow exponentially with the number of twists composed, about
threefold per twist.  An automorphism counts the letters of an image
before building it, and past ``MAX_IMAGE_LETTERS`` raises
``ImageTooLargeError``.
"""

from __future__ import annotations

import functools
import random
from itertools import chain
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from .errors import BlfkitError, ImageTooLargeError

if TYPE_CHECKING:
    from .curves import ClosedCurve
    from .schemes import Scheme

Word = Tuple[int, ...]
Matrix = Tuple[Tuple[int, ...], ...]

# the most letters an image is built from before reduction, 8 MB of list
# pointers on a 64-bit build: about 1,400 times the longest image (717
# letters) that ``run_agreement_suite(200, seed, 5)`` composes for seeds 0
# and 7, and reached after 13-15 twists of a random word
MAX_IMAGE_LETTERS = 1_000_000

# the most generators of a word's head in the agreement suite's table: at
# most 6 + 36 + 216 heads, about 1.2 MB traced when full, of which the
# oracle's base-word images are 0.27 MB; four-generator heads would be up
# to 1,554 entries and 5.5-8.4 MB before those images
HEAD_LENGTH = 3


# -- free group words ------------------------------------------------------


def reduce_word(word: Iterable[int]) -> Word:
    out: List[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert_word(word: Sequence[int]) -> Word:
    # tuples from lists: see ``curves._reverse_word``
    return tuple([-x for x in reversed(word)])


def cyclically_reduce(word: Iterable[int]) -> Word:
    # a reduced word stays reduced when both its ends are removed, so the
    # matching ends are stripped by moving two indices inwards
    w = reduce_word(word)
    i, j = 0, len(w) - 1
    while i < j and w[i] == -w[j]:
        i += 1
        j -= 1
    return w[i:j + 1]


def least_rotation(w: Word) -> Word:
    """The lexicographically least rotation of ``w``, in linear time.

    Duval's Lyndon factorization (Duval 1983) of ``w`` doubled: the last
    Lyndon factor starting in the first copy starts the least rotation.
    """
    n = len(w)
    s = w + w
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return s[start:start + n]


def conjugacy_key(word: Sequence[int], oriented: bool = True) -> Word:
    return _rotation_key(cyclically_reduce(word), oriented)


def _rotation_key(w: Word, oriented: bool) -> Word:
    """``conjugacy_key`` of a word ``w`` that is already cyclically reduced."""
    if not w:
        return w
    best = least_rotation(w)
    if oriented:
        return best
    return min(best, least_rotation(invert_word(w)))


# -- automorphisms ---------------------------------------------------------


def _letter_table(images: Tuple[Word, Word, Word]) -> Dict[int, Word]:
    """The image of each letter and of its inverse under generator images."""
    table = dict(zip((1, 2, 3), images))
    table.update({-k: invert_word(w) for k, w in table.items()})
    return table


class FreeAutomorphism:
    """An endomorphism of F(a, b, c) given by the images of the generators.

    Two are equal when their images are; the letter tables are built on
    first use.
    """

    def __init__(self, images: Tuple[Word, Word, Word]):
        self.images = images

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeAutomorphism) and self.images == other.images

    def __hash__(self) -> int:
        return hash((self.images,))

    @functools.cached_property
    def _letter_images(self) -> Dict[int, Word]:
        return _letter_table(self.images)

    @functools.cached_property
    def _letter_lengths(self) -> Dict[int, int]:
        return {k: len(w) for k, w in self._letter_images.items()}

    def apply(self, word: Sequence[int]) -> Word:
        """The reduced image of ``word``; past ``MAX_IMAGE_LETTERS`` letters
        before reduction, ``ImageTooLargeError`` is raised before any is built."""
        size = sum(map(self._letter_lengths.__getitem__, word))
        if size > MAX_IMAGE_LETTERS:
            raise ImageTooLargeError(
                f"the image of a {len(word)}-letter word has {size} letters before"
                f" reduction, more than {MAX_IMAGE_LETTERS}"
            )
        return reduce_word(chain.from_iterable(map(self._letter_images.__getitem__, word)))

    def compose(self, other: "FreeAutomorphism") -> "FreeAutomorphism":
        """self after other."""
        return FreeAutomorphism(tuple(self.apply(w) for w in other.images))

    def abelianization(self) -> List[List[int]]:
        """3x3 integer matrix whose columns are the generator images."""
        return [[w.count(k) - w.count(-k) for w in self.images] for k in (1, 2, 3)]


IDENTITY = FreeAutomorphism(((1,), (2,), (3,)))

# right-handed twist along the curve a (the hexagon curve C)
TWIST_C = FreeAutomorphism(((1,), (-1, 2), (-1, 3)))

# right-handed twist along the first vanishing cycle C1
TWIST_C1 = FreeAutomorphism(((3,), (3, -1, 2, -1, 3), (3, -1, 3)))
TWIST_C1_INV = FreeAutomorphism(((1, -3, 1), (1, -3, 2, -3, 1), (1,)))

# the order-three rotation of the hexagon
RHO = FreeAutomorphism(((3,), (-1,), (-2,)))
RHO_INV = RHO.compose(RHO)

TWIST_C2 = RHO.compose(TWIST_C1).compose(RHO_INV)
TWIST_C2_INV = RHO.compose(TWIST_C1_INV).compose(RHO_INV)
TWIST_C3 = RHO_INV.compose(TWIST_C1).compose(RHO)
TWIST_C3_INV = RHO_INV.compose(TWIST_C1_INV).compose(RHO)

GENERATORS: Dict[Tuple[str, int], FreeAutomorphism] = {
    ("c1", 1): TWIST_C1,
    ("c1", -1): TWIST_C1_INV,
    ("c2", 1): TWIST_C2,
    ("c2", -1): TWIST_C2_INV,
    ("c3", 1): TWIST_C3,
    ("c3", -1): TWIST_C3_INV,
}

BASE_WORDS: Dict[str, Word] = {
    "C": (1,),
    "C1": (-1, 3),
    "C2": (-3, -2),
    "C3": (2, 1),
}


def _base_images(auto: FreeAutomorphism) -> Tuple[Word, ...]:
    """The cyclically reduced images of ``BASE_WORDS`` under ``auto``, in
    sorted name order.  The letter table is built here and dropped, so an
    automorphism that the head table keeps holds none."""
    letters = _letter_table(auto.images)
    return tuple([
        cyclically_reduce(chain.from_iterable(map(letters.__getitem__, word)))
        for _, word in sorted(BASE_WORDS.items())
    ])


# -- token bridge ----------------------------------------------------------

# letter k is token k - 1 and letter -k token k + 2: the six hexagon letters
# and the six hexagon tokens, each table the other's inverse
_LETTER_TOKENS: Dict[int, int] = {1: 0, 2: 1, 3: 2, -1: 3, -2: 4, -3: 5}
_TOKEN_LETTERS: Dict[int, int] = {t: x for x, t in _LETTER_TOKENS.items()}


def _translate(table: Dict[int, int], values: Iterable[int], kind: str) -> Tuple[int, ...]:
    # a list first: a tuple grown from an iterator is reallocated at each
    # resize, which raised the peak memory of long runs of twist words
    try:
        return tuple([table[v] for v in values])
    except KeyError as exc:
        raise BlfkitError(f"{exc.args[0]!r} is not a hexagon {kind}") from None


def tokens_to_word(tokens: Sequence[int]) -> Word:
    return _translate(_TOKEN_LETTERS, tokens, "token")


def word_to_tokens(word: Sequence[int]) -> Tuple[int, ...]:
    return _translate(_LETTER_TOKENS, word, "letter")


# -- agreement suite -------------------------------------------------------


class AgreementReport(NamedTuple):
    count: int
    seed: int
    max_length: int
    word_agreements: int
    verdict_agreements: int
    homology_agreements: int
    failures: List[dict]

    @property
    def ok(self) -> bool:
        return (
            self.word_agreements == self.count
            and self.verdict_agreements == self.count
            and self.homology_agreements == self.count
        )

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "seed": self.seed,
            "max_length": self.max_length,
            "word_agreements": self.word_agreements,
            "verdict_agreements": self.verdict_agreements,
            "homology_agreements": self.homology_agreements,
            "ok": self.ok,
            "failures": self.failures,
        }


def _twist_words(count: int, seed: int, max_length: int) -> Iterator[List[Tuple[str, int]]]:
    """``count`` random twist words of 1 to ``max_length`` generators, drawn
    one at a time from ``random.Random(seed)``."""
    rng = random.Random(seed)
    gens = sorted(GENERATORS)
    for _ in range(count):
        length = rng.randint(1, max_length)
        yield [rng.choice(gens) for _ in range(length)]


def random_twist_words(count: int, seed: int, max_length: int) -> List[List[Tuple[str, int]]]:
    return list(_twist_words(count, seed, max_length))


class _HeadTable(dict):
    """Engine images of the base curves, the oracle automorphism, both
    sides' actions on homology and the oracle images of the base words
    under a word's head: its first one to ``HEAD_LENGTH`` generators.

    Key: the head, a tuple of generators, first acting first.  Value:
    ``(images, auto, action, abelianization, words)``: the engine images
    of the base curves in sorted name order, the head's automorphism, the
    engine's homology action of the head (``TwistWord.act_on_homology``),
    the automorphism's abelianization, both matrices as tuples of rows,
    and the cyclically reduced images of ``BASE_WORDS`` under the
    automorphism in sorted name order (``_base_images``).  A
    one-generator head twists each base curve once by
    ``twists.dehn_twist``; a longer head twists the images of the head one
    generator shorter once more and composes one automorphism.  The
    matrices and the words are computed from the head alone, and only a
    word that is the head reads them, so such a word does no free-group
    work.  Filled on first use, so an entry is work that the word asking
    for it needs anyway, but for the matrices and words of a shorter
    head; there are at most 6 + 36 + 216 heads.
    """

    def __init__(self, scheme: Scheme, base: List[ClosedCurve],
                 generators: Dict[Tuple[str, int], Tuple[ClosedCurve, int]]):
        super().__init__()
        self.scheme, self.base, self.generators = scheme, base, generators

    def __missing__(
        self, head: Tuple[Tuple[str, int], ...]
    ) -> Tuple[Tuple[ClosedCurve, ...], FreeAutomorphism, Matrix, Matrix, Tuple[Word, ...]]:
        from . import twists

        *first, g = head
        if first:
            images, auto = self[tuple(first)][:2]
            auto = GENERATORS[g].compose(auto)
        else:
            images, auto = self.base, GENERATORS[g]
        images = tuple([twists.dehn_twist(x, *self.generators[g]) for x in images])
        steps = tuple(reversed([self.generators[h] for h in head]))
        action = twists.TwistWord(steps).act_on_homology(self.scheme)
        self[head] = entry = (
            images, auto, tuple(map(tuple, action)), tuple(map(tuple, auto.abelianization())),
            _base_images(auto),
        )
        return entry


@functools.lru_cache(maxsize=None)
def _hexagon_fixture():
    """The hexagon scheme, its base curves, engine generators, base keys and
    head table.

    The curves are the negative-modification model's (``family_scenario(1)``):
    ``C`` and the cycles ``C1``, ``C2``, ``C3``, along which the engine
    twists for the generators ``("c1", +-1)``, ...  The unoriented keys of
    ``BASE_WORDS`` are the oracle's side of every isotopy verdict.  The
    head table (``_HeadTable``) starts empty and maps the first one to
    three generators of a word to the engine images of the base curves,
    the oracle automorphism, the engine's and the oracle's actions on
    homology, and the oracle images of the base words under them; every
    word of the agreement suite starts from one entry.  Built on first use
    and kept for the process, so that what depends only on the scheme and
    these curves (the intersection form, each generator's ``is_simple``
    verdict, canonical forms, head images, matrices and words) is computed
    once; ``cache_clear()`` drops it all.
    """
    from .scenarios import family_scenario

    sc = family_scenario(1)
    curves = {name: sc.curves[name] for name in BASE_WORDS}
    generators = {(name, p): (curves[name.upper()], p) for name, p in GENERATORS}
    base_keys = {name: conjugacy_key(w, oriented=False) for name, w in BASE_WORDS.items()}
    heads = _HeadTable(sc.scheme, [curves[name] for name in sorted(BASE_WORDS)], generators)
    return sc.scheme, curves, generators, base_keys, heads


def run_agreement_suite(count: int = 200, seed: int = 0, max_length: int = 5) -> AgreementReport:
    """Pit the word engine against the free-group oracle on random twists.

    For each word, every base curve's engine image must have the oracle
    image's conjugacy class, the engine and the oracle must agree on which
    base curves each image is isotopic to (unoriented), and the twists'
    action on homology must be the oracle's abelianization.  The words are
    drawn one at a time from ``random.Random(seed)``, the sequence of
    ``random_twist_words``, so memory does not grow with ``count`` and
    time grows linearly with it.  The scheme, curves and generators come
    from ``_hexagon_fixture``, built once per process, and each word starts
    from its head's entry in the fixture's head table, filled on first
    use: the engine images of the base curves, the automorphism, the
    engine's homology action, the automorphism's abelianization and its
    cyclically reduced images of the base words, under the word's first
    one to ``HEAD_LENGTH`` (three) generators.  The rest of the word, as a
    ``TwistWord``, is applied to each of those images, even when it is
    empty, and the oracle composes the rest onto the head's automorphism,
    so a word of k twists costs the engine 4(k - min(k, 3)) twists and the
    oracle k - min(k, 3) compositions once its head is in the table.  A
    word that is its own head (k <= 3) reads the oracle images and
    compares the two matrices its entry keeps, so it does no free-group
    work; a longer word reduces the base words' images under its whole
    automorphism by the entry's own helper (``_base_images``), and its
    homology check computes the whole word's action and abelianization.
    Every comparison after the images runs for every word, and no verdict
    is kept.  Two cyclically reduced words are conjugate exactly when one
    is a rotation of the other (Magnus, Karrass and Solitar, section 1.3),
    so an engine image agrees with the cyclically reduced oracle image when
    both, as strings of hexagon tokens, have one length and the engine's
    occurs in the oracle's doubled: one substring search, no key.  Only an
    oracle image no longer than some base word can match a base key, so
    only those get an unoriented ``conjugacy_key``, computed without
    reducing the image again.  A ``count`` below 1, which would check
    nothing, or a ``max_length`` below 1 raises ``BlfkitError``.
    """
    from .curves import curves_isotopic
    from .twists import TwistWord

    if count < 1:
        raise BlfkitError(f"count must be at least 1, not {count}")
    if max_length < 1:
        raise BlfkitError(f"max length must be at least 1, not {max_length}")
    scheme, base_curves, engine_gens, base_keys, heads = _hexagon_fixture()
    base_names = sorted(BASE_WORDS)
    longest = max(map(len, base_keys.values()))
    words_ok = verdicts_ok = homology_ok = 0
    failures: List[dict] = []
    for idx, gens in enumerate(_twist_words(count, seed, max_length)):
        # engine and oracle: the head's images, automorphism, matrices and
        # oracle images from the table, then the rest of the word in order
        steps = tuple(reversed([engine_gens[g] for g in gens]))
        head_images, auto, head_action, head_abelianization, oracle_images = (
            heads[tuple(gens[:HEAD_LENGTH])]
        )
        rest = TwistWord(steps[:-HEAD_LENGTH])
        if len(gens) > HEAD_LENGTH:
            for g in gens[HEAD_LENGTH:]:
                auto = GENERATORS[g].compose(auto)
            oracle_images = _base_images(auto)

        word_match = True
        images = []
        for head_img, oracle_img in zip(head_images, oracle_images):
            engine_img = rest.apply(head_img)
            # both words cyclically reduced, as bytes of hexagon tokens
            engine_str = bytes(engine_img.tokens)
            oracle_str = bytes(map(_LETTER_TOKENS.__getitem__, oracle_img))
            word_match &= len(engine_str) == len(oracle_str) and engine_str in oracle_str * 2
            oracle_key = None
            if len(oracle_img) <= longest:
                # an image longer than every base word matches none
                oracle_key = _rotation_key(oracle_img, oriented=False)
            images.append((engine_img, oracle_key))
        verdict_match = all(
            curves_isotopic(engine_img, base_curves[other]) == (oracle_key == base_keys[other])
            for engine_img, oracle_key in images
            for other in base_names
        )

        # a word that is its own head compares the two matrices its entry keeps
        if len(gens) <= HEAD_LENGTH:
            h_match = head_action == head_abelianization
        else:
            h_match = TwistWord(steps).act_on_homology(scheme) == auto.abelianization()
        homology_ok += h_match

        words_ok += word_match
        verdicts_ok += verdict_match
        if not (word_match and verdict_match and h_match):
            failures.append({"index": idx, "twists": [list(g) for g in gens]})
    return AgreementReport(
        count=count,
        seed=seed,
        max_length=max_length,
        word_agreements=words_ok,
        verdict_agreements=verdicts_ok,
        homology_agreements=homology_ok,
        failures=failures,
    )
