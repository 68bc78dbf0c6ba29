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
``-k`` to token ``k + 2``.

Images grow exponentially with the number of twists composed, about
threefold per twist.  An automorphism counts the letters of an image
before building it, and past ``MAX_IMAGE_LETTERS`` raises
``ImageTooLargeError``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import BlfkitError, ImageTooLargeError

Word = Tuple[int, ...]

# the most letters an image is built from before reduction, 8 MB of list
# pointers on a 64-bit build: about 1,400 times the longest image (717
# letters) that ``run_agreement_suite(200, seed, 5)`` composes for seeds 0
# and 7, and reached after 13-15 twists of a random word
MAX_IMAGE_LETTERS = 1_000_000


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


def cyclically_reduce(word: Sequence[int]) -> Word:
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
    w = cyclically_reduce(word)
    if not w:
        return w
    best = least_rotation(w)
    if oriented:
        return best
    return min(best, least_rotation(invert_word(w)))


def conjugate_words(w1: Sequence[int], w2: Sequence[int], oriented: bool = True) -> bool:
    return conjugacy_key(w1, oriented) == conjugacy_key(w2, oriented)


# -- automorphisms ---------------------------------------------------------


@dataclass(frozen=True)
class FreeAutomorphism:
    """An endomorphism of F(a, b, c) given by the images of the generators."""

    images: Tuple[Word, Word, Word]

    @functools.cached_property
    def _letter_images(self) -> Dict[int, Word]:
        images = dict(zip((1, 2, 3), self.images))
        images.update({-k: invert_word(w) for k, w in images.items()})
        return images

    @functools.cached_property
    def _letter_lengths(self) -> Dict[int, int]:
        return {k: len(w) for k, w in self._letter_images.items()}

    def image_of(self, letter: int) -> Word:
        return self._letter_images[letter]

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
        mat = [[0] * 3 for _ in range(3)]
        for j, w in enumerate(self.images):
            for x in w:
                mat[abs(x) - 1][j] += 1 if x > 0 else -1
        return mat


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


# -- token bridge ----------------------------------------------------------


def letter_to_token(letter: int) -> int:
    return letter - 1 if letter > 0 else 2 - letter


def token_to_letter(token: int) -> int:
    return token + 1 if token < 3 else 2 - token


def tokens_to_word(tokens: Sequence[int]) -> Word:
    return tuple([token_to_letter(t) for t in tokens])


def word_to_tokens(word: Sequence[int]) -> Tuple[int, ...]:
    return tuple([letter_to_token(x) for x in word])


# -- agreement suite -------------------------------------------------------


@dataclass
class AgreementReport:
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


def random_twist_words(count: int, seed: int, max_length: int) -> List[List[Tuple[str, int]]]:
    rng = random.Random(seed)
    gens = sorted(GENERATORS)
    out = []
    for _ in range(count):
        length = rng.randint(1, max_length)
        out.append([rng.choice(gens) for _ in range(length)])
    return out


@functools.lru_cache(maxsize=None)
def _hexagon_fixture():
    """The hexagon scheme, its base curves, engine generators and base keys.

    The curves are the negative-modification model's (``family_scenario(1)``):
    ``C`` and the cycles ``C1``, ``C2``, ``C3``, along which the engine
    twists for the generators ``("c1", +-1)``, ...  The unoriented keys of
    ``BASE_WORDS`` are the oracle's side of every isotopy verdict.  Built
    on first use and kept for the process, so that what depends only on
    the scheme and these curves (the intersection form, each generator's
    ``is_simple`` verdict, canonical forms) is computed once.
    """
    from .scenarios import family_scenario

    sc = family_scenario(1)
    curves = {name: sc.curves[name] for name in BASE_WORDS}
    generators = {(name, p): (curves[name.upper()], p) for name, p in GENERATORS}
    base_keys = {name: conjugacy_key(w, oriented=False) for name, w in BASE_WORDS.items()}
    return sc.scheme, curves, generators, base_keys


def run_agreement_suite(count: int = 200, seed: int = 0, max_length: int = 5) -> AgreementReport:
    """Pit the word engine against the free-group oracle on random twists.

    For each word, every base curve's engine image must have the oracle
    image's conjugacy class, the engine and the oracle must agree on which
    base curves each image is isotopic to (unoriented), and the twists'
    action on homology must be the oracle's abelianization.  The scheme,
    curves and generators come from ``_hexagon_fixture``, built once per
    process.  An oracle image is reduced and rotated once for both keys,
    and its inverse only if no longer than some base word.  A negative
    ``count`` or a ``max_length`` below 1 raises ``BlfkitError``.
    """
    from .curves import curves_isotopic
    from .twists import TwistWord

    if count < 0:
        raise BlfkitError(f"count must be at least 0, not {count}")
    if max_length < 1:
        raise BlfkitError(f"max length must be at least 1, not {max_length}")
    scheme, base_curves, engine_gens, base_keys = _hexagon_fixture()
    base_names = sorted(BASE_WORDS)
    longest = max(map(len, base_keys.values()))
    words_ok = verdicts_ok = homology_ok = 0
    failures: List[dict] = []
    for idx, gens in enumerate(random_twist_words(count, seed, max_length)):
        # engine: apply the twists in order; oracle: compose the tables
        steps = tuple(reversed([engine_gens[g] for g in gens]))
        tword = TwistWord(steps)
        auto = IDENTITY
        for g in gens:
            auto = GENERATORS[g].compose(auto)

        word_match = True
        images = []
        for name in base_names:
            engine_img = tword.apply(base_curves[name])
            oracle_img = cyclically_reduce([y for x in BASE_WORDS[name] for y in auto.image_of(x)])
            oracle_key = least_rotation(oracle_img)
            word_match &= conjugacy_key(tokens_to_word(engine_img.tokens)) == oracle_key
            # an image longer than every base word matches none either way
            if len(oracle_img) <= longest:
                oracle_key = min(oracle_key, least_rotation(invert_word(oracle_img)))
            images.append((engine_img, oracle_key))
        verdict_match = all(
            curves_isotopic(engine_img, base_curves[other]) == (oracle_key == base_keys[other])
            for engine_img, oracle_key in images
            for other in base_names
        )

        engine_mat = tword.act_on_homology(scheme)
        if engine_mat == auto.abelianization():
            homology_ok += 1
            h_match = True
        else:
            h_match = False

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
