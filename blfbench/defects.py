"""Ledger of the checks that fail today because of known program defects.

A failure listed here is still counted in ``failed`` and ``fail_ratio``;
the ledger only decides whether a run is ``correct`` (no failure outside
it).  Remove an entry once the defect is fixed.
"""

# (check kind, subject or None for every subject) -> why it fails today
KNOWN_DEFECTS = {
    ("ladder.twist_invariance", None):
        "i(T_c^k x, c) = i(x, c) fails: TautConfig leaves bigons (ROADMAP item 1)",
    ("paper.reduced_handedness", "positive-modification"):
        "derived right-handed expectation is refuted by the engine (criterion 3)",
}


def is_known(failure_key: str) -> bool:
    """``failure_key`` is ``"<check kind>|<subject>"``, as the recorder counts it."""
    kind, subject = failure_key.split("|", 1)
    return any(
        kind == k and (s is None or subject == s) for k, s in KNOWN_DEFECTS
    )
