"""Brute-force oracles shared by more than one test file."""

from matsuki.rootdata import height


def decomposes(datum, generators, target):
    """Bounded search for a non-negative integer combination of the
    generators equal to target."""
    if all(x == 0 for x in target):
        return True
    if not generators:
        return False
    g, rest = generators[0], generators[1:]
    cur = target
    for _ in range(height(datum, target) // height(datum, g) + 1):
        if decomposes(datum, rest, cur):
            return True
        cur = tuple(a - b for a, b in zip(cur, g))
    return False
