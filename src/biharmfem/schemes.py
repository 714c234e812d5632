"""The scheme table: which space kinds make each scheme and Stokes pair.

The solvers, studies, exactness reports and command-line choices all read
these tables, so a further order is one more row.
"""

#: (velocity kind, pressure kind) of each Stokes pair
PAIRS = {
    "g2p0": ("G2_0", "DG0"),
    "g2p1": ("G2_0", "DG1"),
    "g3p2": ("G3_0", "DG2"),
}

#: (potential kind, Stokes pair) of each scheme solved in three stages;
#: None for the direct Morley Galerkin solve
SCHEMES = {
    "morley": None,
    "cubic": ("A3_0", "g2p1"),
    "quartic": ("A4_0", "g3p2"),
}

#: the schemes solved through a Stokes pair, whose complexes are verified
DECOMPOSED = tuple(name for name, row in SCHEMES.items() if row is not None)


def lookup(table: dict, name: str, what: str):
    """table[name], or a KeyError that names the known entries."""
    try:
        return table[name]
    except KeyError:
        raise KeyError(f"unknown {what} '{name}'; known: "
                       f"{sorted(table)}") from None
