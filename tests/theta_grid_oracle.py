"""Recursive oracle for the simplex lattice of CARE weights.

The library enumerates the lattice by stars and bars.  The reference here is
the original enumeration: a recursion that fixes one coordinate at a time, in
increasing order, and gives the last coordinate every value the remaining
budget allows, which yields the points in lexicographic order.
"""


def recursive_theta_points(num_externals: int, resolution: int) -> tuple[tuple[float, ...], ...]:
    """All (k_1, ..., k_M) / resolution with k_m >= 0 and sum k_m <= resolution."""
    points: list[tuple[float, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int):
        if len(prefix) == num_externals - 1:
            for k in range(remaining + 1):
                points.append((*prefix, k))
            return
        for k in range(remaining + 1):
            extend((*prefix, k), remaining - k)

    extend((), resolution)
    return tuple(tuple(k / resolution for k in p) for p in points)
