"""The walk of ``posetprod.poset.support_walk`` as it was built on tuple
series, kept as an independent oracle.

Every factor is a tuple of D + 1 coefficients, multiplied into the series
by a truncated convolution; the walk's decisions and their order are those
of the library.
"""

from posetprod.poset import PointedPoset


def _convolve(a: tuple, b: tuple, D: int) -> tuple[int, ...]:
    """Product of two series with D + 1 coefficients, truncated at degree D."""
    out = [0] * (D + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(D + 1 - i):
                out[i + j] += x * b[j]
    return tuple(out)


def support_walk(P: PointedPoset, order, N: dict, K: dict, D: int, C: dict | None = None):
    """Yield (S, Q, series, U_S, B) in the order of ``poset.support_walk``."""
    opens = {v for v in order if any(C[v])} if C is not None else ()
    stack = [(0, (), (), (1,) + (0,) * D, frozenset(P.objects), frozenset())]
    while stack:
        i, support, cokernel, series, up, below = stack.pop()
        if i == len(order):
            yield support, cokernel, series, up, below
            continue
        v = order[i]
        above = P.up_set(v)
        if v in opens:
            with_q = _convolve(series, C[v], D)
            below_q = below | (up & above)
            if len(below_q) < len(up) and any(with_q):
                stack.append((i + 1, support, cokernel + (v,), with_q, up, below_q))
        up_v = up & above
        below_v = below & above if below else below
        with_v = _convolve(series, K[v], D)
        if len(below_v) < len(up_v) and any(with_v):
            stack.append((i + 1, support + (v,), cokernel, with_v, up_v, below_v))
        without_v = _convolve(series, N[v], D)
        if any(without_v):
            stack.append((i + 1, support, cokernel, without_v, up, below))
