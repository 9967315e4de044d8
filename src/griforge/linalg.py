"""Small dense-matrix helpers over Z/mZ with centered entries."""

from operator import mul

from .poly import _pack, _unpack
from .zmod import centered


def pack_rows(a, m: int) -> tuple[tuple[int, ...], int, int]:
    """The rows of the square matrix a Kronecker-packed for vec_mat, the offset and the slot width w.

    Row entries are packed as residues in [0, m). A centered v has entries
    in [-((m-1)//2), m//2], so slot j of the sum of v_i * row_i lies in
    [-n((m-1)//2)(m-1), n(m//2)(m-1)]. The offset holds off = m*ceil(n(m-1)/2)
    in every slot: off is 0 mod m and at least minus the lowest slot sum,
    so it lifts every slot into [0, 2^w) without changing its residue.
    """
    n = len(a)
    off = m * ((n * (m - 1) + 1) // 2)
    w = (n * (m // 2) * (m - 1) + off).bit_length()
    offset = off * ((1 << n * w) - 1) // ((1 << w) - 1)  # off in each of the n slots
    return tuple(_pack(r, w, m) for r in a), offset, w


def vec_mat(v, packed, m: int) -> list[int]:
    """v (zero-padded) times the square matrix pack_rows packed, centered mod m.

    One sum of v_i * row_i over the offset. v must be centered mod m,
    the range that pack_rows sizes the offset and slot width for.
    """
    rows, offset, w = packed
    return _unpack(sum(map(mul, v, rows), offset), w, len(rows), m)


def _row_reduce(rows, m: int, p: int):
    """Reduced row echelon form over Z/mZ, m = p^s, pivoting on units only.

    Returns the rows, entries in [0, m), and their pivot columns; for
    m = p every nonzero entry is a unit, so len(pivots) is the F_p rank.
    """
    a = [[x % m for x in r] for r in rows]
    pivots = []
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col] % p), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], -1, m)
        top = a[r] = [x * inv % m for x in a[r]]
        for i, row in enumerate(a):
            c = row[col]
            if c and i != r:
                a[i] = [(x - c * y) % m for x, y in zip(row, top)]
        pivots.append(col)
    return a, pivots


def mat_inv_mod(a, m: int, p: int) -> list[list[int]]:
    """Invert a over Z/mZ, m = p^s, by Gauss-Jordan on [a | I] with unit pivots.

    Succeeds exactly when a mod p is invertible over F_p: a unit pivot
    (entry not divisible by p) then exists in every column of a.
    """
    n = len(a)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    rows, pivots = _row_reduce(aug, m, p)
    if pivots != list(range(n)):
        raise ValueError("matrix is not invertible modulo p")
    return [[centered(x, m) for x in r[n:]] for r in rows]
