"""Small dense-matrix helpers over Z/mZ with centered entries."""

from .poly import _pack, _unpack, _width
from .zmod import centered, invmod


def pack_rows(a, m: int) -> tuple[int, ...]:
    """The rows of the square matrix a, Kronecker-packed for vec_mat."""
    w = _width(len(a), m)
    return tuple(_pack(r, w, m) for r in a)


def vec_mat(v, rows, m: int) -> list[int]:
    """v (zero-padded) times the square matrix pack_rows packed: one sum of (v_i mod m) * row_i."""
    n = len(rows)
    return _unpack(sum((c % m) * r for c, r in zip(v, rows)), _width(n, m), n, m)


def mat_inv_mod(a, m: int, p: int) -> list[list[int]]:
    """Invert a over Z/mZ, m = p^s, by Gauss-Jordan with unit pivots.

    Succeeds exactly when a mod p is invertible over F_p: a unit pivot
    (entry not divisible by p) then exists in every column.
    """
    n = len(a)
    aug = [[centered(x, m) for x in r] + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] % p != 0), None)
        if piv is None:
            raise ValueError("matrix is not invertible modulo p")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = invmod(aug[col][col], m)
        aug[col] = [centered(x * inv, m) for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [centered(x - c * y, m) for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
