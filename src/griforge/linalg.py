"""Small dense-matrix helpers over Z/mZ with centered entries."""

from .zmod import centered, invmod


def mat_mul(a, b, m: int) -> list[list[int]]:
    cols = len(b[0])
    return [
        [centered(sum(ra[t] * b[t][j] for t in range(len(ra))), m) for j in range(cols)]
        for ra in a
    ]


def vec_mat(v, a, m: int) -> list[int]:
    cols = len(a[0])
    return [centered(sum(v[i] * a[i][j] for i in range(len(v))), m) for j in range(cols)]


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
