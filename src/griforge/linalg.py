"""Small dense-matrix helpers over Z/mZ with centered entries."""

from operator import mul

from .poly import _pack, _unpack
from .zmod import centered


def pack_rows(a, m: int) -> tuple[tuple[int, ...], int, int, tuple[int, int, int]]:
    """The rows of the square matrix a Kronecker-packed for vec_mat, the offset, width w, masks.

    Row entries are packed as residues in [0, m). A centered v has entries
    in [-((m-1)//2), m//2], so slot j of the sum of v_i * row_i lies in
    [-n((m-1)//2)(m-1), n(m//2)(m-1)]. The offset holds off = m*ceil(n(m-1)/2)
    in every slot: off is 0 mod m and at least minus the lowest slot sum,
    so it lifts every slot into [0, 2^w) without changing its residue.
    off >= m, so w >= bits(m). The masks, built once here for _in_box at
    m = 2^s, hold 1, m - 1 and m in each of the n slots.
    """
    n = len(a)
    off = m * ((n * (m - 1) + 1) // 2)
    w = (n * (m // 2) * (m - 1) + off).bit_length()
    ones = ((1 << n * w) - 1) // ((1 << w) - 1)  # 1 in each of the n slots
    return tuple(_pack(r, w, m) for r in a), off * ones, w, (ones, (m - 1) * ones, m * ones)


def vec_mat(v, packed, m: int) -> list[int]:
    """v (zero-padded) times the square matrix pack_rows packed, centered mod m.

    One sum of v_i * row_i over the offset. v must be centered mod m,
    the range that pack_rows sizes the offset and slot width for, or be
    raw draws x_i = v_i + k with packed from _lowered(packed, k), which
    gives every slot the same sum.
    """
    rows, offset, w, _ = packed
    return _unpack(sum(map(mul, v, rows), offset), w, len(rows), m)


def _lowered(packed, k: int):
    """packed with its offset lowered by k * sum(rows), for vectors shifted up by k.

    sum((v_i + k) * row_i) is sum(v_i * row_i) + k * sum(rows), so over the
    lowered offset vec_mat of the shifted vector is vec_mat of v itself.
    """
    rows, offset, w, masks = packed
    return rows, offset - k * sum(rows), w, masks


def _in_box(v, packed, m: int, beta: int) -> bool:
    """Whether every entry of vec_mat(v, packed, m) lies in [-beta, beta].

    At m = 2^s a slot's residue r is its low s bits, so every slot of the
    one packed sum is tested at once: y holds (r + beta) mod m in each
    slot, and the entry is in the box iff y <= 2 beta, iff y + m - 1 - 2 beta
    leaves bit s clear. While 2 beta < m every step stays below 2m in each
    slot, and w >= s + 1 (see pack_rows), so no bit carries into the next
    slot. Other m read the slots from bit 0 up until a residue lies
    strictly between beta and m - beta, where its centered value is out
    of the box. A negative beta counts as 0, so a zero product is in the
    box at every beta; a beta of at least m/2 admits every vector.
    """
    rows, offset, w, (ones, low, high) = packed
    x, b = sum(map(mul, v, rows), offset), max(beta, 0)
    if not m & (m - 1):
        y = ((x & low) + b * ones) & low
        return 2 * b >= m or not (y + (m - 1 - 2 * b) * ones) & high
    mask = (1 << w) - 1
    for _ in rows:
        if b < (x & mask) % m < m - b:
            return False
        x >>= w
    return True


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
