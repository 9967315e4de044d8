"""Small dense-matrix helpers over Z/mZ with centered entries."""

import struct
from operator import mul

from .poly import _pack, _unpack
from .zmod import centered

# the m = 2^s whose s-bit slots fill a signed struct code exactly, and that code
_SIGNED = {1 << 8: "b", 1 << 16: "h", 1 << 32: "i", 1 << 64: "q"}
# rows, offset, slot width w, masks, reader: what pack_rows returns
_Packed = tuple[tuple[int, ...], int, int, tuple[int, int, int], struct.Struct | None]


def pack_rows(a, m: int) -> _Packed:
    """The rows of the square matrix a Kronecker-packed for vec_mat, offset, width w, masks, reader.

    Row entries are packed as residues in [0, m). A centered v has entries
    in [-((m-1)//2), m//2], so slot j of the sum of v_i * row_i lies in
    [-n((m-1)//2)(m-1), n(m//2)(m-1)]. The offset holds off = m*ceil(n(m-1)/2)
    in every slot: off is 0 mod m and at least minus the lowest slot sum,
    so it lifts every slot into [0, 2^w) without changing its residue.
    No slot carries into the next, so the lifted sum x is below 2^(n*w).
    off >= m, so w >= bits(m) = s + 1 at m = 2^s. The masks, built once
    here for _in_box at m = 2^s, hold 1, m - 1 and m in each of the n
    slots. At m = 2^8, 2^16, 2^32 and 2^64, w is rounded up to whole
    bytes; a wider slot still holds every lifted sum and w >= s + 1. The
    reader is then a struct that reads all n slots from x's n*w/8
    little-endian bytes: per slot the s/8 bytes of its residue, signed,
    then pad bytes. Other m get no reader (None).
    """
    n = len(a)
    off = m * ((n * (m - 1) + 1) // 2)
    w = (n * (m // 2) * (m - 1) + off).bit_length()
    read = None
    if m in _SIGNED:
        w = -(-w // 8) * 8
        read = struct.Struct("<" + f"{_SIGNED[m]}{w // 8 - (m.bit_length() - 1) // 8}x" * n)
    ones = ((1 << n * w) - 1) // ((1 << w) - 1)  # 1 in each of the n slots
    return tuple(_pack(r, w, m) for r in a), off * ones, w, (ones, (m - 1) * ones, m * ones), read


def vec_mat(v, packed, m: int) -> list[int]:
    """v (zero-padded) times the square matrix pack_rows packed, centered mod m.

    One sum of v_i * row_i over the offset. v must be centered mod m,
    the range that pack_rows sizes the offset and slot width for, or be
    raw draws x_i = v_i + k with packed from _lowered(packed, k), which
    gives every slot the same sum. With a reader, one struct read gives
    every slot. A signed read of exactly s bits lies in [-m/2, m/2), so it
    is centered except where it reads -m/2, whose centered value is m/2.
    """
    rows, offset, w, _, read = packed
    x = sum(map(mul, v, rows), offset)
    if read is None:
        return _unpack(x, w, len(rows), m)
    out, half = read.unpack(x.to_bytes(read.size, "little")), m // 2
    return [half if r == -half else r for r in out] if -half in out else list(out)


def _lowered(packed, k: int):
    """packed with its offset lowered by k * sum(rows), for vectors shifted up by k.

    sum((v_i + k) * row_i) is sum(v_i * row_i) + k * sum(rows), so over the
    lowered offset vec_mat of the shifted vector is vec_mat of v itself.
    """
    rows, offset, w, masks, read = packed
    return rows, offset - k * sum(rows), w, masks, read


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
    rows, offset, w, (ones, low, high), _ = packed
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
