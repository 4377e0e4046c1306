"""Text of float64 table cells, byte for byte as ``f"{x:.16e}"``, a block at a time.

Python formats one number per call (``%.16e`` is dtoa's correctly rounded
17-significant-digit decimal); here one numpy pass formats a whole block.  For
1e-280 <= |x| < 1e280 and e = floor(log10 |x|), the scaled value
s = |x| 10^(16 - e) is held as p + sl: p = fl(|x| P_hi) is an integer (it is at
least 2^53) and sl is Dekker's exact error of that product (Dekker, Numer.
Math. 18, 1971) plus |x| P_lo, where P_hi + P_lo is 10^(16 - e) to 106 bits.
sl is within 1e-14 of s - p, so p + floor(sl) is floor(s), and frac =
sl - floor(sl) rounds the 17 digits to nearest unless it lies within 1e-6 of a
half.  ``fmt`` formats each cell the pass cannot certify that way: NaN, +-inf,
a magnitude outside the range, a misjudged e (floor(s) outside 10^16 .. 10^17),
a rounding that would carry to 10^17 and a near-tie.  Zero is
0.0000000000000000e+00 with its sign.

A cell's text is laid out in uint32 words, so that each word is written by one
table lookup: '-', the lead digit, '.' and the first decimal; three 4-digit
groups; the last three decimals and 'e'; the exponent's sign and three digits;
then the separator.  A mask drops the '-' of a positive cell, the hundreds of a
two-digit exponent and the separator's padding.
"""

from __future__ import annotations

import math

import numpy as np

E_LO, E_HI = -280, 280  # the decimal exponents formatted here: 1e-280 <= |x| < 1e280
TEXT = 24  # bytes of the longest text: -d.dddddddddddddddde-ddd
SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
TEN16, TEN17 = 10**16, 10**17


def _powers():
    """10^(16 - e) to 106 bits for e = E_LO - 1 .. E_HI, every e that floor(log10)
    gives in the range, as (P_hi, P_lo) and P_hi's Dekker halves.  Each part is
    rounded once from the exact rational, in integers."""
    hi, lo = [], []
    n = 10 ** (17 - E_LO)
    for _ in range(E_LO - 1, 17):  # 10^(16 - e) = n
        h = float(n)
        hi.append(h)
        lo.append(float(n - int(h)))
        n //= 10
    d = 10
    for _ in range(17, E_HI + 1):  # 10^(16 - e) = 1 / d
        h = 1 / d  # int true division rounds correctly
        a, b = h.as_integer_ratio()  # b is a power of two
        hi.append(h)
        lo.append(math.ldexp((b - a * d) / d, 1 - b.bit_length()))
        d *= 10
    hi, lo = np.array(hi), np.array(lo)
    c = SPLIT * hi
    hh = c - (c - hi)
    return hi, lo, hh, hi - hh


def _words(*choices: bytes) -> np.ndarray:
    """A uint32 of four bytes, one from each of ``choices``, for every combination,
    the first choice varying slowest."""
    grids = np.meshgrid(*[np.frombuffer(c, np.uint8) for c in choices], indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, 4).view(np.uint32).ravel()


P_HI, P_LO, P_HH, P_HL = _powers()
D = b"0123456789"  # the decimal numerals
HEAD = _words(b"-", D, b".", D)  # index: the first two digits
DIGITS4 = _words(D, D, D, D)  # index: four digits
TAIL = _words(D, D, D, b"e")  # index: the last three digits
_e = np.arange(E_LO - 1, E_HI + 1)
EXPONENT = _words(b"-+", D, D, D)[(_e >= 0) * 1000 + abs(_e)]  # index: e - E_LO + 1
del _e


def _decimal(x: np.ndarray):
    """(digits, e, certified) of each cell: |x| rounds to digits 10^(e - 16) with
    10^16 <= digits < 10^17.  A zero and every cell left to ``fmt`` hold
    digits = e = 0."""
    a = np.abs(x)
    zero = a == 0.0
    ranged = (a >= 10.0**E_LO) & (a < 10.0**E_HI)  # False for NaN
    a = np.where(ranged, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    i = e - (E_LO - 1)
    p = a * P_HI[i]
    c = SPLIT * a
    ah = c - (c - a)
    al = a - ah
    hh, hl = P_HH[i], P_HL[i]
    sl = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * P_LO[i]
    fl = np.floor(sl)
    frac = sl - fl
    floor = p.astype(np.int64) + fl.astype(np.int64)
    digits = floor + (frac > 0.5)
    # floor(s) >= 10^16 confirms e; a cell whose rounding carries to 10^17 is left
    # to fmt too
    certified = ranged & (floor >= TEN16) & (digits < TEN17) & (np.abs(frac - 0.5) > 1e-6)
    digits[~certified] = 0  # a zero's digits, and table indices for fmt's cells
    e[~certified] = 0
    return digits, e, certified | zero


def fmt(x) -> str:
    """One number's text, as Python formats it one call at a time."""
    return f"{float(x):.16e}"


def format_rows(block: np.ndarray, cell_sep: bytes, row_sep: bytes) -> np.ndarray:
    """The text of a (rows, columns) float64 block as uint8 bytes: each cell as
    ``fmt`` writes it, ``cell_sep`` after each cell but the last of its row and
    ``row_sep`` after that one.  ``fmt`` itself formats only the cells the pass
    cannot certify."""
    rows, cols = block.shape
    x = block.ravel()
    digits, e, certified = _decimal(x)
    seps = -(-max(len(cell_sep), len(row_sep)) // 4)  # words
    text = np.empty((rows, cols, TEXT // 4 + seps), np.uint32)
    words = text.reshape(x.size, -1)
    high = digits // 10**7  # the first ten digits, and the last seven
    low = digits - high * 10**7
    top = high // 10**8
    high -= top * 10**8
    group = high // 10**4
    words[:, 0] = HEAD[top]
    words[:, 1] = DIGITS4[group]
    words[:, 2] = DIGITS4[high - group * 10**4]
    group = low // 1000
    words[:, 3] = DIGITS4[group]
    words[:, 4] = TAIL[low - group * 1000]
    words[:, 5] = EXPONENT[e - (E_LO - 1)]
    text[:, :-1, TEXT // 4:] = np.frombuffer(cell_sep.ljust(4 * seps, b"\0"), np.uint32)
    text[:, -1, TEXT // 4:] = np.frombuffer(row_sep.ljust(4 * seps, b"\0"), np.uint32)

    chars = text.view(np.uint8).reshape(x.size, -1)
    keep = np.ones((rows, cols, chars.shape[1]), bool)
    keep[:, :-1, TEXT + len(cell_sep):] = False
    keep[:, -1, TEXT + len(row_sep):] = False
    keep = keep.reshape(x.size, -1)
    keep[:, 0] = np.signbit(x)  # the '-'
    keep[:, 21] = np.abs(e) >= 100  # the exponent's hundreds
    other = np.flatnonzero(~certified)
    if other.size:
        texts = np.array(list(map(fmt, x[other].tolist())), f"S{TEXT}")  # NUL-padded
        chars[other, :TEXT] = texts.view(np.uint8).reshape(-1, TEXT)
        keep[other, :TEXT] = chars[other, :TEXT] != 0
    return chars[keep]
