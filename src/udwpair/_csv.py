"""The CSV kernel: float rows as text, each value byte for byte '%.17g'.

'%.17g' gives a float's correctly rounded 17 significant digits through
Gay's bignum dtoa, at about 400 ns a value.  This kernel finds the same
digits for a block of values in numpy, from a double-double product
(Dekker, Numer. Math. 18, 1971), and lays them out by the %g rules, so that
its text is byte for byte that of '%.17g'.  A value whose digits it cannot
certify is written by '%.17g' instead.
"""

import functools
from typing import NamedTuple

import numpy as np

_CSV_BLOCK_ROWS = 512  # rows per kernel pass, a preset curve's 401 in one: bounds its transients, 0.9 KiB a row
_PIECE = 16_384  # slot bytes whose NULs go at a time: no block's slots are copied whole
_K_MAX = 280  # the kernel's decimal exponents k, |k| <= 280
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into halves
_TIE = 1e-9  # a digit that rounds this close to a tie is left to '%.17g'


def _words(texts, width: int):
    """NUL-padded one-byte-a-character texts as rows of `width` uint32 words."""
    raw = b"".join(t.encode("latin-1").ljust(4 * width, b"\0") for t in texts)
    return np.frombuffer(raw, np.uint32).reshape(len(texts), width)


class _CsvTables(NamedTuple):
    hi: np.ndarray
    hi_high: np.ndarray
    lo: np.ndarray
    quads: np.ndarray
    masks: np.ndarray
    marks: np.ndarray
    exps: np.ndarray


@functools.cache
def _csv_tables() -> _CsvTables:
    """The kernel's tables, built on first use so that point and verify
    never pay for them.  Row k + 280 of each per-exponent table is for the
    decimal exponent k.

    A value is laid out in 32 bytes, and its NUL bytes are then dropped.
    The head (bytes 0-19) and the tail (4-23) are each a frame of its 17
    digits at bytes 3-19 of the frame, four digits a word, ORed together
    where they overlap.  The head keeps the s digits before the point, at
    bytes 3 to 2 + s, the tail those after it, without trailing zeros, from
    byte 7 + s; the point, or "0." and leading zeros, sit at byte 3 + s or
    below.  Byte 0 holds the sign, bytes 24-28 the exponent and byte 29 the
    separator.

    hi, lo   10^(16 - k) as the double-double hi + lo
    hi_high  hi's high half in Veltkamp's split
    quads    "0000" to "9999" as words, then each without trailing zeros
    masks    the bytes of the two frames that print, one row per uint32
             word of each frame, the head's then the tail's
    marks    per point (none, one): the bytes that the point, or "0." and
             leading zeros take, one row per uint64 word
    exps     the exponent's word pair, empty in fixed notation
    """
    ks = range(-_K_MAX, _K_MAX + 1)
    hi, lo = [], []
    for k in ks:
        num, den = 10 ** max(16 - k, 0), 10 ** max(k - 16, 0)
        h = num / den  # int / int is correctly rounded
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    hi_high = hi * _SPLIT
    hi_high -= hi_high - hi
    quads = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
    quads = (quads % 10 + ord("0")).astype(np.uint8)
    bare = np.logical_and.accumulate(quads[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    quads = np.concatenate([quads, np.where(bare, 0, quads)]).view(np.uint32)[:, 0]
    # %g: fixed notation for -4 <= k < 17, with s digits before the point
    fixed = [-4 <= k < 17 for k in ks]
    before = [k + 1 if f and k >= 0 else int(not f) for k, f in zip(ks, fixed)]
    masks = ["\0" * 3 + "\xff" * s + "\0" * 20 + "\xff" * (17 - s) for s in before]
    marks = [
        "\0" + ("0." + "0" * (-k - 1) if f and k < 0 else "\0" * (2 + s) + point * (s < 17))
        for point in ("", ".")
        for k, f, s in zip(ks, fixed, before)
    ]
    exps = ["" if f else f"e{k:+03d}" for k, f in zip(ks, fixed)]
    return _CsvTables(
        hi,
        hi_high,
        np.array(lo),
        quads,
        np.ascontiguousarray(_words(masks, 10).T),
        np.ascontiguousarray(_words(marks, 6).view(np.uint64).T),
        _words(exps, 2).view(np.uint64)[:, 0],
    )


def _decimal(x):
    """(row, digits, exact) of a flat float array: row is the table row of
    the decimal exponent k of each value, and digits is round(|x| 10^(16-k))
    in [10^16, 10^17), its 17 significant digits, where exact is True.
    exact is False where the digits cannot be certified: x not finite, 0
    or outside about [1e-280, 1e281]; log10 off by one, or a rounding carry
    to an 18th digit; or digits within _TIE of a tie, which '%.17g' rounds
    half to even."""
    tables = _csv_tables()
    with np.errstate(all="ignore"):  # 0 and non-finite x fail exact
        a = np.abs(x)
        k = np.log10(a)
        np.floor(k, out=k)
        exact = np.abs(k) <= _K_MAX
        k[~exact] = 0.0
        row = k.astype(np.intp)
        row += _K_MAX
        # p + low = a (hi + lo), p the double product and low the rest: Dekker's
        # two-product of a and hi with Veltkamp's split of each, summed in
        # place, each factor taken when it is first needed and a again from x
        # for the last term, so that at most seven arrays of x's size live and
        # no step leaves a hole under the slots that follow (README, _csv)
        p = tables.hi[row]
        p *= a
        t = np.multiply(a, _SPLIT, out=k)
        a_high = np.subtract(t, a)
        np.subtract(t, a_high, out=a_high)
        a_low = np.subtract(a, a_high, out=t)
        del a
        b_high = tables.hi_high[row]
        low = a_high * b_high
        low -= p
        b_low = tables.hi[row]
        b_low -= b_high
        low += np.multiply(a_high, b_low, out=a_high)
        low += np.multiply(a_low, b_high, out=b_high)
        low += np.multiply(a_low, b_low, out=b_low)
        del b_high, b_low
        low += np.multiply(np.abs(x, out=a_high), tables.lo[row], out=a_high)
        del a_high
        r = np.rint(low, out=a_low)  # p is a whole number wherever exact holds
        digits = p.astype(np.int64)
        digits += r.astype(np.int64)
        low -= r  # the digits' rounding offset
        exact &= np.abs(low) < 0.5 - _TIE
        exact &= digits < 10**17  # log10 fell short, or the rounding carried
        exact &= (p - 1e16) + r + low >= 0.0  # log10 overshot
    return row, digits, exact


def _frames(digits, row, out):
    """Write each 17-digit number's head and tail frame, masked to the bytes
    that print, into `out`'s zeroed first three columns (the last holds each
    quotient meanwhile); uses up digits.  Returns where a tail prints a digit."""
    tables = _csv_tables()
    words = out.view(np.uint32)
    top = out.view(np.int64)[:, 3]  # the exponent's column, written later
    scratch = np.empty_like(digits)  # a product, or the words that two gathers give
    quad, mask = scratch.view(np.uint32).reshape(2, -1)
    printed = np.zeros(digits.size, bool)
    bare = np.ones(digits.size, bool)  # the tail drops zeros that no nonzero digit follows
    for i in range(4, -1, -1):  # the last word is the lead digit's, "000d"
        top[:] = np.floor_divide(digits, 10**4, out=scratch)
        digits -= np.multiply(scratch, 10**4, out=scratch)  # the word's four digits
        # every index is in range: "clip" lets take fill out= without a copy
        np.take(tables.quads, digits, out=quad, mode="clip")
        np.bitwise_and(quad, np.take(tables.masks[i], row, out=mask, mode="clip"), out=words[:, i])
        np.copyto(scratch, bare)
        digits += np.multiply(scratch, 10_000, out=scratch)  # the tail's form of the word
        np.take(tables.quads, digits, out=quad, mode="clip")
        quad &= np.take(tables.masks[5 + i], row, out=mask, mode="clip")
        words[:, 1 + i] |= quad  # the tail frame starts a word after the head
        np.logical_or(printed, quad, out=printed)
        bare &= digits == 10_000
        digits[:] = top
    return printed


def _format_block(x, width: int) -> bytearray:
    """One kernel pass: the 32-byte slots of a flat block of whole rows of
    `width` values, each slot holding '%.17g' % v of its value v and then
    its separator ("," within a row and "\n" at its end) between NUL bytes."""
    tables = _csv_tables()
    row, digits, exact = _decimal(x)
    # 0 and the values left to '%.17g' take k = 0 and print as 0, so that
    # no exponent follows the text written over the latter
    row[~exact] = _K_MAX
    digits[~exact] = 0
    slots = bytearray(32 * x.size)
    out = np.frombuffer(slots, np.uint64).reshape(-1, 4)
    tail = _frames(digits, row, out)
    out[:, 3] = tables.exps[row]
    # the head takes a point where the tail prints a digit
    mark = np.add(row, 2 * _K_MAX + 1, out=row, where=tail)
    for j, marks in enumerate(tables.marks):
        out[:, j] |= marks[mark]
    text = out.view(np.uint8)
    np.multiply(np.signbit(x), np.uint8(ord("-")), out=text[:, 0])
    text[:, 29] = ord(",")
    text[width - 1 :: width, 29] = ord("\n")
    # '%.17g' text, at most 24 bytes, fills the frames it replaces
    spelled = ~exact & (x != 0.0)
    out[spelled, :3] = _words(["%.17g" % v for v in x[spelled].tolist()], 6).view(np.uint64)
    return slots


def format_rows(array) -> str:
    """The CSV lines of a C-contiguous 2-D float64 array: each value as
    '%.17g' writes it, "," between the values of a row and "\n" after it."""
    width = array.shape[1]
    x = array.reshape(-1)
    block = _CSV_BLOCK_ROWS * width
    blocks = (_format_block(x[i : i + block], width) for i in range(0, x.size, block))
    pieces = (s[j : j + _PIECE] for s in blocks for j in range(0, len(s), _PIECE))
    return "".join([p.translate(None, b"\0").decode("ascii") for p in pieces])
