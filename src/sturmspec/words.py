"""Exact combinatorics over finite alphabets: words, substitutions, factors.

Symbols are small integers (< alphabet size), stored as ``bytes`` so that
substring search and slicing run at C speed; a display alphabet is applied
only at the text boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    InvalidInputError,
    InvalidWordError,
    NotAFixedPointError,
    WindowError,
)

DEFAULT_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Classic primitive substitutions, in "a:ab,b:a" mapping syntax.
SUBSTITUTION_TABLE = {
    "fibonacci": "a:ab,b:a",
    "period-doubling": "a:ab,b:aa",
    "binary-non-pisot": "a:ab,b:aaa",
    "thue-morse": "a:ab,b:ba",
    "rudin-shapiro": "a:ab,b:ac,c:db,d:dc",
}


@dataclass(frozen=True)
class Word:
    """Finite sequence of alphabet indices.

    Concatenation is associative with ``Word(b"", k)`` as identity; every
    symbol must be < ``alphabet_size``.
    """

    symbols: bytes
    alphabet_size: int

    def __post_init__(self):
        if self.alphabet_size < 1 or self.alphabet_size > 255:
            raise InvalidWordError(f"alphabet size {self.alphabet_size} out of range")
        # the symbols that are left once every valid one is deleted
        if self.symbols.translate(None, bytes(range(self.alphabet_size))):
            raise InvalidWordError(
                f"symbol {max(self.symbols)} outside alphabet of size {self.alphabet_size}"
            )

    @classmethod
    def from_text(cls, text, letters="01"):
        """Parse a display string, e.g. ``'10110'`` or ``'abaab'``."""
        try:
            syms = bytes(letters.index(ch) for ch in text)
        except ValueError:
            raise InvalidWordError(f"character outside letters {letters!r}: {text!r}")
        return cls(syms, len(letters))

    def to_text(self, letters=None):
        if letters is None:
            letters = "01" if self.alphabet_size <= 2 else DEFAULT_LETTERS
        if len(letters) < self.alphabet_size:
            raise InvalidInputError("display alphabet smaller than word alphabet")
        # each byte decodes to the code point of its value, which the table
        # maps to its letter
        table = dict(enumerate(letters[: self.alphabet_size]))
        return self.symbols.decode("latin-1").translate(table)

    def __len__(self):
        return len(self.symbols)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.symbols[i], self.alphabet_size)
        return self.symbols[i]

    def __add__(self, other):
        if other.alphabet_size != self.alphabet_size:
            raise InvalidWordError("concatenation across different alphabets")
        return Word(self.symbols + other.symbols, self.alphabet_size)

    def __mul__(self, k):
        """Word power: k-fold repetition, empty word for k = 0."""
        if k < 0:
            raise InvalidInputError("negative word exponent")
        return Word(self.symbols * k, self.alphabet_size)

    def occurrences(self, target):
        """Start positions of all (overlapping) occurrences of ``target``."""
        if len(target) == 0:
            raise InvalidInputError("empty target word")
        positions = []
        start = self.symbols.find(target.symbols)
        while start != -1:
            positions.append(start)
            start = self.symbols.find(target.symbols, start + 1)
        return positions


@dataclass(frozen=True)
class Substitution:
    """Map from alphabet symbols to non-empty words, extended to words
    homomorphically."""

    images: tuple[Word, ...]

    def __post_init__(self):
        size = len(self.images)
        for i, img in enumerate(self.images):
            if len(img) == 0:
                raise InvalidInputError(f"image of symbol {i} is empty")
            if img.alphabet_size != size:
                raise InvalidInputError("image alphabet does not match substitution")

    @property
    def alphabet_size(self):
        return len(self.images)


def parse_substitution(text):
    """Parse ``"a:ab,b:a"`` into a Substitution plus its display letters.

    Letters are taken in order of appearance of the mapping keys.
    """
    entries = [item.strip() for item in text.split(",") if item.strip()]
    letters = ""
    raw = []
    for entry in entries:
        if ":" not in entry:
            raise InvalidInputError(f"bad substitution entry {entry!r}")
        key, image = entry.split(":", 1)
        key = key.strip()
        if len(key) != 1:
            raise InvalidInputError(f"substitution key must be one letter: {key!r}")
        if key in letters:
            raise InvalidInputError(f"duplicate substitution key {key!r}")
        letters += key
        raw.append(image.strip())
    images = tuple(Word.from_text(img, letters) for img in raw)
    return Substitution(images), letters


def substitute(subst, word):
    """Apply S to ``word``; S(uv) = S(u)S(v).

    The image is one gather of the symbols' rows from a (letters x longest
    image) table of the images, padded at the end; when the image lengths
    differ, a mask of the same shape drops the padding."""
    if word.alphabet_size != subst.alphabet_size:
        raise InvalidWordError("word alphabet does not match substitution")
    lengths = np.array([len(img) for img in subst.images])
    width = int(lengths.max())
    padded = b"".join(img.symbols.ljust(width, b"\0") for img in subst.images)
    table = np.frombuffer(padded, np.uint8).reshape(-1, width)
    codes = np.frombuffer(word.symbols, np.uint8)
    rows = table.take(codes, axis=0)
    if lengths.min() < width:
        rows = rows[(np.arange(width) < lengths[:, None]).take(codes, axis=0)]
    return Word(rows.tobytes(), subst.alphabet_size)


def fixed_point_prefix(subst, seed, min_length):
    """Prefix (length >= min_length) of the one-sided fixed point from ``seed``.

    Requires S(seed) to start with seed; iterates S until the prefix is long
    enough.  Then each S^k(seed) is a prefix of S^(k+1)(seed), so a round
    that does not grow the word leaves it unchanged for good, and the first
    such round raises instead of looping forever.
    """
    if min_length < 1:
        raise InvalidInputError("min_length must be >= 1")
    if not 0 <= seed < subst.alphabet_size:
        raise InvalidWordError(f"seed symbol {seed} outside alphabet")
    if subst.images[seed][0] != seed:
        raise NotAFixedPointError(
            f"image of seed symbol {seed} does not start with the seed"
        )
    word = Word(bytes([seed]), subst.alphabet_size)
    while len(word) < min_length:
        grown = substitute(subst, word)
        if len(grown) == len(word):
            raise DivergenceError(f"substitution images never grow from seed {seed}")
        word = grown
    return word


def _runs(code):
    """A permutation sorting ``code``, and in that order the mask of the
    first entry of each run of equal codes.  numpy radix-sorts 16-bit keys
    under ``kind="stable"``, several times faster than its default there."""
    order = np.argsort(code, kind="stable" if code.dtype == np.uint16 else None)
    ordered = code[order]
    first = np.ones(len(code), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return order, first


def factor_set(word, length):
    """All distinct length-``length`` contiguous subwords.

    Each window gets an integer code, built one symbol at a time as code * k
    + symbol over the alphabet size k, in uint16 while every code fits
    there and in int64 after that.  Before a step could pass 2**62 the
    codes are replaced by their ranks among the distinct codes so far, which
    keeps distinct windows distinct, so the codes are exact for any length
    and alphabet.  One window per distinct code is sliced out.
    """
    if length < 1:
        raise InvalidInputError("factor length must be >= 1")
    if length > len(word):
        raise WindowError(f"factor length {length} exceeds word length {len(word)}")
    k = word.alphabet_size
    syms = np.frombuffer(word.symbols, dtype=np.uint8)
    count = len(syms) - length + 1
    code = np.zeros(count, dtype=np.uint16)
    bound = 1  # every code is below bound
    for j in range(length):
        if bound * k > 2**16:
            code = code.astype(np.int64, copy=False)
        if bound * k > 2**62:
            order, first = _runs(code)
            code[order] = np.cumsum(first) - 1
            bound = int(code[order[-1]]) + 1
        code = code * k + syms[j : j + count]
        bound *= k
    order, first = _runs(code)
    return {word[i : i + length] for i in order[first].tolist()}
