import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sturmspec import (
    SUBSTITUTION_TABLE,
    Substitution,
    Word,
    factor_set,
    fixed_point_prefix,
    parse_substitution,
    substitute,
)
from sturmspec.errors import (
    DivergenceError,
    InvalidInputError,
    InvalidWordError,
    NotAFixedPointError,
    WindowError,
)
from sturmspec.sturmian import c_alpha_prefix


def w(text, letters="01"):
    return Word.from_text(text, letters)


FIB, FIB_LETTERS = parse_substitution(SUBSTITUTION_TABLE["fibonacci"])
TM, _ = parse_substitution(SUBSTITUTION_TABLE["thue-morse"])
PD, _ = parse_substitution(SUBSTITUTION_TABLE["period-doubling"])


class TestSubstitute:
    def test_fibonacci_square(self):
        out = substitute(FIB, substitute(FIB, w("a", "ab")))
        assert out.to_text("ab") == "aba"

    def test_thue_morse_square(self):
        assert substitute(TM, substitute(TM, w("a", "ab"))).to_text("ab") == "abba"

    def test_prefix_stable_seed(self):
        # any substitution whose seed image starts with the seed
        out = substitute(FIB, w("a", "ab"))
        assert out[0] == 0

    def test_homomorphism_random(self):
        rng = random.Random(11)
        for _ in range(50):
            size = rng.randint(2, 4)
            images = tuple(
                Word(bytes(rng.randrange(size) for _ in range(rng.randint(1, 3))), size)
                for _ in range(size)
            )
            from sturmspec import Substitution

            s = Substitution(images)
            u = Word(bytes(rng.randrange(size) for _ in range(rng.randint(0, 8))), size)
            v = Word(bytes(rng.randrange(size) for _ in range(rng.randint(0, 8))), size)
            assert substitute(s, u + v) == substitute(s, u) + substitute(s, v)

    def test_symbol_out_of_alphabet(self):
        with pytest.raises(InvalidWordError):
            substitute(FIB, Word(b"\x00\x02", 3))


class TestFixedPoint:
    def test_fibonacci_prefix(self):
        assert fixed_point_prefix(FIB, 0, 5).to_text("ab")[:5] == "abaab"

    def test_period_doubling_prefix(self):
        assert fixed_point_prefix(PD, 0, 4).to_text("ab")[:4] == "abaa"

    def test_prefix_tower(self):
        short = fixed_point_prefix(FIB, 0, 30)
        long = fixed_point_prefix(FIB, 0, 60)
        assert long.symbols.startswith(short[:30].symbols)

    def test_result_is_prefix_of_own_image(self):
        word = fixed_point_prefix(FIB, 0, 40)
        assert substitute(FIB, word).symbols.startswith(word.symbols)

    def test_fibonacci_letter_density(self):
        word = fixed_point_prefix(FIB, 0, 10**6)[: 10**6]
        density = word.symbols.count(0) / len(word)
        golden = (5**0.5 - 1) / 2
        assert abs(density - golden) < 1e-3
        assert abs(density - 0.6180) < 1e-3

    def test_unstable_seed(self):
        with pytest.raises(NotAFixedPointError):
            fixed_point_prefix(FIB, 1, 5)  # b -> a does not start with b

    def test_non_growing(self):
        from sturmspec import Substitution

        lazy = Substitution((Word(b"\x00", 2), Word(b"\x01", 2)))  # a->a, b->b
        with pytest.raises(DivergenceError):
            fixed_point_prefix(lazy, 0, 10)

    def test_non_growing_refused_after_one_round(self, monkeypatch):
        # S^k(seed) is a prefix of S^(k+1)(seed), so one round without
        # growth is final
        import sturmspec.words as words

        rounds = []

        def counted(subst, word):
            rounds.append(len(word))
            return substitute(subst, word)

        monkeypatch.setattr(words, "substitute", counted)
        subst, _ = parse_substitution("a:a,b:ab")
        with pytest.raises(DivergenceError):
            fixed_point_prefix(subst, 0, 10)
        assert rounds == [1]


class TestFactorSet:
    def test_by_hand(self):
        found = {word.to_text() for word in factor_set(w("10110"), 2)}
        assert found == {"10", "01", "11"}

    def test_whole_word(self):
        word = w("0110")
        assert factor_set(word, 4) == {word}

    def test_sturmian_complexity(self, golden_cf):
        # classical complexity L + 1, counted by brute enumeration
        prefix = c_alpha_prefix(golden_cf, 10**4)
        brute = {prefix.symbols[i : i + 10] for i in range(len(prefix) - 10 + 1)}
        assert len(brute) == 11
        assert len(factor_set(prefix, 10)) == 11

    def test_window_error(self):
        with pytest.raises(WindowError):
            factor_set(w("01"), 3)


@st.composite
def words_and_factor_lengths(draw):
    """A word over 1..255 symbols of length up to 2000, and a factor length.
    Most words are sparse (one background symbol), so two long windows can
    differ only far from their ends: a code that lost its leading symbols
    would merge them."""
    k = draw(st.integers(1, 255))
    n = draw(st.integers(1, 2000))
    density = draw(st.sampled_from([0.0, 0.002, 0.02, 0.2, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    background = rng.randrange(k)
    syms = bytes(rng.randrange(k) if rng.random() < density else background for _ in range(n))
    length = draw(st.one_of(st.integers(1, min(n, 80)), st.integers(1, n)))
    return Word(syms, k), length


def sparse_word(k, n, ones):
    syms = bytearray(n)
    for i in ones:
        syms[i] = k - 1
    return Word(bytes(syms), k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=words_and_factor_lengths())
# codes that pass 2**62 are re-ranked: 200**9 and 2**63 do, 200**8 does not
@example(case=(sparse_word(200, 400, [0, 37, 150, 151, 390]), 9))
@example(case=(sparse_word(200, 400, [0, 37, 150, 151, 390]), 30))
# codes are uint16 up to 2**16 and int64 past it: 2**16 and 2**17
@example(case=(sparse_word(2, 300, [0, 1, 70, 200]), 16))
@example(case=(sparse_word(2, 300, [0, 1, 70, 200]), 17))
@example(case=(sparse_word(2, 300, [0, 1, 70, 200]), 63))
@example(case=(sparse_word(2, 300, [0, 1, 70, 200]), 100))
@example(case=(sparse_word(255, 2000, range(0, 2000, 97)), 2000))
def test_factor_set_matches_byte_slices(case):
    word, length = case
    syms = word.symbols
    naive = {Word(syms[i : i + length], word.alphabet_size)
             for i in range(len(syms) - length + 1)}
    assert factor_set(word, length) == naive


@st.composite
def words_and_letters(draw):
    """A word over 1..255 symbols and a display alphabet at least that long,
    of distinct letters from all of Unicode (surrogates excluded)."""
    k = draw(st.integers(1, 255))
    syms = draw(st.binary(max_size=400)).translate(bytes(b % k for b in range(256)))
    letters = draw(st.lists(st.characters(), min_size=k, max_size=k + 3, unique=True))
    return Word(syms, k), "".join(letters)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=words_and_letters())
@example(case=(Word(bytes([0, 1, 0, 0, 1]), 2), "αβ"))
@example(case=(Word(bytes([2, 0, 1, 2]), 3), "\U0001d51e\U0001d51f\x00"))
@example(case=(Word(bytes(range(255)), 255), "".join(map(chr, range(1000, 1255)))))
def test_to_text_matches_per_symbol_join(case):
    word, letters = case
    assert word.to_text(letters) == "".join(letters[s] for s in word.symbols)


@st.composite
def substitutions_and_words(draw):
    """A substitution over 1..5 letters with images of length 1..6 (equal or
    not), a word over its alphabet and a power."""
    k = draw(st.integers(1, 5))
    symbol = st.integers(0, k - 1)
    if draw(st.booleans()):
        length = draw(st.integers(1, 6))
        image = st.lists(symbol, min_size=length, max_size=length)
    else:
        image = st.lists(symbol, min_size=1, max_size=6)
    images = tuple(Word(bytes(draw(image)), k) for _ in range(k))
    word = Word(bytes(draw(st.lists(symbol, max_size=60))), k)
    return Substitution(images), word, draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=substitutions_and_words())
def test_substitute_matches_per_symbol_join(case):
    subst, word, power = case
    images = [img.symbols for img in subst.images]
    syms = word.symbols
    for _ in range(power):
        syms = b"".join(images[s] for s in syms)
        word = substitute(subst, word)
    assert word == Word(syms, subst.alphabet_size)
