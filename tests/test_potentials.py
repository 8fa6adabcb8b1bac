import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmspec import (
    PotentialWindow,
    Word,
    constant_window,
    periodic_window,
    window_from_word,
)
from sturmspec.errors import InvalidInputError, WindowError


# The per-site formulas windows were once built from, one Python float each.
def per_site_word(word, coupling):
    return [coupling * s for s in word.symbols]


def per_site_periodic(word, coupling, lo, hi):
    q = len(word)
    return [coupling * word.symbols[(n - 1) % q] for n in range(lo, hi + 1)]


def per_site_constant(value, lo, hi):
    return [float(value)] * (hi - lo + 1)


def same_floats(values, reference):
    """Bit-for-bit equality of a window's values and a list of floats."""
    return values.tobytes() == np.array(reference, dtype=float).tobytes()


class TestPotentialWindow:
    def test_values_are_a_read_only_float64_array(self):
        window = window_from_word(Word.from_text("0110"), 2.5)
        assert window.values.dtype == np.float64
        with pytest.raises(ValueError):
            window.values[0] = 1.0
        with pytest.raises(ValueError):
            window.slice_values(2, 3)[0] = 1.0

    def test_value_is_a_python_float(self):
        window = constant_window(3, -2, 2)
        assert type(window.value(0)) is float
        assert window.value(-2) == 3.0

    def test_tuple_and_list_input(self):
        for values in ((0, 2.5, 1), [0, 2.5, 1]):
            window = PotentialWindow(lo=-1, hi=1, values=values)
            assert window.values.dtype == np.float64
            assert window.values.tolist() == [0.0, 2.5, 1.0]
            assert window.value(0) == 2.5

    def test_caller_buffer_not_shared(self):
        source = np.array([1.0, 2.0, 3.0])
        window = PotentialWindow(lo=1, hi=3, values=source)
        source[0] = 9.0
        assert window.values.tolist() == [1.0, 2.0, 3.0]
        assert source.flags.writeable

    def test_slice_is_a_view_of_the_range(self):
        window = periodic_window(Word.from_text("011"), 1.0, -2, 5)
        assert window.slice_values(0, 2).tolist() == [1.0, 0.0, 1.0]
        with pytest.raises(WindowError):
            window.slice_values(-3, 0)
        with pytest.raises(WindowError):
            window.value(6)

    def test_value_below_window_refused(self):
        window = periodic_window(Word.from_text("011"), 1.0, -2, 5)
        with pytest.raises(WindowError):
            window.value(window.lo - 1)

    def test_length_must_match_range(self):
        with pytest.raises(InvalidInputError):
            PotentialWindow(lo=1, hi=3, values=(1.0, 2.0))
        with pytest.raises(InvalidInputError):
            PotentialWindow(lo=1, hi=2, values=[[1.0, 2.0]])


@st.composite
def words(draw):
    size = draw(st.integers(1, 255))
    symbols = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=40))
    return Word(bytes(symbols), size)


# |coupling| * 254 stays below the float maximum, so every V(n) is finite
COUPLINGS = st.floats(-1e300, 1e300)


@settings(max_examples=200, deadline=None)
@given(word=words(), coupling=COUPLINGS, below=st.integers(0, 50), above=st.integers(1, 50))
def test_windows_match_the_per_site_formulas(word, coupling, below, above):
    window = window_from_word(word, coupling)
    assert (window.lo, window.hi) == (1, len(word))
    assert same_floats(window.values, per_site_word(word, coupling))

    lo, hi = -below, len(word) + above  # lo <= 0 and hi > q
    window = periodic_window(word, coupling, lo, hi)
    assert (window.lo, window.hi) == (lo, hi)
    assert same_floats(window.values, per_site_periodic(word, coupling, lo, hi))

    window = constant_window(coupling, lo, hi)
    assert same_floats(window.values, per_site_constant(coupling, lo, hi))
