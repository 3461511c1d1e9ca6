"""Property tests of the file schemas.

Every schema round-trips bit for bit, a file with one line edited
either reads back (a representation with its original fingerprint) or
raises InputError: no other exception escapes a reader, and a file with
any line appended raises InputError.  Hypothesis runs
derandomized and without an example database, so every run draws the
same examples.
"""

import string

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from goldman import Cocycle, InputError, random_representation
from goldman.fileio import (format_float, read_cocycle, read_matrix,
                            read_representation, write_cocycle, write_matrix,
                            write_representation)
from goldman.reps import FLAVORS

# No explain phase: it reruns each failing example under line tracing,
# which took minutes per failure here for no more than the shrunk example.
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=75, phases=(Phase.generate, Phase.shrink))

finite = st.floats(allow_nan=False, allow_infinity=False)

representations = st.builds(random_representation,
                            genus=st.integers(1, 3), rank=st.integers(1, 3),
                            flavor=st.sampled_from(FLAVORS),
                            seed=st.integers(0, 2 ** 64 - 1))


def complex_arrays(shape):
    """Complex arrays with every finite real and imaginary part, -0.0 and
    subnormals included, assembled without arithmetic so no bit is lost."""
    size = int(np.prod(shape))
    parts = st.lists(finite, min_size=2 * size, max_size=2 * size)

    def assemble(values):
        out = np.empty(shape, dtype=complex)
        out.real = np.reshape(values[:size], shape)
        out.imag = np.reshape(values[size:], shape)
        return out

    return parts.map(assemble)


@st.composite
def cocycles(draw):
    rep = draw(representations)
    n = rep.rank
    values = draw(complex_arrays((2 * rep.genus, n, n)))
    return Cocycle(rep, tuple(values))


# zero rows or columns included: a 0 x k matrix reads back as 0 x k
matrices = st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(complex_arrays)

# Characters for edits: printable ASCII, separators that str.splitlines
# and str.split honour, and non-ASCII digits that int() and float() accept.
chars = st.sampled_from(string.printable + "\x0b\x0c\x1c\x85\u2028\u00a0\ufeff"
                        "\u0663\uff13\u00e9\u00bd")

# Replacement text: schema vocabulary, numbers in the written format
# (non-finite ones included) and arbitrary characters.
tokens = st.one_of(
    st.sampled_from(["format:", "representation", "cocycle", "matrix", "1",
                     "genus:", "rank:", "flavor:", "unitary", "general-linear",
                     "seed:", "none", "hash:", "base-hash:", "rows:", "cols:",
                     "data:", "generator:", "a1", "b1", "a2", "b2", "-1", "0",
                     "2", "99", ""]),
    st.floats().map(format_float),
    st.text(alphabet=chars, max_size=6),
)
new_lines = st.lists(tokens, max_size=5).map(" ".join)


@st.composite
def one_line_edit(draw, text):
    """text with one line replaced, deleted, inserted, or with one of its
    whitespace-separated tokens or characters replaced."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["replace", "delete", "insert", "token", "char"]))
    if kind == "replace":
        lines[i] = draw(new_lines)
    elif kind == "delete":
        del lines[i]
    elif kind == "insert":
        lines.insert(i, draw(new_lines))
    elif kind == "token":
        words = lines[i].split(" ")
        j = draw(st.integers(0, len(words) - 1))
        words[j] = draw(tokens)
        lines[i] = " ".join(words)
    else:
        line = lines[i]
        j = draw(st.integers(0, max(len(line) - 1, 0)))
        lines[i] = line[:j] + draw(chars) + line[j + 1:]
    return "\n".join(lines) + "\n"


def bits(arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("schemas")


class TestRoundTrip:
    @PROPERTY
    @given(rep=representations)
    def test_representation(self, workdir, rep):
        path = workdir / "rep.txt"
        write_representation(path, rep)
        again = read_representation(path)
        assert bits(again.images) == bits(rep.images)
        assert (again.genus, again.rank, again.flavor, again.seed) == (
            rep.genus, rep.rank, rep.flavor, rep.seed)
        write_representation(workdir / "rep2.txt", again)
        assert (workdir / "rep2.txt").read_bytes() == path.read_bytes()

    @PROPERTY
    @given(chi=cocycles())
    def test_cocycle(self, workdir, chi):
        path = workdir / "coc.txt"
        write_cocycle(path, chi)
        again = read_cocycle(path, chi.base)
        assert bits(again.values) == bits(chi.values)
        write_cocycle(workdir / "coc2.txt", again)
        assert (workdir / "coc2.txt").read_bytes() == path.read_bytes()

    @PROPERTY
    @given(matrix=matrices)
    def test_matrix(self, workdir, matrix):
        path = workdir / "m.txt"
        write_matrix(path, matrix)
        again = read_matrix(path)
        assert again.shape == matrix.shape
        assert bits([again]) == bits([matrix])


def _edited(workdir, data, write, name):
    """Write a file, apply one drawn line edit, and return its path."""
    path = workdir / name
    write(path)
    path.write_text(data.draw(one_line_edit(path.read_text())), encoding="utf-8")
    return path


class TestOneLineEdit:
    @PROPERTY
    @given(rep=representations, data=st.data())
    def test_representation_reads_same_or_input_error(self, workdir, rep, data):
        path = _edited(workdir, data, lambda p: write_representation(p, rep), "rep.txt")
        try:
            again = read_representation(path)
        except InputError:
            return
        assert again.fingerprint == rep.fingerprint

    @PROPERTY
    @given(chi=cocycles(), data=st.data())
    def test_cocycle_reads_or_input_error(self, workdir, chi, data):
        path = _edited(workdir, data, lambda p: write_cocycle(p, chi), "coc.txt")
        try:
            read_cocycle(path, chi.base)
        except InputError:
            pass

    @PROPERTY
    @given(matrix=matrices, data=st.data())
    def test_matrix_reads_or_input_error(self, workdir, matrix, data):
        path = _edited(workdir, data, lambda p: write_matrix(p, matrix), "m.txt")
        try:
            read_matrix(path)
        except InputError:
            pass


def _appended(workdir, line, write, name):
    """Write a file, append one line to it, and return its path."""
    path = workdir / name
    write(path)
    path.write_text(path.read_text() + line + "\n", encoding="utf-8")
    return path


class TestAppendedLine:
    """Nothing may follow the expected blocks, not even a blank line."""

    @PROPERTY
    @given(rep=representations, line=new_lines)
    def test_representation(self, workdir, rep, line):
        path = _appended(workdir, line, lambda p: write_representation(p, rep), "rep.txt")
        with pytest.raises(InputError):
            read_representation(path)

    @PROPERTY
    @given(chi=cocycles(), line=new_lines)
    def test_cocycle(self, workdir, chi, line):
        path = _appended(workdir, line, lambda p: write_cocycle(p, chi), "coc.txt")
        with pytest.raises(InputError):
            read_cocycle(path, chi.base)

    @PROPERTY
    @given(matrix=matrices, line=new_lines)
    def test_matrix(self, workdir, matrix, line):
        path = _appended(workdir, line, lambda p: write_matrix(p, matrix), "m.txt")
        with pytest.raises(InputError):
            read_matrix(path)
