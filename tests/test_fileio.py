import hashlib

import numpy as np
import pytest

from goldman import InputError, random_cocycle, random_representation
from goldman.fileio import (format_float, read_cocycle, read_matrix,
                            read_representation, write_cocycle, write_matrix,
                            write_representation)


def rehashed(text, **fields):
    """A representation file's text with header fields replaced and its
    hash line recomputed, as the writer computes it."""
    lines = [line for line in text.splitlines() if not line.startswith("hash: ")]
    for key, value in fields.items():
        lines = [f"{key}: {value}" if line.startswith(f"{key}: ") else line
                 for line in lines]
    payload = "\n".join(lines) + "\n"
    head, _, tail = payload.partition("\n")
    return f"{head}\nhash: {hashlib.sha256(payload.encode()).hexdigest()}\n{tail}"


class TestFloatFormat:
    def test_seventeen_digits_round_trip(self):
        rng = np.random.default_rng(70)
        values = list(rng.standard_normal(200)) + list(1e300 * rng.standard_normal(5))
        values += [1e-300, 0.0, -0.0, 1.0, -1.5, np.pi]
        for x in values:
            assert float(format_float(float(x))) == float(x)


class TestRepresentationFile:
    def test_round_trip_bits(self, tmp_path, rep_g2n2):
        path = tmp_path / "rep.txt"
        write_representation(path, rep_g2n2)
        again = read_representation(path)
        for a, b in zip(rep_g2n2.images, again.images):
            assert np.array_equal(a, b)
        assert again.flavor == rep_g2n2.flavor
        assert again.seed == rep_g2n2.seed
        write_representation(tmp_path / "rep2.txt", again)
        assert (tmp_path / "rep2.txt").read_bytes() == path.read_bytes()

    def test_fingerprint_matches_file_hash(self, tmp_path, rep_g2n2):
        digest = write_representation(tmp_path / "rep.txt", rep_g2n2)
        assert digest == rep_g2n2.fingerprint

    def test_tampered_file_rejected(self, tmp_path, rep_g2n2):
        path = tmp_path / "rep.txt"
        write_representation(path, rep_g2n2)
        text = path.read_text()
        target = None
        for token in text.split():
            try:
                value = float(token)
            except ValueError:
                continue
            if abs(value) > 0.1 and "." in token:
                target = token
                break
        path.write_text(text.replace(target, format_float(float(target) + 1e-9), 1))
        with pytest.raises(InputError):
            read_representation(path)

    def test_wrong_format_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("format: something 1\n")
        with pytest.raises(InputError):
            read_representation(path)

    @pytest.mark.parametrize("seed", [-3, 2 ** 70])
    def test_rehashed_out_of_range_seed_rejected(self, tmp_path, rep_g2n2, seed):
        path = tmp_path / "rep.txt"
        write_representation(path, rep_g2n2)
        path.write_text(rehashed(path.read_text(), seed=seed))
        with pytest.raises(InputError, match="seed"):
            read_representation(path)

    @pytest.mark.parametrize("line", ["junk", ""])
    def test_trailing_line_rejected(self, tmp_path, rep_g2n2, line):
        path = tmp_path / "rep.txt"
        write_representation(path, rep_g2n2)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(InputError, match="after the last block"):
            read_representation(path)

    def test_extra_generator_block_rejected(self, tmp_path, rep_g2n2):
        path = tmp_path / "rep.txt"
        write_representation(path, rep_g2n2)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + ["generator: a3"] + lines[-2:]) + "\n")
        with pytest.raises(InputError, match="generator: a3"):
            read_representation(path)

    def test_general_linear_round_trip(self, tmp_path):
        rep = random_representation(2, 3, "general-linear", seed=21)
        write_representation(tmp_path / "rep.txt", rep)
        again = read_representation(tmp_path / "rep.txt")
        for a, b in zip(rep.images, again.images):
            assert np.array_equal(a, b)


class TestCocycleFile:
    def test_round_trip_bits(self, tmp_path, rep_g2n2, basis_g2n2):
        chi = random_cocycle(basis_g2n2, np.random.default_rng(71))
        path = tmp_path / "coc.txt"
        write_cocycle(path, chi)
        again = read_cocycle(path, rep_g2n2)
        for a, b in zip(chi.values, again.values):
            assert np.array_equal(a, b)
        write_cocycle(tmp_path / "coc2.txt", again)
        assert (tmp_path / "coc2.txt").read_bytes() == path.read_bytes()

    def test_base_hash_mismatch_rejected(self, tmp_path, basis_g2n2):
        chi = random_cocycle(basis_g2n2, np.random.default_rng(72))
        path = tmp_path / "coc.txt"
        write_cocycle(path, chi)
        other = random_representation(2, 2, "unitary", seed=12345)
        with pytest.raises(InputError):
            read_cocycle(path, other)

    def test_shape_mismatch_rejected(self, tmp_path, basis_g2n2):
        chi = random_cocycle(basis_g2n2, np.random.default_rng(73))
        path = tmp_path / "coc.txt"
        write_cocycle(path, chi)
        small = random_representation(2, 1, "unitary", seed=0)
        with pytest.raises(InputError):
            read_cocycle(path, small)

    def test_truncated_file_rejected(self, tmp_path, rep_g2n2, basis_g2n2):
        chi = random_cocycle(basis_g2n2, np.random.default_rng(74))
        path = tmp_path / "coc.txt"
        write_cocycle(path, chi)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(InputError):
            read_cocycle(path, rep_g2n2)


    def test_extra_row_rejected(self, tmp_path, rep_g2n2, basis_g2n2):
        chi = random_cocycle(basis_g2n2, np.random.default_rng(74))
        path = tmp_path / "coc.txt"
        write_cocycle(path, chi)
        text = path.read_text()
        path.write_text(text + text.splitlines()[-1] + "\n")
        with pytest.raises(InputError, match="after the last block"):
            read_cocycle(path, rep_g2n2)

    def test_repeated_header_field_rejected(self, tmp_path, rep_g2n2, basis_g2n2):
        chi = random_cocycle(basis_g2n2, np.random.default_rng(74))
        path = tmp_path / "coc.txt"
        write_cocycle(path, chi)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + lines[1:]) + "\n")
        with pytest.raises(InputError, match="repeated header field 'genus'"):
            read_cocycle(path, rep_g2n2)


class TestMatrixFile:
    def test_round_trip_bits(self, tmp_path):
        rng = np.random.default_rng(75)
        m = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
        write_matrix(tmp_path / "m.txt", m)
        assert np.array_equal(read_matrix(tmp_path / "m.txt"), m)

    def test_header_lines_preserved_in_text(self, tmp_path):
        m = np.eye(2, dtype=complex)
        write_matrix(tmp_path / "m.txt", m, header_lines=["skewness-residual: 0.0"])
        assert "skewness-residual: 0.0" in (tmp_path / "m.txt").read_text()

    def test_malformed_row_rejected(self, tmp_path):
        write_matrix(tmp_path / "m.txt", np.eye(2, dtype=complex))
        text = (tmp_path / "m.txt").read_text().splitlines()
        text[-1] = "1.0"
        (tmp_path / "m.txt").write_text("\n".join(text) + "\n")
        with pytest.raises(InputError):
            read_matrix(tmp_path / "m.txt")

    @pytest.mark.parametrize("field, value", [("rows", "two"), ("cols", "2.5")])
    def test_non_integer_shape_rejected(self, tmp_path, field, value):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(2, dtype=complex))
        path.write_text(path.read_text().replace(f"{field}: 2", f"{field}: {value}"))
        with pytest.raises(InputError, match=field):
            read_matrix(path)

    @pytest.mark.parametrize("field", ["rows", "cols"])
    def test_negative_shape_rejected(self, tmp_path, field):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(2, dtype=complex))
        path.write_text(path.read_text().replace(f"{field}: 2", f"{field}: -1"))
        with pytest.raises(InputError, match="negative"):
            read_matrix(path)

    @pytest.mark.parametrize("shape", [(0, 3), (0, 0), (3, 0), (0, 1)])
    def test_empty_shapes_round_trip(self, tmp_path, shape):
        write_matrix(tmp_path / "m.txt", np.zeros(shape, dtype=complex))
        assert read_matrix(tmp_path / "m.txt").shape == shape

    def test_non_numeric_entry_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(2, dtype=complex))
        lines = path.read_text().splitlines()
        lines[-1] = " ".join(["one"] + lines[-1].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match="bad float"):
            read_matrix(path)

    def test_extra_row_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.array([[1 + 2j]]))
        path.write_text(path.read_text() + "1 2\n")
        with pytest.raises(InputError, match="after the last block"):
            read_matrix(path)

    @pytest.mark.parametrize("entry", ["nan inf", "1 nan", "-inf 0"])
    def test_non_finite_entry_rejected(self, tmp_path, entry):
        path = tmp_path / "m.txt"
        write_matrix(path, np.array([[1 + 2j]]))
        path.write_text(path.read_text().replace("\n1 2\n", f"\n{entry}\n"))
        with pytest.raises(InputError, match="non-finite"):
            read_matrix(path)

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(InputError):
            read_matrix(tmp_path)
