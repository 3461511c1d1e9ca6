"""Line-oriented text schemas for representations, cocycles and matrices.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so write-then-read is lossless bit for bit.  A
representation file carries a content hash; cocycle files reference that
hash so Gram computations cannot silently mix bases.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .cocycles import Cocycle
from .errors import InputError
from .reps import Representation
from .words import Presentation

FORMAT_VERSION = "1"


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _matrix_lines(m: np.ndarray):
    for row in np.asarray(m):
        yield " ".join(f"{format_float(z.real)} {format_float(z.imag)}" for z in row)


def _parse_matrix(lines, rows: int, cols: int) -> np.ndarray:
    out = []
    for _ in range(rows):
        try:
            raw = next(lines)
        except StopIteration:
            raise InputError("unexpected end of file inside a matrix block")
        parts = raw.split()
        if len(parts) != 2 * cols:
            raise InputError(f"expected {2 * cols} numbers in a matrix row, got {len(parts)}")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise InputError(f"bad float in matrix row: {exc}")
        out.append([complex(values[2 * i], values[2 * i + 1]) for i in range(cols)])
    return np.array(out, dtype=complex)


def _read_text(path) -> str:
    """Contents of a UTF-8 text file; an unreadable file is an input error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text ({exc.reason})") from exc
    except OSError as exc:
        raise InputError(str(exc)) from exc


def write_text(path, text: str) -> None:
    """Write a UTF-8 text file; an unwritable path is an input error."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(str(exc)) from exc


def ensure_directory(path) -> None:
    """Create an output directory and its parents; a failure is an input error."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(str(exc)) from exc


def _representation_payload(rep: Representation) -> str:
    lines = [
        f"format: representation {FORMAT_VERSION}",
        f"genus: {rep.genus}",
        f"rank: {rep.rank}",
        f"flavor: {rep.flavor}",
        f"seed: {'none' if rep.seed is None else rep.seed}",
    ]
    for i, m in enumerate(rep.images):
        lines.append(f"generator: {rep.presentation.generator_name(i)}")
        lines.extend(_matrix_lines(m))
    return "\n".join(lines) + "\n"


def representation_fingerprint(rep: Representation) -> str:
    return hashlib.sha256(_representation_payload(rep).encode()).hexdigest()


def write_representation(path, rep: Representation) -> str:
    """Write a representation file; returns its content hash."""
    payload = _representation_payload(rep)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    head, _, tail = payload.partition("\n")
    write_text(path, f"{head}\nhash: {digest}\n{tail}")
    return digest


def _read_header(lines, expected_kind: str) -> dict:
    try:
        first = next(lines)
    except StopIteration:
        raise InputError("empty file")
    if first != f"format: {expected_kind} {FORMAT_VERSION}":
        raise InputError(f"not a {expected_kind} file (header {first!r})")
    header = {"format": f"{expected_kind} {FORMAT_VERSION}"}
    for line in lines:
        if line == "data:":
            break
        key, sep, value = line.partition(": ")
        if not sep:
            raise InputError(f"malformed header line {line!r}")
        if key == "generator":
            header.setdefault("_first_generator", value)
            break
        header[key] = value
    return header


def _header_int(header: dict, key: str) -> int:
    try:
        return int(header[key])
    except KeyError:
        raise InputError(f"missing header field {key!r}")
    except ValueError:
        raise InputError(f"header field {key!r} is not an integer")


def _read_generator_blocks(lines, header: dict, pres: Presentation, rank: int):
    """One matrix per generator, from `generator:` blocks in presentation order."""
    matrices = []
    name = header.get("_first_generator")
    for position in range(pres.generator_count):
        want = pres.generator_name(position)
        if position > 0:
            try:
                line = next(lines)
            except StopIteration:
                raise InputError("missing generator blocks")
            key, sep, name = line.partition(": ")
            if key != "generator" or not sep:
                raise InputError(f"expected a generator line, got {line!r}")
        if name != want:
            raise InputError(f"generator blocks out of order: expected {want}, got {name}")
        matrices.append(_parse_matrix(lines, rank, rank))
    return tuple(matrices)


def read_representation(path) -> Representation:
    lines = iter(_read_text(path).splitlines())
    header = _read_header(lines, "representation")
    genus = _header_int(header, "genus")
    rank = _header_int(header, "rank")
    flavor = header.get("flavor")
    seed = None if header.get("seed", "none") == "none" else _header_int(header, "seed")
    stored_hash = header.get("hash")
    if stored_hash is None:
        raise InputError("representation file is missing its hash line")

    pres = Presentation(genus)
    images = _read_generator_blocks(lines, header, pres, rank)
    rep = Representation(pres, rank, images, flavor, seed=seed)
    if rep.fingerprint != stored_hash:
        raise InputError("representation file hash does not match its contents")
    return rep


def write_cocycle(path, chi: Cocycle) -> None:
    rep = chi.base
    lines = [
        f"format: cocycle {FORMAT_VERSION}",
        f"genus: {rep.genus}",
        f"rank: {rep.rank}",
        f"base-hash: {rep.fingerprint}",
    ]
    for i, m in enumerate(chi.values):
        lines.append(f"generator: {rep.presentation.generator_name(i)}")
        lines.extend(_matrix_lines(m))
    write_text(path, "\n".join(lines) + "\n")


def read_cocycle(path, base: Representation) -> Cocycle:
    lines = iter(_read_text(path).splitlines())
    header = _read_header(lines, "cocycle")
    genus = _header_int(header, "genus")
    rank = _header_int(header, "rank")
    base_hash = header.get("base-hash")
    if genus != base.genus or rank != base.rank:
        raise InputError("cocycle file shape does not match the base representation")
    if base_hash != base.fingerprint:
        raise InputError("cocycle base hash does not match the provided representation")
    return Cocycle(base, _read_generator_blocks(lines, header, base.presentation, rank))


def write_matrix(path, matrix: np.ndarray, header_lines=()) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    lines = [f"format: matrix {FORMAT_VERSION}",
             f"rows: {matrix.shape[0]}",
             f"cols: {matrix.shape[1]}"]
    lines.extend(header_lines)
    lines.append("data:")
    lines.extend(_matrix_lines(matrix))
    write_text(path, "\n".join(lines) + "\n")


def read_matrix(path) -> np.ndarray:
    lines = iter(_read_text(path).splitlines())
    header = _read_header(lines, "matrix")
    return _parse_matrix(lines, _header_int(header, "rows"), _header_int(header, "cols"))
