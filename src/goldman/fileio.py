"""Line-oriented text schemas for representations, cocycles and matrices.

Every file is one document: a `format: <kind> 1` line, `key: value`
header lines, then labelled blocks of matrix rows, one `generator:
<name>` block per generator or a single `data:` block.  _document writes
that layout and _read_document reads it back, strictly: the expected
blocks with their rows, finite entries, and nothing after them.

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
from .linalg import require_finite
from .reps import Representation
from .words import Presentation

FORMAT_VERSION = "1"


def format_float(x: float) -> str:
    return f"{x:.17g}"


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


def _generator_labels(pres: Presentation):
    """The block labels of a generator-indexed stack, in presentation order."""
    return (f"generator: {pres.generator_name(i)}" for i in range(pres.generator_count))


def _document(kind: str, header, blocks) -> str:
    """The text of a file: its format line, the header lines, then each
    (label, matrix) block, one matrix row per line as `re im` pairs."""
    lines = [f"format: {kind} {FORMAT_VERSION}", *header]
    for label, matrix in blocks:
        lines.append(label)
        lines.extend(" ".join(f"{format_float(z.real)} {format_float(z.imag)}" for z in row)
                     for row in matrix.tolist())
    return "\n".join(lines) + "\n"


def _header_int(header: dict, key: str) -> int:
    try:
        return int(header[key])
    except KeyError:
        raise InputError(f"missing header field {key!r}")
    except ValueError:
        raise InputError(f"header field {key!r} is not an integer")


def _read_document(path, kind: str):
    """(header, blocks) of a file of kind: header maps each header key to
    its value, and blocks holds one complex matrix per block, in order.

    The header declares the blocks: one rows x cols `data:` block for a
    matrix, one rank x rank `generator:` block per generator, in
    presentation order, otherwise.  Exactly those blocks follow the
    header, each with exactly its rows and finite entries; any line
    after the last of them is an input error.
    """
    lines = _read_text(path).splitlines()
    first = lines[0] if lines else ""
    if first != f"format: {kind} {FORMAT_VERSION}":
        raise InputError(f"not a {kind} file (first line {first!r})")
    header, at = {}, 1
    while at < len(lines) and lines[at] != "data:" and not lines[at].startswith("generator: "):
        key, sep, value = lines[at].partition(": ")
        if not sep:
            raise InputError(f"malformed header line {lines[at]!r}")
        if key in header:
            raise InputError(f"repeated header field {key!r}")
        header[key] = value
        at += 1
    if kind == "matrix":
        labels, rows, cols = ["data:"], _header_int(header, "rows"), _header_int(header, "cols")
    else:
        labels = _generator_labels(Presentation(_header_int(header, "genus")))
        rows = cols = _header_int(header, "rank")
    if rows < 0 or cols < 0:
        raise InputError(f"{kind} shape {rows} x {cols} has a negative side")
    blocks = []
    for label in labels:
        if lines[at:at + 1] != [label]:
            raise InputError(f"expected a {label!r} line at line {at + 1}")
        block = lines[at + 1:at + 1 + rows]
        if len(block) != rows:
            raise InputError(f"{label!r} block has {len(block)} rows, expected {rows}")
        values = []
        for raw in block:
            parts = raw.split()
            if len(parts) != 2 * cols:
                raise InputError(f"expected {2 * cols} numbers in a matrix row, "
                                 f"got {len(parts)}")
            try:
                values.extend(map(float, parts))
            except ValueError as exc:
                raise InputError(f"bad float in matrix row: {exc}")
        blocks.append(np.array(values, dtype=float).view(complex).reshape(rows, cols))
        require_finite(blocks[-1], f"{kind} file blocks")
        at += 1 + rows
    if at < len(lines):
        raise InputError(f"unexpected line {lines[at]!r} after the last block")
    return header, blocks


def _representation_document(rep: Representation) -> str:
    """The text of a representation file, less its hash line."""
    seed = "none" if rep.seed is None else rep.seed
    return _document("representation",
                     [f"genus: {rep.genus}", f"rank: {rep.rank}",
                      f"flavor: {rep.flavor}", f"seed: {seed}"],
                     zip(_generator_labels(rep.presentation), rep.images))


def representation_fingerprint(rep: Representation) -> str:
    return hashlib.sha256(_representation_document(rep).encode()).hexdigest()


def write_representation(path, rep: Representation) -> str:
    """Write a representation file; returns its content hash."""
    payload = _representation_document(rep)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    head, _, tail = payload.partition("\n")
    write_text(path, f"{head}\nhash: {digest}\n{tail}")
    return digest


def read_representation(path) -> Representation:
    header, images = _read_document(path, "representation")
    seed = None if header.get("seed", "none") == "none" else _header_int(header, "seed")
    stored_hash = header.get("hash")
    if stored_hash is None:
        raise InputError("representation file is missing its hash line")
    rep = Representation(Presentation(_header_int(header, "genus")),
                         _header_int(header, "rank"), images, header.get("flavor"),
                         seed=seed)
    if rep.fingerprint != stored_hash:
        raise InputError("representation file hash does not match its contents")
    return rep


def write_cocycle(path, chi: Cocycle) -> None:
    rep = chi.base
    write_text(path, _document(
        "cocycle",
        [f"genus: {rep.genus}", f"rank: {rep.rank}", f"base-hash: {rep.fingerprint}"],
        zip(_generator_labels(rep.presentation), chi.values)))


def read_cocycle(path, base: Representation) -> Cocycle:
    header, values = _read_document(path, "cocycle")
    if (_header_int(header, "genus"), _header_int(header, "rank")) != (base.genus, base.rank):
        raise InputError("cocycle file shape does not match the base representation")
    if header.get("base-hash") != base.fingerprint:
        raise InputError("cocycle base hash does not match the provided representation")
    return Cocycle(base, values)


def write_matrix(path, matrix: np.ndarray, header_lines=()) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    write_text(path, _document(
        "matrix", [f"rows: {matrix.shape[0]}", f"cols: {matrix.shape[1]}", *header_lines],
        [("data:", matrix)]))


def read_matrix(path) -> np.ndarray:
    return _read_document(path, "matrix")[1][0]
