"""Byte identity of the command outputs, pinned by SHA-256 digest.

A refactor that must not change any number shows it here: the file chain
random-rep -> cocycle-basis -> gram -> symplectic-basis at (2,2) seed 7 in
both flavors, with `deform --step 1e-3` along its first cocycle (stdout,
output directory masked, and `deformed.txt`) and the `verify` report at
the same point, and the closedness stdout at seed 9.  A deliberate output
change re-pins the digests (run `pinned_outputs` and copy its result) and
says so in CHANGES.md.  The digests hold for the floating-point libraries
they were pinned with; another BLAS build may move the last printed digit.
"""

import hashlib

from goldman.cli import main

PINNED = {
    "unitary/representation":
        "f68679e91bb405d19af3c52bb09bedd5e5f2865be0e84c9d6fec12fde000fbda",
    "unitary/cocycles":
        "c0e4c880fa49cb89a8dbe96ecc0cf1ff11c54d23b9f2dea13bad8214d7b29c89",
    "unitary/gram":
        "1a5a4c238961982618b42cc2985903658c8c63e62a9c0f4fef9a459818c22d0b",
    "unitary/symplectic-basis":
        "62a93921176726d52e79edbfb1a716ef2ee0bb2320189ea1cf2ad2eeb24fd2d9",
    "unitary/deform-stdout":
        "1ca483aff8fb8d148c418cd0f8e7c867be88eebf36b7a0f2324ea95eab5c6da2",
    "unitary/deformed":
        "ccefe980da9f761c92e6c7190dccc953f1ef4218df22060f7820b9d4b6589214",
    "unitary/verify-report":
        "0e8fada0c041aa1c80d8b64b9345ec10f89bd60cc98f200d06daf515ae4176cd",
    "general-linear/representation":
        "3b88a8d7ffaaa610b213b32ee84d8ac1adef063c00eda10d20b2c2f73d271406",
    "general-linear/cocycles":
        "03057950545702f09dbb9a471745c83a252d1a05283d7f24cf795f3054a4bc4a",
    "general-linear/gram":
        "c5f5c8879849ba3d48e4d3d59ee211f22cc72be7473955fea31d587232004838",
    "general-linear/symplectic-basis":
        "576e599fa170dd97655854efb07bfd87376b59188030ccebb72e6443d96f912a",
    "general-linear/deform-stdout":
        "954343970c4bb98c3b56a6d56839f89083f24b4c99bd6a3be76270d56f0ffd86",
    "general-linear/deformed":
        "c3072857d1236f5091a65b18c471340a11fd6eb081d52cc8a03c03cd13d83f3d",
    "general-linear/verify-report":
        "c2c5f99cfd203067846574d8a4a3690972252ad635b8baa108ca980ae3e06939",
    "closedness-seed-9-stdout":
        "1e4704afab7d8d714f45b9f7f6ea5f2da6a054b0c61886227772da8a88aca8c9",
}


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def pinned_outputs(tmp_path, capsys) -> dict:
    """Digest of every pinned output group, by group name."""
    digests = {}
    for flavor in ("unitary", "general-linear"):
        out = tmp_path / flavor
        rep = out / "representation.txt"
        assert main(["--flavor", flavor, "--seed", "7", "--out", str(out),
                     "random-rep"]) == 0
        assert main(["--out", str(out), "cocycle-basis", "--rep", str(rep)]) == 0
        cocycles = [str(p) for p in sorted(out.glob("cocycle-*.txt"))]
        assert main(["--out", str(out), "gram", "--rep", str(rep), *cocycles]) == 0
        assert main(["--out", str(out / "sb"), "symplectic-basis", "--rep", str(rep),
                     *cocycles]) == 0
        digests[f"{flavor}/representation"] = _digest([rep])
        digests[f"{flavor}/cocycles"] = _digest(out.glob("cocycle-*.txt"))
        digests[f"{flavor}/gram"] = _digest([out / "gram.txt"])
        digests[f"{flavor}/symplectic-basis"] = _digest((out / "sb").iterdir())
        capsys.readouterr()
        assert main(["--out", str(out / "deform"), "deform", "--rep", str(rep),
                     "--cocycle", cocycles[0], "--step", "1e-3"]) == 0
        stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
        digests[f"{flavor}/deform-stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        digests[f"{flavor}/deformed"] = _digest([out / "deform" / "deformed.txt"])
        assert main(["--flavor", flavor, "--seed", "7", "--out", str(out / "verify"),
                     "verify"]) == 0
        digests[f"{flavor}/verify-report"] = _digest([out / "verify" / "verify-report.txt"])
    capsys.readouterr()
    assert main(["--seed", "9", "closedness"]) == 0
    digests["closedness-seed-9-stdout"] = hashlib.sha256(
        capsys.readouterr().out.encode()).hexdigest()
    return digests


def test_outputs_match_pinned_digests(tmp_path, capsys):
    assert pinned_outputs(tmp_path, capsys) == PINNED
