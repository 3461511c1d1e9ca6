"""Byte identity of the command outputs, pinned by SHA-256 digest.

A refactor that must not change any number shows it here: the file chain
random-rep -> cocycle-basis -> gram -> symplectic-basis at (2,2) seed 7 in
both flavors, with `deform --step 1e-3` along its first cocycle (stdout,
output directory masked, and `deformed.txt`) and the `verify` report at
the same point, the closedness stdout at seed 9 and at (2,1) seed 0 (a
ladder flat at roundoff), and the `verify` report at three more sizes:
(3,2) unitary seed 4, (2,3) general-linear seed 5 and (2,1) unitary
seed 2.  A deliberate output
change re-pins the digests (run `pinned_outputs` and copy its result) and
says so in CHANGES.md.  The digests hold for the floating-point libraries
they were pinned with; another BLAS build may move the last printed digit.
"""

import hashlib

from goldman.cli import main

PINNED = {
    "unitary/representation":
        "80ca73e47b0d410d5393216e0b62880080d51220dcef3713ccd1a860b4beb0f3",
    "unitary/cocycles":
        "013d44598308a0955792857bc56aba209ff898eff5c0721f0151f87e514c8fb0",
    "unitary/gram":
        "6cb68b7729c257d726d7ac2ed8764cd0fd13a005ce04a626062c72d6b33e62ff",
    "unitary/symplectic-basis":
        "a6c9ac6b05e39800855f402337c602f2c6860dc516a2af984c25d79b782c36f7",
    "unitary/deform-stdout":
        "5357cb788b62ce25b675b932c6a599c23493c63f7908826ffd4af137bb30d608",
    "unitary/deformed":
        "948453aa4e97e2fe8dc6f36dfa56e8280c51e613929b311057acb0a4d40841fd",
    "unitary/verify-report":
        "ffdbf060b3d7fc00b01e9439d54cb9072cec14991327d60b33e557c96c89ea3a",
    "general-linear/representation":
        "623ed2f22169cc4f459053a9cc915c02ce12bac79f828a569aa9b34dc94fd99a",
    "general-linear/cocycles":
        "25e064b8eb2e7d7270be70de17f7d67c5ccba7c6844257ec1b65aef7b016f71f",
    "general-linear/gram":
        "e3a84c381b76d3941fef8a751e812ed8fb738f8a0d9c1c547911bad3bc44d95e",
    "general-linear/symplectic-basis":
        "0e2002d004532a4fda24af2bd3a40024686e61e33413ff6e227700e1afa7ae6c",
    "general-linear/deform-stdout":
        "017099586556bde98d15db16d55567f22f80d11a3c43745e10569eb35f7151af",
    "general-linear/deformed":
        "4caaaeea9e37dd3fa1e9208377c561958f7024e36da44c454f6da02fb0b0264f",
    "general-linear/verify-report":
        "cb5d9303e7931e7f1fc6855e3b8b230cffab48653837e10fe12983bc4c91b3e7",
    "closedness-seed-9-stdout":
        "3d265884967db346a7bc65f3f0d65bf5850aca5817e46c583bad00d0152286b8",
    "closedness-g2n1-seed-0-stdout":
        "90b78a6f9c44df93dfbc0790cf47a03084dc9bc6de543915ef75dbd223fa7af5",
    "g3n2-unitary-seed4/verify-report":
        "c088867ab082b943fa5fa9bb04255c9a584c35ed84d6fe244022a0c1f1fb7039",
    "g2n3-general-linear-seed5/verify-report":
        "286b8fe824acaa26d3e617c5df3c87b3ea7b79418e1dfb6d351d334da329b82b",
    "g2n1-unitary-seed2/verify-report":
        "2564a214af3cb838bed02d8343d28cdf960cacf6611f15190d4a07c3ec4a8a09",
}

# (genus, rank, flavor, seed) of the verify reports pinned beside (2,2)
VERIFY_SIZES = ((3, 2, "unitary", 4), (2, 3, "general-linear", 5), (2, 1, "unitary", 2))


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
    assert main(["--rank", "1", "--seed", "0", "closedness"]) == 0
    digests["closedness-g2n1-seed-0-stdout"] = hashlib.sha256(
        capsys.readouterr().out.encode()).hexdigest()
    for genus, rank, flavor, seed in VERIFY_SIZES:
        out = tmp_path / f"g{genus}n{rank}-{flavor}-seed{seed}"
        assert main(["--genus", str(genus), "--rank", str(rank), "--flavor", flavor,
                     "--seed", str(seed), "--out", str(out), "verify"]) == 0
        digests[f"{out.name}/verify-report"] = _digest([out / "verify-report.txt"])
    capsys.readouterr()
    return digests


def test_outputs_match_pinned_digests(tmp_path, capsys):
    assert pinned_outputs(tmp_path, capsys) == PINNED
