import subprocess
import sys

import numpy as np
import pytest

import goldman.cli
from goldman.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_input_error(code, err):
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


class TestDims:
    def test_match_line(self, capsys):
        code, out, _ = run_cli(["dims"], capsys)
        assert code == 0
        assert out.strip() == "Z1=13 B1=3 H1=10 formula=10 MATCH"

    def test_rank_one(self, capsys):
        code, out, _ = run_cli(["--rank", "1", "dims"], capsys)
        assert code == 0
        assert out.strip() == "Z1=4 B1=0 H1=4 formula=4 MATCH"

    def test_genus_three_rank_three(self, capsys):
        code, out, _ = run_cli(["--genus", "3", "--rank", "3", "dims"], capsys)
        assert code == 0
        assert "H1=38 formula=38 MATCH" in out

    def test_mismatch_names_the_commutant(self, capsys):
        # at genus one every rank-two point is reducible
        code, out, _ = run_cli(["--genus", "1", "--rank", "2", "dims"], capsys)
        assert code == 1
        assert out.splitlines() == ["Z1=6 B1=2 H1=4 formula=2 MISMATCH",
                                    "commutant-dimension: 2"]


class TestFileCommands:
    def test_random_rep_and_basis_and_gram(self, tmp_path, capsys):
        out_dir = str(tmp_path)
        code, out, _ = run_cli(["--out", out_dir, "random-rep"], capsys)
        assert code == 0
        rep_file = tmp_path / "representation.txt"
        assert rep_file.exists()

        code, out, _ = run_cli(["--out", out_dir, "cocycle-basis"], capsys)
        assert code == 0
        assert "count: 10" in out
        cocycles = sorted(str(p) for p in tmp_path.glob("cocycle-*.txt"))
        assert len(cocycles) == 10

        code, out, _ = run_cli(["--out", out_dir, "gram", "--rep", str(rep_file)]
                               + cocycles, capsys)
        assert code == 0
        assert (tmp_path / "gram.txt").exists()
        skew_line = [l for l in out.splitlines() if l.startswith("skewness")][0]
        assert float(skew_line.split(": ")[1]) < 1e-8

    def test_gram_same_cocycle_twice_is_zero(self, tmp_path, capsys):
        out_dir = str(tmp_path)
        run_cli(["--out", out_dir, "random-rep"], capsys)
        run_cli(["--out", out_dir, "cocycle-basis"], capsys)
        rep_file = str(tmp_path / "representation.txt")
        one = str(tmp_path / "cocycle-000.txt")
        code, out, _ = run_cli(["--out", out_dir, "gram", "--rep", rep_file,
                                one, one], capsys)
        assert code == 0
        from goldman.fileio import read_matrix

        matrix = read_matrix(tmp_path / "gram.txt")
        assert np.abs(matrix).max() < 1e-10

    def test_gram_trivial_action_indicators(self, tmp_path, capsys):
        from goldman import Cocycle, Presentation, Representation
        from goldman.fileio import read_matrix, write_cocycle, write_representation

        pres = Presentation(2)
        rep = Representation(pres, 1, tuple(np.eye(1, dtype=complex)
                                            for _ in range(4)), "unitary")
        write_representation(tmp_path / "rep.txt", rep)
        for i, name in [(0, "a1"), (1, "b1")]:
            values = [np.zeros((1, 1), dtype=complex) for _ in range(4)]
            values[i] = np.eye(1, dtype=complex)
            write_cocycle(tmp_path / f"ind-{name}.txt", Cocycle(rep, tuple(values)))
        code, out, _ = run_cli(["--out", str(tmp_path), "gram",
                                "--rep", str(tmp_path / "rep.txt"),
                                str(tmp_path / "ind-a1.txt"),
                                str(tmp_path / "ind-b1.txt")], capsys)
        assert code == 0
        matrix = read_matrix(tmp_path / "gram.txt")
        assert np.array_equal(matrix.real, np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.abs(matrix.imag).max() == 0.0

    def test_gram_base_mismatch_exits_two(self, tmp_path, capsys):
        out_dir = str(tmp_path)
        run_cli(["--out", out_dir, "random-rep"], capsys)
        run_cli(["--out", out_dir, "cocycle-basis"], capsys)
        other = tmp_path / "other.txt"
        run_cli(["--seed", "1234", "--out", out_dir, "random-rep",
                 "--file", str(other)], capsys)
        code, _, err = run_cli(["--out", out_dir, "gram", "--rep", str(other),
                                str(tmp_path / "cocycle-000.txt"),
                                str(tmp_path / "cocycle-001.txt")], capsys)
        assert code == 2
        assert "hash" in err

    def test_symplectic_basis_command(self, tmp_path, capsys):
        out_dir = str(tmp_path)
        run_cli(["--out", out_dir, "random-rep"], capsys)
        run_cli(["--out", out_dir, "cocycle-basis"], capsys)
        rep_file = str(tmp_path / "representation.txt")
        cocycles = sorted(str(p) for p in tmp_path.glob("cocycle-*.txt"))
        code, out, _ = run_cli(["--out", out_dir, "symplectic-basis",
                                "--rep", rep_file] + cocycles, capsys)
        assert code == 0
        assert "pairs: 5" in out
        residual_line = [l for l in out.splitlines()
                         if l.startswith("normal-form-residual")][0]
        assert float(residual_line.split(": ")[1]) < 1e-8
        assert (tmp_path / "symplectic-transform.txt").exists()
        assert len(list(tmp_path.glob("basis-e-*.txt"))) == 5
        assert len(list(tmp_path.glob("basis-f-*.txt"))) == 5

    def test_symplectic_basis_degenerate_exits_three(self, tmp_path, capsys):
        # a coboundary cocycle makes the pairing degenerate
        import goldman
        from goldman import coboundary, random_representation
        from goldman.fileio import write_cocycle, write_representation

        rep = random_representation(2, 2, "unitary", seed=0)
        basis = goldman.cocycle_basis(rep)
        write_representation(tmp_path / "rep.txt", rep)
        write_cocycle(tmp_path / "c0.txt", basis.h1_complement[0])
        write_cocycle(tmp_path / "c1.txt",
                      coboundary(np.eye(2) + 1j * np.eye(2), rep))
        code, _, err = run_cli(["--out", str(tmp_path), "symplectic-basis",
                                "--rep", str(tmp_path / "rep.txt"),
                                str(tmp_path / "c0.txt"),
                                str(tmp_path / "c1.txt")], capsys)
        assert code == 3
        assert "degenerate" in err

    def test_deform_command(self, tmp_path, capsys):
        out_dir = str(tmp_path)
        run_cli(["--out", out_dir, "random-rep"], capsys)
        run_cli(["--out", out_dir, "cocycle-basis"], capsys)
        code, out, _ = run_cli(["--out", out_dir, "deform",
                                "--rep", str(tmp_path / "representation.txt"),
                                "--cocycle", str(tmp_path / "cocycle-000.txt"),
                                "--step", "1e-3"], capsys)
        assert code == 0
        assert "trivialization: right" in out
        lines = dict(l.split(": ", 1) for l in out.splitlines())
        assert float(lines["relator-defect"]) <= 1e-10
        assert 1.8 <= float(lines["correction-order"]) <= 2.2
        assert (tmp_path / "deformed.txt").exists()

    @pytest.mark.parametrize("step", ["nan", "-nan", "inf"])
    def test_deform_non_finite_step_exits_two(self, tmp_path, capsys, step):
        out_dir = str(tmp_path)
        run_cli(["--out", out_dir, "random-rep"], capsys)
        run_cli(["--out", out_dir, "cocycle-basis"], capsys)
        code, _, err = run_cli(["--out", str(tmp_path / "o"), "deform",
                                "--rep", str(tmp_path / "representation.txt"),
                                "--cocycle", str(tmp_path / "cocycle-000.txt"),
                                f"--step={step}"], capsys)
        assert_input_error(code, err)
        assert "trust region" in err
        assert not (tmp_path / "o").exists()

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(["gram", "--rep", str(tmp_path / "absent.txt"),
                                str(tmp_path / "nope.txt")], capsys)
        assert code == 2

    def test_directory_as_rep_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(["--out", str(tmp_path), "cocycle-basis",
                                "--rep", str(tmp_path)], capsys)
        assert_input_error(code, err)

    def test_non_utf8_rep_exits_two(self, tmp_path, capsys):
        rep_file = tmp_path / "rep.txt"
        rep_file.write_bytes(b"format: representation 1\n\xff\xfe\n")
        code, _, err = run_cli(["--out", str(tmp_path), "cocycle-basis",
                                "--rep", str(rep_file)], capsys)
        assert_input_error(code, err)
        assert "UTF-8" in err

    def test_non_integer_seed_header_exits_two(self, tmp_path, capsys):
        run_cli(["--out", str(tmp_path), "random-rep"], capsys)
        rep_file = tmp_path / "representation.txt"
        rep_file.write_text(rep_file.read_text().replace("seed: 0", "seed: zero"))
        code, _, err = run_cli(["--out", str(tmp_path), "cocycle-basis",
                                "--rep", str(rep_file)], capsys)
        assert_input_error(code, err)
        assert "seed" in err

    def test_write_into_missing_directory_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(["random-rep", "--file",
                                str(tmp_path / "absent" / "rep.txt")], capsys)
        assert_input_error(code, err)

    def test_random_rep_file_creates_no_out_directory(self, tmp_path, capsys):
        stray = tmp_path / "stray"
        code, out, _ = run_cli(["--out", str(stray), "random-rep", "--file",
                                str(tmp_path / "x.txt")], capsys)
        assert code == 0
        assert (tmp_path / "x.txt").exists()
        assert not stray.exists()

    def test_random_rep_file_ignores_out_naming_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken.txt"
        taken.write_text("not a directory\n")
        code, _, _ = run_cli(["--out", str(taken), "random-rep", "--file",
                              str(tmp_path / "x.txt")], capsys)
        assert code == 0
        assert (tmp_path / "x.txt").exists()
        assert taken.read_text() == "not a directory\n"

    def test_random_rep_file_in_missing_directory_exits_two(self, tmp_path, capsys):
        stray = tmp_path / "stray"
        code, _, err = run_cli(["--out", str(stray), "random-rep", "--file",
                                str(tmp_path / "absent" / "rep.txt")], capsys)
        assert_input_error(code, err)
        assert not stray.exists()

    @pytest.mark.parametrize("command", [["random-rep"], ["cocycle-basis"]])
    def test_out_naming_a_file_exits_two(self, tmp_path, capsys, command):
        target = tmp_path / "taken.txt"
        target.write_text("not a directory\n")
        code, _, err = run_cli(["--out", str(target)] + command, capsys)
        assert_input_error(code, err)
        assert target.read_text() == "not a directory\n"

    def test_unwritable_verify_report_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(goldman.cli, "run_suite", lambda config: [])
        (tmp_path / "verify-report.txt").mkdir()
        code, _, err = run_cli(["--out", str(tmp_path), "verify"], capsys)
        assert_input_error(code, err)

    def test_gram_non_finite_cocycle_exits_two(self, tmp_path, capsys):
        out_dir = str(tmp_path)
        run_cli(["--out", out_dir, "random-rep"], capsys)
        run_cli(["--out", out_dir, "cocycle-basis"], capsys)
        target = tmp_path / "cocycle-001.txt"
        lines = target.read_text().splitlines()
        row = lines.index("generator: b1") + 1
        lines[row] = " ".join(["nan"] + lines[row].split()[1:])
        target.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(["--out", out_dir, "gram",
                                "--rep", str(tmp_path / "representation.txt"),
                                str(tmp_path / "cocycle-000.txt"), str(target)],
                               capsys)
        assert code == 2
        assert "non-finite" in err


class TestClosednessCommand:
    def test_report(self, capsys):
        code, out, _ = run_cli(["closedness", "--steps", "4e-3,2e-3,1e-3"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "trivialization: right"
        residuals = [float(l.split(": ")[1]) for l in lines if l.startswith("residual")]
        assert residuals[-1] < 1e-4
        order = [float(l.split(": ")[1]) for l in lines
                 if l.startswith("convergence-order")][0]
        assert 1.7 <= order <= 2.3

    def test_bad_triple_exits_two(self, capsys):
        code, _, err = run_cli(["closedness", "--triple", "0,1"], capsys)
        assert code == 2

    def test_frame_from_files(self, tmp_path, capsys):
        out_dir = str(tmp_path)
        run_cli(["--out", out_dir, "random-rep"], capsys)
        run_cli(["--out", out_dir, "cocycle-basis"], capsys)
        frame = sorted(str(p) for p in tmp_path.glob("cocycle-*.txt"))[:3]
        code, out, _ = run_cli(["closedness", "--rep",
                                str(tmp_path / "representation.txt"),
                                "--steps", "4e-3,2e-3"] + frame, capsys)
        assert code == 0
        residuals = [float(l.split(": ")[1]) for l in out.splitlines()
                     if l.startswith("residual")]
        assert max(residuals) < 1e-4


class TestVerifyCommand:
    def test_default_config_passes(self, tmp_path, capsys):
        code, out, _ = run_cli(["--out", str(tmp_path), "verify"], capsys)
        assert code == 0
        assert "failed=0" in out
        assert (tmp_path / "verify-report.txt").exists()

    def test_genus_one_smoke_subset(self, tmp_path, capsys):
        code, out, _ = run_cli(["--genus", "1", "--rank", "1", "--out",
                                str(tmp_path), "verify"], capsys)
        assert code == 0
        assert "check word-reduction-confluence" in out
        assert "check dual-generator-identities" in out
        assert "check cup-dual-agreement" not in out

    def test_mutation_mode_fails_cup_dual(self, tmp_path, capsys):
        code, out, _ = run_cli(["--out", str(tmp_path), "verify",
                                "--mutate", "dual-sign"], capsys)
        assert code == 1
        line = [l for l in out.splitlines() if "cup-dual-agreement" in l][0]
        assert "verdict=FAIL" in line
        assert "summary: checks=36 failed=1" in out

    def test_bad_tolerance_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(["--tol", "bogus=1e-4", "--out", str(tmp_path),
                                "verify"], capsys)
        assert code == 2

    @pytest.mark.parametrize("override", ["svd=1e-6", "construction=1e-30", "fd=5"])
    def test_only_verification_tolerance_is_known(self, tmp_path, capsys, override):
        code, out, err = run_cli(["--tol", override, "--out", str(tmp_path),
                                  "verify"], capsys)
        assert_input_error(code, err)
        name = override.split("=")[0]
        assert err.strip() == f"error: unknown tolerance {name!r} (known: verification)"
        assert out == ""
        assert not (tmp_path / "verify-report.txt").exists()

    def test_verification_tolerance_sets_three_thresholds(self, tmp_path, capsys):
        code, plain, _ = run_cli(["--out", str(tmp_path / "plain"), "verify"], capsys)
        assert code == 0
        code, tuned, _ = run_cli(["--tol", "verification=1e-7",
                                  "--out", str(tmp_path / "tuned"), "verify"], capsys)
        assert code == 0
        plain, tuned = plain.splitlines(), tuned.splitlines()
        assert len(plain) == len(tuned)
        assert tuned[0] == plain[0] + " tol.verification=1e-07"
        changed = {}
        for before, after in zip(plain[1:], tuned[1:]):
            if before != after:
                name = before.split(":")[0]
                changed[name] = after
                assert after == before.replace("threshold=1.000000e-08",
                                               "threshold=1.000000e-07")
        assert sorted(changed) == ["check cocycle-law-on-basis", "check gram-structure",
                                   "check symplectic-basis"]


class TestParserReuse:
    def test_tolerance_does_not_leak_into_next_call(self, capsys):
        from goldman.cli import _build_parser

        assert _build_parser() is _build_parser()
        code, _, _ = run_cli(["--tol", "bogus=1e-4", "dims"], capsys)
        assert code == 2
        code, out, _ = run_cli(["dims"], capsys)
        assert code == 0
        assert out.strip() == "Z1=13 B1=3 H1=10 formula=10 MATCH"
        assert _build_parser().parse_args(["dims"]).tol == []


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "goldman", "dims"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "MATCH" in proc.stdout
