import hashlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import goldman.charts
import goldman.cli
import goldman.tolerances
from goldman import (ConditioningError, InputError, Presentation, Representation,
                     cocycle_basis, newton_project, random_representation)
from goldman.cli import main
from goldman.config import RunConfig
from goldman.fileio import (format_float, read_cocycle, read_representation,
                            write_representation)
from goldman.linalg import complex_gaussian, expm
from goldman.verify import ALL_CHECKS, SuiteRun, run_check


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_input_error(code, err):
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def write_diagonal_point(path):
    """A reducible genus-2 point: diagonal U(2) images commute, so the
    relator holds exactly and the commutant is the diagonal algebra."""
    rng = np.random.default_rng(12)
    phases = np.exp(2j * np.pi * rng.random((4, 2)))
    images = [np.diag(p) for p in phases]
    write_representation(path, Representation(Presentation(2), 2, images, "unitary"))


def near_reducible_point():
    """A genus-2 U(2) point near the diagonal ones: seeded diagonal phase
    images moved by expm(1e-8 X), X anti-Hermitian, and projected back by
    newton_project.  The third singular values of the relator constraint
    (3.05e-8) and of the coboundary map (2.03e-8) lie on either side of
    the rank cutoff 2.83e-8, so the two ranks are decided 3 and 2."""
    rng = np.random.default_rng(5)
    phases = rng.uniform(0, 2 * np.pi, (4, 2))
    x = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    x = (x - x.conj().transpose(0, 2, 1)) / 2
    images = np.stack([np.diag(np.exp(1j * p)) for p in phases])
    return newton_project(Presentation(2), (expm(1e-8 * x) @ images)[None], "unitary")[0]


def write_overflowing_point(path):
    """A genus-2 general-linear representation file, its hash recomputed,
    whose images are 1e160 times a seed-0 complex normal stack: finite,
    with dets that overflow to inf, and a relator product that overflows
    to a NaN defect."""
    write_representation(path, random_representation(2, 2, "general-linear", seed=0))
    images = 1e160 * complex_gaussian(np.random.default_rng(0), (4, 2, 2))
    rows = iter(" ".join(f"{format_float(z.real)} {format_float(z.imag)}" for z in row)
                for m in images for row in m)
    lines = [line if line.startswith(("format: ", "genus: ", "rank: ", "flavor: ", "seed: ",
                                      "generator: ")) else next(rows)
             for line in path.read_text().splitlines() if not line.startswith("hash: ")]
    payload = "\n".join(lines) + "\n"
    head, _, tail = payload.partition("\n")
    path.write_text(f"{head}\nhash: {hashlib.sha256(payload.encode()).hexdigest()}\n{tail}")


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

    @pytest.mark.parametrize("args, line", [
        (["--rank", "8"], "Z1=193 B1=63 H1=130 formula=130 MATCH"),
        (["--rank", "11"], "Z1=364 B1=120 H1=244 formula=244 MATCH"),
        (["--rank", "14"], "Z1=589 B1=195 H1=394 formula=394 MATCH"),
        (["--genus", "3", "--rank", "8"], "Z1=321 B1=63 H1=258 formula=258 MATCH"),
        (["--rank", "4", "--flavor", "general-linear"], "Z1=49 B1=15 H1=34 formula=34 MATCH"),
    ])
    def test_pinned_lines_at_scale(self, capsys, args, line):
        code, out, _ = run_cli(args + ["dims"], capsys)
        assert code == 0
        assert out == line + "\n"

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
        # an irreducible centre prints no commutant line
        assert out.splitlines() == ["space: h1-complement", "count: 10", "Z1: 13", "B1: 3",
                                    "H1: 10"]
        cocycles = sorted(str(p) for p in tmp_path.glob("cocycle-*.txt"))
        assert len(cocycles) == 10

        code, out, _ = run_cli(["--out", out_dir, "gram", "--rep", str(rep_file)]
                               + cocycles, capsys)
        assert code == 0
        assert (tmp_path / "gram.txt").exists()
        skew_line = [l for l in out.splitlines() if l.startswith("skewness")][0]
        assert float(skew_line.split(": ")[1]) < 1e-8

    def test_basis_at_a_reducible_centre_names_the_commutant(self, tmp_path, capsys):
        rep_file = tmp_path / "rep.txt"
        write_diagonal_point(rep_file)
        code, out, _ = run_cli(["--out", str(tmp_path / "basis"), "cocycle-basis",
                                "--rep", str(rep_file)], capsys)
        assert code == 0
        assert out.splitlines() == ["space: h1-complement", "count: 12", "Z1: 14", "B1: 2",
                                    "H1: 12", "commutant-dimension: 2"]
        assert len(list((tmp_path / "basis").glob("cocycle-*.txt"))) == 12

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

    def test_cocycle_basis_on_an_ill_conditioned_frame_probe_exits_three(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(goldman.tolerances, "FRAME_PROBE_CONDITION", 1.0)
        code, out, err = run_cli(["--out", str(tmp_path), "cocycle-basis"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: frame probe condition")
        assert not list(tmp_path.glob("cocycle-*.txt"))

    def test_cocycle_basis_at_a_near_reducible_point_exits_three(self, tmp_path, capsys):
        # rank C = rank D on a closed surface group, so two different
        # decided ranks name the point as not decidable
        message = "rank of the relator constraint 3 differs from dim B1 2"
        rep = near_reducible_point()
        with pytest.raises(ConditioningError, match=f"^{message}$"):
            cocycle_basis(rep)
        write_representation(tmp_path / "rep.txt", rep)
        code, out, err = run_cli(["--out", str(tmp_path), "cocycle-basis",
                                  "--rep", str(tmp_path / "rep.txt")], capsys)
        assert code == 3
        assert out == ""
        assert err == f"error: {message}\n"
        assert not list(tmp_path.glob("cocycle-*.txt"))

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
        assert "commutant-dimension" not in lines  # an irreducible centre
        assert (tmp_path / "deformed.txt").exists()

    def test_deform_at_a_reducible_centre_names_the_commutant(self, tmp_path, capsys):
        write_diagonal_point(tmp_path / "rep.txt")
        run_cli(["--out", str(tmp_path), "cocycle-basis", "--rep", str(tmp_path / "rep.txt")],
                capsys)
        code, out, _ = run_cli(["--out", str(tmp_path), "deform",
                                "--rep", str(tmp_path / "rep.txt"),
                                "--cocycle", str(tmp_path / "cocycle-000.txt"),
                                "--step", "1e-3"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "commutant-dimension: 2"
        assert lines[-2].startswith("correction-order: ")

    def test_deform_projects_each_step_once(self, tmp_path, capsys, monkeypatch):
        out_dir = str(tmp_path)
        run_cli(["--out", out_dir, "random-rep"], capsys)
        run_cli(["--out", out_dir, "cocycle-basis"], capsys)
        rep = read_representation(tmp_path / "representation.txt")
        chi = read_cocycle(tmp_path / "cocycle-000.txt", rep)
        # the written point and both corrections, each projected afresh
        step = 1e-3
        moved = {t: goldman.charts.deform(rep, chi, t) for t in (step, step / 2)}
        corrections = [np.sqrt(sum(
            np.linalg.norm(scipy.linalg.expm(t * v) @ x - y) ** 2
            for v, x, y in zip(chi.values, rep.images, moved[t].images)))
            for t in (step, step / 2)]
        write_representation(tmp_path / "expected.txt", moved[step])

        projections = []
        project = goldman.charts.newton_project

        def counted(*args, **kwargs):
            projections.append(args)
            return project(*args, **kwargs)

        monkeypatch.setattr(goldman.charts, "newton_project", counted)
        code, out, _ = run_cli(["--out", out_dir, "deform",
                                "--rep", str(tmp_path / "representation.txt"),
                                "--cocycle", str(tmp_path / "cocycle-000.txt"),
                                "--step", "1e-3"], capsys)
        assert code == 0
        # one stacked solve retracts both steps
        assert [len(args[1]) for args in projections] == [2]
        assert ((tmp_path / "deformed.txt").read_bytes()
                == (tmp_path / "expected.txt").read_bytes())
        lines = dict(l.split(": ", 1) for l in out.splitlines())
        assert lines["correction"] == f"{corrections[0]:.6e}"
        assert lines["correction-half-step"] == f"{corrections[1]:.6e}"

    @pytest.mark.parametrize("rank,step", [(1, "1e-3"), (2, "0")])
    def test_deform_exact_move_prints_no_order(self, tmp_path, capsys, rank, step):
        # at rank one the exponential move stays on the variety, and a zero
        # step does not move: both corrections are exactly zero.  Two step
        # sizes of zeros are flat; a zero step has one size and no order
        out_dir = str(tmp_path)
        run_cli(["--rank", str(rank), "--out", out_dir, "random-rep"], capsys)
        run_cli(["--rank", str(rank), "--out", out_dir, "cocycle-basis"], capsys)
        code, out, _ = run_cli(["--out", out_dir, "deform",
                                "--rep", str(tmp_path / "representation.txt"),
                                "--cocycle", str(tmp_path / "cocycle-000.txt"),
                                "--step", step], capsys)
        assert code == 0
        lines = dict(l.split(": ", 1) for l in out.splitlines())
        assert float(lines["correction"]) == float(lines["correction-half-step"]) == 0.0
        assert lines.get("correction-order") == ("flat" if rank == 1 else None)

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

    def test_gram_rep_with_trailing_line_exits_two(self, tmp_path, capsys):
        out_dir = str(tmp_path)
        run_cli(["--out", out_dir, "random-rep"], capsys)
        run_cli(["--out", out_dir, "cocycle-basis"], capsys)
        rep_file = tmp_path / "representation.txt"
        rep_file.write_text(rep_file.read_text() + "junk\n")
        code, out, err = run_cli(["--out", out_dir, "gram", "--rep", str(rep_file),
                                  str(tmp_path / "cocycle-000.txt")], capsys)
        assert_input_error(code, err)
        assert out == ""
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "gram.txt").exists()

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


class TestOverflowingRelator:
    @pytest.mark.parametrize("command", [["cocycle-basis"], ["closedness"],
                                         ["closedness", "--steps", "4e-3,2e-3"]])
    def test_nan_defect_file_is_an_input_error(self, tmp_path, capsys, command):
        write_overflowing_point(tmp_path / "rep.txt")
        code, out, err = run_cli(["--out", str(tmp_path), *command,
                                  "--rep", str(tmp_path / "rep.txt")], capsys)
        assert_input_error(code, err)
        assert "relator defect nan exceeds" in err
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rep.txt"]


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
        assert lines[-1].startswith("convergence-order: ")  # an irreducible centre

    @pytest.mark.parametrize("genus,rank,seed", [(2, 1, 0), (2, 1, 1034), (2, 1, 941414098),
                                                 (1, 3, 0)])
    def test_roundoff_ladder_is_flat(self, tmp_path, capsys, genus, rank, seed):
        # the residuals lie at roundoff, where a fitted slope means nothing;
        # verify's closedness-order reads the same ladder by the same rule
        code, out, _ = run_cli(["--genus", str(genus), "--rank", str(rank), "--seed", str(seed),
                                "closedness"], capsys)
        assert code == 0
        assert "convergence-order: flat" in out.splitlines()
        if genus == 2:
            closedness = next(c for c in ALL_CHECKS if c.name == "closedness-order")
            result = run_check(SuiteRun(RunConfig(genus=genus, rank=rank, seed=seed,
                                                  out=tmp_path)), closedness)
            assert result.passed and result.max_residual == 0.0
        else:  # every genus-one point is reducible
            assert out.splitlines()[-1] == "commutant-dimension: 3"

    def test_reducible_centre_names_the_commutant(self, tmp_path, capsys):
        write_diagonal_point(tmp_path / "rep.txt")
        code, out, _ = run_cli(["closedness", "--rep", str(tmp_path / "rep.txt")], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "commutant-dimension: 2"
        assert lines[-2].startswith("convergence-order: ")
        # an input error still exits before anything is printed
        code, out, err = run_cli(["closedness", "--rep", str(tmp_path / "rep.txt"),
                                  "--triple", "0,1,12"], capsys)
        assert_input_error(code, err)
        assert out == ""

    def test_bad_triple_exits_two(self, capsys):
        code, _, err = run_cli(["closedness", "--triple", "0,1"], capsys)
        assert code == 2

    def test_one_distinct_step_prints_no_order(self, capsys):
        code, out, err = run_cli(["closedness", "--steps", "1e-3,1e-3"], capsys)
        assert code == 0
        assert err == ""
        assert sum(l.startswith("residual") for l in out.splitlines()) == 2
        assert "convergence-order" not in out

    def test_repeated_step_keeps_the_order(self, capsys):
        code, out, err = run_cli(["closedness", "--steps", "2e-3,1e-3,2e-3"], capsys)
        assert code == 0
        assert err == ""
        assert "convergence-order: " in out

    @pytest.mark.parametrize("extra", [["--triple", "0,1,2"],
                                       ["--triple", "0,0,1", "--steps", "1e-3,1"]])
    def test_input_error_prints_nothing(self, tmp_path, capsys, extra):
        # two frame files: index 2 is out of range; a step of 1 is too large
        out_dir = str(tmp_path)
        run_cli(["--out", out_dir, "random-rep"], capsys)
        run_cli(["--out", out_dir, "cocycle-basis"], capsys)
        frame = [str(tmp_path / f"cocycle-00{i}.txt") for i in range(2)]
        code, out, err = run_cli(["closedness", "--rep",
                                  str(tmp_path / "representation.txt")]
                                 + frame + extra, capsys)
        assert_input_error(code, err)
        assert out == ""

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

    @pytest.mark.parametrize("value, message", [
        ("inf", "must be finite, got inf"), ("1e400", "must be finite, got inf"),
        ("nan", "must be positive, got nan"), ("-1", "must be positive, got -1.0")])
    def test_tolerance_must_be_positive_and_finite(self, tmp_path, capsys, value, message):
        # an infinite threshold would switch its three checks off
        code, out, err = run_cli(["--tol", f"verification={value}", "--out", str(tmp_path),
                                  "verify"], capsys)
        assert_input_error(code, err)
        assert err.strip() == f"error: tolerance verification {message}"
        assert out == ""
        assert not (tmp_path / "verify-report.txt").exists()

    @pytest.mark.parametrize("flag", ["--genus", "--rank"])
    def test_size_below_one_is_an_input_error(self, capsys, flag):
        code, out, err = run_cli([flag, "0", "dims"], capsys)
        assert_input_error(code, err)
        assert err.strip() == f"error: {flag[2:]} must be an integer >= 1, got 0"
        assert out == ""

    @pytest.mark.parametrize("sizes, name", [((1.5, 2), "genus"), ((2, 2.0), "rank")])
    def test_config_sizes_are_integers(self, sizes, name):
        # one size rule for RunConfig and random_representation
        with pytest.raises(InputError, match=f"{name} must be an integer >= 1"):
            RunConfig(genus=sizes[0], rank=sizes[1])

    def test_repeated_tolerance_takes_the_last_value(self, tmp_path, capsys):
        strict, loose = "verification=1e-30", "verification=1"
        code, out, _ = run_cli(["--rank", "1", "--tol", strict, "--tol", loose,
                                "--out", str(tmp_path / "a"), "verify"], capsys)
        assert code == 0
        assert out.splitlines()[0] == ("config: genus=2 rank=1 flavor=unitary seed=0 "
                                       "tol.verification=1")
        code, out, _ = run_cli(["--rank", "1", "--tol", loose, "--tol", strict,
                                "--out", str(tmp_path / "b"), "verify"], capsys)
        assert code == 1
        assert out.splitlines()[0].endswith(" seed=0 tol.verification=1e-30")
        assert "summary: checks=36 failed=3" in out

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

    @pytest.mark.parametrize("argv", [
        ["--flavor", "unitary", "verify"],
        ["--flavor", "general-linear", "verify"],
        ["--flavor", "general-linear", "closedness"]], ids=lambda a: "-".join(a[1:]))
    def test_repeat_runs_in_one_process_match_a_fresh_process(self, tmp_path, capsys,
                                                              argv):
        """Caches on presentations and representations carry nothing from
        one run to the next: two in-process runs and a fresh process print
        the same bytes and write the same report."""
        outputs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            code, out, err = run_cli(["--out", str(out_dir)] + argv, capsys)
            assert (code, err) == (0, "")
            outputs.append((out, _report(out_dir)))
        out_dir = tmp_path / "fresh"
        proc = subprocess.run([sys.executable, "-m", "goldman", "--out", str(out_dir)]
                              + argv, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, _report(out_dir)))
        assert outputs[0] == outputs[1] == outputs[2]


def _report(out_dir):
    path = out_dir / "verify-report.txt"
    return path.read_bytes() if path.exists() else None
