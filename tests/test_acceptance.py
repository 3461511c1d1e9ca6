"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and match the library's global ladder.
"""

import subprocess
import sys
import time

import numpy as np

from goldman import (Chart, Cocycle, Presentation,
                     Representation, closedness_check, coboundary,
                     cocycle_basis, commutant_dimension, commutator_factor,
                     gram, pairing_cup, pairing_dual, random_cocycle,
                     real_locus_bases, relator_defect,
                     rh_differential, unitary_restriction_check)
from goldman.linalg import frob, haar_unitary

GRID = [(g, n) for g in (2, 3) for n in (1, 2, 3)]


def announce(name, passed=True):
    print(f"{name}: {'PASS' if passed else 'FAIL'}")


def test_dimension_formula_grid(seeded_reps, seeded_bases):
    started = time.monotonic()
    for (g, n), basis in seeded_bases.items():
        z1, b1, h1 = basis.dims
        assert h1 == (2 * g - 2) * n * n + 2
        assert z1 - b1 == h1
        assert commutant_dimension(seeded_reps[(g, n)]) == 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    announce("dimension-formula")


def test_dual_formula_vs_cup_on_cycle(seeded_bases):
    started = time.monotonic()
    pairs = 0
    worst = 0.0
    for (g, n), basis in seeded_bases.items():
        rng = np.random.default_rng([1000, g, n])
        for _ in range(50):
            chi1 = random_cocycle(basis, rng)
            chi2 = random_cocycle(basis, rng)
            worst = max(worst, abs(pairing_dual(chi1, chi2) - pairing_cup(chi1, chi2)))
            pairs += 1
    assert pairs >= 300
    assert worst < 1e-10
    assert time.monotonic() - started < 30.0
    announce("dual-vs-cup")


def test_class_level_well_definedness(seeded_bases):
    for (g, n), basis in seeded_bases.items():
        rng = np.random.default_rng([2000, g, n])
        rep = basis.base
        for _ in range(100):
            chi1 = random_cocycle(basis, rng)
            chi2 = random_cocycle(basis, rng)
            v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            delta = coboundary(v, rep)
            base_value = pairing_dual(chi1, chi2)
            assert abs(pairing_dual(chi1 + delta, chi2) - base_value) < 1e-9
            assert abs(pairing_dual(chi1, chi2 + delta) - base_value) < 1e-9
            assert abs(base_value + pairing_dual(chi2, chi1)) < 1e-9
    announce("class-well-definedness")


def test_nondegeneracy_with_margin(seeded_bases):
    for basis in seeded_bases.values():
        g_matrix = gram(basis.h1_complement)
        svals = np.linalg.svd(g_matrix.matrix, compute_uv=False)
        cutoff = 1e-8 * svals[0]
        kept = svals[svals > cutoff]
        assert kept.size == basis.dims[2]
        margin = kept[-1] / cutoff if kept.size == svals.size else kept[-1] / svals[kept.size]
        assert margin >= 1e3
    announce("nondegeneracy")


def test_rank_one_specialization():
    for genus in (2, 3):
        pres = Presentation(genus)
        count = 2 * genus
        rep = Representation(pres, 1, tuple(np.eye(1, dtype=complex)
                                            for _ in range(count)), "unitary")
        indicators = []
        for i in range(count):
            values = [np.zeros((1, 1), dtype=complex) for _ in range(count)]
            values[i] = np.eye(1, dtype=complex)
            indicators.append(Cocycle(rep, tuple(values)))
        expected = np.zeros((count, count))
        for k in range(genus):
            expected[2 * k, 2 * k + 1] = 1.0
            expected[2 * k + 1, 2 * k] = -1.0
        for i in range(count):
            for j in range(count):
                assert abs(pairing_dual(indicators[i], indicators[j])
                           - expected[i, j]) < 1e-12

        rng = np.random.default_rng([3000, genus])
        for _ in range(25):
            x = rng.standard_normal(count) + 1j * rng.standard_normal(count)
            y = rng.standard_normal(count) + 1j * rng.standard_normal(count)
            chi1 = Cocycle(rep, tuple(np.array([[z]]) for z in x))
            chi2 = Cocycle(rep, tuple(np.array([[z]]) for z in y))
            hand = sum(x[2 * k] * y[2 * k + 1] - x[2 * k + 1] * y[2 * k]
                       for k in range(genus))
            assert abs(pairing_dual(chi1, chi2) - hand) < 1e-12
    announce("rank-one-intersection-form")


def test_deformation_differential_round_trip(basis_g2n2):
    rng = np.random.default_rng(4000)
    chi = random_cocycle(basis_g2n2, rng, space="h1")
    chi = chi * (1.0 / chi.norm())
    rep = basis_g2n2.base
    chart = Chart(center=rep, frame=(chi,))
    target = basis_g2n2.h1_coordinates(chi)
    steps = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    errors = [float(np.linalg.norm(basis_g2n2.h1_coordinates(rh_differential(
        rep, chart.point((h,)), chart.point((-h,)), h)) - target)) for h in steps]
    for i in range(3):
        ratio = errors[i] / errors[i + 1]
        assert 3.5 <= ratio <= 4.5
    announce("deformation-round-trip")


def test_closedness(basis_g2n2, trivial_scalar_rep):
    started = time.monotonic()
    chart = Chart(center=basis_g2n2.base, frame=basis_g2n2.h1_complement)
    steps = [8e-3, 4e-3, 2e-3, 1e-3]
    residuals = [closedness_check(chart, (0, 1, 2), h) for h in steps]
    order = float(np.polyfit(np.log(steps), np.log(residuals), 1)[0])
    assert abs(order - 2.0) <= 0.3
    assert residuals[-1] < 1e-4

    abelian_basis = cocycle_basis(trivial_scalar_rep)
    abelian_chart = Chart(center=trivial_scalar_rep, frame=abelian_basis.h1_complement)
    for h in (1e-2, 1e-3, 1e-4):
        assert closedness_check(abelian_chart, (0, 1, 2), h) < 1e-10
    assert time.monotonic() - started < 120.0
    announce("closedness")


def test_unitary_locus(seeded_bases):
    for (g, n), basis in seeded_bases.items():
        _, h1_real = real_locus_bases(basis)
        assert len(h1_real) == basis.dims[2]
        report = unitary_restriction_check(h1_real)
        assert report.max_imaginary < 1e-10
        assert report.real_rank == basis.dims[2]
        assert report.passed
    announce("unitary-locus")


def test_construction_quality(seeded_reps):
    for rep in seeded_reps.values():
        assert relator_defect(rep) <= 1e-12
        assert commutant_dimension(rep) == 1

    rng = np.random.default_rng(5000)
    draws = 0
    for n in (2, 3, 4):
        for _ in range(17):
            u = haar_unitary(rng, n)
            u = u * np.linalg.det(u) ** (-1.0 / n)
            a, b = commutator_factor(u)
            assert frob(a @ b @ np.linalg.inv(a) @ np.linalg.inv(b) - u) < 1e-10
            m = haar_unitary(rng, n) + 0.3 * (rng.standard_normal((n, n))
                                              + 1j * rng.standard_normal((n, n)))
            m = m * np.linalg.det(m) ** (-1.0 / n)
            a, b = commutator_factor(m, unitary=False)
            assert frob(a @ b @ np.linalg.inv(a) @ np.linalg.inv(b) - m) < 1e-10
            draws += 2
    assert draws >= 100
    announce("construction-quality")


def test_reproducible_verify_reports(tmp_path):
    reports = []
    for run in ("one", "two"):
        out_dir = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "goldman", "--out", str(out_dir), "verify"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        reports.append((out_dir / "verify-report.txt").read_bytes())
    assert reports[0] == reports[1]
    announce("reproducibility")
