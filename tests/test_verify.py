import sys

import numpy as np
import pytest

import goldman.cocycles
import goldman.reps
import goldman.verify
from goldman import ConditioningError
from goldman.config import RunConfig
from goldman.verify import (SuiteRun, check_closedness, check_cocycle_law_on_basis,
                            check_newton_projection, run_suite)


def _count_calls(monkeypatch, module, name):
    """Count calls of module.name through every alias a goldman module holds."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, holder in list(sys.modules.items()):
        if key == "goldman" or key.startswith("goldman."):
            for attr, value in list(vars(holder).items()):
                if value is original:
                    monkeypatch.setattr(holder, attr, counted)
    return calls


def _refuse(name):
    def refuse(self):
        raise AssertionError(f"SuiteRun.{name} was built")
    return property(refuse)


class TestSuiteRun:
    def test_seeded_objects_are_built_once(self, monkeypatch, tmp_path):
        reps = _count_calls(monkeypatch, goldman.reps, "random_representation")
        bases = _count_calls(monkeypatch, goldman.cocycles, "cocycle_basis")
        real = _count_calls(monkeypatch, goldman.cocycles, "real_locus_bases")
        results = run_suite(RunConfig(genus=2, rank=2, seed=0, out=tmp_path))
        assert all(r.passed for r in results)
        # the base point, one independent rebuild, and the six grid points
        assert len(reps) <= 8
        # the base basis, the six grid bases and the trivial rank-one basis
        assert len(bases) <= 8
        assert len(real) == 1

    def test_shared_objects_are_cached(self, tmp_path):
        run = SuiteRun(RunConfig(out=tmp_path))
        assert run.rep is run.rep
        assert run.basis is run.basis
        assert run.basis.base is run.rep
        assert run.real_locus is run.real_locus
        assert len(run.grid) == 6

    @pytest.mark.parametrize("rank", [1, 2])
    def test_genus_one_builds_no_cohomology(self, monkeypatch, tmp_path, rank):
        monkeypatch.setattr(SuiteRun, "basis", _refuse("basis"))
        monkeypatch.setattr(SuiteRun, "real_locus", _refuse("real_locus"))
        results = run_suite(RunConfig(genus=1, rank=rank, out=tmp_path))
        assert results and all(r.passed for r in results)

    def test_general_linear_builds_no_real_locus(self, monkeypatch, tmp_path):
        monkeypatch.setattr(SuiteRun, "real_locus", _refuse("real_locus"))
        config = RunConfig(flavor="general-linear", out=tmp_path)
        assert all(r.passed for r in run_suite(config))

    def test_basis_error_comes_from_the_first_check_that_needs_it(
            self, monkeypatch, tmp_path):
        def fail(rep):
            raise ConditioningError("rank decision is ambiguous")

        monkeypatch.setattr(goldman.verify, "cocycle_basis", fail)
        run = SuiteRun(RunConfig(out=tmp_path))
        assert check_newton_projection(run).passed
        with pytest.raises(ConditioningError):
            check_cocycle_law_on_basis(run)
        with pytest.raises(ConditioningError):
            run_suite(RunConfig(out=tmp_path))


class TestClosednessOrder:
    @pytest.mark.parametrize("seed", [941414098, 1034])
    def test_rank_one_roundoff_is_flat(self, tmp_path, seed):
        # these seeds put a roundoff residual above the absolute FLAT_FLOOR
        results = run_suite(RunConfig(genus=2, rank=1, seed=seed, out=tmp_path))
        assert [r.name for r in results if not r.passed] == []
        closedness = next(r for r in results if r.name == "closedness-order")
        assert closedness.max_residual == 0.0

    @pytest.mark.parametrize("flavor", ["unitary", "general-linear"])
    def test_rank_two_ladder_is_fitted(self, tmp_path, flavor):
        result = check_closedness(SuiteRun(RunConfig(genus=2, rank=2, flavor=flavor,
                                                     seed=0, out=tmp_path)))
        assert result.passed
        assert result.max_residual > 0.0


class TestSignDraw:
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 40 + 3])
    def test_indexed_draw_matches_choice(self, seed):
        # verify draws letter signs as (-1, 1)[rng.integers(0, 2)]; every
        # sample stays what rng.choice([-1, 1]) drew on the same stream
        indexed, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(1000):
            assert int(indexed.integers(0, 6)) == int(chosen.integers(0, 6))
            assert (-1, 1)[int(indexed.integers(0, 2))] == int(chosen.choice([-1, 1]))
        assert indexed.random() == chosen.random()


class TestRunConfig:
    def test_repeated_tolerance_keeps_the_last_value(self):
        config = RunConfig(tolerance_overrides=(("verification", 1e-30),
                                                ("verification", 1.0)))
        assert config.tolerance("verification") == 1.0
        assert config.tolerance_overrides == (("verification", 1.0),)
        assert config.describe().endswith(" tol.verification=1")
