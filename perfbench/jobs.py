"""Workload plans and output checks for the goldman benchmark.

A plan is the ordered list of CLI jobs that makes up one pass of a
workload.  Every job seed is derived from the workload seed, so the same
seed gives the same inputs, and every pass repeats the same jobs, so
their outputs must repeat byte for byte.  Output checks use the
package's own gates from ``goldman.tolerances`` and the acceptance suite.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from goldman import fileio, tolerances
from goldman.pairing import pairing_cup

WORKLOADS = ("verify-suite", "form-pipeline", "rank-sweep")

# Gates the acceptance suite pins that have no constant in goldman.tolerances.
CUP_DUAL_AGREEMENT = 1e-10      # test_dual_formula_vs_cup_on_cycle
GRAM_RANK_MARGIN = 1e3          # test_nondegeneracy_with_margin
CLOSEDNESS_ORDER = (2.0, 0.3)   # test_closedness: |order - 2| <= 0.3
ORACLE_ENTRIES = 6              # Gram entries re-derived per gram job per pass


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``command`` at (genus, rank) with full argv."""

    command: str
    genus: int
    rank: int
    argv: tuple[str, ...]
    out: Path | None = None
    cocycles: tuple[Path, ...] = ()
    flavor: str = "unitary"

    @property
    def label(self) -> str:
        return f"{self.command}@g{self.genus}n{self.rank}-{self.flavor}"


def derive_seed(workload: str, seed: int, index) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def h1_dimension(genus: int, rank: int) -> int:
    return (2 * genus - 2) * rank * rank + 2


def _config(genus, rank, seed, flavor="unitary", out=None):
    argv = ["--genus", str(genus), "--rank", str(rank), "--flavor", flavor,
            "--seed", str(seed)]
    if out is not None:
        argv += ["--out", str(out)]
    return argv


def plan(workload: str, seed: int, work: Path) -> list[Job]:
    """The job list of one pass of ``workload``; outputs go under ``work``."""
    def s(index):
        return derive_seed(workload, seed, index)

    if workload == "verify-suite":
        out = work / "verify-g2n2"
        return [
            Job("verify", 2, 2, tuple(_config(2, 2, s(0), out=out) + ["verify"]), out),
            Job("closedness", 2, 2, tuple(_config(2, 2, s(1), "general-linear")
                                          + ["closedness"]), flavor="general-linear"),
        ]
    if workload == "form-pipeline":
        g, n = 2, 2
        out = work / f"pipeline-g{g}n{n}"
        rep = out / "representation.txt"
        cocycles = tuple(out / f"cocycle-{i:03d}.txt" for i in range(h1_dimension(g, n)))
        files = [str(p) for p in cocycles]
        return [
            Job("random-rep", g, n, tuple(_config(g, n, s(0), out=out) + ["random-rep"]), out),
            Job("cocycle-basis", g, n, tuple(_config(g, n, s(0), out=out)
                                             + ["cocycle-basis", "--rep", str(rep)]), out),
            Job("gram", g, n, ("--out", str(out), "gram", "--rep", str(rep), *files),
                out, cocycles),
            Job("symplectic-basis", g, n, ("--out", str(out), "symplectic-basis",
                                           "--rep", str(rep), *files), out, cocycles),
        ]
    if workload == "rank-sweep":
        return [Job("dims", g, n, tuple(_config(g, n, s(i)) + ["dims"]))
                for i, (g, n) in enumerate(((2, 8), (2, 11), (2, 14), (3, 8)))]
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------------ checks

def _field(stdout: str, key: str) -> str | None:
    match = re.search(rf"^{re.escape(key)}: (\S+)$", stdout, re.MULTILINE)
    return match.group(1) if match else None


def _report_file(job: Job) -> Path | None:
    if job.command == "verify":
        return job.out / "verify-report.txt"
    if job.command == "gram":
        return job.out / "gram.txt"
    return None


def digest(job: Job, stdout: str) -> str:
    """Digest of a job's standard output and of its report file, if any."""
    h = hashlib.sha256(stdout.encode())
    report = _report_file(job)
    if report is not None:
        h.update(report.read_bytes())
    return h.hexdigest()


def check(job: Job, rc, stdout: str) -> str | None:
    """None when the job's output passes its gates, else the reason."""
    if rc != 0:
        return f"exit status {rc}"
    if job.command == "verify":
        last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
        if not re.fullmatch(r"summary: checks=\d+ failed=0", last):
            return f"verify summary {last!r}"
        return None
    if job.command == "dims":
        if not re.fullmatch(r"Z1=\d+ B1=\d+ H1=\d+ formula=\d+ MATCH", stdout.strip()):
            return f"dims output {stdout.strip()!r}"
        return None
    if job.command == "random-rep":
        defect = float(_field(stdout, "relator-defect") or "inf")
        return None if defect <= tolerances.CONSTRUCTION else f"relator defect {defect}"
    if job.command == "cocycle-basis":
        d = h1_dimension(job.genus, job.rank)
        if _field(stdout, "count") != str(d) or _field(stdout, "H1") != str(d):
            return f"cocycle-basis count {_field(stdout, 'count')}, expected {d}"
        return None
    if job.command == "gram":
        return _check_gram(job)
    if job.command == "symplectic-basis":
        pairs = _field(stdout, "pairs")
        residual = float(_field(stdout, "normal-form-residual") or "inf")
        if pairs != str(len(job.cocycles) // 2):
            return f"symplectic-basis pairs {pairs}"
        if not residual <= tolerances.VERIFICATION:
            return f"normal-form residual {residual}"
        return None
    if job.command == "closedness":
        residuals = re.findall(r"^residual\[h=\S+\]: (\S+)$", stdout, re.MULTILINE)
        order = _field(stdout, "convergence-order")
        target, window = CLOSEDNESS_ORDER
        if order is None or not abs(float(order) - target) <= window:
            return f"closedness order {order}"
        if not residuals or not float(residuals[-1]) < tolerances.FINITE_DIFFERENCE:
            return f"closedness last residual {residuals[-1:]}"
        return None
    return f"no check for command {job.command!r}"


def _check_gram(job: Job) -> str | None:
    matrix = fileio.read_matrix(job.out / "gram.txt")
    d = len(job.cocycles)
    if matrix.shape != (d, d):
        return f"gram shape {matrix.shape}, expected {(d, d)}"
    skewness = float(np.linalg.norm(matrix + matrix.T))
    if not skewness <= tolerances.VERIFICATION:
        return f"gram skewness {skewness:.3e}"
    svals = np.linalg.svd(matrix, compute_uv=False)
    cutoff = tolerances.SVD_RELATIVE * svals[0]
    kept = svals[svals > cutoff]
    if kept.size != d:
        return f"gram rank {kept.size}, expected {d}"
    if not kept[-1] / cutoff >= GRAM_RANK_MARGIN:
        return f"gram rank margin {kept[-1] / cutoff:.3e}"
    return None


def oracle_sample(job: Job, seed: int) -> list[tuple[int, int]]:
    """Fixed, seeded Gram entries that ``oracle_check`` re-derives."""
    rng = np.random.default_rng([seed, job.genus, job.rank])
    d = len(job.cocycles)
    return [(int(i), int(j)) for i, j in rng.integers(0, d, size=(ORACLE_ENTRIES, 2))]


def oracle_check(job: Job, sample) -> str | None:
    """Compare sampled Gram entries with the cup-product oracle."""
    matrix = fileio.read_matrix(job.out / "gram.txt")
    rep = fileio.read_representation(job.out / "representation.txt")
    cache = {}

    def cocycle(i):
        if i not in cache:
            cache[i] = fileio.read_cocycle(job.cocycles[i], rep)
        return cache[i]

    worst = max(abs(pairing_cup(cocycle(i), cocycle(j)) - matrix[i, j]) for i, j in sample)
    return None if worst < CUP_DUAL_AGREEMENT else f"cup/dual disagreement {worst:.3e}"
