"""Import hygiene of the package source, checked on its syntax trees,
and the independence of the cup-product oracle.

Twenty-six rules, with no lint dependency:

- every module-level import is used in its module (the package
  ``__init__`` re-exports, and ``from __future__`` imports are exempt);
- imports inside functions are only for breaking import cycles: a
  function may import from a goldman module that its file does not import
  at module level, and nothing else;
- ``words`` is the base layer: it imports nothing from the package but
  ``errors``, so every other module may read words and their codes;
- no module calls numpy's ``kron`` or ``einsum``: ``linalg.ad_matrix``
  is the one Kronecker form, and the tests keep ``np.kron`` as their
  reference;
- no module but ``linalg`` calls ``standard_normal``: complex draws go
  through ``linalg.complex_gaussian``, so every seeded stream has one
  draw order;
- no module but ``linalg`` calls ``svd``: a rank read from singular
  values goes through ``linalg.decided_rank`` (or a basis function, or
  ``triangular_values``, decided by the same
  ``split_singular_values``), so every rank decision of the package has
  one rule;
- no module but ``linalg`` calls ``qr``: ``linalg.triangular_values`` is
  the one QR whose triangle is read, so no tall factor is formed beside it;
- every public module-level function of ``linalg`` is called in another
  module of the package, so a deletion elsewhere leaves no orphan helper
  behind;
- no module imports scipy: the runtime needs numpy only, and the tests
  keep scipy.linalg as their reference;
- ``lstsq`` is called at one site, inside ``reps.newton_project``: the
  one Gauss-Newton loop, which retracts a whole stack of image tuples,
  so no second Newton loop can grow beside it;
- ``newton_project`` is called in ``Chart.points``, the one retraction
  (``deform`` is a one-axis chart point), and otherwise only by the
  ``newton-projection`` check of ``verify``, which tests it directly;
- ``polyfit`` is called at one site, inside ``charts.convergence_order``:
  the one rule that reads an order from a ladder, or finds it flat;
- n^2 less a rank (``x.rank ** 2 - y``) is written only in
  ``reps.commutant_dimension``, which reads the rank of v -> delta_v
  decided in ``Representation.coboundary_svd``;
- ``coboundary_matrix`` is called only in
  ``Representation.coboundary_map``, the cached map v -> delta_v whose
  decided ``coboundary_svd`` ``cocycle_basis`` and
  ``commutant_dimension`` both read, so the rank of v -> delta_v is
  decided once per representation;
- ``fileio._read_text`` is called only in ``fileio._read_document``, the
  one strict reader of the file layout, and ``format_float`` only in
  ``fileio._document``, its one writer, so no second parser or
  serializer can grow beside them;
- ``_invert_all`` is called only in ``Representation.inverse_images``,
  ``random_representation`` and ``newton_project``: every other reader of
  inverse images, the Fox Jacobian included, is handed them;
- the trusted word constructor ``words._trusted`` is called only in
  ``words``, by ``GroupWord.__mul__``, ``GroupWord.inverse``,
  ``Presentation._reduced`` (the push-or-cancel stack of ``reduce`` and
  ``word``), ``fox_derivative`` and ``WordBatch.words``,
  and the trusted batch constructor ``words._trusted_batch`` only in
  ``words`` too, on codes that the module has just made freely reduced
  and in range: every word or batch built from outside input passes
  ``GroupWord``'s or ``Presentation.reduce_batch``'s checks;
- each name of ``verify.ALL_CHECKS`` is a string literal once in
  ``verify.py``, in its table row: the runner hands it to the check's
  stream and report line, so no second copy can drift from the table;
- the pairing matrix ``W`` (the attribute ``.dual_form``) is read only in
  ``pairing.gram``, the one ``V^T W V``, and in ``verify._dual_pairing``,
  the fixed-base checks' row-by-row omega over two stacks, which
  ``--mutate dual-sign`` flips, so no second Gram assembly can grow
  beside ``gram``;
- the cup-product oracle ``pairing_cup`` reads neither the pairing
  matrix ``W`` nor a Fox Jacobian: it still returns with
  ``dual_form_matrix``, ``word_jacobian``, ``fox_jacobian`` and
  ``Representation.dual_form`` patched to raise.  The oracle shares its
  Horner fold with ``extend_words``, so this run, not the code layout
  alone, keeps it independent of the closed form it checks;
- the trusted points constructor ``reps._accepted_points`` is called
  only in ``reps.newton_project``, on the images, inverses and defects
  its Gauss-Newton loop has just formed and gated: every representation
  built from outside input passes ``Representation``'s checks;
- the coded dual words ``Presentation.dual_codes`` are read only in
  ``pairing.pairing_duals``, the stacked closed form over many bases, so
  no third evaluation of the closed form grows beside it and the
  letterwise ``pairing_dual``;
- no ``frob`` call stands inside a comprehension or a generator
  expression, and no ``map(frob, ...)``: ``linalg.frobs`` is the one norm
  of a stack, one call bit for bit ``frob`` matrix by matrix;
- outside ``words``, a ``for`` statement that iterates a word's ``.codes``
  or a ``letter_codes`` array stands only in the four word walkers:
  ``reps._word_product`` and ``reps.evaluate_words`` (products of images),
  ``reps.fox_jacobian`` (the prefix walk of the Fox Jacobian) and
  ``cocycles._fold`` (the one Horner fold of a cocycle), so no second fold
  or product walk grows beside them;
- ``verify.py`` calls neither ``reduce`` nor ``letter_codes``: its random
  words are ``WordBatch``es, reduced, multiplied and coded as arrays, and
  the checks hand them to ``evaluate_words`` and ``extend_words`` as they
  stand, so no check goes back to reducing or coding word by word;
- ``linalg.unitary_real_form`` is called at one site, in
  ``Representation.decision_matrix``: the one method that chooses, by the
  flavor, the matrix a rank decision reads (at a unitary base the u(n)
  real form Re m - (Im m) Pi, m in the coordinates A + S of u(n)), so no
  second decision path can grow beside it; and its inverse
  ``linalg.unitary_values`` is called at one site, in
  ``cocycles.real_locus_bases``, so the coordinates A + S are written and
  read back in ``linalg`` alone and no second real form of u(n) grows
  beside them.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from goldman import Cocycle, Representation, gram, pairing_cup, random_representation
from goldman.cocycles import stack_cocycles
from goldman.verify import ALL_CHECKS

SOURCE = Path(__file__).resolve().parents[1] / "src" / "goldman"
MODULES = sorted(SOURCE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _bound_names(node):
    """Names an import statement binds in its namespace."""
    for alias in node.names:
        if alias.asname:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.partition(".")[0]
        else:
            yield alias.name


def _goldman_modules(node):
    """The goldman modules an import statement reads from (the package
    imports itself relatively)."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return set()
    if node.module is None:
        return {alias.name for alias in node.names}
    return {node.module}


def _module_imports(tree):
    return [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]


def _local_imports(node, func=None):
    """(innermost enclosing function, import) for every import in a function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)) and func is not None:
            yield func, child
        inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _local_imports(child, inner)


def unused_module_imports(path):
    if path.name == "__init__.py":
        return []
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{node.lineno} {name}"
            for node in _module_imports(tree)
            if not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for name in _bound_names(node) if name not in used]


def package_imports(path):
    """'file:line module' for each goldman module an import reads from,
    wherever the import stands, in line order."""
    found = [(node.lineno, module) for node in ast.walk(_tree(path))
             for module in sorted(_goldman_modules(node))]
    return [f"{path.name}:{line} {module}" for line, module in sorted(found)]


def non_cycle_local_imports(path):
    tree = _tree(path)
    at_module_level = set().union(*map(_goldman_modules, _module_imports(tree)))
    offenders = []
    for func, node in _local_imports(tree):
        sources = _goldman_modules(node)
        if not sources or sources & at_module_level:
            offenders.append(f"{path.name}:{node.lineno} in {func.name}")
    return offenders


def calls_named(path, name):
    """Calls of a function named name, as np.name(...) or name(...)."""
    return [f"{path.name}:{node.lineno}" for node in ast.walk(_tree(path))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) == name
                 or getattr(node.func, "id", None) == name)]


def sites(path, matches):
    """Nodes for which matches(node) holds, as 'file:line in f' with f the
    innermost enclosing function ('<module>' outside any), a method named
    with its class ('Class.method')."""
    def walk(node, func, cls=None):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                yield f"{path.name}:{child.lineno} in {func}"
            if isinstance(child, ast.ClassDef):
                yield from walk(child, func, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, f"{cls}.{child.name}" if cls else child.name)
            else:
                yield from walk(child, func, cls)

    return list(walk(_tree(path), "<module>"))


def call_sites(path, name):
    """Calls of a function named name, as np.name(...) or name(...)."""
    return sites(path, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None)))


def rank_square_differences(path):
    """Sites of x.rank ** 2 - y: n^2 less a rank."""
    def matches(node):
        square = getattr(node, "left", None)
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and isinstance(square, ast.BinOp) and isinstance(square.op, ast.Pow)
                and getattr(square.left, "attr", None) == "rank"
                and getattr(square.right, "value", None) == 2)

    return sites(path, matches)


def attribute_reads(path, name):
    """Sites of an attribute read x.name."""
    return sites(path, lambda node: isinstance(node, ast.Attribute) and node.attr == name)


def string_literal_sites(path, text):
    """Sites of a string literal equal to text; a longer string that
    holds text does not count."""
    return sites(path, lambda node: isinstance(node, ast.Constant) and node.value == text)


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def calls_in_comprehensions(path, name):
    """'file:line' of each call of name (as x.name(...) or name(...))
    inside a comprehension or a generator expression, and of each
    map(name, ...) wherever it stands."""
    def named(node):
        return name in (getattr(node, "attr", None), getattr(node, "id", None))

    def walk(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and (
                    (inside and named(child.func))
                    or (getattr(child.func, "id", None) == "map"
                        and child.args and named(child.args[0]))):
                yield child.lineno
            yield from walk(child, inside or isinstance(child, COMPREHENSIONS))

    return [f"{path.name}:{line}" for line in walk(_tree(path), False)]


def word_walks(path):
    """Sites of a for statement whose iterable reads a word's codes: an
    attribute .codes, the name codes (a letter_codes array) or a
    letter_codes call."""
    def reads_codes(node):
        return ("codes" in (getattr(node, "attr", None), getattr(node, "id", None))
                or (isinstance(node, ast.Call) and "letter_codes" in (
                    getattr(node.func, "attr", None), getattr(node.func, "id", None))))

    return sites(path, lambda node: isinstance(node, ast.For)
                 and any(reads_codes(part) for part in ast.walk(node.iter)))


def _without_lines(found):
    """'file in f' for each 'file:line in f' site."""
    return sorted(f"{site.partition(':')[0]} in {site.partition(' in ')[2]}"
                  for site in found)


def public_functions(path):
    """Names of the public module-level functions of a module."""
    return [node.name for node in _tree(path).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def orphan_functions(path, others):
    """Public module-level functions of path called in none of others."""
    return [name for name in public_functions(path)
            if not any(call_sites(other, name) for other in others)]


def scipy_imports(path):
    """Imports of scipy or of one of its submodules, wherever they stand."""
    lines = [node.lineno for node in ast.walk(_tree(path))
             if (isinstance(node, ast.Import)
                 and any(alias.name.partition(".")[0] == "scipy" for alias in node.names))
             or (isinstance(node, ast.ImportFrom) and node.level == 0
                 and node.module.partition(".")[0] == "scipy")]
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_source_files_found():
    assert {"reps.py", "verify.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_module_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_function_local_imports_only_break_cycles(path):
    assert non_cycle_local_imports(path) == []


def test_words_is_the_base_layer():
    found = package_imports(SOURCE / "words.py")
    assert {site.partition(" ")[2] for site in found} == {"errors"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_kron_call(path):
    assert calls_named(path, "kron") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_einsum_call(path):
    assert calls_named(path, "einsum") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_no_standard_normal_call_outside_linalg(path):
    assert calls_named(path, "standard_normal") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_no_svd_call_outside_linalg(path):
    assert calls_named(path, "svd") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_no_qr_call_outside_linalg(path):
    assert calls_named(path, "qr") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert scipy_imports(path) == []


def test_one_least_squares_site():
    sites = [site for path in MODULES for site in call_sites(path, "lstsq")]
    assert len(sites) == 1
    assert sites[0].startswith("reps.py:") and sites[0].endswith(" in newton_project")


def test_newton_projection_sites():
    found = [site for path in MODULES for site in call_sites(path, "newton_project")]
    assert sorted(set(_without_lines(found))) == ["charts.py in Chart.points",
                                                  "verify.py in check_newton_projection"]
    assert _without_lines(found).count("charts.py in Chart.points") == 1


def test_one_polyfit_site():
    found = [site for path in MODULES for site in call_sites(path, "polyfit")]
    assert _without_lines(found) == ["charts.py in convergence_order"]


def test_commutant_formula_sites():
    found = [site for path in MODULES for site in rank_square_differences(path)]
    assert _without_lines(found) == ["reps.py in commutant_dimension"]


def test_one_coboundary_matrix_site():
    found = [site for path in MODULES for site in call_sites(path, "coboundary_matrix")]
    assert _without_lines(found) == ["reps.py in Representation.coboundary_map"]


def test_every_linalg_function_has_an_outside_caller():
    others = [path for path in MODULES if path.name != "linalg.py"]
    assert orphan_functions(SOURCE / "linalg.py", others) == []


def test_one_document_reader_and_writer():
    reads = [site for path in MODULES for site in call_sites(path, "_read_text")]
    writes = [site for path in MODULES for site in call_sites(path, "format_float")]
    assert sorted(set(_without_lines(reads))) == ["fileio.py in _read_document"]
    assert sorted(set(_without_lines(writes))) == ["fileio.py in _document"]


def test_inversion_sites():
    found = [site for path in MODULES for site in call_sites(path, "_invert_all")]
    assert sorted(set(_without_lines(found))) == ["reps.py in Representation.inverse_images",
                                                  "reps.py in newton_project",
                                                  "reps.py in random_representation"]


def test_trusted_words_are_built_only_in_words():
    found = [site for path in MODULES for site in call_sites(path, "_trusted")]
    assert sorted(set(_without_lines(found))) == ["words.py in GroupWord.__mul__",
                                                  "words.py in GroupWord.inverse",
                                                  "words.py in Presentation._reduced",
                                                  "words.py in WordBatch.words",
                                                  "words.py in fox_derivative"]
    batches = [site for path in MODULES for site in call_sites(path, "_trusted_batch")]
    assert {site.partition(":")[0] for site in batches} == {"words.py"}


def test_verify_reads_word_batches():
    path = SOURCE / "verify.py"
    assert call_sites(path, "reduce") + call_sites(path, "letter_codes") == []


def test_one_real_form_site():
    found = [site for path in MODULES for site in call_sites(path, "unitary_real_form")]
    assert _without_lines(found) == ["reps.py in Representation.decision_matrix"]
    found = [site for path in MODULES for site in call_sites(path, "unitary_values")]
    assert _without_lines(found) == ["cocycles.py in real_locus_bases"]


def test_trusted_points_are_built_only_by_newton():
    found = [site for path in MODULES for site in call_sites(path, "_accepted_points")]
    assert _without_lines(found) == ["reps.py in newton_project"]


def test_each_check_is_named_once():
    named = {check.name: _without_lines(string_literal_sites(SOURCE / "verify.py", check.name))
             for check in ALL_CHECKS}
    assert named == {check.name: ["verify.py in <module>"] for check in ALL_CHECKS}


def test_dual_form_read_sites():
    found = [site for path in MODULES for site in attribute_reads(path, "dual_form")]
    assert _without_lines(found) == ["pairing.py in gram", "verify.py in _dual_pairing"]


def test_dual_codes_read_sites():
    found = [site for path in MODULES for site in attribute_reads(path, "dual_codes")]
    assert _without_lines(found) == ["pairing.py in pairing_duals"]


def test_word_walkers_are_fixed():
    found = [site for path in MODULES if path.name != "words.py" for site in word_walks(path)]
    assert _without_lines(found) == ["cocycles.py in _fold", "reps.py in _word_product",
                                     "reps.py in evaluate_words", "reps.py in fox_jacobian"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_frob_per_matrix_of_a_stack(path):
    assert calls_in_comprehensions(path, "frob") == []


def test_cup_oracle_reads_no_dual_form(monkeypatch):
    rep = random_representation(2, 2, "general-linear", seed=23)
    rng = np.random.default_rng(23)
    chis = [Cocycle(rep, rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2)))
            for _ in range(4)]

    def refuse(*args, **kwargs):
        raise RuntimeError("the cup oracle read the closed form")

    names = ("dual_form_matrix", "word_jacobian", "fox_jacobian")
    for key, module in list(sys.modules.items()):
        if key == "goldman" or key.startswith("goldman."):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(Representation, "dual_form", property(refuse))
    with pytest.raises(RuntimeError):  # the patches are live
        gram(chis[:2])
    assert isinstance(pairing_cup(chis[0], chis[1]), complex)
    assert pairing_cup(stack_cocycles(chis[:2]), stack_cocycles(chis[2:])).shape == (2,)


def test_rules_flag_what_they_name(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import numpy as np\n"
        "from .reps import evaluate\n"
        "def f():\n"
        "    import scipy.linalg\n"
        "    from .reps import relator_defect\n"
        "    from .fileio import read_matrix\n"
        "    return np, evaluate, scipy, relator_defect, read_matrix\n"
        "def g(a):\n"
        "    return np.kron(a, a) + kron(a, a), np.kron\n"
        "def h(a):\n"
        "    return np.einsum('ij->ji', a), einsum, a.kron\n"
        "def r(rng):\n"
        "    return rng.standard_normal(2) + 1j * rng.standard_normal(2)\n"
        "from scipy import linalg\n"
        "def s(a):\n"
        "    return linalg.expm(a)\n"
        "def t(a, b):\n"
        "    def inner():\n"
        "        return lstsq(a, b)\n"
        "    return [np.linalg.lstsq(x, b) for x in a], inner\n"
        "lstsq(1, 2)\n"
        "def u(m):\n"
        "    return np.linalg.svd(m, compute_uv=False), svd(m), np.linalg.svd\n"
        "class C:\n"
        "    def points(self, rep):\n"
        "        return newton_project(rep), np.polyfit(1, 2, 1), rep.rank ** 2 - 1\n"
        "    def later(self, rep):\n"
        "        return [polyfit, rep.rank ** 3 - 1, rep.rank ** 2 + 1, 4 ** 2 - 1]\n"
        "rank ** 2 - rank\n"
        "newton_project.cache_clear(), n.rank ** 2 - dims[1]\n"
        "class R:\n"
        "    @cached_property\n"
        "    def coboundary_map(self):\n"
        "        return column_space(coboundary_matrix(self)), coboundary_matrix\n"
        "def project(images):\n"
        "    return _invert_all(images, 'unitary'), lambda: reps._invert_all(images, 'x')\n"
        "def triangle(m):\n"
        "    return np.linalg.qr(m, mode='r'), qr(m), np.linalg.qr\n"
        "def _read_document(path):\n"
        "    return _read_text(path), fileio._read_text(path), format_float\n"
        "def _document(rows):\n"
        "    return [format_float(x) for row in rows for x in row]\n"
        "def check_x(run, rng):\n"
        "    return run.rng('x-check'), 'x-check', 'x-checks', 'an x-check', 1\n"
        "CHECKS = ('x-check',)\n"
        "def power(word):\n"
        "    return _trusted(word.genus, word.codes * 2), words._trusted, _trusted_ok\n"
        "class G:\n"
        "    def gram(self, v):\n"
        "        return v.T @ self.base.dual_form @ v, self.dual_form_matrix, 'dual_form'\n"
        "def _retract(stack):\n"
        "    return _accepted_points(stack), reps._accepted_points\n"
        "def _duals(pres, tables, values):\n"
        "    return _fold(tables, values, pres.dual_codes), dual_codes, 'dual_codes'\n"
        "def _norms(stack):\n"
        "    return ([frob(m) for m in stack], sum(linalg.frob(m) ** 2 for m in stack),\n"
        "            {m: [frob(m)] for m in stack}, list(map(frob, stack)), frob(stack),\n"
        "            frobs(stack), [frobs(m) for m in stack], map(linalg.frob, stack))\n"
        "def _walk(word, pres, words):\n"
        "    for code in reversed(word.codes):\n"
        "        codes, reach, restore = letter_codes(pres, words)\n"
        "    for column, m in zip(codes.T, reach):\n"
        "        for row in words.letter_codes(pres, [word])[0]:\n"
        "            pass\n"
        "    for w in words:\n"
        "        pass\n"
        "    return [c for c in word.codes], word.codes, _letter_codes\n"
        "class Q:\n"
        "    def decision_matrix(self, m):\n"
        "        return unitary_real_form(m, 2), linalg.unitary_real_form, real_form(m)\n"
        "def real_locus_bases(y):\n"
        "    return unitary_values(y, 2), linalg.unitary_values(y, 2), unitary_values\n")
    assert unused_module_imports(module) == ["sample.py:2 json"]
    assert non_cycle_local_imports(module) == ["sample.py:6 in f", "sample.py:7 in f"]
    assert package_imports(module) == ["sample.py:4 reps", "sample.py:7 reps",
                                       "sample.py:8 fileio"]
    assert calls_named(module, "kron") == ["sample.py:11", "sample.py:11"]
    assert calls_named(module, "einsum") == ["sample.py:13"]
    assert calls_named(module, "standard_normal") == ["sample.py:15", "sample.py:15"]
    assert scipy_imports(module) == ["sample.py:6", "sample.py:16"]
    assert call_sites(module, "lstsq") == ["sample.py:21 in inner", "sample.py:22 in t",
                                           "sample.py:23 in <module>"]
    assert calls_named(module, "svd") == ["sample.py:25", "sample.py:25"]
    assert call_sites(module, "newton_project") == ["sample.py:28 in C.points"]
    assert call_sites(module, "polyfit") == ["sample.py:28 in C.points"]
    assert rank_square_differences(module) == ["sample.py:28 in C.points",
                                               "sample.py:32 in <module>"]
    assert call_sites(module, "coboundary_matrix") == ["sample.py:36 in R.coboundary_map"]
    assert call_sites(module, "_invert_all") == ["sample.py:38 in project",
                                                 "sample.py:38 in project"]
    assert calls_named(module, "qr") == ["sample.py:40", "sample.py:40"]
    assert call_sites(module, "_read_text") == ["sample.py:42 in _read_document",
                                                "sample.py:42 in _read_document"]
    assert call_sites(module, "format_float") == ["sample.py:44 in _document"]
    assert string_literal_sites(module, "x-check") == ["sample.py:46 in check_x",
                                                       "sample.py:46 in check_x",
                                                       "sample.py:47 in <module>"]
    assert call_sites(module, "_trusted") == ["sample.py:49 in power"]
    assert attribute_reads(module, "dual_form") == ["sample.py:52 in G.gram"]
    assert call_sites(module, "_accepted_points") == ["sample.py:54 in _retract"]
    assert attribute_reads(module, "dual_codes") == ["sample.py:56 in _duals"]
    assert calls_in_comprehensions(module, "frob") == ["sample.py:58", "sample.py:58",
                                                       "sample.py:59", "sample.py:59",
                                                       "sample.py:60"]
    assert word_walks(module) == ["sample.py:62 in _walk", "sample.py:64 in _walk",
                                  "sample.py:65 in _walk"]
    assert call_sites(module, "unitary_real_form") == ["sample.py:72 in Q.decision_matrix"]
    assert call_sites(module, "unitary_values") == ["sample.py:74 in real_locus_bases",
                                                    "sample.py:74 in real_locus_bases"]
    assert public_functions(module) == ["f", "g", "h", "r", "s", "t", "u", "project",
                                        "triangle", "check_x", "power", "real_locus_bases"]
    caller = tmp_path / "caller.py"
    caller.write_text("def v(m):\n"
                      "    return f(), sample.g(m), h, [r for r in m], C().points(m)\n")
    assert orphan_functions(module, [caller]) == ["h", "r", "s", "t", "u", "project",
                                                  "triangle", "check_x", "power",
                                                  "real_locus_bases"]

