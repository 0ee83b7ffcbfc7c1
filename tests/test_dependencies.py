"""What the package depends on, and what depends on each part of it.

The package runs on numpy alone: scipy is a test-only dependency.  The
test process itself imports scipy (it is the oracle for several kernels),
so the check runs the whole public pipeline and two CLI calls in a fresh
interpreter and inspects that interpreter's sys.modules.

Every top-level function and class of the package, public or not, and
every public method and property of its classes has a caller in the
package or its scripts: code that only the tests use lives in the tests.
The few exceptions are named, each with its reason.

Rank decisions live in `surfrep.linalg`: outside it, an SVD is called
only by the named factorizations that decide no rank.

Child seeds are spawned one at a time, when the attempt that needs one
starts: no batch of seeds is spawned up front and mostly thrown away.

Every cache of the package is `unitary._read_only_cache`, and every array
a cached function returns is read-only: the cache hands the same object
to every caller, so one caller writing into it would change what all
later callers read.

Every name that the tests and scripts import from the package exists: a
test module whose import fails is a collection error, and a suite run
with --continue-on-collection-errors would drop its tests from the count
without failing any.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import surfrep
from surfrep.presentation import standard_presentation

_PIPELINE = r"""
import json, sys, tempfile
from pathlib import Path

import numpy as np

import surfrep
from surfrep import (ConjugacyClass, SolverConfig, SurfaceData, analyze,
                     build_deformation, gram_matrix, solve, verify_deformation)
from surfrep.cli import main
from surfrep.corpus import tangent_direction

surface = SurfaceData(0, 4, 2, (ConjugacyClass((np.pi / 2, -np.pi / 2)),) * 4)
rho = solve(surface, SolverConfig(seed=0)).representation
report = analyze(rho)
gram_matrix(rho, report=report)
verify_deformation(build_deformation(rho, tangent_direction(rho, 0), order=2))

with tempfile.TemporaryDirectory() as tmp:
    inp = Path(tmp) / "surface.json"
    inp.write_text(json.dumps(surface.to_dict()))
    for command in ("solve", "analyze"):
        out = str(Path(tmp) / (command + ".json"))
        assert main([command, "--input", str(inp), "--output", out]) == 0

print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_pipeline_and_cli_never_import_scipy():
    src = str(Path(surfrep.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _PIPELINE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


# Called nowhere in the package; the benchmark counts their calls by name
# (presentation.word_evals, linalg.min_norm_solves).
_BENCHMARK_COUNTED = {"extend_cocycle", "min_norm_solve"}
# Public API that nothing in the package calls: F(u, v) itself, the form
# on M_N that `gram_matrix` tabulates on a basis, for callers who hold
# their own pair of tangent vectors; the conjugation action that M_N is
# the quotient by; and the point of a deformation family at one parameter.
_PUBLIC_WITHOUT_CALLER = {"symplectic_form", "Representation.gauge",
                          "DeformationState.instantiate"}


def _names(node, own):
    """Names and attribute names that `node` refers to, but `own`."""
    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    return names - set(own)


def _script_references(tree):
    """What a script refers to through its imports of surfrep, as (names,
    attributes).  `names` are the names it imports from the package and
    the attributes it takes of a package module that it imports; a name
    the script defines or uses on its own does not count.  `attributes`
    are every attribute it takes, once it imports from the package at
    all: a method is called on an object that the package returned."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or "surfrep" for alias in node.names
                        if alias.name.split(".")[0] == "surfrep"}
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and (node.module or "").split(".")[0] == "surfrep"):
            # an imported name may be a submodule, whose attributes count too
            names |= {alias.name for alias in node.names}
            modules |= {alias.asname or alias.name for alias in node.names}
    attributes = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    for node in attributes:
        root = node.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in modules:
            names.add(node.attr)
    return names, {n.attr for n in attributes} if modules else set()


def _unreferenced_definitions(roots):
    """Top-level functions and classes of src/surfrep, and the public
    methods and properties of its classes (as Class.name), that no other
    code in `roots` refers to, by name or attribute; a definition's
    references to itself do not count.  Code outside the package refers
    to it only through its imports of surfrep (`_script_references`)."""
    defined, referenced, methods = {}, set(), set()
    for root in roots:
        in_package = root.name == "surfrep"
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            if not in_package:
                names, attributes = _script_references(tree)
                referenced |= names
                methods |= attributes
                continue
            for stmt in tree.body:
                parts = [stmt]
                if isinstance(stmt, ast.ClassDef):
                    parts = stmt.bases + stmt.keywords + stmt.decorator_list + stmt.body
                for part in parts:
                    own = (getattr(stmt, "name", None), getattr(part, "name", None))
                    referenced |= _names(part, own)
                    public_method = (part is not stmt and isinstance(part, ast.FunctionDef)
                                     and not part.name.startswith("_"))
                    if public_method:
                        defined[part.name] = f"{stmt.name}.{part.name}"
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    defined[stmt.name] = stmt.name
    return {label for name, label in defined.items()
            if name not in referenced and not ("." in label and name in methods)}


def test_every_package_definition_has_a_caller():
    root = Path(surfrep.__file__).resolve().parent
    dead = _unreferenced_definitions([root, root.parents[1] / "scripts"])
    assert dead == _BENCHMARK_COUNTED | _PUBLIC_WITHOUT_CALLER


# SVDs outside linalg that decide no rank: the polar factor of the
# canonical tangent basis
_SVD_WITHOUT_RANK = {"cohomology._canonical_columns"}


def _svd_callers(root):
    """module.function of every top-level function that calls an `svd`."""
    callers = set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            calls = [n for n in ast.walk(stmt) if isinstance(n, ast.Call)
                     and isinstance(n.func, ast.Attribute) and n.func.attr == "svd"]
            if calls:
                callers.add(f"{path.stem}.{getattr(stmt, 'name', '<module>')}")
    return callers


def test_svd_is_called_only_where_ranks_are_decided():
    root = Path(surfrep.__file__).resolve().parent
    callers = _svd_callers(root)
    assert {c for c in callers if not c.startswith("linalg.")} == _SVD_WITHOUT_RANK
    assert "linalg.nullspace" in callers
    # no other name for numpy's svd is brought in
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                assert "svd" not in {a.name for a in node.names}, path.name


def test_every_spawn_draws_one_child():
    root = Path(surfrep.__file__).resolve().parent
    spawns = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "spawn"):
                spawns.append((path.name, node.lineno, node))
    assert spawns
    for name, line, call in spawns:
        one = (len(call.args) == 1 and not call.keywords
               and isinstance(call.args[0], ast.Constant) and call.args[0].value == 1)
        assert one, f"{name}:{line} spawns more than one child at once"


# One call of every cached function of the package, by module.name.
_CACHED_CALLS = {
    "cohomology._reference_frame": (4, 2),
    "deformation._cauchy_pairs": (4, 1, 1),
    "deformation._coordinate_maps": (2,),
    "deformation._identity": (4, 2),
    "presentation._fox_layout": (standard_presentation(1, 2), ((0, 1), (1, -1), (2, 1))),
    "presentation._selectors": (standard_presentation(1, 3), 2),
    "presentation.standard_presentation": (1, 2),
    "solver._relation_layout": (standard_presentation(1, 2),),
    "unitary._basis_columns": (2,),
    "unitary._entry_positions": (2,),
    "unitary._permutation_table": (3,),
    "unitary.algebra_basis": (2,),
    "unitary.identity": (2,),
}
# Caches of values that are not arrays: a Presentation is frozen.
_CACHES_WITHOUT_ARRAYS = {"presentation.standard_presentation"}


def _cached_functions(root):
    """module.name of every top-level function decorated with
    `_read_only_cache`, and of every other top-level statement that uses
    `lru_cache`."""
    cached, other = set(), set()
    for path in sorted(root.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            name = f"{path.stem}.{getattr(stmt, 'name', '<module>')}"
            decorators = getattr(stmt, "decorator_list", [])
            if any(getattr(d, "id", None) == "_read_only_cache" for d in decorators):
                cached.add(name)
            if name != "unitary._read_only_cache" and "lru_cache" in _names(stmt, ()):
                other.add(name)
    return cached, other


def test_cached_arrays_are_read_only():
    root = Path(surfrep.__file__).resolve().parent
    cached, other = _cached_functions(root)
    assert cached == set(_CACHED_CALLS)
    assert other == set(), "an lru_cache outside unitary._read_only_cache"
    for name, args in _CACHED_CALLS.items():
        module, func = name.split(".")
        value = getattr(importlib.import_module(f"surfrep.{module}"), func)(*args)
        arrays = [v for v in (value if isinstance(value, tuple) else (value,))
                  if isinstance(v, np.ndarray)]
        if name in _CACHES_WITHOUT_ARRAYS:
            assert not arrays, name
            continue
        assert arrays, name
        # frozen by _read_only_cache on the miss that built them
        assert not any(a.flags.writeable for a in arrays), f"{name} returns a writable array"


def _package_imports(roots):
    """(path, line, module, name) of every `from surfrep... import name`
    in the Python files under `roots`."""
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if (isinstance(node, ast.ImportFrom) and node.level == 0
                        and (node.module or "").split(".")[0] == "surfrep"):
                    for alias in node.names:
                        yield path.name, node.lineno, node.module, alias.name


def test_every_name_imported_from_the_package_exists():
    repo = Path(__file__).resolve().parents[1]
    imports = list(_package_imports([repo / "tests", repo / "scripts"]))
    assert imports
    missing = []
    for name, line, module, imported in imports:
        parent = importlib.import_module(module)
        # a submodule is an attribute of its package only once imported
        submodule = (hasattr(parent, "__path__")
                     and importlib.util.find_spec(f"{module}.{imported}") is not None)
        if not (hasattr(parent, imported) or submodule):
            missing.append(f"{name}:{line}: {module}.{imported}")
    assert missing == []
