"""The package namespace and what importing it loads."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import demandlab

SUBMODULES = sorted(info.name
                    for info in pkgutil.iter_modules(demandlab.__path__))
PACKAGE_ROOT = Path(demandlab.__file__).resolve().parents[1]
SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_import_gives_the_module(name):
    # ``import demandlab.<name> as m`` binds the package attribute, so a
    # function exported under the same name would shadow the module
    module = importlib.import_module(f"demandlab.{name}")
    assert isinstance(module, types.ModuleType)
    namespace = {}
    exec(f"import demandlab.{name} as m", namespace)
    assert namespace["m"] is module


def test_every_exported_name_resolves():
    assert [name for name in demandlab.__all__
            if not hasattr(demandlab, name)] == []


def test_only_marginals_reaches_scipy():
    # every scipy.special call in the package goes through
    # marginals._special, so that a command needing no special function
    # loads no scipy: no other module imports scipy or names _special
    found = []
    for path in sorted(Path(demandlab.__file__).parent.glob("*.py")):
        if path.stem == "marginals":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = [getattr(node, "id", getattr(node, "attr", ""))]
            else:
                continue
            found += [(path.name, node.lineno, name) for name in names
                      if name.split(".")[0] == "scipy"
                      or name == "_special"]
    assert found == []


def _loaded(code: str, modules: list) -> list:
    """Those of ``modules`` that ``code``, run in a fresh interpreter,
    leaves loaded."""
    script = (code + "\nimport json, sys\nprint(json.dumps("
              f"[m for m in {modules!r} if m in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _loads_scipy(code: str) -> bool:
    """Whether ``code``, run in a fresh interpreter, leaves scipy loaded."""
    return _loaded(code, ["scipy"]) == ["scipy"]


def test_import_does_not_load_scipy():
    assert not _loads_scipy("import demandlab")


@pytest.mark.parametrize("command, scenario, loads", [
    ("demand", "high_regime", False),
    ("classify", "high_regime", False),
    ("demand", "product_uniform", False),
    ("classify", "product_uniform", False),
    ("nonid", "twin_markets", False),
    # integer beta shapes take a closed-form cdf and pdf
    ("demand", "independent_betas", False),
    ("classify", "independent_betas", False),
    ("identify", "independent_betas", False),
    # a beta marginal's inverse cdf needs scipy.special
    ("sample", "product_uniform", True),
    ("sample", "independent_betas", True),
])
def test_scipy_loads_only_for_special_functions(tmp_path, command, scenario,
                                                loads):
    argv = [command, "--scenario", str(SCENARIOS / f"{scenario}.json"),
            "--out", str(tmp_path)]
    code = ("from demandlab.cli import main\n"
            f"assert main({argv!r}) == 0")
    assert _loads_scipy(code) is loads


def test_every_error_class_has_a_stderr_prefix():
    # the CLI prints each DemandLabError under its exit code's prefix, so
    # a code without one would crash main with a KeyError
    from demandlab import cli, errors
    classes = [errors.DemandLabError]
    for cls in classes:
        classes += cls.__subclasses__()
    assert set(classes) == {
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.DemandLabError)}
    assert [cls.__name__ for cls in classes
            if cls.exit_code not in cli._PREFIX] == []


def test_worker_threads_do_not_load_scipy():
    # the workers take the caller's scipy.special error state only when
    # scipy is already loaded
    assert not _loads_scipy(
        "from demandlab import workers\n"
        "workers._usable_cpus = lambda: 2\n"
        "workers.run(lambda i: None, 4)")


def test_worker_threads_load_no_executor_or_logging():
    # the helpers are plain threads, started and joined inside the run:
    # concurrent.futures would bring logging, about 2.5 ms per process,
    # and a queue of jobs is not needed
    assert _loaded("import demandlab, threading\n"
                   "from demandlab import workers\n"
                   "workers._usable_cpus = lambda: 2\n"
                   "workers.run(lambda i: None, 4)\n"
                   "assert not [t for t in threading.enumerate()\n"
                   "            if t.name.startswith('demandlab-worker')]",
                   ["concurrent.futures", "logging", "queue"]) == []


def test_table_moments_load_no_numpy_polynomial():
    # a table's moments take the package's own Gauss-Legendre rule
    assert _loaded("import demandlab\n"
                   "demandlab.MarginalSpec.triangular(1.0, 3.0).moment(4)",
                   ["numpy.polynomial", "scipy"]) == []


def test_numpy_ma_loads_only_with_scipy(tmp_path):
    # np.unique and np.union1d import numpy.ma on their first call, and
    # so does scipy.special; the package dedupes with its own helper.  In
    # one interpreter every surface_zoo population is built, then every
    # CLI call on the demo scenarios runs, those that load scipy last:
    # numpy.ma is loaded after a call only if scipy is
    calls = [(command, scenario.stem) for scenario in sorted(
        SCENARIOS.glob("*.json")) for command in ("demand", "classify",
                                                  "nonid", "identify")]
    calls += [("sample", scenario.stem)
              for scenario in sorted(SCENARIOS.glob("*.json"))]
    calls.sort(key=lambda call: call == ("identify", "custom_conditional")
               or call[0] == "sample")
    script = "\n".join([
        "import json, sys",
        "from demandlab.cli import main",
        "from helpers import surface_zoo",
        "surface_zoo()",
        "state = lambda: [m in sys.modules for m in ('numpy.ma', 'scipy')]",
        "print(json.dumps(['build', *state()]))",
        f"for command, scenario in {calls!r}:",
        f"    main([command, '--scenario', f'{SCENARIOS}/{{scenario}}.json',"
        f" '--out', f'{tmp_path}/{{command}}-{{scenario}}'])",
        "    print(json.dumps([command + ' ' + scenario, *state()]))"])
    path = os.pathsep.join((str(PACKAGE_ROOT), str(Path(__file__).parent)))
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    steps = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith('["')]
    assert len(steps) == len(calls) + 1
    assert [step for step, ma, scipy in steps if ma and not scipy] == []
    # the check is not vacuous: scipy stays out of all but the last calls
    assert [step for step, _, scipy in steps if scipy] == [
        f"{command} {scenario}" for command, scenario in calls[-6:]]



def _trees() -> dict:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in
            sorted(Path(demandlab.__file__).parent.glob("*.py"))}


def _reads(tree) -> set:
    """Every name that ``tree`` reads: loaded names and attributes, and
    string constants that are identifiers, since a hook may be called by
    its name (``MixturePopulation._blend``) and ``__all__`` lists names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and not isinstance(node.ctx, ast.Store)):
            out.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out.add(node.value)
    return out


def _imports(tree):
    """(line, module, name bound) of every import in ``tree`` but
    ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            if module != "__future__":
                for alias in node.names:
                    yield (node.lineno, module, alias.name,
                           alias.asname or alias.name.split(".")[0])


def _private_definitions(tree):
    """(line, name) of the underscore-prefixed, non-dunder names that
    ``tree`` defines at module level or as class members."""
    bodies = [tree.body] + [node.body for node in tree.body
                            if isinstance(node, ast.ClassDef)]
    for body in bodies:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [getattr(node.target, "id", "")]
            else:
                continue
            yield from ((node.lineno, name) for name in names
                        if name.startswith("_") and not name.endswith("__"))


def test_no_dead_code():
    # every import is read in its module, and every private name of a
    # module or class is read, or imported by name, in the package
    trees = _trees()
    named = set()
    for tree in trees.values():
        named |= _reads(tree)
        named.update(name for _, module, name, _ in _imports(tree) if module)
    dead = []
    for file, tree in trees.items():
        reads = _reads(tree)
        dead += [(file, line, f"import {bound}")
                 for line, _, _, bound in _imports(tree) if bound not in reads]
        dead += [(file, line, name)
                 for line, name in _private_definitions(tree)
                 if name not in named]
    assert dead == []
