import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corridor_pension

SUBMODULES = ("claim_settlement", "corridor_math", "market_model", "pool_simulator",
              "redistribution_index")


def test_lazy_exports_are_the_submodule_objects():
    # every public name resolves to the very object its submodule exports, and
    # the package exports exactly the union of the submodules' __all__, each of
    # which is its row of the one table, _EXPORTS, and lists every public
    # function and class the submodule defines
    owners = {}
    for name in SUBMODULES:
        module = importlib.import_module(f"corridor_pension.{name}")
        assert getattr(corridor_pension, name) is module
        assert module.__all__ is corridor_pension._EXPORTS[name]
        defined = {
            attr for attr, obj in vars(module).items()
            if not attr.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        }
        assert defined <= set(module.__all__), (name, defined - set(module.__all__))
        owners.update(dict.fromkeys(module.__all__, module))
    assert sorted(corridor_pension.__all__) == sorted(owners)
    listed = dir(corridor_pension)
    for name, module in owners.items():
        assert getattr(corridor_pension, name) is getattr(module, name), name
        assert name in listed, name
    assert corridor_pension.cli is importlib.import_module("corridor_pension.cli")

    namespace = {}
    exec("from corridor_pension import *", namespace)
    for name in corridor_pension.__all__:
        assert namespace[name] is getattr(corridor_pension, name), name

    with pytest.raises(AttributeError, match="no_such_name"):
        corridor_pension.no_such_name


def test_no_assert_statements_in_the_package():
    # invariants raise real exceptions, so they still run under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(corridor_pension.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _sites(match) -> list[str]:
    # "module.py:owner" for each AST node of the package that `match` accepts,
    # the owner being the module-level function or class that holds the node
    found = []
    for path in sorted(Path(corridor_pension.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        tops = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if match(node):
                owners = [f.name for f in tops if f.lineno <= node.lineno <= f.end_lineno]
                found.append(f"{path.name}:{owners[0] if owners else '<module>'}")
    return sorted(found)


def test_one_random_generator_in_the_package():
    # every sampled return comes from one draw loop, market_model._return_blocks
    found = _sites(lambda node: isinstance(node, ast.Attribute)
                   and ast.unparse(node) == "np.random.default_rng")
    assert found == ["market_model.py:_return_blocks"]


def test_returns_are_laid_out_once_in_the_draw_loop():
    # _return_blocks writes each block period-major, the layout the pool kernel
    # runs on, so no other site copies an array into another memory order
    def layout_copy(node):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        return name in ("asfortranarray", "ascontiguousarray") or any(
            kw.arg == "order" for kw in node.keywords)
    assert _sites(lambda node: isinstance(node, ast.Call) and layout_copy(node)) == [
        "market_model.py:_return_blocks"]
    pool_simulator = Path(corridor_pension.__file__).parent / "pool_simulator.py"
    assert "asfortranarray" not in pool_simulator.read_text()


def test_one_scipy_special_loader_in_the_package():
    # market_model._load_ndtr is the one route to scipy.special; every other
    # module takes ndtr and ndtri from market_model
    found = [path.name for path in sorted(Path(corridor_pension.__file__).parent.glob("*.py"))
             if "scipy.special" in path.read_text()]
    assert found == ["market_model.py"]


def test_one_objective_builder_in_the_package():
    # payoff moments become the search objective in corridor_math._objective
    # alone; dp_check scores its constant boundaries with horizon_objective too
    found = _sites(lambda node: isinstance(node, ast.Call)
                   and "horizon_objective" in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None)))
    assert found == ["corridor_math.py:_objective", "corridor_math.py:dp_check"]


def test_one_payoff_evaluator_per_closed_form():
    # m2 and xi are the identities m2_horizon(T = 1) and psi1 at p = 1, so
    # neither builds an evaluator or an objective of its own
    def calls(name):
        return lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    assert _sites(calls("_PayoffMoments")) == [
        f"corridor_math.py:{owner}" for owner in sorted((
            "psi1", "psi2", "profitability_lhs", "_admissible", "_objective", "_grid_rows",
            "dp_check"))]
    assert sorted(set(_sites(calls("_objective")))) == [
        f"corridor_math.py:{owner}" for owner in sorted((
            "m2_horizon", "n_func", "_search", "fixed_point_barriers", "best_response_gain"))]


def test_one_json_writer_in_the_cli():
    # every JSON summary is printed, and written to a file, by cli._emit
    found = _sites(lambda node: isinstance(node, ast.Call)
                   and ast.unparse(node.func) in ("json.dump", "json.dumps"))
    assert [site for site in found if site.startswith("cli.py:")] == ["cli.py:_emit"]


def test_one_threshold_route_in_pool_simulator():
    # pool_simulator and the pool game's closed forms in corridor_math take
    # every threshold from _threshold, on arguments their entries checked
    # once, and call neither checked public entry
    def calls(name):
        return lambda node: isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    found = _sites(calls("z_star")) + _sites(calls("n_func"))
    assert [site for site in found if site.startswith(("corridor_math.py:", "pool_simulator.py:"))] == []
    assert sorted(set(_sites(calls("_threshold")))) == [
        "corridor_math.py:best_response_gain", "corridor_math.py:fixed_point_barriers",
        "corridor_math.py:z_star", "pool_simulator.py:run_path"]


def test_one_ledger_reader_in_pool_simulator():
    # a pool reads its ledger's shares in pool_simulator._share_table alone,
    # once per run, and keeps no functools memo of them
    found = _sites(lambda node: isinstance(node, ast.Call) and "index_for_pool" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))
    assert found == ["pool_simulator.py:_share_table"]
    found = _sites(lambda node: (isinstance(node, ast.alias) and node.name.split(".")[0] == "functools")
                   or (isinstance(node, ast.ImportFrom) and node.module == "functools"))
    assert [site for site in found if site.startswith("pool_simulator.py:")] == []


def test_one_home_per_input_rule():
    # the count and index rules are the package's, beside _EXPORTS, so the
    # numeric modules and the ledger share them without importing each other
    found = _sites(lambda node: (isinstance(node, ast.Name) and node.id == "Integral")
                   or (isinstance(node, ast.alias) and node.name == "Integral"))
    assert found == ["__init__.py:<module>", "__init__.py:_check_count", "__init__.py:_check_index"]
    # corridor_math._check_k is the one refusal of a value outside [0, 1];
    # docstrings name the interval too, so only raise statements count
    found = _sites(lambda node: isinstance(node, ast.Raise) and any(
        isinstance(part, ast.Constant) and "in [0, 1]" in str(part.value)
        for part in ast.walk(node)))
    assert found == ["corridor_math.py:_check_k"]


# the ledger layer: the exact ledger and settlement modules and the exact
# arithmetic they import
_LEDGER = {"redistribution_index", "claim_settlement", "fractions", "decimal"}


def _imported_on_load(body) -> list[str]:
    # the modules the statements of `body` import when their module loads:
    # module level and class bodies, not function bodies nor the
    # `if TYPE_CHECKING:` block, which runs only under a type checker
    names = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            names += _imported_on_load(node.orelse)
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [node.module] if node.module else [alias.name for alias in node.names]
        else:
            names += _imported_on_load([child for child in ast.iter_child_nodes(node)
                                        if isinstance(child, (ast.stmt, ast.excepthandler))])
    return names


def test_numeric_modules_import_no_ledger_code_on_load():
    # the ledger layer loads where a ledger or a claim batch is read, inside
    # the functions that read one, never with the numeric modules or the CLI
    found = {}
    for name in ("cli", "corridor_math", "market_model", "pool_simulator", "redistribution_index"):
        path = Path(corridor_pension.__file__).parent / f"{name}.py"
        imported = _imported_on_load(ast.parse(path.read_text(), str(path)).body)
        found[name] = sorted({module.rpartition(".")[2] for module in imported} & _LEDGER)
    # the ledger module itself shows that the walk sees a module-level import
    assert found == {"cli": [], "corridor_math": [], "market_model": [], "pool_simulator": [],
                     "redistribution_index": ["fractions"]}


def test_each_numeric_layer_imports_only_the_layers_below_on_load():
    # market_model, then corridor_math (every closed form and boundary search),
    # then the pool engine: on load each imports, of the package, its __init__
    # and the modules before it alone, and pool_simulator takes just the policy,
    # the [0, 1] rule and the threshold of run_path's z_star column from
    # corridor_math, so no boundary search loads the engine
    below = {}
    for name in ("market_model", "corridor_math", "pool_simulator"):
        path = Path(corridor_pension.__file__).parent / f"{name}.py"
        tree = ast.parse(path.read_text(), str(path))
        imported = {module.rpartition(".")[2] for module in _imported_on_load(tree.body)}
        below[name] = sorted(imported & {*SUBMODULES, "cli"})
    assert below == {"market_model": [], "corridor_math": ["market_model"],
                     "pool_simulator": ["corridor_math", "market_model"]}
    taken = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and node.module == "corridor_math" for alias in node.names]
    assert sorted(taken) == ["CorridorPolicy", "_check_k", "_threshold"]


def test_numeric_subcommands_load_no_ledger_code(tmp_path):
    # in a fresh interpreter, neither the boundary searches, nor the pool
    # game's closed forms, nor the subcommands that run them load the pool
    # engine or the ledger layer; simulate loads the engine alone, and
    # settling a claim batch loads the ledger layer
    (tmp_path / "batch.json").write_text('{"claims": [4, 6], "indices": [0.5, 0.5], "pool": 5}')
    argvs = [
        ["profitability", "--grid", "101"],
        ["optimize", "--c", "-0.2", "--grid", "101"],
        ["fixed-point", "--grid", "101"],
        ["simulate", "--regime", "AlwaysHelp", "--n", "3", "--T", "4", "--paths", "500"],
        ["settle", "batch.json"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "def loaded():\n"
        "    return sorted(n for n in ('corridor_pension.pool_simulator',\n"
        "                              'corridor_pension.redistribution_index',\n"
        "                              'corridor_pension.claim_settlement', 'fractions', 'decimal')\n"
        "                  if n in sys.modules)\n"
        "import corridor_pension as cp\n"
        "params, policy, eta = cp.GbmParams(0.045, 0.06), cp.CorridorPolicy(alpha=4.0), [1.0, 2.0]\n"
        "cp.admissible_min_k(params, policy)\n"
        "cp.mp_stationary_points(params, policy)\n"
        "cp.maximize_m2(params, policy, grid=101)\n"
        "cp.maximize_m2(params, policy, grid=101, T=20)\n"
        "print(loaded())\n"
        "cp.fixed_point_barriers(params, policy, eta, 0.2, grid=101)\n"
        "cp.best_response_gain(params, policy, eta, 0.2, 0, 0.1)\n"
        "cp.improvement_bound(0, eta, 0.2, policy, params)\n"
        "cp.dp_check(params, policy, 3)\n"
        "cp.z_star([0.1, 0.2], eta, 0.2)\n"
        "print(loaded())\n"
        "from corridor_pension import cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    print(loaded())\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120, check=True)
    *closed_forms, after_simulate, after_settle = proc.stdout.splitlines()
    assert closed_forms == ["[]"] * 5
    assert after_simulate == str(["corridor_pension.pool_simulator"])
    assert after_settle == str(["corridor_pension.claim_settlement", "corridor_pension.pool_simulator",
                                "corridor_pension.redistribution_index", "decimal", "fractions"])
