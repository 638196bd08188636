"""Every exported name resolves: each module's __all__, and every name of
the package's lazy export table, which loads a submodule on first access."""

import ast
import importlib
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import cflat
from child_env import child_env

MODULES = sorted(m.name for m in pkgutil.iter_modules(cflat.__path__))

# the package's public names, by the submodule that defines them
EXPORTS = {
    "numfield": {
        "NumberField", "PrimeIdeal", "ResidueField", "RingElement",
        "make_quadratic_field", "prime_above", "residue_reduce",
    },
    "channel": {
        "BlockFadingChannel", "EquationCandidate", "am_rate", "mac_sum_capacity", "naive_rate",
    },
    "svp": {
        "SVPResult", "best_equation", "best_integer_block", "build_search_basis",
        "shortest_vector",
    },
    "codec": {
        "ConstructionALattice", "NestedCodePair", "build_construction_a", "decode_equation",
        "encode", "simulate_codec", "union_bound",
    },
    "simkit": {"SweepConfig", "SweepResult", "dof_slope", "run_sweep", "sample_channels"},
}  # fmt: skip


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"cflat.{name}")
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert not missing


def test_package_imports_resolve():
    assert sum(map(len, EXPORTS.values())) == 29
    assert set(cflat._SOURCE) == set().union(*EXPORTS.values())
    assert set(cflat.__all__) == set(cflat._SOURCE)
    assert len(cflat.__all__) == len(set(cflat.__all__))
    assert set(cflat.__all__) <= set(dir(cflat))
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"cflat.{module_name}")
        assert getattr(cflat, module_name) is module and module_name in dir(cflat)
        for name in names:
            assert cflat._SOURCE[name] == module_name
            assert hasattr(module, name), f"{module_name}.{name}"
            assert getattr(cflat, name) is getattr(module, name)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'shortest_vectors'"):
        cflat.shortest_vectors
    assert not hasattr(cflat, "_gram_sqrt")
    with pytest.raises(ImportError):
        exec("from cflat import _lll_batch", {})


_FRESH_CHILD = """
import sys
from cflat import make_quadratic_field, prime_above
prime_above(make_quadratic_field(5), 11)
loaded = lambda: sorted(m for m in sys.modules if m.startswith("cflat."))
print(*loaded())
import cflat
print(cflat.svp.shortest_vector is cflat.shortest_vector, *loaded())
cflat.run_sweep
print(*loaded())
from cflat import cli
print(cli.__name__, cli.main is sys.modules["cflat.cli"].main)
star = {}
exec("from cflat import *", star)
star.pop("__builtins__")
print(sorted(star) == sorted(cflat.__all__), len(star))
"""


def test_fresh_interpreter_loads_only_what_it_uses():
    env = child_env()
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_CHILD], capture_output=True, text=True, timeout=60, env=env
    )
    assert out.returncode == 0, out.stderr
    first, svp, swept, cli, star = out.stdout.splitlines()
    assert first.split() == ["cflat.numfield"]
    assert svp.split() == ["True", "cflat.channel", "cflat.numfield", "cflat.svp"]
    assert "cflat.simkit" in swept.split() and "cflat.cli" not in swept.split()
    assert cli == "cflat.cli True"
    assert star == "True 29"


# exported for the relay's one-observation decode, which the README documents
UNCALLED_EXPORTS = {"decode_equation"}


def _read_names(tree, skip=None) -> set:
    """The names and attribute names the syntax tree reads, outside the
    definition named skip: a reference, where an import or an export
    table, which hold the name as a string, is not."""
    names = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return names


def test_every_export_is_run_by_the_program():
    # the library holds what the commands and the benchmark run: a name
    # only the tests call belongs in a test oracle
    src = pathlib.Path(cflat.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in src.glob("*.py")}
    bench = pathlib.Path(__file__).parent.parent / "bench"
    bench_names = set()
    for path in bench.glob("*.py"):
        bench_names |= _read_names(ast.parse(path.read_text(), str(path)))
    assert "simulate_codec" in bench_names
    uncalled = set()
    for name, module in cflat._SOURCE.items():
        read = bench_names.union(
            *(_read_names(tree, name if stem == module else None) for stem, tree in trees.items())
        )
        if name not in read:
            uncalled.add(name)
    assert uncalled == UNCALLED_EXPORTS
