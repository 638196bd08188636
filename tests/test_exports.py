"""Every exported name resolves: each module's __all__, and every name of
the package's lazy export table, which loads a submodule on first access."""

import ast
import functools
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
        "encode", "run_codec", "simulate_codec", "union_bound",
    },
    "simkit": {"SweepConfig", "SweepResult", "dof_slope", "run_sweep", "sample_channels"},
}  # fmt: skip


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"cflat.{name}")
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert not missing


def test_package_imports_resolve():
    assert sum(map(len, EXPORTS.values())) == 30
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
    assert star == "True 30"


# exported for the relay's one-observation decode and a sweep's high-SNR
# slope (its degrees of freedom), which the README documents
UNCALLED_EXPORTS = {"decode_equation", "dof_slope"}


@functools.cache
def _program() -> tuple[dict, dict]:
    """The syntax trees of the library and of the benchmark, each {module
    stem: tree}, parsed once for the guards below."""
    src = pathlib.Path(cflat.__file__).parent
    bench = pathlib.Path(__file__).parent.parent / "bench"
    return tuple(
        {path.stem: ast.parse(path.read_text(), str(path)) for path in where.glob("*.py")}
        for where in (src, bench)
    )


def _read_names(tree, skip=None, bare=True) -> set:
    """The names and attribute names the syntax tree reads, outside the
    definition named skip: a reference, where an import or an export
    table, which hold the name as a string, is not.  With bare=False only
    attribute names count, as a class member is read."""
    names = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and bare:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _program_reads(module: str, name: str, bare: bool = True) -> bool:
    """Whether a src or bench tree reads name outside its definition in
    the library module that defines it."""
    src, bench = _program()
    trees = [*bench.values(), *(t for stem, t in src.items() if stem != module)]
    return name in _read_names(src[module], name, bare) or any(
        name in _read_names(t, bare=bare) for t in trees
    )


def test_every_export_is_run_by_the_program():
    # the library holds what the commands and the benchmark run: a name
    # only the tests call belongs in a test oracle
    assert any("simulate_codec" in _read_names(tree) for tree in _program()[1].values())
    uncalled = {name for name, module in cflat._SOURCE.items() if not _program_reads(module, name)}
    assert uncalled == UNCALLED_EXPORTS


# stated quantities of a lattice that nothing in the program reads, each
# with its reason
UNREAD_MEMBERS = {
    "ConstructionALattice.K": "the number q^l_f of coset leaders, which the "
    "codec tests and the enumeration oracle read",
    "ConstructionALattice.vol_fine_unit": "the fine volume q^(T - l_f) disc^(T/2), "
    "which criterion 6 and test_exact_volumes_on_code_grid check",
    "ConstructionALattice.vol_coarse_unit": "the coarse volume q^(T - l_c) "
    "disc^(T/2), which test_exact_volumes_on_code_grid checks",
    "ConstructionALattice.message_rate_bits": "the message rate, which criterion 6 "
    "checks",
}


def _public_members(cls: ast.ClassDef):
    """The names of the class's methods, properties and annotated fields
    that do not start with an underscore (so no dunder either)."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name


def test_every_public_member_is_read_by_the_program():
    # a member only tests read belongs in a test oracle, or nowhere
    src = _program()[0]
    unread = set()
    for name, module in cflat._SOURCE.items():
        for cls in src[module].body:
            if isinstance(cls, ast.ClassDef) and cls.name == name:
                unread |= {
                    f"{name}.{member}"
                    for member in _public_members(cls)
                    if not _program_reads(module, member, bare=False)
                }
    assert unread == set(UNREAD_MEMBERS)


# defaulted parameters no program call passes, each with its reason
UNPASSED_DEFAULTS = {
    ("decode_equation", "dithers"): "the relay's one-observation decode takes the "
    "dithers it removes, and decode_equation has no program caller",
    ("dof_slope", "window"): "the README's degrees-of-freedom slope takes its SNR "
    "window, and dof_slope has no program caller",
}


def _defaulted(fn: ast.FunctionDef) -> dict:
    """{parameter: its position, or None if keyword-only} for each
    parameter of fn that has a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = {a.arg: i for i, a in enumerate(positional) if i >= first}
    for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            out[a.arg] = None
    return out


def _passed(tree, name: str) -> tuple[int, set, bool]:
    """Over the calls of name in the tree, directly or through a wrapper
    that takes it as an argument (timed(f, *args), tr.call(label, f,
    *args)): the most positional arguments, the keywords, and whether a
    *args or **kwargs passes any."""
    most, keywords, splat = 0, set(), False
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Name) and func.id == name) or (
            isinstance(func, ast.Attribute) and func.attr == name
        ):
            args = node.args
        else:
            at = [i for i, a in enumerate(node.args) if isinstance(a, ast.Name) and a.id == name]
            if not at:
                continue
            args = node.args[at[0] + 1 :]
        most = max(most, len(args))
        keywords |= {k.arg for k in node.keywords}
        splat |= any(k.arg is None for k in node.keywords)
        splat |= any(isinstance(a, ast.Starred) for a in args)
    return most, keywords, splat


def test_every_defaulted_parameter_is_passed_by_the_program():
    # a default nothing but a test overrides is a switch only tests use:
    # it belongs in a test oracle, or nowhere
    src, bench = _program()
    trees = [*src.values(), *bench.values()]
    unpassed = set()
    for name, module in cflat._SOURCE.items():
        tree = src[module]
        fn = next((n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name), None)
        if fn is None:
            continue  # a class
        calls = [_passed(t, name) for t in trees]
        for param, position in _defaulted(fn).items():
            if not any(
                splat or param in keywords or (position is not None and most > position)
                for most, keywords, splat in calls
            ):
                unpassed.add((name, param))
    assert unpassed == set(UNPASSED_DEFAULTS)


def test_cli_imports_no_private_codec_name():
    # the codec's calibration and union-bound policy live behind run_codec,
    # so the front end needs none of the codec's private helpers
    imported = {}
    for node in ast.walk(_program()[0]["cli"]):
        if isinstance(node, ast.ImportFrom) and node.module in ("codec", "cflat.codec"):
            imported.update((alias.name, node.lineno) for alias in node.names)
    assert "run_codec" in imported
    private = {name: line for name, line in imported.items() if name.startswith("_")}
    assert not private, f"cli.py imports private codec names (name: line) {private}"
