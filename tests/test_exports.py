"""Every exported name resolves: each module's __all__, and every name of
the package's lazy export table, which loads a submodule on first access."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import cflat

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
        "SVPResult", "best_equation", "best_integer_block", "brute_force_shortest",
        "build_search_basis", "minkowski_bound", "shortest_vector",
    },
    "codec": {
        "ConstructionALattice", "NestedCodePair", "build_construction_a", "decode_equation",
        "encode", "enumerate_fine_vectors", "lattice_membership", "product_distance",
        "reduce_mod_coarse", "ring_combine", "simulate_codec", "union_bound",
    },
    "simkit": {"SweepConfig", "SweepResult", "dof_slope", "run_sweep", "sample_channels"},
}  # fmt: skip


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"cflat.{name}")
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert not missing


def test_package_imports_resolve():
    assert sum(map(len, EXPORTS.values())) == 36
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
    src = os.path.dirname(os.path.dirname(cflat.__file__))
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_CHILD], capture_output=True, text=True, timeout=60, env=env
    )
    assert out.returncode == 0, out.stderr
    first, svp, swept, cli, star = out.stdout.splitlines()
    assert first.split() == ["cflat.numfield"]
    assert svp.split() == ["True", "cflat.channel", "cflat.numfield", "cflat.svp"]
    assert "cflat.simkit" in swept.split() and "cflat.cli" not in swept.split()
    assert cli == "cflat.cli True"
    assert star == "True 36"
