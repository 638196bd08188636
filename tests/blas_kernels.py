"""A Python snippet's output under each OpenBLAS kernel: the check that an
output does not follow the BLAS core type numpy's products run on."""

import os
import subprocess
import sys

import cflat


def outputs_per_kernel(child_src: str) -> list[str]:
    """The snippet's stdout in child processes under the default kernel and
    the Haswell and Prescott core types (a build with one kernel ignores the
    variable)."""
    src = os.path.dirname(os.path.dirname(cflat.__file__))
    paths = [src, os.environ.get("PYTHONPATH")]
    outs = []
    for core in (None, "Haswell", "Prescott"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        env.pop("OPENBLAS_CORETYPE", None)
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        out = subprocess.run(
            [sys.executable, "-c", child_src],
            capture_output=True, text=True, timeout=120, env=env,
        )  # fmt: skip
        assert out.returncode == 0, out.stderr
        outs.append(out.stdout)
    return outs
