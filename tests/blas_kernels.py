"""A Python snippet's output under each OpenBLAS kernel: the check that an
output does not follow the BLAS core type numpy's products run on."""

import subprocess
import sys

from child_env import child_env


def outputs_per_kernel(child_src: str) -> list[str]:
    """The snippet's stdout in child processes under the default kernel and
    the Haswell and Prescott core types (a build with one kernel ignores the
    variable)."""
    outs = []
    for core in (None, "Haswell", "Prescott"):
        env = child_env()
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
