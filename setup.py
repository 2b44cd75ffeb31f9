"""Build script for the optional compiled accumulation kernel.

The package works without the extension (a pure-Python kernel is selected at
import time), so a missing or failing C compiler only costs speed.
"""

from setuptools import Extension, setup

# -ffp-contract=off forbids FMA contraction inside the compensated sums so the
# compiled kernel stays bit-identical to the pure-Python fallback.  No
# -ffast-math and no -march=native for the same reason: both backends must go
# through plain libm exp with IEEE semantics.
setup(
    ext_modules=[
        Extension(
            "ginikit._kernels",
            ["src/ginikit/_kernels.c"],
            extra_compile_args=["-O2", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
