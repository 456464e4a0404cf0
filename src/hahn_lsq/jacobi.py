"""The continuous constant C_n under the module name the benchmark
imports; bounds.continuous_constant defines it.  Kept only until the
benchmark imports bounds alone, when this module is deleted.
"""

from .bounds import continuous_constant  # noqa: F401
