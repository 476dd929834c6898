"""The dense-term kernel used throughout the package.

There is one kernel, the pure-Python ``_kernel_py``.  This module stays as the
single binding point that callers and the benchmark harness (which wraps
``impl.normal_form``, ``impl.mul_terms`` and the monomial helpers, and records
``BACKEND``) go through.
"""

from . import _kernel_py as impl

BACKEND = "python"

GREVLEX = impl.GREVLEX
LEX = impl.LEX
BLOCK = impl.BLOCK
