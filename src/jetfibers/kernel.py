"""The dense-term kernel used throughout the package.

There is one kernel, the pure-Python ``_kernel_py``.  This module stays as the
single binding point that callers and the benchmark harness (which wraps
``impl.normal_form``, ``impl.mul_terms`` and the monomial helpers, and records
``BACKEND``) go through.  The kernel also holds the one order implementation:
``impl.mono_cmp`` and the sort keys ``impl.dense_order_key`` and
``impl.descending_order_key`` that the engine uses.  ``impl.normal_form``
reduces against monic generators, taking the largest remaining monomial
off a heap at each step; given quotient dicts, it also records the cofactor
of each step, which is how the engine divides with quotients.
``impl.mul_terms`` is the truncated series product on packed monomials.
"""

from . import _kernel_py as impl

BACKEND = "python"

GREVLEX = impl.GREVLEX
LEX = impl.LEX
BLOCK = impl.BLOCK
