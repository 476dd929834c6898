"""The packed-monomial Groebner kernel.

There is one kernel, the pure-Python ``_kernel_py``, and only the Groebner
engine calls it; no other module packs a monomial.  This module stays as
the single binding point that the engine and the benchmark harness go
through.  It holds the one monomial encoding, packed ints, and the one
order implementation: ``impl.Packing`` gives each ring its additive int key
for grevlex or for grevlex after one eliminated slot.  ``impl.normal_form``
reduces against monic generators, taking the largest remaining monomial off
a heap of negated keys at each step, so its terms come in descending order
and the engine reads each lead off the first term; given quotient dicts, it
also records the cofactor of each step, which is how the engine divides
with quotients.

``perfbench/`` binds five of these names: it records ``BACKEND``, traces
``impl.mul_terms`` and counts calls to ``impl.mono_deg``, ``impl.mono_div``
and ``impl.mono_cmp``.  Only ``mono_deg`` has a caller in the package.
"""

from . import _kernel_py as impl

BACKEND = "python"
