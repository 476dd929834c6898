"""The packed-monomial kernel used throughout the package.

There is one kernel, the pure-Python ``_kernel_py``.  This module stays as the
single binding point that callers and the benchmark harness go through.  It
holds the one monomial encoding, packed ints, and the one order
implementation: ``impl.Packing`` gives each ring its additive int key for
grevlex or for grevlex after one eliminated slot.  ``impl.normal_form``
reduces against monic generators, taking the largest remaining monomial off
a heap of negated keys at each step; given quotient dicts, it also records
the cofactor of each step, which is how the engine divides with quotients.
``impl.mul_terms`` is the truncated series product; it serves only
``poly.substitute_series``, since the jet equations come from
``jets.expand_ambient``'s closed formula.

``perfbench/`` binds ``BACKEND``, which it records, and counts calls to
``impl.mono_deg``, ``impl.mono_div`` and ``impl.mono_cmp``, so these names
stay; ``mono_div`` has no caller in the package.
``impl.lead_term`` calls ``mono_cmp``, the 3-way comparison of two keys,
through the module global only because ``perfbench/test_harness.py``
asserts ``kernel.mono_cmp.calls > 0``; once a benchmark change drops that
assertion, ``lead_term`` moves onto the key.
"""

from . import _kernel_py as impl

BACKEND = "python"
